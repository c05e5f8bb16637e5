"""Synthetic star-schema tables for the ``query_mix`` workload.

The tables have the column names, types and value ranges of the
engine's test tables (a TPC-H-like star schema plus ``events``,
``documents`` and ``embeddings``), at about 1/100 of TPC-H scale factor
1: 60k lineitem rows.  Generation is a pure function of ``seed`` and
runs with NumPy on the driver in about a second; the files are written
once per checkout and reused.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part",
          "orders", "lineitem", "events", "documents", "embeddings"]

DATA_SEED = 42
SIZES = dict(customer=1500, supplier=100, part=2000, orders=15000,
             lineitem=60000, events=10000, users=150, documents=500,
             embeddings=500)

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PART_ADJ = ["small", "large", "red", "blue", "hot", "cold", "old", "new"]
_PART_NOUN = ["ring", "widget", "bolt", "gear", "plate", "rod", "anvil", "gizmo"]
_PART_TYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
_LANGS = ["en", "en", "zh", "es", "fr", "de", "en"]
_WORDS = ("a the join hash row batch scan column customer filter small slow "
          "merge order vector line table data agg value key stream window "
          "spark part group big sort query fast").split()


def _days(rng, start: str, n_days: int, n: int) -> np.ndarray:
    return (np.datetime64(start, "us")
            + rng.integers(0, n_days, n).astype("timedelta64[D]")).astype("datetime64[us]")


def _money(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def build_tables(seed: int = DATA_SEED) -> dict[str, pd.DataFrame]:
    rng = np.random.default_rng(seed)
    s = SIZES
    i32 = np.int32
    out: dict[str, pd.DataFrame] = {}
    out["region"] = pd.DataFrame({
        "r_regionkey": np.arange(5, dtype=i32), "r_name": _REGIONS})
    out["nation"] = pd.DataFrame({
        "n_nationkey": np.arange(25, dtype=i32),
        "n_name": [f"NATION_{i}" for i in range(25)],
        "n_regionkey": (np.arange(25) % 5).astype(i32)})
    n = s["customer"]
    out["customer"] = pd.DataFrame({
        "c_custkey": np.arange(n, dtype=np.int64),
        "c_name": [f"Customer#{i:09d}" for i in range(n)],
        "c_nationkey": rng.integers(0, 25, n).astype(i32),
        "c_acctbal": _money(rng, -999.99, 9999.99, n),
        "c_mktsegment": rng.choice(_SEGMENTS, n)})
    n = s["supplier"]
    out["supplier"] = pd.DataFrame({
        "s_suppkey": np.arange(n, dtype=np.int64),
        "s_name": [f"Supplier#{i:09d}" for i in range(n)],
        "s_nationkey": rng.integers(0, 25, n).astype(i32),
        "s_acctbal": _money(rng, -999.99, 9999.99, n)})
    n = s["part"]
    out["part"] = pd.DataFrame({
        "p_partkey": np.arange(n, dtype=np.int64),
        "p_name": [f"{a} {b}" for a, b in zip(rng.choice(_PART_ADJ, n),
                                              rng.choice(_PART_NOUN, n))],
        "p_brand": [f"Brand#{k}" for k in rng.integers(1, 26, n)],
        "p_type": rng.choice(_PART_TYPES, n),
        "p_size": rng.integers(1, 51, n).astype(i32),
        "p_retailprice": np.round(900 + (np.arange(n) % 1000) / 10, 1)})
    n = s["orders"]
    out["orders"] = pd.DataFrame({
        "o_orderkey": np.arange(n, dtype=np.int64),
        "o_custkey": rng.integers(0, s["customer"], n).astype(np.int64),
        "o_orderstatus": rng.choice(["F", "O", "P"], n),
        "o_totalprice": _money(rng, 1000, 500000, n),
        "o_orderdate": _days(rng, "1995-01-01", 2400, n),
        "o_orderpriority": rng.choice(_PRIORITIES, n)})
    n = s["lineitem"]
    out["lineitem"] = pd.DataFrame({
        "l_orderkey": rng.integers(0, s["orders"], n).astype(np.int64),
        "l_partkey": rng.integers(0, s["part"], n).astype(np.int64),
        "l_suppkey": rng.integers(0, s["supplier"], n).astype(np.int64),
        "l_linenumber": rng.integers(1, 8, n).astype(i32),
        "l_quantity": rng.integers(1, 51, n).astype(np.float64),
        "l_extendedprice": _money(rng, 900, 105000, n),
        "l_discount": rng.integers(0, 11, n) / 100,
        "l_tax": rng.integers(0, 9, n) / 100,
        "l_returnflag": rng.choice(["A", "N", "R"], n),
        "l_linestatus": rng.choice(["F", "O"], n),
        "l_shipdate": _days(rng, "1995-01-02", 2500, n)})
    n = s["events"]
    gaps = rng.integers(1, 2 * 30 * 86400 * 10**6 // n, n)
    out["events"] = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": np.datetime64("2024-01-01", "us") + np.cumsum(gaps).astype("timedelta64[us]"),
        "user_id": rng.integers(0, s["users"], n).astype(np.int64),
        "event_type": rng.choice(_EVENT_TYPES, n),
        "value": np.maximum(0.01, np.round(rng.exponential(50, n), 2)),
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n)]})
    n = s["documents"]
    texts: list[str] = []
    for i in range(n):
        if i > 10 and rng.random() < 0.05:  # near-duplicate of an earlier doc
            texts.append(texts[int(rng.integers(0, i))] + " dup")
        else:
            texts.append(" ".join(rng.choice(_WORDS, int(rng.integers(10, 100)))))
    out["documents"] = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": texts,
        "lang": [_LANGS[i % len(_LANGS)] for i in range(n)],
        "source": [f"src{i % 20}" for i in range(n)],
        "n_chars": np.array([len(t) for t in texts], dtype=np.int64)})
    n = s["embeddings"]
    labels = rng.integers(0, 10, n)
    centers = rng.normal(0, 1, (10, 64))
    vecs = centers[labels] + rng.normal(0, 0.8, (n, 64))
    vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).astype(np.float32)
    out["embeddings"] = pd.DataFrame({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": list(vecs),
        "label": labels.astype(i32)})
    return out


def ensure_tables(root: str, seed: int = DATA_SEED) -> str:
    """Write the tables under ``root/sf_s<seed>`` once (a ``_SUCCESS``
    marker guards against a half-written directory) and return it."""
    out = os.path.join(root, f"sf_s{seed}")
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    for name, df in build_tables(seed).items():
        df.to_parquet(os.path.join(out, f"{name}.parquet"), index=False)
    with open(os.path.join(out, "_SUCCESS"), "w") as f:
        f.write("ok\n")
    return out
