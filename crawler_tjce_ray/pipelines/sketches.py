"""Quantiles and sketch aggregates over the events table.

- ``value_quantiles``: exact per-group quantiles (oracle-checked:
  numpy's linear interpolation ≡ DuckDB ``quantile_cont``).
- ``approx_distinct_users``: HyperLogLog distinct-count — the classic
  mergeable sketch: each batch builds a register array, the combine is
  an elementwise max, so the shuffle carries 2^p bytes per block no
  matter the cardinality (same family as the crawl's cuckoo URL-seen
  filter, SURVEY §2.5).  Error bound pinned in tests (±2σ ≈ 2.6% at
  p=12); rows-only for the driver (estimates are not SQL-equal).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from crawler_tjce_ray.pipelines import exchange as _ex
from crawler_tjce_ray.pipelines.relational import _read

QUANTILES = [0.5, 0.9, 0.99]


HLL_P = 12
HLL_M = 1 << HLL_P


def q_value_quantiles(sf_dir: str):
    """Exact quantiles per event_type.  One shuffle by the small type
    key; per-group numpy quantile (linear interpolation — bit-equal to
    DuckDB ``quantile_cont``).  At 100 TB swap the exact per-group sort
    for a t-digest partial in the map stage; the oracle then becomes a
    tolerance check."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def qt(g: pd.DataFrame) -> pd.DataFrame:
        v = g["value"].to_numpy(dtype=np.float64)  # np.quantile partitions internally
        row = {"event_type": g["event_type"].iloc[0]}
        for q in QUANTILES:
            row[f"p{int(q * 100)}"] = np.quantile(v, q)
        return pd.DataFrame([row])

    out = (
        ds.groupby("event_type").map_groups(qt, batch_format="pandas").to_pandas()
    )
    for q in QUANTILES:
        out[f"p{int(q * 100)}"] = np.round(out[f"p{int(q * 100)}"], 6)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_VALUE_QUANTILES = """
SELECT event_type,
       round(quantile_cont(value, 0.5), 6)  AS p50,
       round(quantile_cont(value, 0.9), 6)  AS p90,
       round(quantile_cont(value, 0.99), 6) AS p99
FROM events GROUP BY event_type ORDER BY event_type
"""


def hll_registers(values) -> np.ndarray:
    """Build one HLL register array (uint8[2^p]) from hashables —
    vectorized end to end: ONE process-stable C siphash pass
    (``pd.util.hash_array``) gives the uint64 stream (an md5 loop per
    value was the sketch stage's hot spot; HLL only needs a uniform
    stable hash, and the ±2σ error bound is pinned in tests), then
    bucket = top p bits, rank = leading zeros of the rest + 1."""
    if len(values) == 0:
        return np.zeros(HLL_M, dtype=np.uint8)
    arr = np.array([str(v) for v in values], dtype=object)
    hashes = pd.util.hash_array(arr)
    buckets = (hashes >> np.uint64(64 - HLL_P)).astype(np.int64)
    rest = (hashes << np.uint64(HLL_P)) | np.uint64((1 << HLL_P) - 1)
    # leading zero count of the remaining 64 bits, +1
    ranks = np.zeros(len(values), dtype=np.uint8)
    mask = np.uint64(1 << 63)
    cur = rest.copy()
    alive = np.ones(len(values), dtype=bool)
    for r in range(1, 64 - HLL_P + 2):
        hit = alive & ((cur & mask) != 0)
        ranks[hit] = r
        alive &= ~hit
        if not alive.any():
            break
        cur = cur << np.uint64(1)
    regs = np.zeros(HLL_M, dtype=np.uint8)
    np.maximum.at(regs, buckets, ranks)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with the small-range (linear counting)
    correction."""
    m = float(HLL_M)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** (-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def q_approx_distinct_users(sf_dir: str):
    """HLL distinct user_id count: per-batch register partials →
    elementwise-max merge on the driver (2^p bytes per block moved,
    independent of cardinality).  Rows-only; the error bound vs the
    exact count is pinned in tests/test_sketches.py."""
    ds = _read(sf_dir, "events", ["user_id"])

    def partial(t: pa.Table) -> pd.DataFrame:
        regs = hll_registers(
            t.column("user_id").to_numpy(zero_copy_only=False))
        return pd.DataFrame({"regs": [regs.tobytes()]})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    merged = np.zeros(HLL_M, dtype=np.uint8)
    for blob in parts["regs"]:
        merged = np.maximum(merged, np.frombuffer(blob, dtype=np.uint8))
    return pd.DataFrame({
        "approx_distinct_users": [int(round(hll_estimate(merged)))]
    })


# ---------------------------------------------------------------------------
# Count-Min sketch heavy hitters
# ---------------------------------------------------------------------------

CMS_D = 4       # hash rows
CMS_W = 2048    # counters per row
CMS_TOPK = 20
CMS_CAND_PER_BATCH = 50


def cms_hash_rows(tokens: np.ndarray) -> np.ndarray:
    """(d, n) int64 column indices — d independent 16-bit slices of
    ONE process-stable C siphash per token (``pd.util.hash_array``;
    the md5-per-token Python loop was the sketch stage's hot spot).
    The d slices of a 64-bit hash are pairwise-independent enough for
    the CMS one-sided bound, which tests pin empirically."""
    arr = np.array([str(t) for t in tokens], dtype=object)
    h = pd.util.hash_array(arr)
    idx = np.empty((CMS_D, len(tokens)), dtype=np.int64)
    for d in range(CMS_D):
        idx[d] = ((h >> np.uint64(16 * d)) & np.uint64(0xFFFF)).astype(
            np.int64) % CMS_W
    return idx


def cms_add(counts: pd.Series) -> np.ndarray:
    """One (d, w) int64 CMS from a token→count series — additive, so
    per-batch partials merge by matrix sum."""
    sk = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    if len(counts) == 0:
        return sk
    idx = cms_hash_rows(counts.index.to_numpy())
    c = counts.to_numpy(dtype=np.int64)
    for d in range(CMS_D):
        np.add.at(sk[d], idx[d], c)
    return sk


def cms_estimate(sk: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Point estimates: min over the d rows (never under-counts)."""
    if len(tokens) == 0:
        return np.zeros(0, dtype=np.int64)
    idx = cms_hash_rows(tokens)
    ests = np.stack([sk[d][idx[d]] for d in range(CMS_D)])
    return ests.min(axis=0)


def _merged_cms(parts: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """The sum of the per-batch CMS partials (``sketch`` bytes) and the
    sorted union of their ``cand`` token lists."""
    sk = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    cands: set[str] = set()
    for blob, cand in zip(parts["sketch"], parts["cand"]):
        sk += np.frombuffer(blob, dtype=np.int64).reshape(CMS_D, CMS_W)
        cands.update(cand)
    return sk, np.array(sorted(cands), dtype=object)


def q_cms_heavy_hitters(sf_dir: str):
    """Heavy hitters via Count-Min sketch — the sketch counterpart of
    the exact ``token_histogram``: each batch emits ONE (d×w) int64
    matrix partial plus its local top candidates; the merge is a
    matrix sum, so shuffle volume is O(blocks × d × w) regardless of
    vocabulary size (the 100-TB path where an exact vocab groupby
    would be the bottleneck).  Estimates are one-sided
    (est ≥ true; est ≤ true + εN w.h.p.) — pinned in
    tests/test_sketches.py; rows-only for the driver."""
    from crawler_tjce_ray.pipelines.textops import _read_docs

    # block-split read (a bare read_parquet of the single-file table
    # would land in ONE block and serialize the sketch stage)
    ds = _read_docs(sf_dir, ["text"])

    def partial(t: pa.Table) -> pd.DataFrame:
        from crawler_tjce_ray.pipelines.textops import tokens_flat

        toks = pd.Series(tokens_flat(t.column("text"))[1], dtype=object)
        counts = toks.value_counts()
        sk = cms_add(counts)
        cand = counts.head(CMS_CAND_PER_BATCH)
        return pd.DataFrame({
            "sketch": [sk.tobytes()],
            "cand": [list(cand.index)],
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    sk, cand_arr = _merged_cms(parts)
    est = cms_estimate(sk, cand_arr)
    out = pd.DataFrame({"token": cand_arr, "est_count": est.astype("int64")})
    out = out.sort_values(["est_count", "token"], ascending=[False, True])
    return out.head(CMS_TOPK).reset_index(drop=True)


# ---------------------------------------------------------------------------
# sketch-guided EXACT heavy hitters (two-pass)
# ---------------------------------------------------------------------------

HH_PHI = 0.03  # heavy = global share ≥ phi of all tokens


def q_heavy_hitters_exact(sf_dir: str):
    """EXACT frequent tokens (global share ≥ ``HH_PHI``) in two
    streaming passes — the sketch-guided counterpart of
    ``cms_heavy_hitters`` whose OUTPUT is exact and therefore
    SQL-oracle-checkable:

    pass 1: each block emits one additive CMS partial plus its
      local-share candidates (every token with local share ≥ phi).  A
      weighted-average/pigeonhole argument makes the candidate union a
      SUPERSET of the true heavy hitters: a token with global share
      ≥ phi must reach share ≥ phi in at least one block.  The merged
      CMS (est ≥ true, one-sided) then PRUNES candidates whose
      estimate is already below the threshold T = ⌈phi·N⌉.
    pass 2: exact counts for the surviving candidates only, through
      ``exchange.aggregate`` — each block ships ≤ |survivors|
      (token, count) rows instead of its whole vocabulary, so the
      exact aggregation costs O(blocks × |survivors|) regardless of
      vocabulary size (the 100-TB path where an exact full-vocab
      groupby is the bottleneck).  Survivors ride task closures here;
      at cluster scale the set goes through ``ray.put`` once."""
    import math

    from crawler_tjce_ray.pipelines.textops import _read_docs, tokens_flat

    ds = _read_docs(sf_dir, ["text"]).materialize()  # two passes

    def partial(t: pa.Table) -> pd.DataFrame:
        toks = pd.Series(tokens_flat(t.column("text"))[1], dtype=object)
        counts = toks.value_counts()
        total = int(counts.sum())
        local = counts[counts >= HH_PHI * total] if total else counts
        return pd.DataFrame({
            "sketch": [cms_add(counts).tobytes()],
            "cand": [list(local.index)],
            "total": [total],
        })

    parts = _ex.to_pandas(ds.map_batches(partial, batch_format="pyarrow"),
                          sketch=object, cand=object, total="int64")
    sk, cand_arr = _merged_cms(parts)
    n_tokens = int(parts["total"].sum())
    threshold = math.ceil(HH_PHI * n_tokens)
    est = cms_estimate(sk, cand_arr)
    survivors = pa.array(sorted(set(cand_arr[est >= threshold])), pa.string())

    def exact(t: pa.Table) -> pa.Table:
        toks = pa.array(tokens_flat(t.column("text"))[1], pa.string())
        return pa.table({"token": toks.filter(
            pc.is_in(toks, value_set=survivors))})

    counts = _ex.aggregate(ds, "token", {"cnt": ("token", "count_all")}, exact)
    return counts[counts["cnt"] >= threshold].reset_index(drop=True)


SQL_HEAVY_HITTERS_EXACT = """
WITH toks AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token
  FROM documents
), tot AS (SELECT count(*) AS n FROM toks)
SELECT token, CAST(count(*) AS BIGINT) AS cnt
FROM toks, tot
GROUP BY token, tot.n
HAVING count(*) >= ceil(0.03 * tot.n)
ORDER BY token
"""


# ---------------------------------------------------------------------------
# equi-width histogram (two-pass: bounds, then additive bin partials)
# ---------------------------------------------------------------------------

HIST_BINS = 16


def q_value_histogram(sf_dir: str):
    """Equi-width histogram of a continuous column in two streaming
    passes: one min/max pass pins the shared bin edges, then
    ``exchange.aggregate`` counts rows per bin — O(blocks × bins)
    partial rows no matter the row count, and the raw values never
    move (the same partial-merge discipline as the CMS/HLL sketches,
    but exact).  Bin arithmetic is plain IEEE-double
    ``floor((v − mn)/w)`` with w = (mx − mn)/bins, clamped to the last
    bin — the identical expression DuckDB evaluates, so the oracle
    needs no tolerance.  NULL and NaN values fall in no bin."""
    ds = _read(sf_dir, "events", ["value"]).materialize()  # two passes
    _, mn, mx = _select_base_stats(ds, _derive_value)
    w = (mx - mn) / HIST_BINS

    def binned(t: pa.Table) -> pa.Table:
        v = pc.cast(t["value"], pa.float64())
        v = v.filter(pc.invert(pc.is_nan(v)))
        b = pc.min_element_wise(
            pc.floor(pc.divide(pc.subtract(v, mn), w)), HIST_BINS - 1.0)
        return pa.table({"bin": pc.cast(b, pa.int64())})

    agg = _ex.aggregate(ds, "bin", {"cnt": ("bin", "count_all")}, binned)
    bins = agg["bin"].to_numpy(np.int64)
    return pd.DataFrame({
        "bin": bins,
        "bin_lo": np.round(mn + bins * w, 6),
        "cnt": agg["cnt"].to_numpy(np.int64),
    })


SQL_VALUE_HISTOGRAM = """
WITH s AS (
  SELECT min(value) AS mn,
         (max(value) - min(value)) / 16 AS w
  FROM events
)
SELECT CAST(LEAST(FLOOR((value - s.mn) / s.w), 15) AS BIGINT) AS bin,
       round(s.mn + LEAST(FLOOR((value - s.mn) / s.w), 15) * s.w, 6)
         AS bin_lo,
       CAST(count(*) AS BIGINT) AS cnt
FROM events, s
GROUP BY 1, 2
ORDER BY 1
"""


# ---------------------------------------------------------------------------
# mergeable quantile summary (the value_quantiles scale path)
# ---------------------------------------------------------------------------

QSK_K = 256  # order statistics kept per (block, group)


def quantile_summary(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One block's summary: ``QSK_K`` evenly spaced order statistics,
    each carrying weight ``n/K`` (all values with weight 1 when the
    block is smaller than K).  Deterministic — no random compaction.

    Error bound: within one block the rank of any value is known to
    ±n_b/(2K); rank errors add across blocks, so a merged estimate
    over N total rows is within ±N/(2K) ranks of exact — a fixed
    ε = 1/(2K) RANK error, independent of value distribution and of
    how rows were split into blocks.  The shuffle carries
    O(blocks × K) pairs no matter the corpus size."""
    v = np.sort(values.astype(np.float64))
    n = len(v)
    if n <= QSK_K:
        return v, np.ones(n, dtype=np.float64)
    pos = ((np.arange(QSK_K) + 0.5) * n / QSK_K).astype(np.int64)
    return v[pos], np.full(QSK_K, n / QSK_K)


def quantile_summary_query(summary_v: np.ndarray, summary_w: np.ndarray,
                           qs: list[float]) -> list[float]:
    """Weighted-quantile lookup over merged (value, weight) pairs."""
    order = np.argsort(summary_v, kind="mergesort")
    v, w = summary_v[order], summary_w[order]
    cw = np.cumsum(w)
    total = cw[-1]
    out = []
    for q in qs:
        i = int(np.searchsorted(cw, q * total, side="left"))
        out.append(float(v[min(i, len(v) - 1)]))
    return out


def q_approx_value_quantiles(sf_dir: str):
    """Approximate per-group quantiles via the mergeable summary —
    the 100-TB form of ``value_quantiles``: per-batch ``groupby`` →
    K weighted order statistics per (block, event_type); the merge
    is a concat + one weighted-quantile pass over O(blocks × K)
    pairs on the driver.  Raw values never shuffle.  Rows-only
    (estimates are not SQL-equal); the ε = 1/(2K) rank bound vs the
    exact quantiles is pinned in tests/test_sketches.py."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for t, g in df.groupby("event_type", sort=True):
            v, w = quantile_summary(g["value"].to_numpy())
            outs.append(pd.DataFrame({"event_type": t, "v": v, "w": w}))
        if not outs:
            return pd.DataFrame({
                "event_type": pd.Series([], dtype=object),
                "v": pd.Series([], dtype=np.float64),
                "w": pd.Series([], dtype=np.float64),
            })
        return pd.concat(outs, ignore_index=True)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    rows = []
    for t, g in parts.groupby("event_type", sort=True):
        est = quantile_summary_query(
            g["v"].to_numpy(), g["w"].to_numpy(), QUANTILES
        )
        rows.append({
            "event_type": t,
            **{f"p{int(q * 100)}": round(e, 6) for q, e in zip(QUANTILES, est)},
        })
    return pd.DataFrame(rows).sort_values("event_type").reset_index(drop=True)


SELECT_QS = [0.25, 0.5, 0.9]
_SELECT_BINS = 256
_SELECT_COLLECT_MAX = 65_536


def _select_edges(lo: float, hi: float) -> np.ndarray:
    """257 shared bin edges with the window bounds pinned exactly."""
    e = np.linspace(lo, hi, _SELECT_BINS + 1)
    e[0], e[-1] = lo, hi
    return e


def _hist_window(v: np.ndarray, e: np.ndarray):
    """Non-zero (bins, counts) plus min/max of the values inside the
    window ``(e[0], e[-1]]`` — None when nothing lands in it.  NaNs
    fail both comparisons and are excluded by construction."""
    v = v[(v > e[0]) & (v <= e[-1])]
    if not len(v):
        return None
    b = np.searchsorted(e, v, side="left") - 1
    c = np.bincount(b, minlength=_SELECT_BINS)
    nz = np.flatnonzero(c)
    return nz, c[nz], float(v.min()), float(v.max())


def _narrow(counts: np.ndarray, edges: np.ndarray, k: int, rank_lo: int):
    """Pick the bin holding rank k: returns the next window
    ``(lo, hi]``, the rank below it, and the in-bin count (the
    collect-threshold signal).  Shared by the global and grouped
    selectors so the rank bookkeeping cannot diverge."""
    cum = rank_lo + np.cumsum(counts)
    sel = int(np.searchsorted(cum, k, side="left"))
    lo, hi = float(edges[sel]), float(edges[sel + 1])
    return lo, hi, (int(cum[sel - 1]) if sel else rank_lo), int(counts[sel])


def _quickselect_multi(
    ds, derive, ks: list[int], n: int, gmin: float, gmax: float
) -> list[float]:
    """Exact k-th smallest (1-based) of ``derive(batch)`` for EVERY
    rank in ``ks`` via iterative histogram refinement, all searches
    advancing SIMULTANEOUSLY: each round broadcasts one window
    ``(lo, hi]`` + 257 shared bin edges per still-active search, and a
    single streaming pass reports 256 additive bin counts (plus the
    window min/max) for each — so a 3-quantile query costs the passes
    of ONE quickselect, not three (driver state O(|ks| × 256)).  The
    bin holding rank k becomes that search's next window — a 256×
    narrowing per pass, so even 10^12 rows reach a collectable window
    in ~4 passes.  An all-ties window short-circuits (min == max →
    that IS the answer); searches whose window holds
    ≤ ``_SELECT_COLLECT_MAX`` values park until one shared filtered
    pass collects every parked window and ``np.partition`` finishes.
    ``derive`` makes the machinery composable over DERIVED columns
    (see ``q_mad_value``) — the derived values are recomputed per
    pass and never stored anywhere.  Per-search decisions are
    IDENTICAL to a sequential run (same histograms over the same
    data), so results are bit-equal to the single-rank form."""
    state = {
        i: {"k": k, "lo": np.nextafter(gmin, -np.inf), "hi": gmax,
            "rank_lo": 0}
        for i, k in enumerate(ks)
    }
    answers: dict[int, float] = {}
    collect: dict[int, tuple] = {}

    def _empty() -> pd.DataFrame:
        return pd.DataFrame({
            "s": pd.Series([], dtype="int64"),
            "bin": pd.Series([], dtype="int64"),
            "c": pd.Series([], dtype="int64"),
            "wmn": pd.Series([], dtype="float64"),
            "wmx": pd.Series([], dtype="float64"),
        })

    while state:
        edges = {i: _select_edges(s["lo"], s["hi"]) for i, s in state.items()}

        def hist(df: pd.DataFrame, _e=edges) -> pd.DataFrame:
            v = derive(df)
            outs = []
            for i, e in _e.items():
                hw = _hist_window(v, e)
                if hw is None:
                    continue
                nz, cnz, wmn, wmx = hw
                outs.append(pd.DataFrame({
                    "s": np.int64(i), "bin": nz.astype("int64"),
                    "c": cnz.astype("int64"),
                    "wmn": np.float64(wmn), "wmx": np.float64(wmx),
                }))
            return pd.concat(outs, ignore_index=True) if outs else _empty()

        parts = ds.map_batches(hist, batch_format="pandas").to_pandas()
        by_s = {i: sub for i, sub in parts.groupby("s")} if len(parts) else {}
        nxt = {}
        for i, s in state.items():
            mine = by_s.get(i)
            counts = np.zeros(_SELECT_BINS, np.int64)
            if mine is not None:
                np.add.at(counts, mine["bin"].to_numpy(np.int64),
                          mine["c"].to_numpy(np.int64))
                if float(mine["wmn"].min()) == float(mine["wmx"].max()):
                    answers[i] = float(mine["wmn"].min())  # all-ties window
                    continue
            lo, hi, rank_lo, in_bin = _narrow(
                counts, edges[i], s["k"], s["rank_lo"]
            )
            if in_bin <= _SELECT_COLLECT_MAX or hi <= np.nextafter(lo, np.inf):
                collect[i] = (lo, hi, s["k"] - rank_lo)
            else:
                nxt[i] = {"k": s["k"], "lo": lo, "hi": hi, "rank_lo": rank_lo}
        state = nxt

    if collect:
        def gather(df: pd.DataFrame, _c=collect) -> pd.DataFrame:
            v = derive(df)
            outs = []
            for i, (lo, hi, _) in _c.items():
                w = v[(v > lo) & (v <= hi)]
                if len(w):
                    outs.append(pd.DataFrame({"s": np.int64(i), "v": w}))
            if not outs:
                return pd.DataFrame({
                    "s": pd.Series([], dtype="int64"),
                    "v": pd.Series([], dtype="float64"),
                })
            return pd.concat(outs, ignore_index=True)

        vals = ds.map_batches(gather, batch_format="pandas").to_pandas()
        for i, sub in vals.groupby("s"):
            kk = collect[i][2]
            v = sub["v"].to_numpy(np.float64)
            answers[i] = float(np.partition(v, kk - 1)[kk - 1])

    return [answers[i] for i in range(len(ks))]


def _quickselect(ds, derive, k: int, n: int, gmin: float, gmax: float) -> float:
    """Single-rank form of ``_quickselect_multi`` (see there)."""
    return _quickselect_multi(ds, derive, [k], n, gmin, gmax)[0]


def _select_base_stats(ds, derive):
    """(n, min, max) of the derived column in one streaming pass."""
    base = _ex.to_pandas(ds.map_batches(
        lambda df: (lambda v: pd.DataFrame({
            "n": [len(v)],
            "mn": [v.min() if len(v) else np.inf],
            "mx": [v.max() if len(v) else -np.inf],
        }))(derive(df)),
        batch_format="pandas",
    ), n="int64", mn="float64", mx="float64")
    if base.empty:  # a fully-empty upstream has no partial
        return 0, float("inf"), float("-inf")
    return int(base["n"].sum()), float(base["mn"].min()), float(base["mx"].max())


def _derive_value(df: pd.DataFrame) -> np.ndarray:
    return df["value"].to_numpy(np.float64)


def q_quantile_select(sf_dir: str):
    """EXACT global quantiles over a continuous column via distributed
    quickselect (``_quickselect``) — the third quantile path in this
    family, and the only exact one whose values NEVER shuffle:
    ``value_quantiles`` sorts each group's values in a shuffle,
    ``approx_value_quantiles`` trades exactness for one pass.

    Rank semantics = DuckDB ``quantile_disc``: the element at 1-based
    rank ⌈q·n⌉ — so the result is bit-identical, no tolerance
    needed.  All three rank searches share each streaming pass
    (``_quickselect_multi``), so the query costs ONE quickselect's
    passes instead of three."""
    import math

    ds = _read(sf_dir, "events", ["value"]).materialize()
    n, gmin, gmax = _select_base_stats(ds, _derive_value)
    ks = [max(1, math.ceil(q * n)) for q in SELECT_QS]
    return pd.DataFrame({
        "q": pd.Series(SELECT_QS, dtype="float64"),
        "value": _quickselect_multi(ds, _derive_value, ks, n, gmin, gmax),
    })


SQL_QUANTILE_SELECT = """
SELECT 0.25 AS q, quantile_disc(value, 0.25) AS value FROM events
UNION ALL
SELECT 0.5 AS q, quantile_disc(value, 0.5) AS value FROM events
UNION ALL
SELECT 0.9 AS q, quantile_disc(value, 0.9) AS value FROM events
ORDER BY q
"""


def q_mad_value(sf_dir: str):
    """Median absolute deviation — the robust spread statistic for
    outlier gates — as a COMPOSITION of two distributed quickselects:
    the median of ``value``, then the median of ``|value − median|``
    where the deviation column is DERIVED per batch inside the second
    selection's passes (it never exists as stored data, so nothing is
    written or shuffled between the two selections).  Both selections
    are bit-exact discrete picks (``quantile_disc`` rank semantics),
    so the oracle needs no tolerance."""
    import math

    ds = _read(sf_dir, "events", ["value"]).materialize()
    n, gmin, gmax = _select_base_stats(ds, _derive_value)
    k = max(1, math.ceil(0.5 * n))
    med = _quickselect(ds, _derive_value, k, n, gmin, gmax)

    def derive_dev(df: pd.DataFrame, _m=med) -> np.ndarray:
        return np.abs(df["value"].to_numpy(np.float64) - _m)

    # deviation bounds come free from (gmin, gmax, med) — 0 is always
    # attained (the median IS an element) and |v−med| is maximised at
    # a corpus extreme, so no extra stats pass is needed
    dmax = max(abs(gmin - med), abs(gmax - med))
    mad = _quickselect(ds, derive_dev, k, n, 0.0, dmax)
    return pd.DataFrame({"median_value": [med], "mad_value": [mad]})


SQL_MAD_VALUE = """
WITH m AS (SELECT quantile_disc(value, 0.5) AS med FROM events)
SELECT m.med AS median_value,
       quantile_disc(abs(events.value - m.med), 0.5) AS mad_value
FROM events, m GROUP BY m.med
"""


# driver-state ceiling (BASELINE.md table): per-group search state is
# one 256-bin histogram window + scalars ≈ 2.1 KB → ~2 GB at the
# ceiling; beyond it, hash-bucket the groups and select per bucket
SELECT_MAX_DRIVER_GROUPS = 1_000_000


def _grouped_quantile_select(
    sf_dir: str, q: float, *, ds=None,
    group_col: str = "event_type", value_col: str = "value",
) -> dict[str, float]:
    """EXACT per-group ``quantile_disc(q)`` over a continuous column
    with NO value shuffle — the grouped form of ``_quickselect``:
    every group's rank-k search (k = ceil(q·n), 1-based) advances
    SIMULTANEOUSLY, so each streaming pass serves all still-active
    groups at once (driver state O(groups × 256), passes bounded by
    the SLOWEST group's narrowing, not the group count).
    ``value_quantiles`` answers the same question by shuffling each
    group's raw values; this path is the one that survives groups too
    large to sort in one task."""
    import math

    if ds is None:
        ds = _read(sf_dir, "events", ["event_type", "value"]).materialize()

    base = ds.map_batches(
        lambda df: df.groupby(group_col, as_index=False).agg(
            # 'count', not 'size': NaNs are excluded from the rank
            # space (the histogram comparisons drop them), so n must
            # count only comparable values to stay quantile_disc-exact
            n=(value_col, "count"), mn=(value_col, "min"), mx=(value_col, "max"),
        ),
        batch_format="pandas",
    ).to_pandas().groupby(group_col).agg(
        n=("n", "sum"), mn=("mn", "min"), mx=("mx", "max"),
    )
    if len(base) > SELECT_MAX_DRIVER_GROUPS:
        raise ValueError(
            f"grouped quantile select holds ~2.1 KB of driver search "
            f"state per group and got {len(base)} groups, over the "
            f"documented {SELECT_MAX_DRIVER_GROUPS:,} ceiling "
            f"(BASELINE.md driver-state table); hash-bucket the groups "
            f"and run the multi-select per bucket past this size")

    # per-group search state (all-NaN groups have no rankable values)
    state = {
        g: {
            "k": max(1, math.ceil(q * int(r["n"]))),
            "lo": np.nextafter(float(r["mn"]), -np.inf),
            "hi": float(r["mx"]),
            "rank_lo": 0,
        }
        for g, r in base.iterrows() if int(r["n"]) > 0
    }
    answers: dict[str, float] = {}
    collect: dict[str, tuple] = {}

    while state:
        edges = {g: _select_edges(s["lo"], s["hi"]) for g, s in state.items()}

        def hist(df: pd.DataFrame, _e=edges) -> pd.DataFrame:
            outs = []
            for g, sub in df.groupby(group_col):
                if g not in _e:
                    continue
                hw = _hist_window(sub[value_col].to_numpy(np.float64), _e[g])
                if hw is None:
                    continue
                nz, cnz, wmn, wmx = hw
                outs.append(pd.DataFrame({
                    "g": g, "bin": nz.astype("int64"),
                    "c": cnz.astype("int64"),
                    "wmn": np.float64(wmn), "wmx": np.float64(wmx),
                }))
            if not outs:
                # "string", not object: Ray's block size estimator
                # chokes (benign but noisy) on size-0 object columns
                return pd.DataFrame({
                    "g": pd.Series([], dtype="string"),
                    "bin": pd.Series([], dtype="int64"),
                    "c": pd.Series([], dtype="int64"),
                    "wmn": pd.Series([], dtype="float64"),
                    "wmx": pd.Series([], dtype="float64"),
                })
            cat = pd.concat(outs, ignore_index=True)
            cat["g"] = cat["g"].astype("string")
            return cat

        parts = ds.map_batches(hist, batch_format="pandas").to_pandas()
        by_g = {g: sub for g, sub in parts.groupby("g")} if len(parts) else {}
        nxt = {}
        for g, s in state.items():
            mine = by_g.get(g)
            counts = np.zeros(_SELECT_BINS, np.int64)
            if mine is not None:
                np.add.at(counts, mine["bin"].to_numpy(np.int64),
                          mine["c"].to_numpy(np.int64))
                if float(mine["wmn"].min()) == float(mine["wmx"].max()):
                    answers[g] = float(mine["wmn"].min())  # all ties
                    continue
            lo, hi, rank_lo, in_bin = _narrow(
                counts, edges[g], s["k"], s["rank_lo"]
            )
            if in_bin <= _SELECT_COLLECT_MAX \
                    or hi <= np.nextafter(lo, np.inf):
                collect[g] = (lo, hi, s["k"] - rank_lo)
            else:
                nxt[g] = {"k": s["k"], "lo": lo, "hi": hi, "rank_lo": rank_lo}
        state = nxt

    if collect:
        cref_edges = collect

        def gather(df: pd.DataFrame, _c=cref_edges) -> pd.DataFrame:
            outs = []
            for g, sub in df.groupby(group_col):
                if g not in _c:
                    continue
                lo, hi, _ = _c[g]
                v = sub[value_col].to_numpy(np.float64)
                v = v[(v > lo) & (v <= hi)]
                if len(v):
                    outs.append(pd.DataFrame({"g": g, "v": v}))
            if not outs:
                return pd.DataFrame({
                    "g": pd.Series([], dtype="string"),
                    "v": pd.Series([], dtype="float64"),
                })
            cat = pd.concat(outs, ignore_index=True)
            cat["g"] = cat["g"].astype("string")
            return cat

        vals = ds.map_batches(gather, batch_format="pandas").to_pandas()
        for g, sub in vals.groupby("g"):
            kk = collect[g][2]
            v = sub["v"].to_numpy(np.float64)
            answers[g] = float(np.partition(v, kk - 1)[kk - 1])

    return answers


def q_grouped_median_select(sf_dir: str):
    """Per-group exact median (``_grouped_quantile_select`` at 0.5)."""
    answers = _grouped_quantile_select(sf_dir, 0.5)
    return pd.DataFrame({
        "event_type": sorted(answers),
        "median_value": [answers[g] for g in sorted(answers)],
    }).reset_index(drop=True)


def q_grouped_p90_select(sf_dir: str):
    """Per-group exact 90th percentile — the tail-latency quantile —
    from the same simultaneous-quickselect engine as the grouped
    median; only the target rank differs (k = ceil(0.9·n))."""
    answers = _grouped_quantile_select(sf_dir, 0.9)
    return pd.DataFrame({
        "event_type": sorted(answers),
        "p90_value": [answers[g] for g in sorted(answers)],
    }).reset_index(drop=True)


SQL_GROUPED_MEDIAN_SELECT = """
SELECT event_type, quantile_disc(value, 0.5) AS median_value
FROM events GROUP BY event_type ORDER BY event_type
"""

SQL_GROUPED_P90_SELECT = """
SELECT event_type, quantile_disc(value, 0.9) AS p90_value
FROM events GROUP BY event_type ORDER BY event_type
"""


def q_lorenz_deciles(sf_dir: str):
    """Lorenz curve by spend decile: customers bucketed into ten
    value-threshold deciles of lifetime spend (thresholds are EXACT
    ``quantile_disc`` ranks from the shared-pass distributed
    quickselect, so all nine resolve in one quickselect's streaming
    passes), with each decile's customer count, revenue and cumulative
    revenue share — the banded view of ``concentration_stats``'s
    single Gini number.

    Shape: per-batch integer-cent spend partials → one custkey-bucket
    exchange finalizes per-customer spend (materialized, bounded by
    #customers) → ``_quickselect_multi`` finds the nine thresholds →
    one more streaming pass emits additive (decile, n, cents)
    partials against the broadcast thresholds.  Ties share a decile
    by construction (decile = 1 + #thresholds strictly below), so the
    banding is value-deterministic, never row-order dependent."""
    import math

    from crawler_tjce_ray.pipelines.relational import _nb_rows, _spend_partial

    nb = _nb_rows(sf_dir, "orders")  # row-carrying exchange

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("custkey", as_index=False)["spend_c"].sum()
        return out.astype({"custkey": "int64", "spend_c": "int64"})

    per_cust = _ex.shuffle(orders, "custkey", nb, finalize,
                           combine=_spend_partial).materialize()

    def derive(df: pd.DataFrame) -> np.ndarray:
        # cents are < 2^53, so the float64 detour is exact
        return df["spend_c"].to_numpy(np.float64)

    n, gmin, gmax = _select_base_stats(per_cust, derive)
    ks = [max(1, math.ceil(i / 10.0 * n)) for i in range(1, 10)]
    thr = np.array(_quickselect_multi(per_cust, derive, ks, n, gmin, gmax))

    def decile_partial(df: pd.DataFrame) -> pd.DataFrame:
        sp = df["spend_c"].to_numpy(np.int64)
        dec = 1 + np.searchsorted(thr, sp.astype(np.float64), side="left")
        out = pd.DataFrame({"decile": dec.astype("int64"), "spend_c": sp})
        return out.groupby("decile", as_index=False).agg(
            n=("spend_c", "size"), cents=("spend_c", "sum"))

    parts = per_cust.map_batches(
        decile_partial, batch_format="pandas").to_pandas()
    agg = parts.groupby("decile", as_index=False).sum() \
        .sort_values("decile").reset_index(drop=True)
    tot = int(agg["cents"].sum())
    cum = agg["cents"].cumsum()
    return pd.DataFrame({
        "decile": agg["decile"].astype("int64"),
        "n_customers": agg["n"].astype("int64"),
        "revenue": agg["cents"].astype("int64").to_numpy(np.float64) / 100.0,
        "cum_share": (cum.to_numpy(np.float64) / tot).round(6),
    })


SQL_LORENZ_DECILES = """
WITH s AS (
  SELECT o_custkey,
         SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS spend_c
  FROM orders GROUP BY 1
), t AS (
  SELECT quantile_disc(spend_c, 0.1) AS t1, quantile_disc(spend_c, 0.2) AS t2,
         quantile_disc(spend_c, 0.3) AS t3, quantile_disc(spend_c, 0.4) AS t4,
         quantile_disc(spend_c, 0.5) AS t5, quantile_disc(spend_c, 0.6) AS t6,
         quantile_disc(spend_c, 0.7) AS t7, quantile_disc(spend_c, 0.8) AS t8,
         quantile_disc(spend_c, 0.9) AS t9
  FROM s
), d AS (
  SELECT spend_c,
         1 + CAST(spend_c > t.t1 AS INT) + CAST(spend_c > t.t2 AS INT)
           + CAST(spend_c > t.t3 AS INT) + CAST(spend_c > t.t4 AS INT)
           + CAST(spend_c > t.t5 AS INT) + CAST(spend_c > t.t6 AS INT)
           + CAST(spend_c > t.t7 AS INT) + CAST(spend_c > t.t8 AS INT)
           + CAST(spend_c > t.t9 AS INT) AS decile
  FROM s CROSS JOIN t
)
SELECT CAST(decile AS BIGINT) AS decile,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       SUM(spend_c) / 100.0 AS revenue,
       ROUND(CAST(SUM(SUM(spend_c)) OVER (ORDER BY decile) AS DOUBLE)
             / (SELECT SUM(spend_c) FROM s), 6) AS cum_share
FROM d GROUP BY decile ORDER BY decile
"""



def q_grouped_mad_value(sf_dir: str):
    """Per-group median absolute deviation — the robust outlier gate
    ``mad_value`` computes globally, HERE per event_type: the grouped
    quickselect finds every group's median simultaneously, then a
    second grouped selection runs over the DERIVED column
    |value − median(group)| (the per-group medians broadcast in the
    deriving closure; the deviation column exists only inside the
    second search's streaming passes — values never shuffle in either
    stage).  Both picks are quantile_disc-exact, so the oracle needs
    no tolerance."""
    ds = _read(sf_dir, "events", ["event_type", "value"]).materialize()
    med = _grouped_quantile_select(sf_dir, 0.5, ds=ds)

    def add_dev(df: pd.DataFrame) -> pd.DataFrame:
        m = df["event_type"].map(med).to_numpy(np.float64)
        return pd.DataFrame({
            "event_type": df["event_type"],
            "dev": np.abs(df["value"].to_numpy(np.float64) - m),
        })

    dev_ds = ds.map_batches(add_dev, batch_format="pandas")
    mad = _grouped_quantile_select(sf_dir, 0.5, ds=dev_ds, value_col="dev")
    groups = sorted(med)
    return pd.DataFrame({
        "event_type": pd.Series(groups, dtype=object),
        "median_value": [med[g] for g in groups],
        "mad_value": [mad[g] for g in groups],
    })


SQL_GROUPED_MAD_VALUE = """
WITH m AS (
  SELECT event_type, quantile_disc(value, 0.5) AS med
  FROM events GROUP BY event_type
)
SELECT e.event_type, m.med AS median_value,
       quantile_disc(abs(e.value - m.med), 0.5) AS mad_value
FROM events e JOIN m USING (event_type)
GROUP BY e.event_type, m.med ORDER BY e.event_type
"""



def q_winsorized_value_stats(sf_dir: str):
    """Winsorized moments: the event ``value`` column clipped at its
    exact p05/p95 (``quantile_disc`` picks from ONE shared-pass
    distributed quickselect), then count/mean of the clipped column —
    the robust-stats preprocessing step (outliers saturate instead of
    dominating).  The clipped values snap to integer micro-units
    (floor(x·10⁶ + 0.5), identical IEEE ops both engines) so the sum
    is an order-independent int64 and the mean an exact ratio,
    rounded to 6 dp."""
    import math

    ds = _read(sf_dir, "events", ["value"]).materialize()
    n, gmin, gmax = _select_base_stats(ds, _derive_value)
    ks = [max(1, math.ceil(0.05 * n)), max(1, math.ceil(0.95 * n))]
    lo, hi = _quickselect_multi(ds, _derive_value, ks, n, gmin, gmax)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(np.float64)
        w = np.clip(v, lo, hi)
        micro = np.floor(w * 1e6 + 0.5).astype(np.int64)
        return pd.DataFrame({
            "n": [len(v)],
            "s": [int(micro.sum())],
            "n_lo": [int((v < lo).sum())],
            "n_hi": [int((v > hi).sum())],
        })

    p = ds.map_batches(partial, batch_format="pandas").to_pandas().sum()
    nn = int(p["n"])
    return pd.DataFrame({
        "n": pd.Series([nn], dtype="int64"),
        "p05": [lo], "p95": [hi],
        "clipped_low": pd.Series([int(p["n_lo"])], dtype="int64"),
        "clipped_high": pd.Series([int(p["n_hi"])], dtype="int64"),
        "winsorized_mean": [round(int(p["s"]) / nn / 1e6, 6) if nn else 0.0],
    })


SQL_WINSORIZED_VALUE_STATS = """
WITH t AS (
  SELECT quantile_disc(value, 0.05) AS lo, quantile_disc(value, 0.95) AS hi
  FROM events
), w AS (
  SELECT CAST(FLOOR(least(greatest(value, t.lo), t.hi) * 1e6 + 0.5)
              AS BIGINT) AS micro,
         (value < t.lo) AS is_lo, (value > t.hi) AS is_hi
  FROM events CROSS JOIN t
)
SELECT CAST(COUNT(*) AS BIGINT) AS n,
       t.lo AS p05, t.hi AS p95,
       CAST(COUNT(*) FILTER (is_lo) AS BIGINT) AS clipped_low,
       CAST(COUNT(*) FILTER (is_hi) AS BIGINT) AS clipped_high,
       ROUND(CAST(SUM(micro) AS DOUBLE) / COUNT(*) / 1e6, 6)
         AS winsorized_mean
FROM w CROSS JOIN t GROUP BY t.lo, t.hi
"""


QUERIES = {
    "value_quantiles": q_value_quantiles,
    "lorenz_deciles": q_lorenz_deciles,
    "approx_value_quantiles": q_approx_value_quantiles,
    "approx_distinct_users": q_approx_distinct_users,
    "cms_heavy_hitters": q_cms_heavy_hitters,
    "heavy_hitters_exact": q_heavy_hitters_exact,
    "value_histogram": q_value_histogram,
    "quantile_select": q_quantile_select,
    "mad_value": q_mad_value,
    "grouped_median_select": q_grouped_median_select,
    "grouped_mad_value": q_grouped_mad_value,
    "winsorized_value_stats": q_winsorized_value_stats,
    "grouped_p90_select": q_grouped_p90_select,
}

ORACLE_SQL = {
    "value_quantiles": SQL_VALUE_QUANTILES,
    "lorenz_deciles": SQL_LORENZ_DECILES,
    "heavy_hitters_exact": SQL_HEAVY_HITTERS_EXACT,
    "value_histogram": SQL_VALUE_HISTOGRAM,
    "quantile_select": SQL_QUANTILE_SELECT,
    "mad_value": SQL_MAD_VALUE,
    "grouped_median_select": SQL_GROUPED_MEDIAN_SELECT,
    "grouped_mad_value": SQL_GROUPED_MAD_VALUE,
    "winsorized_value_stats": SQL_WINSORIZED_VALUE_STATS,
    "grouped_p90_select": SQL_GROUPED_P90_SELECT,
}
