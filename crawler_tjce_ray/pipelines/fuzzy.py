"""Fuzzy string matching (record linkage): edit-distance self-join over
the distinct ``customer.c_name`` values via SymSpell-style
deletion-neighborhood blocking.

The reference normalizes entity names only by exact slug (M8); a
training-data pipeline additionally needs *approximate* name joins —
near-duplicate entity records, OCR'd identifiers, user-typed lookups —
which no exact hash join can express.  This module supplies the
scalable recipe:

Scale design (10⁹ distinct names):
- **Blocking**: for every name ``x`` emit the key set ``K(x) = {x} ∪
  del1(x)`` (the name plus each single-character deletion).  For any
  pair with ``levenshtein(a, b) <= 1`` and ``a != b``, ``K(a) ∩ K(b)``
  is non-empty (a substitution shares the deletion at the differing
  position; an insertion makes the shorter name itself a deletion of
  the longer one), so ONE ``exchange.shuffle`` on the key, of
  O(n · len) small rows, co-locates every true match — no O(n²) pass
  anywhere.
- **Candidate dedup**: a pair can share several keys; a second
  shuffle on the pair key ``name_a + "\\x00" + name_b`` collapses
  duplicates before verification.
- **Verification** is vectorized per (len_a, len_b) class with NumPy
  byte matrices (mismatch counting for equal lengths, the
  first-mismatch/suffix-shift trick for length-±1), because a shared
  deletion key only bounds the distance by 2.  A scalar fallback
  handles non-ASCII rows.
- Bucket sizes are bounded by the alphabet (≤ |Σ|·len names insert
  into one key), so no hot-key salt is needed; extending to distance
  ≤ 2 means emitting del≤2 neighborhoods — same plan, bigger constant.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

MAX_EDIT = 1  # del1 neighborhood ⇔ levenshtein <= 1


def _read_names(sf_dir: str):
    from crawler_tjce_ray.pipelines.exchange import scan

    return scan(f"{sf_dir}/customer.parquet", ["c_name"])


def _empty_pairs() -> pd.DataFrame:
    # pandas "string" dtype (not object) so Ray's block-size estimator
    # never sees a size-0 object column (it warns on those)
    return pd.DataFrame({
        "name_a": pd.Series([], dtype="string"),
        "name_b": pd.Series([], dtype="string"),
    })


def _deletion_keys(df: pd.DataFrame) -> pd.DataFrame:
    """(key, name) rows for K(name) = {name} ∪ del1(name), vectorized
    per deletion position (the loop is over string length, not rows)."""
    names = df["name"].astype(object)
    outs = [pd.DataFrame({"key": names, "name": names})]
    if len(names):
        s = names.astype("string")
        max_len = int(s.str.len().max())
        for i in range(max_len):
            sub = s[s.str.len() > i]
            if len(sub):
                outs.append(pd.DataFrame({
                    "key": (sub.str.slice(0, i) + sub.str.slice(i + 1)).astype(object),
                    "name": sub.astype(object),
                }))
    out = pd.concat(outs, ignore_index=True)
    return out if len(out) else pd.DataFrame({
        "key": pd.Series([], dtype="string"),
        "name": pd.Series([], dtype="string"),
    })


def _lev_le1_scalar(a: str, b: str) -> bool:
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) <= 1
    if la < lb:
        a, b, la, lb = b, a, lb, la
    # a is longer by 1: b must equal a with one char removed
    i = 0
    while i < lb and a[i] == b[i]:
        i += 1
    return a[i + 1:] == b[i:]


def _byte_mat(s: pd.Series, width: int) -> np.ndarray | None:
    """Rows of ``s`` (all ``len == width``) as a uint8 matrix; ``None``
    when any row is non-ASCII (the scalar path takes over)."""
    joined = "".join(s.tolist()).encode("utf-8")
    if len(joined) != len(s) * width:
        return None
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(s), width)


def _verify_equal_len(a: pd.Series, b: pd.Series, width: int) -> np.ndarray:
    am, bm = _byte_mat(a, width), _byte_mat(b, width)
    if am is None or bm is None:
        return np.array([_lev_le1_scalar(x, y) for x, y in zip(a, b)], bool)
    return (am != bm).sum(axis=1) <= 1


def _verify_len_diff1(longer: pd.Series, shorter: pd.Series, width: int) -> np.ndarray:
    """levenshtein(longer, shorter) <= 1 for len(longer) = width + 1 =
    len(shorter) + 1, i.e. "shorter is longer with one char deleted".
    First-mismatch j against the aligned prefix, last mismatch against
    the shift-by-one alignment: the deletion repair exists iff the
    shifted suffix is clean from j onward."""
    am, bm = _byte_mat(longer, width + 1), _byte_mat(shorter, width)
    if am is None or bm is None:
        return np.array(
            [_lev_le1_scalar(x, y) for x, y in zip(longer, shorter)], bool
        )
    if width == 0:  # deleting the single char always repairs
        return np.ones(len(longer), dtype=bool)
    ne1 = am[:, :width] != bm            # aligned prefix mismatches
    j = np.where(ne1.any(axis=1), ne1.argmax(axis=1), width)
    ne2 = am[:, 1:] != bm                # shift-by-one mismatches
    rev = ne2[:, ::-1]
    has2 = rev.any(axis=1)
    suffix_start = np.where(has2, width - rev.argmax(axis=1), 0)
    return suffix_start <= j


def _empty_verified() -> pd.DataFrame:
    return pd.DataFrame({
        "name_a": pd.Series([], dtype="string"),
        "name_b": pd.Series([], dtype="string"),
        "dist": pd.Series([], dtype="int64"),
    })


def _verify_pairs(df: pd.DataFrame) -> pd.DataFrame:
    """Keep candidate pairs with true edit distance <= MAX_EDIT,
    vectorized per (len_a, len_b) class."""
    if not len(df):
        return _empty_verified()
    df = df.reset_index(drop=True)  # groupby .groups labels must be positions
    a = df["name_a"].astype(object)
    b = df["name_b"].astype(object)
    la = a.str.len().to_numpy()
    lb = b.str.len().to_numpy()
    keep = np.zeros(len(df), dtype=bool)
    for (wa, wb), idx in pd.DataFrame({"la": la, "lb": lb}).groupby(
        ["la", "lb"]
    ).groups.items():
        ai, bi = a.iloc[idx], b.iloc[idx]
        if wa == wb:
            ok = _verify_equal_len(ai, bi, int(wa))
        elif wa == wb + 1:
            ok = _verify_len_diff1(ai, bi, int(wb))
        elif wb == wa + 1:
            ok = _verify_len_diff1(bi, ai, int(wa))
        else:
            ok = np.zeros(len(ai), dtype=bool)
        keep[np.asarray(idx)] = ok
    out = df.loc[keep, ["name_a", "name_b"]].copy()
    if not len(out):
        return _empty_verified()
    out["dist"] = np.int64(1)  # distinct names at distance <= 1 ⇒ exactly 1
    return out


def _pairs_in_key_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """Candidate pairs within one coarse key bucket: one self-merge on
    the exact deletion key over the keys two or more rows share, kept
    as ``name_a < name_b`` and deduplicated in-bucket.  A key's names
    are alphabet-bounded (see module doc), so the merge is
    O(|Σ|²·len²) per key, never O(n²)."""
    g = g.loc[g["key"].duplicated(keep=False), ["key", "name"]]
    p = g.merge(g, on="key", suffixes=("_a", "_b"))
    p = p.loc[p["name_a"] < p["name_b"], ["name_a", "name_b"]]
    return p.drop_duplicates(ignore_index=True) if len(p) else _empty_pairs()


def q_fuzzy_name_pairs(sf_dir: str):
    """All unordered pairs of distinct customer names within edit
    distance 1 (deletion-neighborhood blocked self-join; see module
    doc for the 10⁹-name plan).

    Every hop is a string-keyed ``exchange.shuffle`` over a coarse
    size-derived fan-out with exact in-bucket pandas work — names,
    deletion keys and candidate pairs all have cardinality that grows
    with the data, and Ray 2.49's sort-based groupby degenerates on
    high-cardinality keys (measured 68 s for 116k keys at sf0.01; the
    part_cooccurrence recipe).  A name / key / pair lands in exactly
    one bucket, so in-bucket dedup and pairing are globally exact."""
    from crawler_tjce_ray.pipelines import exchange

    nb = exchange.buckets_for_bytes(exchange.table_bytes(sf_dir, "customer"))
    names = exchange.shuffle(
        _read_names(sf_dir), "name", nb,
        lambda g: g.drop_duplicates("name")[["name"]],
        combine=lambda t: pa.table({"name": pc.unique(t["c_name"])}))
    candidates = exchange.shuffle(
        names.map_batches(_deletion_keys, batch_format="pandas"), "key", nb,
        _pairs_in_key_bucket)
    # a pair can surface from several deletion keys (hence several
    # buckets): one more exchange keyed on the pair dedups globally,
    # then verification runs in-bucket on the deduped set
    out = exchange.to_pandas(exchange.shuffle(
        candidates, "pair", nb,
        lambda g: _verify_pairs(
            g.drop_duplicates(["name_a", "name_b"])[["name_a", "name_b"]]),
        combine=lambda t: t.append_column("pair", pc.binary_join_element_wise(
            t["name_a"], t["name_b"], "\x00"))),
        name_a=object, name_b=object, dist="int64")
    return out.sort_values(["name_a", "name_b"]).reset_index(drop=True)


SQL_FUZZY_NAME_PAIRS = """
WITH n AS (SELECT DISTINCT c_name AS name FROM customer)
SELECT a.name AS name_a, b.name AS name_b,
       CAST(levenshtein(a.name, b.name) AS BIGINT) AS dist
FROM n a JOIN n b ON a.name < b.name
WHERE abs(length(a.name) - length(b.name)) <= 1
  AND levenshtein(a.name, b.name) <= 1
ORDER BY 1, 2
"""


QUERIES = {
    "fuzzy_name_pairs": q_fuzzy_name_pairs,
}

ORACLE_SQL = {
    "fuzzy_name_pairs": SQL_FUZZY_NAME_PAIRS,
}
