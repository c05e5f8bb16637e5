"""Deduplication operators over the ``documents`` / ``embeddings``
tables — exact, n-gram Jaccard, MinHash+LSH, SimHash, and
embedding-cosine near-dup.

Reference analog: the crawl's exact seen-set dedup (D1,
schemas/entity_mapping_crawler.py:219-223) generalized to the
training-data near-dup family.

Scale design (100 TB):
- every bucket exchange is ``exchange.shuffle`` (one input) or
  ``exchange.cogroup`` (several), keyed on an int64 id, a uint64
  digest or a string paragraph — ``exchange.kb_arrow`` picks the
  bucket from the key's type.  ``q_dedup_embedding_nn``'s per-label
  group is the one per-key group.
- exact dedup = hash key per batch → min id per key; only (key, id)
  pairs leave the map stage, never the text.
- MinHash signatures are computed batch-local (numpy, vectorized over
  perms); the same map emits each doc's b band rows, and candidate
  generation is one shuffle on (band, band-hash low bits) — the only
  exchange moves b rows of (band key, band hash, doc_id) per doc.
- verification (exact Jaccard on candidate pairs) is ONE verifier,
  ``_verify_pairs``, shared by MinHash+LSH and the prefix join, with
  one cut on the candidate doc count (``VERIFY_BROADCAST_MAX_DOCS``):
  at or below it the candidates' gram rows become one sorted index
  broadcast via ``ray.put`` and pair batches count intersections
  vectorized; above it two cogroup hops (by doc_a, then by doc_b)
  count them with no driver gram state.
- SimHash near-dups and the image phash near-dups
  (``stages/multimodal.phash_dedup_pairs``) share ONE banded-Hamming
  pairs exchange, ``hamming_pairs``.
- the all-pairs ``dedup_ngram_jaccard`` query is the verification
  kernel demonstrated on a full small table for the DuckDB oracle —
  at scale it only ever runs on LSH candidates.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from crawler_tjce_ray.pipelines import exchange
from crawler_tjce_ray.pipelines.relational import _read
from crawler_tjce_ray.pipelines.textops import normalize_text_series

# ---------------------------------------------------------------------------
# shared shingle / hashing helpers (vectorized)
# ---------------------------------------------------------------------------

NGRAM = 3
_M61 = (1 << 61) - 1  # Mersenne prime modulus for the MinHash perms


def ngram_set(tokens: list[str], n: int = NGRAM) -> set[str]:
    """Word n-gram shingles; for docs shorter than n, one padded gram —
    mirrors the oracle's coalesce('') padding exactly."""
    if len(tokens) <= n - 1:
        padded = tokens + [""] * (n - len(tokens))
        return {" ".join(padded)}
    return {" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)}


def gram_hashes(grams: set[str]) -> np.ndarray:
    """Stable 64-bit hashes of shingles (first 8 bytes of md5 —
    deterministic across processes, unlike Python's ``hash``)."""
    return np.fromiter(
        (
            int.from_bytes(hashlib.md5(g.encode()).digest()[:8], "little")
            for g in grams
        ),
        dtype=np.uint64,
        count=len(grams),
    )


def _read_docs(sf_dir: str, columns):
    from crawler_tjce_ray.pipelines.textops import _read_docs as rd_docs

    return rd_docs(sf_dir, columns)


def _nb_docs(sf_dir: str, inflate: int = 1) -> int:
    """Size-derived fan-out of a row-carrying exchange whose payload is
    about ``inflate`` × the documents table's bytes."""
    b = exchange.table_bytes(sf_dir, "documents")
    return exchange.buckets_for_bytes(b * inflate if b else None)


# ---------------------------------------------------------------------------
# exact dedup: hash-partition by content key, keep min doc_id
# ---------------------------------------------------------------------------

def q_dedup_exact(sf_dir: str):
    """Exact dedup: md5 of normalized text, keep min doc_id per key.

    Combiner recipe (SURVEY §2.7) through ``exchange.aggregate``: each
    batch pre-reduces to its own (dkey, min id) pairs — the text never
    leaves the map stage, only 32-char keys + ids — and the driver
    min-merges the per-batch-deduped pairs.  At 10^10 keys the final
    merge is a hash-partition exchange writing partitioned output;
    here the result is driver-sized by definition (the driver compares
    it)."""
    def keys(t: pa.Table) -> pa.Table:
        norm = normalize_text_series(t["text"].to_pandas())
        return pa.table({
            "dkey": pa.array([hashlib.md5(x.encode()).hexdigest()
                              for x in norm], pa.string()),
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
        })

    return exchange.aggregate(_read_docs(sf_dir, ["doc_id", "text"]), "dkey",
                              {"doc_id": ("doc_id", "min")}, keys)


SQL_DEDUP_EXACT = r"""
SELECT md5(regexp_replace(lower(trim(text)), '\s+', ' ', 'g')) AS dkey,
       MIN(doc_id) AS doc_id
FROM documents GROUP BY dkey ORDER BY dkey
"""


def q_dup_rate_by_source(sf_dir: str):
    """Dedup diagnostics for mixture design: per source, how many docs
    have an exact duplicate ANYWHERE in the corpus (same normalized-
    text key, cross-source included) and the resulting dup rate.

    One digest-bucket shuffle carrying (16-byte md5 as two int64
    columns, source) per doc — a bucket holds every row of a key, so
    the global count ≥ 2 test is exact in-bucket and only additive
    per-(bucket, source) counters come back; per-source totals reduce
    from a column-pruned read of ``source`` alone.  Text never
    shuffles."""
    nb = _nb_docs(sf_dir)  # row-carrying exchange
    ds = _read_docs(sf_dir, ["text", "source"])

    def key_rows(df: pd.DataFrame) -> pd.DataFrame:
        norm = normalize_text_series(df["text"])
        digs = np.frombuffer(
            b"".join(hashlib.md5(x.encode()).digest() for x in norm),
            dtype=np.uint64,
        ).reshape(-1, 2) if len(norm) else np.empty((0, 2), np.uint64)
        return pd.DataFrame({
            "k1": digs[:, 0].view(np.int64),
            "k2": digs[:, 1].view(np.int64),
            "source": df["source"].astype(object),
        })

    def dup_counts(g: pd.DataFrame) -> pa.Table:
        # typed Arrow output, so Ray keeps the columns of an empty one
        # and can size it
        n = g.groupby(["k1", "k2"])["k1"].transform("size")
        out = g.loc[n.to_numpy() >= 2].groupby("source", as_index=False).agg(
            n_dup=("source", "size"))
        return pa.Table.from_pandas(out, preserve_index=False, schema=pa.schema(
            [("source", pa.string()), ("n_dup", pa.int64())]))

    keys = ds.map_batches(key_rows, batch_format="pandas")
    # a dup-free corpus yields no partial
    dup_parts = exchange.to_pandas(exchange.shuffle(keys, "k1", nb, dup_counts),
                                   source=object, n_dup="int64")
    dup = dup_parts.groupby("source", as_index=False)["n_dup"].sum()
    totals = (
        _read_docs(sf_dir, ["source"])  # pruned: the text column never
        # leaves storage for the totals pass
        .map_batches(
            lambda df: df.groupby("source", as_index=False)
            .agg(n_docs=("source", "size")),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("source", as_index=False)["n_docs"].sum()
    )
    out = totals.merge(dup, on="source", how="left")
    out["n_dup_docs"] = out["n_dup"].fillna(0).astype("int64")
    out["n_docs"] = out["n_docs"].astype("int64")
    out["dup_rate"] = out["n_dup_docs"].to_numpy(np.float64) \
        / out["n_docs"].to_numpy(np.float64)
    out = out[["source", "n_docs", "n_dup_docs", "dup_rate"]]
    return out.sort_values("source").reset_index(drop=True)


SQL_DUP_RATE_BY_SOURCE = r"""
WITH k AS (
  SELECT doc_id, source,
         md5(regexp_replace(lower(trim(text)), '\s+', ' ', 'g')) AS dkey
  FROM documents
), c AS (SELECT dkey, COUNT(*) AS n FROM k GROUP BY dkey)
SELECT k.source,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(COUNT(*) FILTER (c.n >= 2) AS BIGINT) AS n_dup_docs,
       CAST(COUNT(*) FILTER (c.n >= 2) AS DOUBLE) / COUNT(*) AS dup_rate
FROM k JOIN c USING (dkey) GROUP BY k.source ORDER BY k.source
"""


_XS_GRAM = 8  # words per shingle (cross-source overlap matrix)


def q_cross_source_dup_matrix(sf_dir: str):
    """WHO copies from WHOM: for every unordered source pair, the
    number of distinct word-8-gram shingles occurring in BOTH sources
    (diagonal: shingles occurring ≥2 times within the one source) —
    the mixture-design follow-up to ``dup_rate_by_source``, which only
    says how much each source duplicates, not against which peers.
    Shingle-level because this corpus has no whole-document exact
    dups; 8-grams are the usual contamination unit (Lee et al. use
    50-token windows at web scale; the constant is a dial).

    Same digest-bucket shuffle family as ``dup_rate_by_source`` (every
    occurrence of a shingle key lands in one bucket, so pair
    membership is decided exactly in-bucket): batches emit per-(key,
    source) partial COUNTS — not positions, so the shuffle volume is
    #distinct-(gram, source)-per-batch, text never rides — then each
    bucket sums counts and self-merges on the 128-bit key; the merge
    fan-out is bounded by #sources-per-key (≤ #sources), not corpus
    size.  The driver folds O(buckets × sources²) additive rows."""
    nb = _nb_docs(sf_dir)  # row-carrying exchange
    ds = _read_docs(sf_dir, ["text", "source"])

    def key_rows(df: pd.DataFrame) -> pd.DataFrame:
        # per-batch partial counts per (gram-key, source) — grams and
        # their 128-bit identities come from the shared vectorized
        # kernel (functions/shingles.py), no per-gram Python hashing
        from crawler_tjce_ray.functions.shingles import shingle_occurrences

        occ = shingle_occurrences(df["text"], _XS_GRAM)
        if occ.empty:  # typed empty — Ray drops columns of bare empties
            return pd.DataFrame({
                "k1": pd.Series([], dtype="int64"),
                "k2": pd.Series([], dtype="int64"),
                "source": pd.Series([], dtype=object),
                "c": pd.Series([], dtype="int64"),
            })
        occ["source"] = df["source"].to_numpy(object)[occ["row"].to_numpy()]
        out = occ.groupby(["k1", "k2", "source"], as_index=False).size() \
            .rename(columns={"size": "c"})
        out["c"] = out["c"].astype("int64")
        return out

    def pair_counts(g: pd.DataFrame) -> pd.DataFrame:
        ks = g.groupby(["k1", "k2", "source"], as_index=False).agg(
            c=("c", "sum"))
        m = ks.merge(ks, on=["k1", "k2"], suffixes=("_a", "_b"))
        keep = (m["source_a"] < m["source_b"]) | (
            (m["source_a"] == m["source_b"]) & (m["c_a"] >= 2))
        p = m.loc[keep]
        if p.empty:  # typed empty — Ray drops columns of bare empties
            return pd.DataFrame({
                "source_a": pd.Series([], dtype="string"),
                "source_b": pd.Series([], dtype="string"),
                "n_keys": pd.Series([], dtype="int64"),
            })
        out = p.groupby(["source_a", "source_b"], as_index=False).agg(
            n_keys=("k1", "size"))
        out["source_a"] = out["source_a"].astype("string")
        out["source_b"] = out["source_b"].astype("string")
        out["n_keys"] = out["n_keys"].astype("int64")
        return out

    parts = exchange.to_pandas(exchange.shuffle(
        ds.map_batches(key_rows, batch_format="pandas"), "k1", nb, pair_counts
    ), source_a=object, source_b=object, n_keys="int64")
    out = parts.groupby(["source_a", "source_b"], as_index=False)[
        "n_keys"].sum()
    out["n_keys"] = out["n_keys"].astype("int64")
    # object dtype like the DuckDB oracle frame (driver hash is
    # dtype-sensitive; pandas StringDtype would diverge)
    out["source_a"] = out["source_a"].astype(object)
    out["source_b"] = out["source_b"].astype(object)
    return out.sort_values(["source_a", "source_b"]).reset_index(drop=True)


SQL_CROSS_SOURCE_DUP_MATRIX = """
WITH w AS (
  SELECT source, string_split(text, ' ') AS ws FROM documents
), g AS (
  SELECT source, array_to_string(ws[i:i+7], ' ') AS gram
  FROM (SELECT source, ws, unnest(range(1, greatest(len(ws) - 6, 1))) AS i
        FROM w)
), ks AS (
  SELECT gram, source, COUNT(*) AS c FROM g GROUP BY gram, source
)
SELECT a.source AS source_a, b.source AS source_b,
       CAST(COUNT(*) AS BIGINT) AS n_keys
FROM ks a JOIN ks b ON a.gram = b.gram
WHERE a.source < b.source OR (a.source = b.source AND a.c >= 2)
GROUP BY 1, 2 ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# all-pairs n-gram Jaccard (the verification kernel, oracle-checked)
# ---------------------------------------------------------------------------

JACCARD_TAU = 0.5

# q_dedup_ngram_jaccard materializes the documents table driver-side
# to build its broadcast shingle index and is O(n²) by design (it is
# the LSH pipeline's *verifier*, exercised exhaustively only at oracle
# scale).  Refuse to run it as a standalone query past this many docs
# — the scale path is q_dedup_minhash_lsh.
NGRAM_JACCARD_MAX_DOCS = 50_000


def _jaccard_pairs_against(
    batch_ids: np.ndarray, all_ids: np.ndarray, sizes: np.ndarray,
    gid: np.ndarray, gkey: np.ndarray, tau: float,
) -> pd.DataFrame:
    """Pairs (a, b) with a in ``batch_ids``, a < b, exact hashed-gram
    Jaccard ≥ τ — fully vectorized: one gram-key self-merge counts
    every shared gram (pairs sharing none never materialize), sizes
    resolve by searchsorted.  Emitting only a-in-batch ∧ a < b makes
    each global pair come out of exactly ONE batch (the one holding
    the smaller id).  Replaces the per-pair Python set-intersection
    loop (the r4 bench's hottest driver kernel: 4.5M set ops at
    sf0.1)."""
    keep = np.isin(gid, batch_ids)
    left = pd.DataFrame({"a": gid[keep], "g": gkey[keep]})
    right = pd.DataFrame({"b": gid, "g": gkey})
    m = left.merge(right, on="g")
    m = m.loc[m["a"].to_numpy() < m["b"].to_numpy()]
    if m.empty:
        return _pairs_empty()
    cnt = m.groupby(["a", "b"], as_index=False).size()
    sa = sizes[np.searchsorted(all_ids, cnt["a"].to_numpy(np.int64))]
    sb = sizes[np.searchsorted(all_ids, cnt["b"].to_numpy(np.int64))]
    inter = cnt["size"].to_numpy(np.int64)
    jac = inter / (sa + sb - inter)
    out = pd.DataFrame({
        "doc_a": cnt["a"].to_numpy(np.int64),
        "doc_b": cnt["b"].to_numpy(np.int64),
        "jaccard": jac,
    })
    return out.loc[out["jaccard"] >= tau]


def q_dedup_ngram_jaccard(sf_dir: str):
    """All-pairs word-3-gram Jaccard ≥ τ.  Each batch compares its docs
    against a ``ray.put``-broadcast shingle index (one object-store copy
    per node, read zero-copy by every task — never re-shipped per
    batch).  O(n²) by construction: this is the *verifier* the LSH
    pipeline calls on candidates only; the oracle checks it exhaustively
    at small n.  Jaccard is an exact int division → bit-identical to
    DuckDB."""
    import ray

    # cheap guard probe: count a doc_id-only projection (parquet
    # metadata / one thin column) instead of a full-table pass
    n_docs = _read_docs(sf_dir, ["doc_id"]).count()
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    if n_docs > NGRAM_JACCARD_MAX_DOCS:
        raise ValueError(
            f"q_dedup_ngram_jaccard is the O(n²) small-n verifier and "
            f"refuses {n_docs} docs (limit {NGRAM_JACCARD_MAX_DOCS}); "
            f"use q_dedup_minhash_lsh, which calls this kernel on LSH "
            f"candidates only"
        )
    # small-side index: ids + distinct gram-hash rows, broadcast once.
    # Tokens split on a LITERAL space — identical to the oracle's
    # string_split(text,' ') even on irregular whitespace; hashed
    # grams equal textual grams absent 64-bit collisions (the same
    # equivalence the LSH verify tiers rely on, pinned by tests).
    idx_df = docs.to_pandas().sort_values("doc_id")
    all_ids = idx_df["doc_id"].to_numpy(np.int64)
    ghs = batch_gram_hashes(idx_df["text"].tolist(), sep=" ")
    sizes = np.fromiter((len(g) for g in ghs), np.int64, count=len(ghs))
    gid = np.repeat(all_ids, sizes)
    gkey = (np.concatenate(ghs).view(np.int64)
            if len(ghs) else np.empty(0, np.int64))
    ref = ray.put((all_ids, sizes, gid, gkey))

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        ids_b, sizes_b, gid_b, gkey_b = ray.get(ref)
        return _jaccard_pairs_against(
            df["doc_id"].to_numpy(np.int64), ids_b, sizes_b,
            gid_b, gkey_b, JACCARD_TAU,
        )

    return _sorted_pairs(docs.select_columns(["doc_id"]).map_batches(
        pairs, batch_format="pandas"))


# the word-3-gram set of every doc as the oracles spell it (the
# caller closes the CTE)
_SQL_GRAMS = """toks AS (
  SELECT doc_id, string_split(text,' ') AS ws FROM documents
), grams AS (
  SELECT doc_id,
         list_distinct(list_transform(
             generate_series(1, greatest(1, length(ws)-2)),
             i -> ws[i] || ' ' || coalesce(ws[i+1],'') || ' ' ||
                  coalesce(ws[i+2],''))) AS gs
  FROM toks"""

# exact all-pairs Jaccard self-join at τ = {tau}
_SQL_JACCARD_PAIRS = "\nWITH " + _SQL_GRAMS + """)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(length(list_intersect(a.gs,b.gs)) AS DOUBLE) /
       (length(a.gs)+length(b.gs)-length(list_intersect(a.gs,b.gs)))
         AS jaccard
FROM grams a JOIN grams b ON a.doc_id < b.doc_id
WHERE CAST(length(list_intersect(a.gs,b.gs)) AS DOUBLE) /
      (length(a.gs)+length(b.gs)-length(list_intersect(a.gs,b.gs))) >= {tau}
ORDER BY doc_a, doc_b
"""

SQL_DEDUP_NGRAM_JACCARD = _SQL_JACCARD_PAIRS.format(tau=JACCARD_TAU)

# the MinHash+LSH output contract: the exact all-pairs self-join at
# τ = 0.8 (same gram construction; LSH recall at this τ is 1 up to a
# ~5e-8/pair band-miss probability, deterministic per fixed seed)
SQL_DEDUP_MINHASH_LSH = _SQL_JACCARD_PAIRS.format(tau=0.8)

# The exact τ=0.8 oracle above relies on LSH recall being exactly 1.
# That holds deterministically on the PINNED fixed-seed corpora (the
# /root/testdata sf dirs — verified externally at sf0.01 in round 4),
# but an arbitrary new corpus can legitimately miss a qualifying pair
# (~5e-8/pair band-miss probability), failing a raw-equality gate
# despite correct code.  Harnesses comparing on a NON-pinned corpus
# must fall back to the recall-bounded check: engine pairs ⊆ oracle
# pairs (LSH never emits false positives — every candidate is
# exact-verified) and recall ≥ MINHASH_MIN_RECALL.
# tests/test_oracle_parity.py consumes these markers.
RECALL_BOUNDED_ORACLES = frozenset({"dedup_minhash_lsh"})
MINHASH_PINNED_SF_DIRS = frozenset({
    "/root/testdata/sf0.001", "/root/testdata/sf0.01",
    "/root/testdata/sf0.1",
})
MINHASH_MIN_RECALL = 0.999


def minhash_oracle_is_exact(sf_dir: str) -> bool:
    """True when raw equality against SQL_DEDUP_MINHASH_LSH is the
    right gate (pinned fixed-seed corpus); False → use the
    recall-bounded subset check instead."""
    import os

    return os.path.normpath(os.path.abspath(sf_dir)) in MINHASH_PINNED_SF_DIRS


# ---------------------------------------------------------------------------
# MinHash + LSH (shingle → minhash → band → band shuffle → verify)
# ---------------------------------------------------------------------------

N_PERM = 128
LSH_BANDS = 32  # r = 4 rows/band → s-curve threshold ≈ 0.42
MINHASH_TAU = 0.8
_M31 = np.uint64((1 << 31) - 1)  # Mersenne 2^31-1: a·x + b < 2^63, no overflow

_rng = np.random.RandomState(0xC0FFEE)
_PERM_A = _rng.randint(1, 1 << 31, size=N_PERM).astype(np.uint64)
_PERM_B = _rng.randint(0, 1 << 31, size=N_PERM).astype(np.uint64)


def minhash_signature(gh: np.ndarray) -> np.ndarray:
    """(a·x + b) mod 2³¹-1 over all perms at once — one
    (|grams| × 128) vectorized uint64 pass, no Python loop.  Shingle
    hashes are reduced to 31 bits so the modmul never overflows."""
    if len(gh) == 0:
        return np.full(N_PERM, int(_M31), dtype=np.uint64)
    x = (gh >> np.uint64(33)) & _M31
    vals = (x[:, None] * _PERM_A[None, :] + _PERM_B[None, :]) % _M31
    return vals.min(axis=0)


def batch_minhash_signatures(gram_lists: list[np.ndarray]) -> np.ndarray:
    """(n_docs × N_PERM) signature matrix for a whole batch in ONE
    segment-reduced pass: the per-doc gram arrays concatenate once,
    the perm transform runs on the flat array in perm-blocks (bounding
    scratch to |grams|×32×8 B), and ``np.minimum.reduceat`` collapses
    each doc's segment — no per-doc Python dispatch (identical values
    to per-doc ``minhash_signature``; pinned by tests).  Empty docs
    keep the all-sentinel signature."""
    n = len(gram_lists)
    sigs = np.full((n, N_PERM), int(_M31), dtype=np.uint64)
    if n == 0:
        return sigs
    lens = np.fromiter((len(g) for g in gram_lists), np.int64, count=n)
    nz = np.nonzero(lens)[0]
    if len(nz) == 0:
        return sigs
    flat = np.concatenate([gram_lists[i] for i in nz])
    x = (flat >> np.uint64(33)) & _M31
    starts = np.zeros(len(nz), np.int64)
    starts[1:] = np.cumsum(lens[nz])[:-1]
    blk = 32
    for p0 in range(0, N_PERM, blk):
        vals = (x[:, None] * _PERM_A[None, p0:p0 + blk]
                + _PERM_B[None, p0:p0 + blk]) % _M31
        sigs[nz[:, None], np.arange(p0, p0 + blk)[None, :]] = \
            np.minimum.reduceat(vals, starts, axis=0)
    return sigs


_GRAM_P = np.uint64(1099511628211)
# P² mod 2^64 precomputed in exact int arithmetic: computing it as
# _GRAM_P * _GRAM_P at call time raised a RuntimeWarning per batch
# (the wraparound itself is intentional — it IS the rolling hash)
_GRAM_P2 = np.uint64((int(_GRAM_P) ** 2) % (1 << 64))

# siphash of the empty token — the pad value for docs shorter than
# NGRAM, mirroring the oracle's coalesce(ws[i+k],'') padding (so
# string_split('',' ') == [''] and [' '] == ['',''] both reduce to
# the padded gram of three empty tokens, exactly like ngram_set)
_EMPTY_TOKEN_HASH = int(pd.util.hash_array(np.array([""], dtype=object))[0])


def _tokens_arrow(texts, sep: str | None) -> tuple[np.ndarray, np.ndarray]:
    """(lens, flat object tokens) for an Arrow string array — the
    zero-copy sibling of the Python ``t.split(sep)`` loop.  Literal
    ``sep`` maps 1:1 onto ``pc.split_pattern``; ``sep=None`` maps onto
    ``utf8_split_whitespace`` minus the leading/trailing empty tokens
    Arrow keeps but ``str.split()`` drops (interior runs already
    collapse identically, incl. unicode whitespace; equality pinned in
    tests/test_dedup_similarity.py)."""
    arr = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
    if not pa.types.is_string(arr.type):
        arr = pc.cast(arr, pa.string())
    parts = (pc.split_pattern(arr, sep) if sep is not None
             else pc.utf8_split_whitespace(arr))
    lens = pc.list_value_length(parts).fill_null(0).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(parts).to_pandas().to_numpy(dtype=object)
    if sep is None and len(flat):
        empty = np.array([t == "" for t in flat], dtype=bool)
        if empty.any():
            doc_of = np.repeat(np.arange(len(lens)), lens)
            lens = lens - np.bincount(
                doc_of[empty], minlength=len(lens)).astype(np.int64)
            flat = flat[~empty]
    return lens, flat


def batch_gram_hashes(texts, sep: str | None = None) -> list[np.ndarray]:
    """Vectorized 3-gram hashes for a whole batch of documents.

    One ``pd.util.hash_array`` call (C siphash, process-stable) hashes
    every token of the batch at once; per-doc 3-gram hashes are a
    rolling polynomial combine of the token-hash array — no per-gram
    Python hashing (the md5-per-shingle loop was the minhash hot
    spot).  ``sep=" "`` splits on a LITERAL space — the oracle's
    ``string_split(text,' ')`` semantics — while the default ``None``
    collapses whitespace runs (simhash keeps the default).

    ``texts`` may be a pyarrow (Chunked)Array — the zero-copy fast
    path for ``batch_format="pyarrow"`` stages: tokenization runs as
    one Arrow split kernel instead of a Python ``t.split()`` loop over
    materialized strs (the r4 ``tokens_flat`` discipline)."""
    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        lens, flat = _tokens_arrow(texts, sep)
    else:
        token_lists = [t.split(sep) for t in texts]
        lens = np.array([len(x) for x in token_lists], dtype=np.int64)
        flat = np.empty(int(lens.sum()), dtype=object)
        pos = 0
        for toks in token_lists:
            flat[pos : pos + len(toks)] = toks
            pos += len(toks)
    total = int(lens.sum())
    if total == 0:
        # 0-token docs (sep=None on all-whitespace text) still carry
        # ngram_set's single padded gram — batch composition must
        # never change a doc's grams
        acc = 0
        for _ in range(NGRAM):
            acc = (acc * int(_GRAM_P) + _EMPTY_TOKEN_HASH) % (1 << 64)
        return [np.array([acc], dtype=np.uint64) for _ in range(len(lens))]
    th = pd.util.hash_array(flat)  # uint64, deterministic key
    out: list[np.ndarray] = []
    pos = 0
    p2 = _GRAM_P2
    for n in lens:
        n = int(n)
        h = th[pos : pos + n]
        pos += n
        if n < NGRAM:  # mirror ngram_set's single padded gram
            hs = [int(v) for v in h] + [_EMPTY_TOKEN_HASH] * (NGRAM - n)
            acc = 0
            for k in range(NGRAM):  # exact mod-2^64 wraparound
                acc = (acc * int(_GRAM_P) + hs[k]) % (1 << 64)
            out.append(np.array([acc], dtype=np.uint64))
            continue
        with np.errstate(over="ignore"):  # uint64 wraparound is the hash
            g = h[: n - 2] * p2 + h[1 : n - 1] * _GRAM_P + h[2:]
        out.append(np.unique(g))
    return out


# verification tier cut: at or below this many candidate DOCS their
# gram rows are indexed on the driver and broadcast once; above it the
# verify runs as two cogroup hops with no driver gram state
VERIFY_BROADCAST_MAX_DOCS = 200_000

_I64, _U64 = pa.int64(), pa.uint64()
_GRAMS = {"k": _I64, "gkey": _U64}


def _pairs_empty() -> pd.DataFrame:
    return pd.DataFrame({
        "doc_a": pd.Series([], dtype="int64"),
        "doc_b": pd.Series([], dtype="int64"),
        "jaccard": pd.Series([], dtype="float64"),
    })


def _sorted_pairs(ds) -> pd.DataFrame:
    """The (doc_a, doc_b, jaccard) pairs of ``ds`` collected in oracle
    order (typed and empty when no batch emitted a pair)."""
    out = exchange.to_pandas(ds, doc_a="int64", doc_b="int64",
                             jaccard="float64")
    out = out.astype({"doc_a": "int64", "doc_b": "int64"})
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _verify_pairs(docs, pairs, tau: float, nb: int) -> pd.DataFrame:
    """Exact word-3-gram Jaccard ≥ ``tau`` of the candidate ``pairs``
    (a Dataset of ``doc_a < doc_b`` rows, repeats allowed) over
    ``docs`` (a Dataset of ``(doc_id, text)``).  Returns the pairs in
    oracle order.

    The candidate doc ids (8 B/doc) are the only driver state both
    tiers hold.  One map semi-joins ``docs`` to them and turns each
    candidate doc into gram rows: one ``(k = doc_id, gkey)`` row per
    distinct uint64 digest of its grams (``batch_gram_hashes`` on a
    literal space, the oracle's ``string_split(text,' ')``), so only
    candidate texts are hashed.  Set sizes are counted from the gram
    rows, so |A∩B| is the only per-pair work.  At or below
    ``VERIFY_BROADCAST_MAX_DOCS`` candidate docs the semi-joined rows
    become one sorted index broadcast via ``ray.put``, and pair
    batches verify in parallel: each explodes its pairs over A's grams
    by arithmetic indexing, probes B's membership with ``searchsorted``
    and counts hits with ``bincount``.  Above the cut (dup-heavy
    corpora, candidates ≈ corpus) two cogroup hops verify with no
    driver gram state: by doc_a, attach A's grams and size to each
    pair; by doc_b, inner-merge against B's grams — the per-pair match
    count IS the intersection.  Gram rows are corpus-scale, so the
    caller passes a size-derived fan-out ``nb``.

    Jaccard is over hashed distinct grams; it equals the textual
    3-gram Jaccard absent 64-bit collisions (tests force both tiers on
    the same corpus and require identical output)."""
    import ray

    parts = pairs.map_batches(
        lambda df: pd.DataFrame(
            {"d": np.unique(df[["doc_a", "doc_b"]].to_numpy(np.int64))}),
        batch_format="pandas",
    ).to_pandas()
    ids = np.unique(parts["d"].to_numpy(np.int64)) if "d" in parts \
        else np.empty(0, np.int64)
    if not len(ids):
        return _pairs_empty()
    ids_ref = ray.put(ids)

    def gram_rows(t: pa.Table) -> pa.Table:
        doc = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.isin(doc, ray.get(ids_ref))
        ghs = batch_gram_hashes(t["text"].filter(pa.array(keep)), sep=" ")
        lens = np.fromiter((len(g) for g in ghs), np.int64, count=len(ghs))
        return pa.table({
            "k": np.repeat(doc[keep], lens),
            "gkey": np.concatenate(ghs) if ghs else np.empty(0, np.uint64),
        })

    cand_grams = docs.map_batches(gram_rows, batch_format="pyarrow").materialize()

    if len(ids) <= VERIFY_BROADCAST_MAX_DOCS:
        g = cand_grams.to_pandas()
        order = np.argsort(g["k"].to_numpy(np.int64), kind="stable")
        g_doc = g["k"].to_numpy(np.int64)[order]
        g_key = g["gkey"].to_numpy(np.uint64)[order]
        ug = np.unique(g_key)
        g_gidx = np.searchsorted(ug, g_key).astype(np.int64)
        # per-candidate-doc slice [start, start+cnt) of the sorted rows;
        # cnt is the doc's set size
        start = np.searchsorted(g_doc, ids)
        cnt = np.searchsorted(g_doc, ids, side="right") - start
        # dense combined key: doc-rank * |grams| + gram-rank (fits int64
        # under the cut: 2e5 docs × ~1e7 distinct grams < 2^63)
        member = np.sort(np.searchsorted(ids, g_doc) * len(ug) + g_gidx)
        idx_ref = ray.put((ids, start, cnt, g_gidx, member, len(ug)))

        def verify_batch(df: pd.DataFrame) -> pd.DataFrame:
            ids_, st, ct, gix, mem, nug = ray.get(idx_ref)
            a = df["doc_a"].to_numpy(np.int64)
            b = df["doc_b"].to_numpy(np.int64)
            da, db = np.searchsorted(ids_, a), np.searchsorted(ids_, b)
            reps = ct[da]
            pair_of = np.repeat(np.arange(len(df)), reps)
            within = np.arange(int(reps.sum())) - np.repeat(
                np.cumsum(reps) - reps, reps)
            probe = db[pair_of] * nug + gix[np.repeat(st[da], reps) + within]
            loc = np.minimum(np.searchsorted(mem, probe), len(mem) - 1)
            inter = np.bincount(pair_of[mem[loc] == probe], minlength=len(df))
            jac = inter / (ct[da] + ct[db] - inter)
            keep = jac >= tau
            return pd.DataFrame(
                {"doc_a": a[keep], "doc_b": b[keep], "jaccard": jac[keep]})

        cand = pairs.to_pandas()[["doc_a", "doc_b"]].drop_duplicates()
        bounds = np.linspace(0, len(cand), exchange.read_cap() + 1,
                             dtype=np.int64)
        chunks = [cand.iloc[lo:hi] for lo, hi in zip(bounds, bounds[1:])
                  if hi > lo]
        return _sorted_pairs(
            ray.data.from_pandas(chunks)
            .map_batches(verify_batch, batch_format="pandas"))

    def explode_a(p: pd.DataFrame, gr: pd.DataFrame) -> pd.DataFrame:
        # cross-band repeats of a pair all land in doc_a's bucket: this
        # drop_duplicates is the global pair dedup
        m = p.drop_duplicates().merge(gr, on="k")  # (pair, gram of A)
        return pd.DataFrame({
            "k": m["doc_b"],  # re-keyed by doc_b for the second hop
            "doc_a": m["k"],
            "s_a": gr.groupby("k").size().reindex(m["k"]).to_numpy(np.int64),
            "gkey": m["gkey"],
        })

    def verify_b(p: pd.DataFrame, gr: pd.DataFrame) -> pd.DataFrame:
        # a match on (k, gkey) is a gram in A∩B (grams are distinct
        # per doc by construction)
        agg = p.merge(gr, on=["k", "gkey"]).groupby(
            ["doc_a", "k", "s_a"], as_index=False).size()
        inter = agg["size"].to_numpy(np.int64)
        s_b = gr.groupby("k").size().reindex(agg["k"]).to_numpy(np.int64)
        jac = inter / (agg["s_a"].to_numpy(np.int64) + s_b - inter)
        out = pd.DataFrame({
            "doc_a": agg["doc_a"].to_numpy(np.int64),
            "doc_b": agg["k"].to_numpy(np.int64),
            "jaccard": jac,
        })
        return out.loc[out["jaccard"] >= tau]

    by_a = (pairs, {"k": _I64, "doc_b": _I64},
            lambda t: pa.table({"k": t["doc_a"], "doc_b": t["doc_b"]}))
    # materialize between the two hops: chaining two sort-shuffles in
    # one lazy plan ran >2x slower (see the triangle_count note)
    exploded = exchange.cogroup(
        [by_a, (cand_grams, _GRAMS, None)], "k", nb, explode_a).materialize()
    by_b = (exploded, {"k": _I64, "doc_a": _I64, "s_a": _I64, "gkey": _U64},
            None)
    return _sorted_pairs(exchange.cogroup(
        [by_b, (cand_grams, _GRAMS, None)], "k", nb, verify_b))


def q_dedup_minhash_lsh(sf_dir: str):
    """MinHash(128)+LSH(32×4) near-dup pairs, verified with exact
    3-gram Jaccard ≥ 0.8.  Stages: signature + band-row map → one
    shuffle on (band, band-hash bits) pairing docs that share a band
    hash → ``_verify_pairs`` (broadcast index at or below
    ``VERIFY_BROADCAST_MAX_DOCS`` candidate docs, two cogroup hops
    above it — no driver text state on either tier).
    Oracle-backed: the candidate generation isn't SQL-expressible, but
    the OUTPUT contract is — every emitted pair carries exact
    3-gram Jaccard ≥ τ, and at τ = 0.8 the 32×4 band s-curve misses a
    qualifying pair with probability (1−0.8⁴)³² ≈ 5·10⁻⁸, so on the
    fixed-seed test corpora LSH recall is exactly 1 and the output
    EQUALS the all-pairs τ=0.8 self-join (``SQL_DEDUP_MINHASH_LSH``,
    the ngram-Jaccard oracle body at τ=0.8).  Equality at both sf
    levels is deterministic (fixed permutation seed); the recall
    property vs brute force is additionally pinned in
    tests/test_dedup_similarity.py."""
    # banding exchange fan-out: signature rows are corpus-scale
    # (LSH_BANDS rows/doc), so the per-band groups sub-bucket on the
    # band hash's low bits.  The SIZE-DERIVED value is the TOTAL group
    # budget (same per-task-payload discipline as every kb exchange);
    # splitting it across the bands keeps the small-corpus group count
    # near the band count (sub-bucketing only widens when the data
    # does — a budget of 64 gives 2 sub-buckets/band)
    nb = _nb_docs(sf_dir)
    nb_band = exchange.band_subbuckets(nb, LSH_BANDS)
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def signatures(t: pa.Table) -> pd.DataFrame:
        # fully vectorized: one segment-reduced signature matrix, then
        # a rolling-polynomial band hash over the r rows of every band
        # of every doc at once — zero per-doc/per-band Python.  Band
        # bucket identity only needs equal-rows ⇒ equal-hash (true for
        # the polynomial); a cross-tuple collision merely adds a
        # candidate that exact verification discards.  Arrow batches:
        # tokenization runs as one Arrow split kernel, never a pandas
        # text-column materialization (r5 combiner conversion).
        gram_lists = batch_gram_hashes(t["text"], sep=" ")
        sigs = batch_minhash_signatures(gram_lists)
        n = len(gram_lists)
        r = N_PERM // LSH_BANDS
        bands3 = sigs.reshape(n, LSH_BANDS, r)
        bh = bands3[:, :, 0].copy()
        with np.errstate(over="ignore"):  # wraparound IS the hash
            for k in range(1, r):
                bh = bh * _GRAM_P + bands3[:, :, k]
        bh64 = bh.reshape(-1).view(np.int64)
        band_idx = np.tile(np.arange(LSH_BANDS, dtype=np.int64), n)
        return pd.DataFrame({
            # composite exchange key: (band, low bhash bits) — equal
            # band hashes always co-locate, but one group holds
            # corpus/(bands·nb_band) signature rows instead of the
            # whole corpus's slice for that band index
            "bb": band_idx * np.int64(nb_band)
            + (bh64 & np.int64(nb_band - 1)),
            "bhash": bh64,
            "doc_id": np.repeat(
                t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                LSH_BANDS),
        })

    def band_pairs(g: pd.DataFrame) -> pd.DataFrame:
        """One (band, sub-bucket)'s buckets → candidate pairs, fully
        vectorized: a self-merge on the band hash (bucket sizes are
        tiny by the s-curve, so the join is near-linear).  Grouping on
        bare (band, bhash) would make ~|corpus|×b one-row groups and
        per-group dispatch would dwarf the work; the coarse composite
        key keeps groups chunky while still co-locating every copy of
        a band hash."""
        m = g[["bhash", "doc_id"]].drop_duplicates()
        j = m.merge(m, on="bhash", suffixes=("_a", "_b"))
        j = j[j["doc_id_a"] < j["doc_id_b"]]
        return j.rename(
            columns={"doc_id_a": "doc_a", "doc_id_b": "doc_b"}
        )[["doc_a", "doc_b"]].drop_duplicates()

    # bb < LSH_BANDS·nb_band, so the exchange's bucket IS bb.  The
    # (small) pair table is materialized once: the verifier scans it
    # for candidate ids and then verifies it
    cands = exchange.shuffle(
        docs.map_batches(signatures, batch_format="pyarrow"), "bb",
        LSH_BANDS * nb_band, band_pairs,
    ).materialize()
    return _verify_pairs(docs, cands, MINHASH_TAU, nb)


# ---------------------------------------------------------------------------
# SimHash (64-bit) with band blocking
# ---------------------------------------------------------------------------

SIMHASH_BITS = 64
SIMHASH_BANDS = 4  # 16-bit bands; hamming ≤ 3 ⇒ ≥1 identical band
SIMHASH_MAX_HAMMING = 3


def simhash64(gh: np.ndarray) -> np.uint64:
    """Charikar simhash over shingle hashes — vectorized bit-count."""
    if len(gh) == 0:
        return np.uint64(0)
    bits = (gh[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
    votes = bits.sum(axis=0) * 2 > len(gh)
    out = np.uint64(0)
    for k in np.nonzero(votes)[0]:
        out |= np.uint64(1) << np.uint64(k)
    return out


def batch_simhash64(gram_lists: list[np.ndarray]) -> np.ndarray:
    """Charikar simhash for a whole batch in one segment-reduced pass:
    the per-doc gram arrays concatenate once, bit votes accumulate via
    ``np.add.reduceat`` in 16-bit blocks (bounding scratch to
    |grams|×16×8 B), and the majority test packs back to uint64 —
    bit-identical to per-doc ``simhash64`` (pinned by test), empty
    docs keep the 0 signature."""
    n = len(gram_lists)
    out = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return out
    lens = np.fromiter((len(g) for g in gram_lists), np.int64, count=n)
    nz = np.nonzero(lens)[0]
    if len(nz) == 0:
        return out
    flat = np.concatenate([gram_lists[i] for i in nz])
    starts = np.zeros(len(nz), np.int64)
    starts[1:] = np.cumsum(lens[nz])[:-1]
    sig = np.zeros(len(nz), dtype=np.uint64)
    blk = 16
    for b0 in range(0, 64, blk):
        shifts = np.arange(b0, b0 + blk, dtype=np.uint64)
        bits = (flat[:, None] >> shifts[None, :]) & np.uint64(1)
        sums = np.add.reduceat(bits.astype(np.int64), starts, axis=0)
        votes = sums * 2 > lens[nz][:, None]
        sig |= (votes.astype(np.uint64) << shifts[None, :]).sum(
            axis=1, dtype=np.uint64)
    out[nz] = sig
    return out


def hamming_pairs(ds, ids: tuple[str, str, str], h: str, bands: int,
                  nb_band: int, max_hamming: int) -> pd.DataFrame:
    """Pairs of rows of ``ds`` whose 64-bit hashes (column ``h``, the
    int64 bit-view) are within ``max_hamming`` bits, by pigeonhole
    band blocking: with ``bands`` > ``max_hamming`` equal-width bands
    every such pair shares ≥ 1 identical band.  The shuffle's combine
    emits each row's ``bands`` (band, band key, id, hash) rows; the
    bucket of a row is ``bb`` = band · ``nb_band`` + the band key's low
    bits, which is below the fan-out ``bands · nb_band`` and so is the
    exchange's bucket itself (equal keys always co-locate).  In-bucket:
    self-merge on the band key, vectorized XOR-popcount verify.  The
    id column is ``ids[0]``; the result's columns are ``ids[1]``,
    ``ids[2]`` (id a < id b) and ``hamming``, one row per pair, sorted
    by the ids."""
    col, a, b = ids
    width = 64 // bands

    def banded(t: pa.Table) -> pa.Table:
        sig = t[h].to_numpy(zero_copy_only=False).astype(np.int64) \
            .view(np.uint64)
        shifts = np.uint64(width) * np.arange(bands, dtype=np.uint64)
        bkey = ((sig[:, None] >> shifts[None, :])
                & np.uint64((1 << width) - 1)).reshape(-1).astype(np.int64)
        band = np.tile(np.arange(bands, dtype=np.int64), len(sig))
        return pa.table({
            "bb": band * np.int64(nb_band) + (bkey & np.int64(nb_band - 1)),
            "bkey": bkey,
            "id": np.repeat(t[col].to_numpy(zero_copy_only=False)
                            .astype(np.int64), bands),
            "h": np.repeat(sig.view(np.int64), bands),
        })

    def band_pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g[["bkey", "id", "h"]].drop_duplicates("id")
        j = m.merge(m, on="bkey", suffixes=("_a", "_b"))
        j = j[j["id_a"] < j["id_b"]]
        xor = np.bitwise_xor(j["h_a"].to_numpy(np.int64).view(np.uint64),
                             j["h_b"].to_numpy(np.int64).view(np.uint64))
        ham = np.unpackbits(xor.view(np.uint8).reshape(len(j), 8),
                            axis=1).sum(axis=1)
        keep = ham <= max_hamming
        return pd.DataFrame({
            a: j["id_a"].to_numpy(np.int64)[keep],
            b: j["id_b"].to_numpy(np.int64)[keep],
            "hamming": ham[keep].astype("int64"),
        })

    out = exchange.to_pandas(
        exchange.shuffle(ds, "bb", bands * nb_band, band_pairs,
                         combine=banded),
        **{a: "int64", b: "int64", "hamming": "int64"})
    out = out.drop_duplicates([a, b])
    return out.sort_values([a, b]).reset_index(drop=True)


def q_dedup_simhash(sf_dir: str):
    """SimHash near-dup pairs (hamming ≤ 3) via 4×16-bit band blocking
    (``hamming_pairs``): pigeonhole guarantees every qualifying pair
    shares ≥1 band, so the only exchange is one shuffle on (band,
    16-bit key bits).  Non-SQL → rows-only; kernel pinned in
    tests/test_dedup_similarity.py."""
    # signature rows are corpus-scale (SIMHASH_BANDS rows/doc): the
    # per-band groups sub-bucket on the 16-bit band key's low bits
    # (equal keys always co-locate); the size-derived value is the
    # TOTAL group budget, split across the bands
    nb_band = exchange.band_subbuckets(_nb_docs(sf_dir), SIMHASH_BANDS)
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def sigs(t: pa.Table) -> pa.Table:
        # batch signatures kept as their int64 bit-view (bit 63 must
        # participate in the hamming distance); Arrow batches — split
        # kernel, no pandas text copy
        h = batch_simhash64(batch_gram_hashes(t["text"]))
        return pa.table({"doc_id": pc.cast(t["doc_id"], pa.int64()),
                         "sim64": h.view(np.int64)})

    return hamming_pairs(
        docs.map_batches(sigs, batch_format="pyarrow"),
        ("doc_id", "doc_a", "doc_b"), "sim64", SIMHASH_BANDS, nb_band,
        SIMHASH_MAX_HAMMING)


# ---------------------------------------------------------------------------
# embedding-cosine nearest neighbor within label blocks (oracle-checked)
# ---------------------------------------------------------------------------

def q_dedup_embedding_nn(sf_dir: str):
    """Embedding near-dup probe: for every vector, its max-cosine
    neighbor within its label block (the blocked-dedup recipe — at
    scale the block key comes from IVF/LSH bucketing, cf.
    similarity.q_ann_ivf_topk).  Per-group numpy matmul in float64;
    group sizes are bounded by the block key.  Cosine rounded to 6dp
    on both sides."""
    ds = _read(sf_dir, "embeddings")
    empty = pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                          "nn_vec_id": pd.Series([], dtype="int64"),
                          "cosine": pd.Series([], dtype="float64")})

    def nn_in_group(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:  # no other member: the oracle's vec_id <> join
            return empty
        g = g.sort_values("vec_id").reset_index(drop=True)
        mat = np.stack(g["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        sims = (mat @ mat.T) / np.outer(norms, norms)
        np.fill_diagonal(sims, -np.inf)
        # argmax with vec_id-ascending tie-break (rows sorted by vec_id)
        nn_idx = sims.argmax(axis=1)
        return pd.DataFrame({
            "vec_id": g["vec_id"].astype("int64"),
            "nn_vec_id": g["vec_id"].to_numpy()[nn_idx].astype("int64"),
            "cosine": np.round(sims[np.arange(len(g)), nn_idx], 6),
        })

    # every block a singleton: no row
    out = exchange.to_pandas(
        ds.groupby("label").map_groups(nn_in_group, batch_format="pandas"),
        vec_id="int64", nn_vec_id="int64", cosine="float64")
    return out.sort_values("vec_id").reset_index(drop=True)


SQL_DEDUP_EMBEDDING_NN = """
WITH e AS (
  SELECT vec_id, label, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings)
SELECT vec_id, nn_vec_id, cosine FROM (
  SELECT a.vec_id, b.vec_id AS nn_vec_id,
         round(list_cosine_similarity(a.emb, b.emb), 6) AS cosine,
         row_number() OVER (
           PARTITION BY a.vec_id
           ORDER BY list_cosine_similarity(a.emb, b.emb) DESC,
                    b.vec_id) AS rn
  FROM e a JOIN e b
    ON a.label = b.label AND a.vec_id <> b.vec_id) t
WHERE rn = 1 ORDER BY vec_id
"""


# driver-state ceiling (BASELINE.md table): the pair frame is 16 B/pair
# but the union-find dict is ~100 B/entry → ~2.3 GB at the ceiling;
# q_dedup_clusters_distributed is the zero-driver-state fallback
UNIONFIND_MAX_DRIVER_PAIRS = 20_000_000


def _cluster_label_ref(sf_dir: str):
    """Union-find over the (small) near-dup pair list with min-root
    union, broadcast as sorted parallel int64 arrays: the per-batch
    label join is a ``searchsorted`` — pure int64 end to end
    (``Series.map(dict)`` detours through float64 on misses, which
    silently rounds ids above 2^53).  Shared by the cluster-assignment
    and canonical-survivor queries."""
    import ray

    pairs = _dup_pairs(sf_dir)
    if len(pairs) > UNIONFIND_MAX_DRIVER_PAIRS:
        raise ValueError(
            f"driver union-find got {len(pairs)} near-dup pairs, over "
            f"the documented {UNIONFIND_MAX_DRIVER_PAIRS:,} ceiling "
            f"(BASELINE.md driver-state table); use "
            f"q_dedup_clusters_distributed (min-label propagation + "
            f"pointer jumping, zero driver pair state) past this size")
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            # min-root union => cluster_id is the component min doc_id
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    label = {x: find(x) for x in list(parent)}
    lk = np.fromiter(label.keys(), dtype=np.int64, count=len(label))
    lv = np.fromiter(label.values(), dtype=np.int64, count=len(label))
    o = np.argsort(lk)
    return ray.put((lk[o], lv[o]))


def _assign_cluster_ids(ids: np.ndarray, keys: np.ndarray,
                        vals: np.ndarray) -> np.ndarray:
    """Vectorized label lookup: unlabeled docs are their own cluster."""
    out = ids.copy()
    if len(keys):
        pos = np.searchsorted(keys, ids)
        pos_c = np.clip(pos, 0, len(keys) - 1)
        hit = keys[pos_c] == ids
        out[hit] = vals[pos_c[hit]]
    return out


def _labelled_docs(sf_dir: str, columns: list[str]):
    """The ``documents`` columns ``columns`` plus each doc's
    ``cluster_id``, looked up in the broadcast union-find arrays inside
    ``map_batches`` (docs never shuffle for it); ``doc_id`` as int64."""
    import ray

    label_ref = _cluster_label_ref(sf_dir)

    def assign(t: pa.Table) -> pa.Table:
        keys, vals = ray.get(label_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.set_column(t.column_names.index("doc_id"), "doc_id",
                         pa.array(ids))
        return t.append_column(
            "cluster_id", pa.array(_assign_cluster_ids(ids, keys, vals)))

    return _read_docs(sf_dir, columns).map_batches(assign,
                                                   batch_format="pyarrow")


def q_dedup_clusters(sf_dir: str):
    """Near-dup cluster assignment: connected components over the
    3-gram-Jaccard duplicate pairs; every doc gets the min doc_id of
    its component as ``cluster_id`` (the canonical keep-one-per-cluster
    step after candidate generation).

    Scale shape: the EDGE list (near-dup pairs) is orders of magnitude
    smaller than the corpus — it is the output of the LSH candidate
    path — so the union-find runs on the driver over edges only, and
    the per-doc cluster assignment is a broadcast-map ``map_batches``
    over the corpus (docs never shuffle).  For edge lists beyond driver
    memory the same converges as iterated min-label propagation
    (groupby-min per round); the oracle is an exact recursive-CTE
    transitive closure.

    Pair source: the exact all-pairs verifier up to its small-n limit
    (what the oracle expresses); past it, the LSH candidate path — the
    standalone query stays runnable at corpus scale with approximate
    (τ=0.8 verified) edges."""
    out = _labelled_docs(sf_dir, ["doc_id"]).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# shared transitive-closure prefix: exact 3-gram-Jaccard dup pairs →
# recursive-CTE connected components (consumed by the cluster and
# canonical-survivor oracles)
_SQL_CC_BODY = f"""
WITH RECURSIVE {_SQL_GRAMS}
), pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM grams a JOIN grams b ON a.doc_id < b.doc_id
  WHERE CAST(length(list_intersect(a.gs,b.gs)) AS DOUBLE) /
        (length(a.gs)+length(b.gs)-length(list_intersect(a.gs,b.gs)))
          >= {JACCARD_TAU}
), edges AS (
  SELECT doc_a AS a, doc_b AS b FROM pairs
  UNION ALL SELECT doc_b, doc_a FROM pairs
), cc(id, comp) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT e.a, cc.comp FROM cc JOIN edges e ON e.b = cc.id
  WHERE cc.comp < e.a
)"""

SQL_DEDUP_CLUSTERS = _SQL_CC_BODY + """
SELECT id AS doc_id, MIN(comp) AS cluster_id FROM cc GROUP BY id ORDER BY doc_id
"""


def q_dedup_canonical(sf_dir: str):
    """Survivorship after near-dup clustering: every doc maps to its
    cluster's CANONICAL doc — longest text wins, ties to the smallest
    doc_id (the keep-best policy real curation applies, vs the min-id
    placeholder ``dedup_clusters`` reports).

    Scale recipe: docs pick up their component label from the
    broadcast union-find arrays inside ``map_batches`` and ride ONE
    cluster-bucket exchange (a cluster lives wholly in its
    bucket, so the in-bucket winner is the global winner); the
    in-bucket pick is a vectorized sort + ``drop_duplicates`` +
    ``searchsorted`` map-back — no per-cluster Python dispatch, and
    the driver never sees texts or labels."""
    nb = _nb_docs(sf_dir)  # row-carrying exchange

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["cluster_id", "n_chars", "doc_id"],
                          ascending=[True, False, True], kind="mergesort")
        canon = d.drop_duplicates("cluster_id")
        ck = canon["cluster_id"].to_numpy(np.int64)
        cv = canon["doc_id"].to_numpy(np.int64)
        pos = np.searchsorted(ck, g["cluster_id"].to_numpy(np.int64))
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(np.int64),
            "canonical_id": cv[pos],
        })

    out = exchange.shuffle(_labelled_docs(sf_dir, ["doc_id", "n_chars"]),
                           "cluster_id", nb, pick).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["canonical_id"] = out["canonical_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_DEDUP_CANONICAL = _SQL_CC_BODY + """
, lab AS (SELECT id AS doc_id, MIN(comp) AS cluster_id FROM cc GROUP BY id)
, j AS (SELECT l.doc_id, l.cluster_id, d.n_chars
        FROM lab l JOIN documents d ON d.doc_id = l.doc_id)
, canon AS (
  SELECT cluster_id, doc_id AS canonical_id FROM (
    SELECT cluster_id, doc_id,
           ROW_NUMBER() OVER (PARTITION BY cluster_id
                              ORDER BY n_chars DESC, doc_id) AS rn
    FROM j) t WHERE rn = 1
)
SELECT j.doc_id, c.canonical_id
FROM j JOIN canon c ON c.cluster_id = j.cluster_id
ORDER BY j.doc_id
"""


_LABELS = {"node": _I64, "label": _I64}
_SENDS = {"node": _I64, "nbr": _I64}


def _send_labels(lab: pd.DataFrame, send: pd.DataFrame) -> pd.DataFrame:
    """One bucket of a propagation step: every ``(node, nbr)`` row of
    ``send`` offers node's label to nbr; the owners' labels stay."""
    msgs = send.merge(lab, on="node")[["nbr", "label"]]
    return pd.concat([lab, msgs.rename(columns={"nbr": "node"})],
                     ignore_index=True)


def _min_label(g: pd.DataFrame) -> pd.DataFrame:
    return g.groupby("node", as_index=False)["label"].min()


def cluster_labels_distributed(sf_dir: str, pairs,
                               max_rounds: int = 64):
    """Distributed min-label propagation with pointer jumping:
    connected components where labels, edges and messages all live as
    Datasets bucketed on the node id (size-derived fan-out, never
    per-node groups).

    Per round, two steps, each one cogroup of labels with a
    ``(node, nbr)`` send list (``_send_labels``) and one shuffle taking
    the min label per node:

    1. *edge step* — the sends are the edges in both directions, so
       every node offers its label to its neighbours;
    2. *shortcut step* (pointer jumping) — the sends are the round's
       starting labels read as ``(label, node)``: every node asks its
       label's owner for that owner's edge-step label
       (``label'[label[node]]``), doubling pointer depth per round so
       a path graph converges in O(log diameter) rounds rather than
       O(diameter).  Reading the starting labels, which are
       materialized, keeps a round one lazy plan.

    Labels decrease monotonically to the component min; the fixed
    point is detected with a cheap ``sum(label)`` aggregate.  Raises
    ``RuntimeError`` if ``max_rounds`` is exhausted before convergence
    — silent partial labels would be wrong data.

    ``pairs`` may be a pandas DataFrame (small candidate lists) or a
    Dataset with ``doc_a``/``doc_b`` columns."""
    import ray.data as rd

    nb = _nb_docs(sf_dir)  # row-carrying exchange
    labels = _read_docs(sf_dir, ["doc_id"]).map_batches(
        lambda t: pa.table({"node": t["doc_id"], "label": t["doc_id"]}),
        batch_format="pyarrow").materialize()
    nblocks = labels.num_blocks()
    if isinstance(pairs, pd.DataFrame):
        if pairs.empty:
            out = labels.to_pandas()
            return out.rename(columns={"node": "doc_id", "label": "cluster_id"})
        pairs = rd.from_pandas(pairs.reset_index(drop=True))

    def both_directions(t: pa.Table) -> pa.Table:
        a, b = t["doc_a"], t["doc_b"]
        return pa.concat_tables([pa.table({"node": a, "nbr": b}),
                                 pa.table({"node": b, "nbr": a})])

    def ask_owner(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["label"], "nbr": t["node"]})

    def step(labels, sends, project):
        sent = exchange.cogroup([(labels, _LABELS, None),
                                 (sends, _SENDS, project)],
                                "node", nb, _send_labels)
        return exchange.shuffle(sent, "node", nb, _min_label)

    prev_sum = None
    converged = False
    for _ in range(max_rounds):
        stepped = step(labels, pairs, both_directions)
        # labels feed both steps, so the round's output has twice their
        # blocks (a sort keeps its input's block count): repartition
        # keeps the count fixed across rounds
        labels = step(stepped, labels, ask_owner).repartition(
            nblocks).materialize()
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:  # fixed point (labels only decrease)
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        raise RuntimeError(
            f"label propagation did not converge in {max_rounds} rounds; "
            f"raise max_rounds (components deeper than 2^rounds exist)"
        )
    out = labels.to_pandas()[["node", "label"]]
    return out.rename(columns={"node": "doc_id", "label": "cluster_id"})


_DUP_PAIRS_CACHE: dict[tuple, pd.DataFrame] = {}


def _dup_pairs(sf_dir: str) -> pd.DataFrame:
    """Shared pair source for cluster assignment: exact all-pairs up to
    the guard, the LSH candidate path past it.

    Memoized per (sf_dir, documents mtime): three queries (cluster
    assignment, distributed labels, canonical survivorship) consume the
    same small pair table, and pair generation dominates their cost.
    The cached value is a driver-side pandas frame (no object-store
    refs), so it stays valid across ``ray.init`` cycles — unlike the
    Dataset caches, no session key is needed."""
    from crawler_tjce_ray.sources.docs import documents_mtime

    key = (sf_dir, documents_mtime(sf_dir))
    if key not in _DUP_PAIRS_CACHE:
        try:
            pairs = q_dedup_ngram_jaccard(sf_dir)[["doc_a", "doc_b"]]
        except ValueError:
            pairs = q_dedup_minhash_lsh(sf_dir)[["doc_a", "doc_b"]]
        for old in [k for k in _DUP_PAIRS_CACHE if k[0] == sf_dir]:
            _DUP_PAIRS_CACHE.pop(old, None)
        _DUP_PAIRS_CACHE[key] = pairs
    return _DUP_PAIRS_CACHE[key]


def q_dedup_clusters_distributed(sf_dir: str):
    """Same result as ``q_dedup_clusters`` computed by the distributed
    label-propagation path (shares the exact-pairs oracle)."""
    out = cluster_labels_distributed(sf_dir, _dup_pairs(sf_dir))
    out["doc_id"] = out["doc_id"].astype("int64")
    out["cluster_id"] = out["cluster_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_dedup_paragraphs(sf_dir: str):
    """Paragraph-level exact dedup across the corpus: each distinct
    paragraph (newline-delimited) survives only at its GLOBAL first
    occurrence — ordered by (doc_id, position) — and every document
    reassembles from its surviving paragraphs (docs left empty drop).
    The classic boilerplate-paragraph removal pass of a webtext
    pipeline.

    Fully distributed, zero driver state: (1) explode paragraphs with
    positions; (2) ONE shuffle on paragraph-hash buckets — every
    occurrence of a paragraph lands in the same bucket, so the winner
    (min (doc_id, position)) is decided in-bucket with a vectorized
    sort + drop_duplicates, no join; (3) ONE shuffle on doc-id
    buckets to reassemble each document's survivors in order.  The
    paragraph hop is keyed on the string itself (``exchange.kb_arrow``'s
    process-stable siphash)."""
    nb = _nb_docs(sf_dir)  # row-carrying exchange
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ex = pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "para": df["text"].str.split("\n"),
        }).explode("para", ignore_index=True)
        ex["i"] = (ex.groupby("doc_id").cumcount() + 1).astype("int64")
        return ex

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["para", "doc_id", "i"], kind="mergesort")
        return g.drop_duplicates("para")[["doc_id", "i", "para"]]

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "i"], kind="mergesort")
        gg = g.groupby("doc_id")
        out = pd.DataFrame({
            "n_kept": gg["para"].size().astype("int64"),
            "text_deduped": gg["para"].agg("\n".join),
        }).reset_index()
        return out[["doc_id", "n_kept", "text_deduped"]]

    kept = exchange.shuffle(docs.map_batches(explode, batch_format="pandas"),
                            "para", nb, keep_first)
    out = exchange.shuffle(kept, "doc_id", nb, reassemble).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_DEDUP_PARAGRAPHS = """
WITH s AS (
  SELECT doc_id, string_split(text, chr(10)) AS ps FROM documents
), p AS (
  SELECT doc_id, i, ps[i] AS para
  FROM (SELECT doc_id, ps, unnest(range(1, len(ps) + 1)) AS i FROM s)
), r AS (
  SELECT doc_id, i, para,
         row_number() OVER (PARTITION BY para ORDER BY doc_id, i) AS rn
  FROM p
)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_kept,
       string_agg(para, chr(10) ORDER BY i) AS text_deduped
FROM r WHERE rn = 1 GROUP BY doc_id ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# exact Jaccard self-join via prefix filtering (PPJoin-style)
# ---------------------------------------------------------------------------

# Count-Min sketch for the global gram-rarity order: D rows × W int64
# counters (4 × 2^20 × 8 B ≈ 34 MB merged) — FIXED driver/broadcast
# state at any corpus size.  Multiplicative hashes over the gram digest.
_CMS_D, _CMS_W_LOG2 = 4, 20
_CMS_W = 1 << _CMS_W_LOG2
_CMS_MULTS = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
     0x165667B19E3779F9, 0x27D4EB2F165667C5],
    dtype=np.uint64,
)

# tau as an exact rational (float -> exact binary fraction) for the
# integer prune bounds below
_TAU_P, _TAU_Q = JACCARD_TAU.as_integer_ratio()


def _ceil_tau_mul(n: np.ndarray) -> np.ndarray:
    """Exact ⌈τ·n⌉ for integer n — integer arithmetic over the unique
    values (Python ints, so τ's full 53-bit numerator cannot overflow
    like a float or int64 product would).  np.ceil(TAU * n) in float
    over-estimates the exact bound for some τ (verified at τ=0.8,
    n=63: 29 vs 28), which would silently drop true boundary pairs."""
    u, inv = np.unique(n, return_inverse=True)
    vals = np.array(
        [-((-_TAU_P * int(x)) // _TAU_Q) for x in u], dtype=np.int64
    )
    return vals[inv]


def _alpha_overlap(total: np.ndarray) -> np.ndarray:
    """Exact minimum intersection ⌈τ/(1+τ)·(s_a+s_b)⌉ = ⌈P·s/(P+Q)⌉
    for J ≥ τ, MINUS one unit of slack: the final verification
    compares a correctly-rounded float ratio against τ, which can
    admit pairs whose exact ratio sits half an ulp below τ — the
    slack guarantees the prune never disagrees with that final test,
    at the cost of a few extra candidates."""
    u, inv = np.unique(total, return_inverse=True)
    vals = np.array(
        [-((-_TAU_P * int(x)) // (_TAU_P + _TAU_Q)) for x in u],
        dtype=np.int64,
    )
    return vals[inv] - 1


def _cms_cells(h: np.ndarray) -> np.ndarray:
    """(D, n) counter indices for gram digests ``h`` (vectorized
    multiplicative hashing; wraparound multiply is intentional)."""
    with np.errstate(over="ignore"):
        prod = h[None, :] * _CMS_MULTS[:, None]
    return (prod >> np.uint64(64 - _CMS_W_LOG2)).astype(np.int64)


def q_dedup_jaccard_prefix(sf_dir: str):
    """Exact all-pairs word-3-gram Jaccard ≥ τ WITHOUT the O(n²)
    broadcast: prefix filtering (the PPJoin principle, public
    literature).  Same output as ``q_dedup_ngram_jaccard`` — this is
    the scale path for the exact join.

    Why it works: order grams by global rarity (estimated document
    frequency, digest tie-break).  If J(A,B) ≥ τ then |A∩B| ≥ ⌈τ·|A|⌉,
    so the rarity-prefix of length |S| − ⌈τ·|S|⌉ + 1 of each set must
    share a gram with its partner's prefix — only docs sharing a
    *prefix* gram ever become candidates, and a size filter
    (τ·max ≤ min) prunes further before exact verification.  The
    lemma needs ANY globally consistent total order; exact df only
    tunes candidate count.  So instead of a gram-keyed df shuffle the
    order comes from a Count-Min sketch: one map pass builds per-batch
    (D×W) partials, the driver stream-merges them (holding one ~34 MB
    partial at a time — fixed at any corpus size) and broadcasts the
    merged sketch once; the estimated-df
    order is then computed BATCH-LOCALLY — same sketch everywhere →
    same global order.

    Distributed plan (exchanges carry 8-byte digests, never text):
    map (CMS partials) → map (grams + in-batch prefix selection) →
    one shuffle on the uint64 prefix-gram digest pairing docs that
    share a prefix gram (size-filtered) → ``_verify_pairs``, the
    exact-Jaccard verifier MinHash+LSH uses too (a broadcast index at
    or below ``VERIFY_BROADCAST_MAX_DOCS`` candidate docs, two cogroup
    hops above it).

    The gram/prefix exchanges are corpus-scale (row-carrying), so
    their fan-out sizes from the documents bytes."""
    import ray

    nb = _nb_docs(sf_dir)
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    # pass 1: per-batch CMS partials → driver sum → broadcast once
    # (grams via the vectorized batch kernel — one token-hash pass per
    # batch instead of an md5 per shingle; digest domain is shared
    # with doc_gram_rows below, which is all consistency the rarity
    # order needs)
    def cms_partial(t: pa.Table) -> pd.DataFrame:
        sk = np.zeros((_CMS_D, _CMS_W), np.int64)
        for h in batch_gram_hashes(t["text"], sep=" "):
            idx = _cms_cells(h)
            for d in range(_CMS_D):
                np.add.at(sk[d], idx[d], 1)
        return pd.DataFrame({"sk": [sk.tobytes()]})

    # streaming merge: iter_batches holds ONE partial + the merged
    # sketch at a time (a to_pandas() here would concatenate every
    # ~34 MB partial on the driver — linear in corpus size)
    merged = np.zeros((_CMS_D, _CMS_W), np.int64)
    for b in ds.map_batches(cms_partial, batch_format="pyarrow") \
               .iter_batches(batch_size=None, batch_format="pandas"):
        for blob in b["sk"]:
            merged += np.frombuffer(blob, np.int64).reshape(_CMS_D, _CMS_W)
    sk_ref = ray.put(merged)

    # pass 2: gram rows + BATCH-LOCAL prefix selection (docs are
    # batch-local; the broadcast sketch makes the order global)
    def doc_gram_rows(t: pa.Table) -> pd.DataFrame:
        sk = ray.get(sk_ref)
        ghs = batch_gram_hashes(t["text"], sep=" ")
        ids, gks, sizes, pfx, pos = [], [], [], [], []
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        for i, h in zip(doc_ids, ghs):
            est = sk[np.arange(_CMS_D)[:, None], _cms_cells(h)].min(axis=0)
            order = np.lexsort((h, est))  # rarity first, digest tie-break
            # exact-integer ⌈τ·s⌉ plus one slack gram (see _alpha_overlap
            # for why the float final test needs the unit of slack)
            ct = -((-_TAU_P * len(h)) // _TAU_Q)
            plen = min(len(h), len(h) - int(ct) + 2)
            mask = np.zeros(len(h), bool)
            mask[order[:max(plen, 1)]] = True
            rank = np.empty(len(h), np.int64)
            rank[order] = np.arange(len(h), dtype=np.int64)
            ids.append(np.full(len(h), int(i), dtype=np.int64))
            gks.append(h)
            sizes.append(np.full(len(h), len(h), dtype=np.int64))
            pfx.append(mask)
            pos.append(rank)
        return pd.DataFrame({
            "doc_id": np.concatenate(ids) if ids else np.array([], np.int64),
            "gkey": np.concatenate(gks) if gks else np.array([], np.uint64),
            "s": np.concatenate(sizes) if sizes else np.array([], np.int64),
            "pfx": np.concatenate(pfx) if pfx else np.array([], bool),
            "p": np.concatenate(pos) if pos else np.array([], np.int64),
        })

    # candidate pairs: docs sharing a prefix gram, size-compatible —
    # the shuffle carries prefix rows only (~half the grams)
    def cands_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="gkey", suffixes=("_a", "_b"))
        m = m.loc[m["doc_id_a"] < m["doc_id_b"]]
        mn = np.minimum(m["s_a"].to_numpy(), m["s_b"].to_numpy())
        mx = np.maximum(m["s_a"].to_numpy(), m["s_b"].to_numpy())
        m = m.loc[mn >= _ceil_tau_mul(mx) - 1]  # -1: float-test slack
        # PPJoin positional filter (public literature): with a shared
        # prefix gram at rarity-ranks (p_a, p_b), the intersection is
        # ≤ 1 + min(s_a − p_a − 1, s_b − p_b − 1) — everything common
        # sits at or after the shared gram in BOTH rarity orders.  A
        # true pair's rarest common gram occurrence always passes, so
        # dropping rows below the exact-integer overlap bound
        # (_alpha_overlap, slack included) loses nothing and prunes
        # same-sized corpora hard (only early-prefix matches survive).
        ub = 1 + np.minimum(m["s_a"] - m["p_a"] - 1, m["s_b"] - m["p_b"] - 1)
        alpha = _alpha_overlap(
            m["s_a"].to_numpy(np.int64) + m["s_b"].to_numpy(np.int64)
        )
        m = m.loc[ub.to_numpy() >= alpha]
        # a pair found via prefix grams in several buckets repeats
        # across buckets; the verifier drops the repeats
        return m[["doc_id_a", "doc_id_b"]].drop_duplicates().rename(
            columns={"doc_id_a": "doc_a", "doc_id_b": "doc_b"})

    cands = exchange.shuffle(
        ds.map_batches(doc_gram_rows, batch_format="pyarrow"), "gkey", nb,
        cands_in_bucket,
        combine=lambda t: t.filter(t["pfx"]).select(["gkey", "doc_id", "s", "p"]),
    ).materialize()
    return _verify_pairs(ds, cands, JACCARD_TAU, nb)


# ---------------------------------------------------------------------------
# exact substring-dedup CLEANING (remove cross-doc duplicated spans)
# ---------------------------------------------------------------------------

SUBSTR_N = 8  # words per duplicated window (the Lee et al. unit)


def q_dedup_substring_clean(sf_dir: str):
    """The REMOVAL form of substring dedup ("Deduplicating Training
    Data Makes Language Models Better", Lee et al. 2022, public): drop
    every word covered by a ``SUBSTR_N``-word window whose exact
    content also appears in at least one OTHER document, and emit the
    cleaned text.

    Distributed plan (two bucket shuffles, both digest-keyed):
    (1) every window position becomes a (doc, pos, rolling-digest) row;
    the gram-bucket shuffle holds ALL rows of a digest, so the
    cross-doc test (distinct-doc count ≥ 2) is exact in-bucket and
    only duplicated positions come out.  (2) a doc-id cogroup of the
    docs table with those dup starts (text rides this ONE exchange,
    which is unavoidable: the output IS transformed text); inside a
    bucket each doc's coverage mask is a diff-array cumsum over its dup
    starts and the kept words reassemble in order.  Driver state: none
    beyond the streamed result.  Both exchanges carry row-level data
    (window rows ∝ corpus words; the doc hop carries text), so their
    fan-outs size from the documents bytes (the gram hop as 4× the
    bytes, because each word fans out into ~1 window row)."""
    nb_doc, nb_gram = _nb_docs(sf_dir), _nb_docs(sf_dir, 4)
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def window_rows(df: pd.DataFrame) -> pd.DataFrame:
        # window digests without per-window Python: hash every token
        # of the batch once (process-stable C siphash, the
        # batch_gram_hashes discipline), then each doc's n_win window
        # keys fall out of SUBSTR_N Horner slice ops over its token
        # hashes (digest identity is global because the token hash is;
        # collisions are the same 64-bit exposure the old truncated
        # md5 carried)
        token_lists = [t.split(" ") for t in df["text"]]
        total = sum(len(x) for x in token_lists)
        th = np.empty(0, np.uint64)
        if total:
            flat = np.empty(total, dtype=object)
            pos = 0
            for toks in token_lists:
                flat[pos:pos + len(toks)] = toks
                pos += len(toks)
            th = pd.util.hash_array(flat)
        ids, poss, gks = [], [], []
        pos = 0
        for i, toks in zip(df["doc_id"], token_lists):
            n = len(toks)
            h = th[pos:pos + n]
            pos += n
            if n < SUBSTR_N:
                continue
            n_win = n - SUBSTR_N + 1
            digs = np.zeros(n_win, np.uint64)
            with np.errstate(over="ignore"):  # wraparound IS the hash
                for k in range(SUBSTR_N):
                    digs = digs * _GRAM_P + h[k:k + n_win]
            ids.append(np.full(n_win, int(i), np.int64))
            poss.append(np.arange(n_win, dtype=np.int64))
            gks.append(digs)
        return pd.DataFrame({
            "doc_id": np.concatenate(ids) if ids else np.array([], np.int64),
            "pos": np.concatenate(poss) if poss else np.array([], np.int64),
            "gkey": np.concatenate(gks) if gks else np.array([], np.uint64),
        })

    def dup_positions(g: pd.DataFrame) -> pd.DataFrame:
        nd = g.groupby("gkey")["doc_id"].transform("nunique")
        return g.loc[nd.to_numpy() >= 2, ["doc_id", "pos"]]

    dups = exchange.shuffle(ds.map_batches(window_rows, batch_format="pandas"),
                            "gkey", nb_gram, dup_positions)

    def clean_bucket(docs: pd.DataFrame, dup: pd.DataFrame) -> pd.DataFrame:
        starts = dup.groupby("doc_id")["pos"].apply(np.sort)
        rows = []
        for i, t in zip(docs["doc_id"], docs["text"]):
            ws = t.split(" ")
            st = starts.get(i)
            if st is None:
                rows.append((int(i), len(ws), 0, t))
                continue
            diff = np.zeros(len(ws) + 1, np.int64)
            np.add.at(diff, st, 1)
            np.add.at(diff, np.minimum(st + SUBSTR_N, len(ws)), -1)
            covered = np.cumsum(diff[:-1]) > 0
            kept = [w for w, c in zip(ws, covered) if not c]
            rows.append((int(i), len(ws), int(covered.sum()), " ".join(kept)))
        return pd.DataFrame(rows, columns=[
            "doc_id", "n_words", "n_removed", "clean_text",
        ])

    out = exchange.cogroup(
        [(ds, {"doc_id": _I64, "text": pa.string()}, None),
         (dups, {"doc_id": _I64, "pos": _I64}, None)],
        "doc_id", nb_doc, clean_bucket,
    ).to_pandas()
    out = out.astype({"doc_id": "int64", "n_words": "int64", "n_removed": "int64"})
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_DEDUP_SUBSTRING_CLEAN = f"""
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), win AS (
  SELECT doc_id, r.i,
         array_to_string(ws[r.i:r.i + {SUBSTR_N - 1}], ' ') AS g
  FROM t, LATERAL (SELECT unnest(range(1, len(ws) - {SUBSTR_N - 2})) AS i) r
  WHERE len(ws) >= {SUBSTR_N}
), shared AS (
  SELECT g FROM win GROUP BY g HAVING COUNT(DISTINCT doc_id) >= 2
), covered AS (
  SELECT DISTINCT w.doc_id, w.i + o.o AS j
  FROM win w, (SELECT unnest(range(0, {SUBSTR_N})) AS o) o
  WHERE w.g IN (SELECT g FROM shared)
), posns AS (
  SELECT doc_id, ws, unnest(range(1, len(ws) + 1)) AS j FROM t
), keptw AS (
  SELECT p.doc_id, p.j, p.ws[p.j] AS w
  FROM posns p LEFT JOIN covered c ON p.doc_id = c.doc_id AND p.j = c.j
  WHERE c.doc_id IS NULL
)
SELECT t.doc_id,
       CAST(len(t.ws) AS BIGINT) AS n_words,
       CAST(len(t.ws) - COALESCE(k.nk, 0) AS BIGINT) AS n_removed,
       COALESCE(k.ct, '') AS clean_text
FROM t LEFT JOIN (
  SELECT doc_id, COUNT(*) AS nk, string_agg(w, ' ' ORDER BY j) AS ct
  FROM keptw GROUP BY doc_id
) k USING (doc_id)
ORDER BY t.doc_id
"""


QUERIES = {
    "dedup_exact": q_dedup_exact,
    "dedup_paragraphs": q_dedup_paragraphs,
    "dedup_clusters": q_dedup_clusters,
    "dedup_canonical": q_dedup_canonical,
    "dedup_clusters_distributed": q_dedup_clusters_distributed,
    "dedup_ngram_jaccard": q_dedup_ngram_jaccard,
    "dedup_jaccard_prefix": q_dedup_jaccard_prefix,
    "dedup_minhash_lsh": q_dedup_minhash_lsh,
    "dedup_simhash": q_dedup_simhash,
    "dedup_embedding_nn": q_dedup_embedding_nn,
    "dedup_substring_clean": q_dedup_substring_clean,
    "dup_rate_by_source": q_dup_rate_by_source,
    "cross_source_dup_matrix": q_cross_source_dup_matrix,
}

ORACLE_SQL = {
    "dedup_exact": SQL_DEDUP_EXACT,
    "dedup_paragraphs": SQL_DEDUP_PARAGRAPHS,
    "dedup_clusters": SQL_DEDUP_CLUSTERS,
    "dedup_canonical": SQL_DEDUP_CANONICAL,
    "dedup_clusters_distributed": SQL_DEDUP_CLUSTERS,
    "dedup_ngram_jaccard": SQL_DEDUP_NGRAM_JACCARD,
    "dedup_minhash_lsh": SQL_DEDUP_MINHASH_LSH,
    "dedup_jaccard_prefix": SQL_DEDUP_NGRAM_JACCARD,
    "dedup_embedding_nn": SQL_DEDUP_EMBEDDING_NN,
    "dedup_substring_clean": SQL_DEDUP_SUBSTRING_CLEAN,
    "dup_rate_by_source": SQL_DUP_RATE_BY_SOURCE,
    "cross_source_dup_matrix": SQL_CROSS_SOURCE_DUP_MATRIX,
}
