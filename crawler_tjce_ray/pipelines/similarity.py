"""Similarity search over the ``embeddings`` table: brute-force cosine
top-k (oracle-checked baseline) and an IVF-bucketed approximate
variant (the scale path).

Scale design (100 TB / 10⁹ vectors):
- the query matrix is tiny and broadcast ONCE via ``ray.put`` — every
  ``map_batches`` task reads it zero-copy from the object store, it is
  never re-shipped per batch.
- each batch does one float64 matmul (vectors × queries) and keeps only
  its per-batch top-k per query (a combiner!), so the final
  ``groupby(query_id)`` shuffle moves O(#batches · Q · k) rows — not
  the corpus.
- IVF: deterministic centroids, partition assignment inside
  ``map_batches``, per-(query, probed-centroid) candidate search; the
  recall/cost trade is pinned in tests/test_dedup_similarity.py vs brute
  force.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

N_QUERIES = 8  # queries = vec_id < 8 (deterministic, in-corpus)
TOP_K = 5


def _read_emb(sf_dir: str, columns=("vec_id", "embedding")):
    """Pruned read, split into blocks sized from the file's bytes —
    at most one per two cluster CPUs, as each block runs a matmul."""
    from crawler_tjce_ray.pipelines.exchange import scan

    return scan(f"{sf_dir}/embeddings.parquet", columns, 2)


def _query_matrix(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """The Q×d query matrix — a provably small side, loaded once on the
    driver and broadcast."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        # row-group pushdown: only the provably small query side is
        # read from storage, never the corpus
        filters=[("vec_id", "<", N_QUERIES)],
    ).to_pandas()
    t = t.sort_values("vec_id")
    q = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    return t["vec_id"].to_numpy(), q


def final_topk(g: pd.DataFrame) -> pd.DataFrame:
    """Per-query final reduce: (cosine desc, vec_id asc) tie-break,
    1-based rank — shared by the brute-force baseline and the IVF path
    so their ranking semantics can never diverge."""
    g = g.sort_values(["cosine", "vec_id"], ascending=[False, True]).head(TOP_K)
    g = g.reset_index(drop=True)
    g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
    return g[["query_id", "rank", "vec_id", "cosine"]]


def _per_query_topk(sf_dir: str, partial) -> pd.DataFrame:
    """The shared tail of the three top-k searches: ``partial`` (pandas
    batch → per-batch (query_id, vec_id, cosine) top-k rows) over the
    embeddings scan, then ``final_topk`` per query.  A true per-key
    group, not a bucket exchange: there are ``N_QUERIES`` keys, each
    group holds at most blocks × ``TOP_K`` rows, and ``final_topk``
    ranks one query at a time."""
    from crawler_tjce_ray.pipelines.exchange import to_pandas

    out = to_pandas(
        _read_emb(sf_dir).map_batches(partial, batch_format="pandas")
        .groupby("query_id").map_groups(final_topk, batch_format="pandas"),
        query_id="int64", rank="int64", vec_id="int64", cosine="float64")
    out["cosine"] = np.round(out["cosine"], 6)
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _empty_scores() -> pd.DataFrame:
    """Typed empty partial of a batch with no candidate for any
    query."""
    return pd.DataFrame(columns=["query_id", "vec_id", "cosine"]).astype(
        {"query_id": "int64", "vec_id": "int64", "cosine": "float64"}
    )


def _topk_scores_batch(
    df: pd.DataFrame, qids: np.ndarray, qmat: np.ndarray, k: int
) -> pd.DataFrame:
    """One batch × all queries: float64 matmul, per-batch top-k per
    query (partial combine)."""
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    vnorm = np.linalg.norm(mat, axis=1)
    qnorm = np.linalg.norm(qmat, axis=1)
    sims = (mat @ qmat.T) / np.outer(vnorm, qnorm)  # rows × Q
    ids = df["vec_id"].to_numpy()
    rows = []
    kk = min(k, len(ids))
    for qi in range(len(qids)):
        col = sims[:, qi]
        # top-k with (cosine desc, vec_id asc) tie-break
        take = np.lexsort((ids, -col))[:kk]
        for r in take:
            rows.append((int(qids[qi]), int(ids[r]), col[r]))
    return pd.DataFrame(rows, columns=["query_id", "vec_id", "cosine"])


def q_ann_cosine_topk(sf_dir: str):
    """Brute-force cosine top-k per query: broadcast query matrix,
    per-batch matmul + partial top-k, final per-query reduce over the
    tiny partials.  Cosine in float64 end-to-end; rounded to 6dp on
    both sides (rank computed pre-rounding, tie-break vec_id asc)."""
    import ray

    qids, qmat = _query_matrix(sf_dir)
    ref = ray.put((qids, qmat))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        qi, qm = ray.get(ref)
        return _topk_scores_batch(df, qi, qm, TOP_K)

    return _per_query_topk(sf_dir, partial)


SQL_ANN_COSINE_TOPK = f"""
WITH e AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
q AS (SELECT vec_id AS query_id, emb AS qemb FROM e WHERE vec_id < {N_QUERIES}),
scored AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(e.emb, q.qemb) AS cos_raw,
         row_number() OVER (
           PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(e.emb, q.qemb) DESC, e.vec_id
         ) AS rank
  FROM e CROSS JOIN q)
SELECT query_id, CAST(rank AS BIGINT) AS rank, vec_id,
       round(cos_raw, 6) AS cosine
FROM scored WHERE rank <= {TOP_K}
ORDER BY query_id, rank
"""


# ---------------------------------------------------------------------------
# IVF-bucketed approximate variant (the 10⁹-vector scale path)
# ---------------------------------------------------------------------------

N_CENTROIDS = 16
N_PROBE = 4


def _centroids(sf_dir: str) -> np.ndarray:
    """Deterministic centroids: every (n//C)-th vector by vec_id —
    seeded selection standing in for a k-means fit (which at scale is
    its own small Ray job over a sample)."""
    import pyarrow.parquet as pq

    n = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    step = max(1, n // N_CENTROIDS)
    wanted = list(range(0, n, step))[:N_CENTROIDS]
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", wanted)],  # centroid rows only
    ).to_pandas().sort_values("vec_id")
    sel = t.head(N_CENTROIDS)
    c = np.stack(sel["embedding"].to_numpy()).astype(np.float64)
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def q_ann_ivf_topk(sf_dir: str):
    """IVF-style ANN: assign every vector to its nearest centroid
    inside ``map_batches`` (one matmul per batch vs the broadcast
    centroid matrix), keep only vectors in each query's ``nprobe``
    nearest cells, then the same partial-top-k + per-query reduce as
    the brute-force path.  Oracle-backed (round 5):
    ``SQL_ANN_IVF_TOPK`` emulates the IVF semantics exactly (strided
    centroids, argmax-cosine cells, ``N_PROBE`` probes, same ranking);
    recall vs brute force is additionally asserted in
    tests/test_dedup_similarity.py."""
    import ray

    qids, qmat = _query_matrix(sf_dir)
    cents = _centroids(sf_dir)
    qn = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    probes = np.argsort(-(qn @ cents.T), axis=1)[:, :N_PROBE]  # Q × nprobe
    ref = ray.put((qids, qmat, cents, probes))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        qi, qm, cc, pr = ray.get(ref)
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        cell = (mn @ cc.T).argmax(axis=1)
        outs = []
        for k in range(len(qi)):
            mask = np.isin(cell, pr[k])
            if not mask.any():
                continue
            sub = df.iloc[np.nonzero(mask)[0]]
            outs.append(
                _topk_scores_batch(sub, qi[k : k + 1], qm[k : k + 1], TOP_K)
            )
        if not outs:
            return _empty_scores()
        return pd.concat(outs, ignore_index=True)

    return _per_query_topk(sf_dir, partial)


# ---------------------------------------------------------------------------
# random-hyperplane LSH variant (bucket-prefilter scale path)
# ---------------------------------------------------------------------------

LSH_BITS = 8          # hyperplanes → 2^8 buckets
LSH_HAMMING = 3       # probe buckets within this Hamming radius
# (radius 3 probes 93/256 ≈ 36% of buckets → ~0.6 top-5 recall on the
# synthetic 64-d vectors; radius is THE recall/cost knob — at corpus
# scale use more bits with multi-table OR-construction instead)


def _hyperplanes(dim: int) -> np.ndarray:
    """Deterministic Gaussian hyperplanes (fixed seed — every task and
    every run derives the identical hash family)."""
    rng = np.random.default_rng(20260817)
    h = rng.standard_normal((LSH_BITS, dim))
    return h / np.linalg.norm(h, axis=1, keepdims=True)


def _lsh_codes(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Sign-bit codes: code = Σ (x·hᵢ > 0) << i — one matmul."""
    bits = (mat @ planes.T) > 0
    return (bits.astype(np.uint32) << np.arange(LSH_BITS, dtype=np.uint32)).sum(
        axis=1
    )


# 8-bit popcount table (numpy<2 has no bitwise_count)
_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def q_ann_lsh_topk(sf_dir: str):
    """Random-hyperplane LSH ANN: vectors hash to sign-bit buckets
    inside ``map_batches`` (one matmul vs the broadcast hyperplane
    matrix); each query scores only vectors whose bucket lies within
    Hamming radius ``LSH_HAMMING`` of the query's bucket (cosine
    similarity ⇔ few hyperplane sign disagreements), then the same
    partial-top-k + shared ``final_topk`` reduce.

    Oracle-backed (round 5): ``SQL_ANN_LSH_TOPK`` reproduces the EXACT
    LSH semantics in DuckDB — the fixed-seed hyperplane constants are
    inlined as literals, the sign-bit code is 8 CASE terms over
    ``list_dot_product``, and the radius filter is
    ``bit_count(xor(code, qcode)) <= {LSH_HAMMING}``.  Sign safety:
    the smallest |projection| across all three pinned corpora is
    ~1e-5, eight orders above the ~1e-13 summation-order noise between
    numpy's and DuckDB's dot products, so bucket membership can never
    diverge.  Recall vs brute force additionally pinned in
    tests/test_dedup_similarity.py."""
    import ray

    qids, qmat = _query_matrix(sf_dir)
    dim = qmat.shape[1]
    planes = _hyperplanes(dim)
    qcodes = _lsh_codes(qmat.astype(np.float64), planes)
    ref = ray.put((qids, qmat, planes, qcodes))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        qi, qm, pl, qc = ray.get(ref)
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        codes = _lsh_codes(mat, pl)
        # stack + norms ONCE per batch; per-query work is a slice +
        # one masked matvec (not a re-stack per query)
        vnorm = np.linalg.norm(mat, axis=1)
        qnorm = np.linalg.norm(qm, axis=1)
        ids = df["vec_id"].to_numpy()
        rows = []
        for k in range(len(qi)):
            ham = _POPCNT8[(codes ^ qc[k]) & 0xFF]
            mask = ham <= LSH_HAMMING
            if not mask.any():
                continue
            sims = (mat[mask] @ qm[k]) / (vnorm[mask] * qnorm[k])
            sub_ids = ids[mask]
            take = np.lexsort((sub_ids, -sims))[: min(TOP_K, len(sub_ids))]
            rows.extend(
                (int(qi[k]), int(sub_ids[r]), sims[r]) for r in take
            )
        return pd.DataFrame(
            rows, columns=["query_id", "vec_id", "cosine"]
        ).astype({"query_id": "int64", "vec_id": "int64", "cosine": "float64"})

    return _per_query_topk(sf_dir, partial)


def _lsh_oracle_sql(dim: int = 64) -> str:
    """DuckDB oracle with the engine's exact LSH semantics: the same
    fixed-seed normalized hyperplanes (inlined as repr'd float64
    literals — bit-identical constants on both engines), the same
    sign-bit code, the same Hamming-radius candidate filter, the same
    (cosine desc, vec_id asc) ranking cut at TOP_K.  ``dim`` is pinned
    to the corpus embedding width (64 across the testdata tables)."""
    planes = _hyperplanes(dim)
    terms = []
    for i in range(LSH_BITS):
        vec = ", ".join(repr(float(x)) for x in planes[i])
        terms.append(
            f"(CASE WHEN list_dot_product(emb, [{vec}]) > 0 "
            f"THEN {1 << i} ELSE 0 END)"
        )
    code = "\n       + ".join(terms)
    return f"""
WITH e AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
coded AS (
  SELECT vec_id, emb,
         CAST({code} AS BIGINT) AS code
  FROM e),
q AS (
  SELECT vec_id AS query_id, emb AS qemb, code AS qcode
  FROM coded WHERE vec_id < {N_QUERIES}),
scored AS (
  SELECT q.query_id, c.vec_id,
         list_cosine_similarity(c.emb, q.qemb) AS cos_raw,
         row_number() OVER (
           PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(c.emb, q.qemb) DESC, c.vec_id
         ) AS rank
  FROM coded c JOIN q
    ON bit_count(xor(c.code, q.qcode)) <= {LSH_HAMMING})
SELECT query_id, CAST(rank AS BIGINT) AS rank, vec_id,
       round(cos_raw, 6) AS cosine
FROM scored WHERE rank <= {TOP_K}
ORDER BY query_id, rank
"""


SQL_ANN_LSH_TOPK = _lsh_oracle_sql()


def _ivf_oracle_sql() -> str:
    """DuckDB oracle with the engine's exact IVF semantics (round 5,
    the ``_lsh_oracle_sql`` pattern): the same strided deterministic
    centroid sample (``vec_id % step = 0``, normalized), the same
    argmax-cosine cell assignment (tie → lowest centroid id, matching
    ``np.argmax``'s first-max rule), the same ``N_PROBE`` nearest
    cells per query, and the same (cosine desc, vec_id asc) ranking
    cut at TOP_K.  Sign safety: the smallest cell-assignment margin
    and probe-boundary gap across the three pinned corpora are >1e-8
    (pinned by
    tests/test_dedup_similarity.py::TestIvfOracleMargins), five-plus
    orders above the ~1e-13 summation-order noise between numpy's
    and DuckDB's dot products, so cell membership and the probe set
    can never diverge."""
    return f"""
WITH e AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
meta AS (SELECT greatest(1, count(*) // {N_CENTROIDS}) AS step FROM e),
cents AS (
  SELECT CAST(vec_id // step AS BIGINT) AS cid,
         list_transform(emb, x -> x / sqrt(list_dot_product(emb, emb))) AS c
  FROM e, meta WHERE vec_id % step = 0 AND vec_id // step < {N_CENTROIDS}),
cells AS (
  SELECT vec_id, emb, cid FROM (
    SELECT e.vec_id, e.emb, cents.cid,
           row_number() OVER (PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(e.emb, cents.c) DESC, cents.cid
           ) AS rk
    FROM e CROSS JOIN cents) WHERE rk = 1),
q AS (SELECT vec_id AS query_id, emb AS qemb FROM e
      WHERE vec_id < {N_QUERIES}),
probes AS (
  SELECT query_id, cid FROM (
    SELECT q.query_id, cents.cid,
           row_number() OVER (PARTITION BY q.query_id
             ORDER BY list_cosine_similarity(q.qemb, cents.c) DESC, cents.cid
           ) AS rk
    FROM q CROSS JOIN cents) WHERE rk <= {N_PROBE}),
scored AS (
  SELECT p.query_id, cells.vec_id,
         list_cosine_similarity(cells.emb, q.qemb) AS cos_raw,
         row_number() OVER (
           PARTITION BY p.query_id
           ORDER BY list_cosine_similarity(cells.emb, q.qemb) DESC,
                    cells.vec_id
         ) AS rank
  FROM cells JOIN probes p ON cells.cid = p.cid
             JOIN q ON q.query_id = p.query_id)
SELECT query_id, CAST(rank AS BIGINT) AS rank, vec_id,
       round(cos_raw, 6) AS cosine
FROM scored WHERE rank <= {TOP_K}
ORDER BY query_id, rank
"""


SQL_ANN_IVF_TOPK = _ivf_oracle_sql()


def q_hard_negatives(sf_dir: str):
    """Hard-negative mining for contrastive training: for each anchor
    (the first {N_QUERIES} vectors, the same provably small broadcast
    side as ``ann_cosine_topk``), the max-cosine vector with a
    DIFFERENT label — the most-confusable cross-class example.

    Same streaming shape as the brute-force ANN: anchors + their
    labels broadcast once, each corpus batch masks same-label rows to
    −inf and emits a per-anchor top-1 partial, the final reduce keeps
    the global max (cosine desc, vec_id asc tie-break).  The corpus
    never shuffles; at 10⁹ vectors the scan drops into the IVF/LSH
    bucket path unchanged."""
    import pyarrow.parquet as pq_

    import ray

    t = pq_.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        filters=[("vec_id", "<", N_QUERIES)],
    ).to_pandas().sort_values("vec_id")
    qids = t["vec_id"].to_numpy(np.int64)
    qlab = t["label"].to_numpy(np.int64)
    qmat = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    ref = ray.put((qids, qlab, qmat))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        qi, ql, qm = ray.get(ref)
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        sims = (mat @ qm.T) / np.outer(
            np.linalg.norm(mat, axis=1), np.linalg.norm(qm, axis=1)
        )
        lab = df["label"].to_numpy(np.int64)
        sims[lab[:, None] == ql[None, :]] = -np.inf  # same-label mask
        ids = df["vec_id"].to_numpy(np.int64)
        # per-anchor batch best with vec_id-asc tie-break: rows sorted
        # by vec_id within a batch, argmax takes the first max
        order = np.argsort(ids)
        sims, ids, lab = sims[order], ids[order], lab[order]
        best = sims.argmax(axis=0)
        out = pd.DataFrame({
            "query_id": qi,
            "neg_vec_id": ids[best],
            "neg_label": lab[best],
            "cosine": sims[best, np.arange(len(qi))],
        })
        return out.loc[np.isfinite(out["cosine"])]

    parts = (
        _read_emb(sf_dir, columns=("vec_id", "embedding", "label"))
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
    )
    best = (
        parts.sort_values(["query_id", "cosine", "neg_vec_id"],
                          ascending=[True, False, True], kind="mergesort")
        .drop_duplicates("query_id")
        .reset_index(drop=True)
    )
    best["cosine"] = np.round(best["cosine"], 6)
    return best.astype({
        "query_id": "int64", "neg_vec_id": "int64", "neg_label": "int64",
    }).sort_values("query_id").reset_index(drop=True)


SQL_HARD_NEGATIVES = f"""
WITH e AS (
  SELECT vec_id, label, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
q AS (SELECT vec_id AS query_id, label AS qlabel, emb AS qemb
      FROM e WHERE vec_id < {N_QUERIES}),
scored AS (
  SELECT q.query_id, e.vec_id, e.label,
         list_cosine_similarity(e.emb, q.qemb) AS cos_raw,
         row_number() OVER (
           PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(e.emb, q.qemb) DESC, e.vec_id
         ) AS rank
  FROM e JOIN q ON e.label <> q.qlabel)
SELECT query_id, vec_id AS neg_vec_id, CAST(label AS BIGINT) AS neg_label,
       round(cos_raw, 6) AS cosine
FROM scored WHERE rank = 1 ORDER BY query_id
"""


def q_embedding_dim_variance(sf_dir: str):
    """Per-dimension feature statistics: the 10 highest-variance
    embedding dimensions (the feature-selection / whitening probe a
    quantizer or PCA pass starts from).  Each batch reduces to one
    d-row (Σv, Σv², n) table that ``exchange.aggregate`` sums per dim —
    O(blocks × d) rows total, the corpus never shuffles.  Ranked by the
    ROUNDED variance (dim ascending tie-break) so the two engines can
    never disagree on knife-edge float orderings; float64 end-to-end
    on both sides (the oracle casts the float32 list to DOUBLE[], the
    ``ann_cosine_topk`` discipline)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from crawler_tjce_ray.pipelines.exchange import aggregate

    def moments(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(t["embedding"]).to_numpy().astype(np.float64)
        mat = flat.reshape(t.num_rows, -1) if t.num_rows else np.empty((0, 0))
        return pa.table({
            "dim": np.arange(mat.shape[1], dtype=np.int64),
            "s": mat.sum(axis=0),
            "ss": (mat * mat).sum(axis=0),
            "n": np.full(mat.shape[1], mat.shape[0], dtype=np.int64),
        })

    m = aggregate(_read_emb(sf_dir, columns=("embedding",)), "dim",
                  {c: (c, "sum") for c in ("s", "ss", "n")}, moments)
    n = m["n"].to_numpy(np.float64)
    s = m["s"].to_numpy(np.float64)
    ss = m["ss"].to_numpy(np.float64)
    mean = s / n
    var = (ss - n * mean**2) / (n - 1.0)
    out = pd.DataFrame({
        "dim": m["dim"].astype("int64"),
        "dim_var": np.round(var, 6),
        "dim_mean": np.round(mean, 6),
    })
    out = out.sort_values(["dim_var", "dim"], ascending=[False, True],
                          kind="mergesort")
    return out.head(10).reset_index(drop=True)


SQL_EMBEDDING_DIM_VARIANCE = """
WITH z AS (
  SELECT unnest(range(len(embedding))) AS dim,
         unnest(CAST(embedding AS DOUBLE[])) AS v
  FROM embeddings)
SELECT CAST(dim AS BIGINT) AS dim, round(var_samp(v), 6) AS dim_var,
       round(AVG(v), 6) AS dim_mean
FROM z GROUP BY dim ORDER BY round(var_samp(v), 6) DESC, dim LIMIT 10
"""


def q_label_cohesion(sf_dir: str):
    """Cluster-quality probe: mean cosine of each member to its own
    label centroid (the SemDeDup/semantic-cluster tightness metric).
    Two streaming passes: pass 1 reduces per-batch per-label vector
    sums (O(blocks × k × d) partials — the ``kmeans_embeddings``
    shape), pass 2 broadcasts the k×d centroid matrix once via
    ``ray.put`` and reduces per-label cosine sums.  The corpus is read
    twice and never shuffled or materialized."""
    import ray

    def p1(df: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        lab = df["label"].to_numpy(np.int64)
        rows = []
        for lb in np.unique(lab):
            sel = mat[lab == lb]
            rows.append((int(lb), len(sel), sel.sum(axis=0).tolist()))
        return pd.DataFrame(rows, columns=["label", "n", "s"])

    parts = (
        _read_emb(sf_dir, columns=("label", "embedding"))
        .map_batches(p1, batch_format="pandas")
        .to_pandas()
    )
    parts = parts.sort_values(["label", "n"], kind="mergesort")
    labels = np.sort(parts["label"].unique()).astype(np.int64)
    cent = np.zeros((len(labels), len(parts["s"].iloc[0])), np.float64)
    counts = np.zeros(len(labels), np.float64)
    for _, r in parts.iterrows():  # O(buckets × k) tiny partials
        i = int(np.searchsorted(labels, r["label"]))
        cent[i] += np.asarray(r["s"], np.float64)
        counts[i] += r["n"]
    cent /= counts[:, None]
    cnorm = np.linalg.norm(cent, axis=1)
    ref = ray.put((labels, cent, cnorm))

    def p2(df: pd.DataFrame) -> pd.DataFrame:
        lbs, cm, cn = ray.get(ref)
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        lab = df["label"].to_numpy(np.int64)
        idx = np.searchsorted(lbs, lab)
        dots = (mat * cm[idx]).sum(axis=1)
        cos = dots / (np.linalg.norm(mat, axis=1) * cn[idx])
        g = pd.DataFrame({"label": lab, "cos": cos}).groupby(
            "label", as_index=False
        ).agg(n=("cos", "size"), cs=("cos", "sum"))
        return g.astype({"label": "int64", "n": "int64"})

    m = (
        _read_emb(sf_dir, columns=("label", "embedding"))
        .map_batches(p2, batch_format="pandas")
        .to_pandas()
        .sort_values(["label", "cs"], kind="mergesort")
        .groupby("label", as_index=False)
        .sum()
    )
    return pd.DataFrame({
        "label": m["label"].astype("int64"),
        "n_vecs": m["n"].astype("int64"),
        "mean_cos": np.round(
            m["cs"].to_numpy(np.float64) / m["n"].to_numpy(np.float64), 6),
    }).sort_values("label").reset_index(drop=True)


SQL_LABEL_COHESION = """
WITH z AS (
  SELECT vec_id, label, unnest(range(len(embedding))) AS dim,
         unnest(CAST(embedding AS DOUBLE[])) AS v
  FROM embeddings),
cent AS (SELECT label, dim, AVG(v) AS c FROM z GROUP BY 1, 2),
dots AS (
  SELECT z.vec_id, z.label,
         SUM(z.v * cent.c) AS dot,
         sqrt(SUM(z.v * z.v)) AS vn,
         sqrt(SUM(cent.c * cent.c)) AS cn
  FROM z JOIN cent ON cent.label = z.label AND cent.dim = z.dim
  GROUP BY 1, 2)
SELECT CAST(label AS BIGINT) AS label, CAST(COUNT(*) AS BIGINT) AS n_vecs,
       round(AVG(dot / (vn * cn)), 6) AS mean_cos
FROM dots GROUP BY label ORDER BY label
"""


RRF_K = 60          # standard reciprocal-rank-fusion constant
RRF_LIST_N = 100    # retrieved-list depth per ranker
RRF_OUT_N = 20      # fused results returned


def q_rrf_fusion(sf_dir: str):
    """Hybrid retrieval: reciprocal-rank fusion of a lexical ranking
    (Okapi BM25 against the fixed query-term set) and a dense ranking
    (embedding cosine against doc 0's vector), the standard
    hybrid-search merge: ``rrf = Σ 1/(K + rank)`` over the two
    top-{RRF_LIST_N} lists, top-{RRF_OUT_N} fused docs out.

    Scale shape: BOTH rankers reduce to bounded top-k partials — each
    batch keeps its local top-{RRF_LIST_N} by (score desc, doc_id), so
    the driver folds O(blocks × {RRF_LIST_N}) rows per list and never
    sees the corpus (the full per-doc ranking is `bm25_score`'s job,
    not this one's).  Ranks are assigned on scores ROUNDED to 6 dp in
    both engines — rank boundaries must not hinge on libm last-ulp
    noise.  The dense side broadcasts one d-vector; the lexical side
    reuses the shared streaming BM25 scorer."""
    import pyarrow.parquet as pq_

    from crawler_tjce_ray.pipelines.textops import bm25_scored_ds

    def topk_partial(df: pd.DataFrame, col: str) -> pd.DataFrame:
        return df.sort_values([col, "doc_id"],
                              ascending=[False, True]).head(RRF_LIST_N)

    # lexical list: streaming BM25 → per-batch top-k partials
    bm_parts = (
        bm25_scored_ds(sf_dir)
        .map_batches(lambda df: topk_partial(df, "bm25"),
                     batch_format="pandas")
        .to_pandas()
    )
    list_a = topk_partial(bm_parts, "bm25").reset_index(drop=True)
    list_a["r"] = np.arange(1, len(list_a) + 1, dtype=np.int64)

    # dense list: cosine vs the broadcast query vector (doc 0)
    qrow = pq_.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "=", 0)],
    ).to_pandas()
    qvec = np.asarray(qrow["embedding"].iloc[0], dtype=np.float64)
    qn = np.linalg.norm(qvec)

    def cos_partial(df: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        cos = (mat @ qvec) / (np.linalg.norm(mat, axis=1) * qn)
        part = pd.DataFrame({
            "doc_id": df["vec_id"].to_numpy(np.int64),
            "cos": np.round(cos, 6),
        })
        return topk_partial(part, "cos")

    cs_parts = (
        _read_emb(sf_dir)
        .map_batches(cos_partial, batch_format="pandas")
        .to_pandas()
    )
    list_b = topk_partial(cs_parts, "cos").reset_index(drop=True)
    list_b["r"] = np.arange(1, len(list_b) + 1, dtype=np.int64)

    f = list_a[["doc_id", "r"]].merge(
        list_b[["doc_id", "r"]], on="doc_id", how="outer",
        suffixes=("_a", "_b"))
    rrf = (1.0 / (RRF_K + f["r_a"])).fillna(0.0) + (
        1.0 / (RRF_K + f["r_b"])).fillna(0.0)
    out = pd.DataFrame({
        "doc_id": f["doc_id"].astype("int64"),
        "rrf": np.round(rrf, 9),
    })
    return (
        out.sort_values(["rrf", "doc_id"], ascending=[False, True])
        .head(RRF_OUT_N)
        .reset_index(drop=True)
    )


def _rrf_sql() -> str:
    import textwrap

    from crawler_tjce_ray.pipelines.textops import _SQL_BM25_SUM, _SQL_BM25_TF

    return f"""
{_SQL_BM25_TF}
  SELECT term, SUM(CASE WHEN tf > 0 THEN 1 ELSE 0 END) AS df
  FROM tf GROUP BY term
), bm AS (
{textwrap.indent(_SQL_BM25_SUM, "  ")}
), ra AS (
  SELECT doc_id,
         ROW_NUMBER() OVER (ORDER BY bm25 DESC, doc_id) AS r
  FROM bm QUALIFY r <= {RRF_LIST_N}
), cs AS (
  SELECT vec_id AS doc_id,
         ROUND(list_cosine_similarity(
           embedding,
           (SELECT embedding FROM embeddings WHERE vec_id = 0)), 6) AS cos
  FROM embeddings
), rb AS (
  SELECT doc_id,
         ROW_NUMBER() OVER (ORDER BY cos DESC, doc_id) AS r
  FROM cs QUALIFY r <= {RRF_LIST_N}
)
SELECT COALESCE(ra.doc_id, rb.doc_id) AS doc_id,
       ROUND(COALESCE(1.0 / ({RRF_K} + ra.r), 0)
           + COALESCE(1.0 / ({RRF_K} + rb.r), 0), 9) AS rrf
FROM ra FULL OUTER JOIN rb ON ra.doc_id = rb.doc_id
ORDER BY rrf DESC, doc_id LIMIT {RRF_OUT_N}
"""


SQL_RRF_FUSION = _rrf_sql()


QUERIES = {
    "ann_cosine_topk": q_ann_cosine_topk,
    "rrf_fusion": q_rrf_fusion,
    "ann_ivf_topk": q_ann_ivf_topk,
    "ann_lsh_topk": q_ann_lsh_topk,
    "hard_negatives": q_hard_negatives,
    "embedding_dim_variance": q_embedding_dim_variance,
    "label_cohesion": q_label_cohesion,
}

ORACLE_SQL = {
    "ann_cosine_topk": SQL_ANN_COSINE_TOPK,
    "ann_ivf_topk": SQL_ANN_IVF_TOPK,
    "ann_lsh_topk": SQL_ANN_LSH_TOPK,
    "rrf_fusion": SQL_RRF_FUSION,
    "hard_negatives": SQL_HARD_NEGATIVES,
    "embedding_dim_variance": SQL_EMBEDDING_DIM_VARIANCE,
    "label_cohesion": SQL_LABEL_COHESION,
}
