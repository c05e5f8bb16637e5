"""Graph and sequence-analytics operators — the capability classes the
engine did not yet cover: an iterative graph algorithm (PageRank over
the part-succession graph), funnel conversion over ordered event
streams, a Markov transition matrix, and inverted-index construction
(token posting lists).

Same discipline as the rest of the engine: vectorized batch kernels,
per-batch partials before any shuffle, every key-bucket exchange on
``exchange.shuffle`` over a size-derived fan-out (never per-key
dispatch) — one per query, two for ``triangle_count`` — and driver
state bounded by O(result), O(#buckets) or — for PageRank's rank
vector — O(#nodes), the same honestly-documented broadcast pattern as
the k-means centroids in ``pipelines/clustering.py`` (at 10^9+ nodes
the rank vector would shard on the same bucket key as the edges; the
iteration structure is unchanged).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from crawler_tjce_ray.pipelines.exchange import aggregate, shuffle, to_pandas
from crawler_tjce_ray.pipelines.relational import _nb_rows, _pack_pairs, _read
from crawler_tjce_ray.pipelines.textops import _read_docs
from crawler_tjce_ray.pipelines.webtext import WORD_RE, _explode_words

# ---------------------------------------------------------------------------
# PageRank over the part-succession graph
# ---------------------------------------------------------------------------

PR_DAMPING = 0.85
PR_ITERS = 5
# driver-state ceiling (BASELINE.md table): the rank/outdeg/scaled
# vectors are 24 B/node on the driver — 2.4 GB at the ceiling; larger
# graphs need the sharded-rank variant described in the docstring
PR_MAX_DRIVER_NODES = 100_000_000

# the part-succession edge list every lineitem-graph oracle starts from
_SQL_SEQ = """seq AS (
  SELECT l_partkey AS src,
         LEAD(l_partkey) OVER (
           PARTITION BY l_orderkey ORDER BY l_linenumber, l_partkey
         ) AS dst
  FROM lineitem
)"""


_EDGES_CACHE: dict[tuple[str, str, str], tuple] = {}


def _edges_ds_and_nodes(sf_dir: str):
    """Weighted directed edges (src part → next part within an order)
    as a materialized Ray Dataset, plus the sorted node array.  An
    order's lineitems may span read blocks, so adjacency is recovered
    with ONE shuffle on the order key (an order lives wholly in its
    bucket); edge weights finalize per bucket — a (src, dst) pair may
    appear in several buckets, which is fine because every consumer is
    linear in w.  The edge list itself never lands on the driver.

    The materialized edge blocks are memoized per ``sf_dir`` for the
    life of the Ray session: PageRank, transition matrices and the
    triangle count all consume the same graph, and the order-bucket
    shuffle is the dominant fixed cost at small scale — exactly the
    'build the graph once' discipline a real pipeline would use."""
    import ray

    # a cached Dataset's blocks die with the Ray session and belong to
    # its job; job ids REPEAT across ray.init cycles in one process
    # (always 01000000 on a fresh local cluster), so the key holds the
    # gcs address too (a new port per local session): a hit is live
    # and needs no probe
    ctx = ray.get_runtime_context()
    ck = (sf_dir, ctx.gcs_address, ctx.get_job_id())
    if ck in _EDGES_CACHE:
        return _EDGES_CACHE[ck]
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_partkey"])

    def edges_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # (orderkey, linenumber) is NOT unique in the synthetic data;
        # adding partkey makes the VALUE sequence — and therefore the
        # adjacency multiset — a deterministic function of the table
        g = g.sort_values(
            ["l_orderkey", "l_linenumber", "l_partkey"], kind="mergesort"
        )
        nxt = g["l_partkey"].shift(-1)
        same = (g["l_orderkey"].shift(-1) == g["l_orderkey"]).to_numpy()
        e = pd.DataFrame({
            "src": g["l_partkey"][same].astype("int64"),
            "dst": nxt[same].astype("int64"),
        })
        e = e.groupby(["src", "dst"], as_index=False).agg(w=("src", "size"))
        e["w"] = e["w"].astype("float64")
        return e

    edges = shuffle(ds, "l_orderkey", _nb_rows(sf_dir, "lineitem"),
                    edges_in_bucket).materialize()

    nodes = aggregate(ds, "l_partkey", {})["l_partkey"].to_numpy(np.int64)
    # evict other-session (or other-job) entries only (their Datasets
    # died with it); same-session entries for other sf_dirs stay live,
    # so alternating queries over two corpora don't thrash the cache
    for old in [k for k in _EDGES_CACHE if k[1:] != ck[1:]]:
        _EDGES_CACHE.pop(old, None)
    _EDGES_CACHE[ck] = (edges, nodes)
    return edges, nodes


def q_pagerank_parts(sf_dir: str):
    """PageRank (damping 0.85, {PR_ITERS} synchronous iterations, no
    dangling-mass redistribution — the spec both engines implement)
    over the directed graph "part A is followed by part B on the next
    line of the same order", with edge multiplicity as weight.

    Distributed recipe: the edge Dataset is built once (see
    ``_edges_ds_and_nodes``), node indices are attached to the edge
    blocks once, and each iteration is one streaming ``map_batches``
    pass over the edge blocks — a NumPy gather of the broadcast
    scaled-rank vector (pr/outdeg, ``ray.put`` per iteration) and a
    per-block (dst, contribution) partial; the driver folds O(blocks ×
    nodes-touched) partials into the O(#nodes) rank vector.  Edges
    never materialize on the driver; the rank vector is the broadcast
    state (kmeans-centroid pattern — shard it on the edge bucket key
    past ~10^8 nodes)."""
    import ray

    edges, nodes = _edges_ds_and_nodes(sf_dir)
    n = len(nodes)
    if n > PR_MAX_DRIVER_NODES:
        raise ValueError(
            f"pagerank_parts holds 3 float64 driver arrays of {n} nodes "
            f"(~{24 * n / 1e9:.1f} GB), over the documented "
            f"{PR_MAX_DRIVER_NODES:,}-node ceiling (BASELINE.md "
            f"driver-state table); shard the rank vector on the edge "
            f"bucket key (broadcast per-bucket slices) past this size")
    # nodes is sorted, so searchsorted IS the node→index map — no
    # hash join, no pandas frame per batch (numpy batches end to end)
    nodes_ref = ray.put(np.asarray(nodes, dtype=np.int64))

    def add_idx(batch: dict) -> dict:
        nd = ray.get(nodes_ref)
        return {
            "src_i": np.searchsorted(nd, batch["src"]).astype(np.int64),
            "dst_i": np.searchsorted(nd, batch["dst"]).astype(np.int64),
            "w": np.asarray(batch["w"], np.float64),
        }

    edges_idx = edges.map_batches(add_idx, batch_format="numpy").materialize()

    def deg_partial(batch: dict) -> dict:
        # bincount over the compact per-batch key set: row-order
        # accumulation, same summation order as the groupby it replaces
        u, inv = np.unique(batch["src_i"], return_inverse=True)
        return {"src_i": u, "w": np.bincount(inv, weights=batch["w"])}

    # an edgeless graph (every order one line) yields no partial
    deg_parts = to_pandas(edges_idx.map_batches(
        deg_partial, batch_format="numpy"), src_i="int64", w="float64")
    outdeg = np.zeros(n, dtype=np.float64)
    np.add.at(outdeg, deg_parts["src_i"].to_numpy(np.int64),
              deg_parts["w"].to_numpy(np.float64))

    pr = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(PR_ITERS):
        scaled = np.divide(pr, outdeg, out=np.zeros_like(pr), where=outdeg > 0)
        sref = ray.put(scaled)

        def contrib(batch: dict, _sref=sref) -> dict:
            s = ray.get(_sref)
            c = s[batch["src_i"]] * batch["w"]
            u, inv = np.unique(batch["dst_i"], return_inverse=True)
            return {"dst_i": u, "c": np.bincount(inv, weights=c)}

        parts = to_pandas(edges_idx.map_batches(contrib, batch_format="numpy"),
                          dst_i="int64", c="float64")
        cv = np.zeros(n, dtype=np.float64)
        np.add.at(cv, parts["dst_i"].to_numpy(np.int64),
                  parts["c"].to_numpy(np.float64))
        pr = (1.0 - PR_DAMPING) / n + PR_DAMPING * cv

    # round 12: five iterations of differently-ordered float
    # accumulation put the two engines ~1e-18 apart; the driver's
    # value hash is strict (tolerance lives in the parity test only)
    return pd.DataFrame({"part_key": nodes, "pr": np.round(pr, 12)})


def _sql_pagerank() -> str:
    head = f"""
WITH {_SQL_SEQ}, e AS (
  SELECT src, dst, CAST(COUNT(*) AS DOUBLE) AS w
  FROM seq WHERE dst IS NOT NULL GROUP BY 1, 2
), nodes AS (
  SELECT DISTINCT l_partkey AS node FROM lineitem
), nn AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM nodes
), deg AS (
  SELECT src, SUM(w) AS od FROM e GROUP BY src
), r0 AS (
  SELECT node, 1.0 / nn.n AS pr FROM nodes, nn
)"""
    steps = []
    for k in range(1, PR_ITERS + 1):
        steps.append(f""", r{k} AS (
  SELECT nodes.node,
         (1.0 - {PR_DAMPING}) / nn.n
           + {PR_DAMPING} * COALESCE(SUM(r.pr / deg.od * e.w), 0.0) AS pr
  FROM nodes CROSS JOIN nn
  LEFT JOIN e ON e.dst = nodes.node
  LEFT JOIN r{k - 1} r ON r.node = e.src
  LEFT JOIN deg ON deg.src = e.src
  GROUP BY nodes.node, nn.n
)""")
    return head + "".join(steps) + f"""
SELECT node AS part_key, ROUND(pr, 12) AS pr
FROM r{PR_ITERS} ORDER BY part_key
"""


SQL_PAGERANK_PARTS = _sql_pagerank()


# ---------------------------------------------------------------------------
# funnel conversion (signup → click → purchase)
# ---------------------------------------------------------------------------

FUNNEL = ["signup", "click", "purchase"]
FUNNEL_WINDOW_H = 24
_FUNNEL_EVENTS = ["signup", "click_after_signup", "purchase_after_click"]
_TIMED_FUNNEL_EVENTS = ["signup", "click_24h", "purchase_24h"]


def _of_types(types: list[str]):
    """``shuffle`` combine that keeps the events of the given types, so
    the rest of the stream never moves."""
    value_set = pa.array(types)
    return lambda t: t.filter(pc.is_in(t["event_type"], value_set=value_set))


def _stage_mins(g: pd.DataFrame, types: list[str], win=None) -> list:
    """Per-user time of each ordered stage, vectorized over a bucket
    that holds each of its users' whole history: stage 0 is the user's
    first ``types[0]`` event, stage i the first ``types[i]`` event
    strictly after stage i−1 (and, given the ``win`` Timedelta, at most
    ``win`` after it).  One ``user_id``-indexed Series per stage; a
    user who misses a stage is absent from it and every later one."""
    t = g.loc[g["event_type"] == types[0]].groupby("user_id")["ts"].min()
    out = [t]
    for typ in types[1:]:
        e = g.loc[g["event_type"] == typ, ["user_id", "ts"]]
        prev = e["user_id"].map(t)
        ok = e["ts"] > prev
        if win is not None:
            ok &= e["ts"] <= prev + win
        t = e.loc[ok].groupby("user_id")["ts"].min()
        out.append(t)
    return out


def _funnel(sf_dir: str, events: list[str], win=None) -> pd.DataFrame:
    """The three-stage ``FUNNEL`` with stage labels ``events``: ONE
    ``user_id`` shuffle of the funnel's event types (each user's stage
    history is whole in its bucket) → ``_stage_mins`` per bucket →
    additive per-bucket stage counts; the driver sums a #buckets × 3
    table and divides by the previous stage.  No per-user dispatch."""

    def counts(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame([[len(t) for t in _stage_mins(g, FUNNEL, win)]],
                            columns=["n1", "n2", "n3"])

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    # a stream with no funnel events shuffles nothing: zero counts
    parts = to_pandas(shuffle(ds, "user_id", _nb_rows(sf_dir, "events"), counts,
                              combine=_of_types(FUNNEL)),
                      n1="int64", n2="int64", n3="int64").sum()
    n = [int(parts["n1"]), int(parts["n2"]), int(parts["n3"])]
    prev = [n[0], n[0], n[1]]
    return pd.DataFrame({
        "stage": pd.Series([1, 2, 3], dtype="int64"),
        "event": events,
        "n_users": pd.Series(n, dtype="int64"),
        "conv": [n[i] / prev[i] if prev[i] else 0.0 for i in range(3)],
    })


def _sql_funnel(events: list[str], within: str) -> str:
    """DuckDB oracle of ``_funnel``: ``within`` is the join predicate
    of each later stage on the previous one (``{p}`` names that
    stage's CTE)."""

    def stage(name: str, p: str, typ: str) -> str:
        return f"""), {name} AS (
  SELECT e.user_id, MIN(e.ts) AS t FROM events e
  JOIN {p} ON e.user_id = {p}.user_id{within.format(p=p)}
  WHERE e.event_type = '{typ}' GROUP BY e.user_id
"""

    return """
WITH s AS (
  SELECT user_id, MIN(ts) AS t FROM events
  WHERE event_type = 'signup' GROUP BY user_id
""" + stage("c", "s", "click") + stage("p", "c", "purchase") + f"""), counts AS (
  SELECT * FROM (VALUES
    (1, '{events[0]}', (SELECT COUNT(*) FROM s), (SELECT COUNT(*) FROM s)),
    (2, '{events[1]}', (SELECT COUNT(*) FROM c), (SELECT COUNT(*) FROM s)),
    (3, '{events[2]}', (SELECT COUNT(*) FROM p), (SELECT COUNT(*) FROM c))
  ) AS t(stage, event, n, prev)
)
SELECT CAST(stage AS BIGINT) AS stage, event,
       CAST(n AS BIGINT) AS n_users,
       CASE WHEN prev = 0 THEN 0.0 ELSE CAST(n AS DOUBLE) / prev END AS conv
FROM counts ORDER BY stage
"""


def q_event_funnel(sf_dir: str):
    """Three-stage funnel over the events stream: users who signed
    up, then clicked strictly after their first signup, then purchased
    strictly after that first qualifying click — with the per-stage
    conversion rate from the previous stage (recipe: ``_funnel``)."""
    return _funnel(sf_dir, _FUNNEL_EVENTS)


SQL_EVENT_FUNNEL = _sql_funnel(_FUNNEL_EVENTS, " AND e.ts > {p}.t")


def q_timed_funnel(sf_dir: str):
    """Time-CONSTRAINED funnel: signup → first click within
    {FUNNEL_WINDOW_H} h of the first signup → first purchase within
    {FUNNEL_WINDOW_H} h of that qualifying click.  The sequential-
    pattern-with-deadline operator product analytics runs everywhere;
    the unconstrained ``event_funnel`` cannot express it (a click six
    months later still converts there).

    Same recipe (``_funnel``) with the deadline predicate in the stage
    mins.  Timestamp comparisons are exact integer µs, so no float
    ambiguity exists."""
    return _funnel(sf_dir, _TIMED_FUNNEL_EVENTS,
                   pd.Timedelta(hours=FUNNEL_WINDOW_H))


SQL_TIMED_FUNNEL = _sql_funnel(
    _TIMED_FUNNEL_EVENTS,
    f"\n        AND e.ts > {{p}}.t AND e.ts <= {{p}}.t + INTERVAL {FUNNEL_WINDOW_H} HOUR")


def q_time_to_convert(sf_dir: str):
    """Signup→purchase conversion-time quantiles: over converters
    (first purchase strictly after first signup), the count plus the
    EXACT median and p90 of the delay — quantile_disc semantics, so
    bit-identical to the oracle.

    Composition showcase: one ``user_id`` shuffle of the signup and
    purchase events derives the per-converter delay (two
    ``_stage_mins`` stages, exact integer µs) as a materialized Dataset
    bounded by #converters, and the shared-pass distributed
    quickselect (``_quickselect_multi``) resolves both ranks in one
    search's streaming passes — the corpus never sorts."""
    import math

    from crawler_tjce_ray.pipelines.sketches import (
        _quickselect_multi, _select_base_stats,
    )

    stages = ["signup", "purchase"]

    def delays(g: pd.DataFrame) -> pd.DataFrame:
        t1, t2 = _stage_mins(g, stages)
        d = ((t2 - t1[t2.index]) / pd.Timedelta(microseconds=1)).astype(
            "int64")
        return pd.DataFrame({"dur_us": d.to_numpy(np.int64)})

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    durs = shuffle(ds, "user_id", _nb_rows(sf_dir, "events"), delays,
                   combine=_of_types(stages)).materialize()

    def derive(df: pd.DataFrame) -> np.ndarray:
        return df["dur_us"].to_numpy(np.float64)  # µs < 2^53: exact

    n, gmin, gmax = _select_base_stats(durs, derive)
    if n == 0:
        # Oracle: quantile_disc over an empty set is NULL, not 0 —
        # emit NaN so the degenerate no-converters corpus still agrees.
        return pd.DataFrame({
            "n_converters": pd.Series([0], dtype="int64"),
            "median_s": [float("nan")], "p90_s": [float("nan")],
        })
    ks = [max(1, math.ceil(0.5 * n)), max(1, math.ceil(0.9 * n))]
    med, p90 = _quickselect_multi(durs, derive, ks, n, gmin, gmax)
    return pd.DataFrame({
        "n_converters": pd.Series([n], dtype="int64"),
        "median_s": [med / 1e6],
        "p90_s": [p90 / 1e6],
    })


SQL_TIME_TO_CONVERT = """
WITH s AS (
  SELECT user_id, MIN(ts) AS t1 FROM events
  WHERE event_type = 'signup' GROUP BY user_id
), p AS (
  SELECT e.user_id,
         CAST(date_diff('microsecond', s.t1, MIN(e.ts)) AS BIGINT) AS dur_us
  FROM events e JOIN s ON e.user_id = s.user_id AND e.ts > s.t1
  WHERE e.event_type = 'purchase' GROUP BY e.user_id, s.t1
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_converters,
       quantile_disc(dur_us, 0.5) / 1e6 AS median_s,
       quantile_disc(dur_us, 0.9) / 1e6 AS p90_s
FROM p
"""


# ---------------------------------------------------------------------------
# Markov transitions and trigrams over event types
# ---------------------------------------------------------------------------

def _event_ngrams(sf_dir: str, cols: list[str]) -> pd.DataFrame:
    """Counts of consecutive event-type n-grams (n = ``len(cols)``, one
    column per position, plus ``n``) over every user's stream ordered by
    (ts, event_id): ONE ``user_id`` shuffle (each stream is whole in its
    bucket) → in-bucket sort and n−1 vectorized shifts → additive
    (gram, n) partials, ≤ |types|^n rows per bucket → driver sum,
    sorted by the gram."""

    schema = pa.schema([(c, pa.string()) for c in cols] + [("n", pa.int64())])

    def grams(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        user = g["user_id"]
        same = np.ones(len(g), dtype=bool)
        for i in range(1, len(cols)):
            same &= (user.shift(-i) == user).to_numpy()
        p = pd.DataFrame({c: g["event_type"].shift(-i)[same]
                          for i, c in enumerate(cols)})
        # typed Arrow output, so Ray can size an empty one
        return pa.Table.from_pandas(p.groupby(cols, as_index=False).agg(
            n=(cols[0], "size")), schema=schema, preserve_index=False)

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])
    # a stream shorter than n everywhere has no partial
    out = to_pandas(shuffle(ds, "user_id", _nb_rows(sf_dir, "events"), grams),
                    **dict.fromkeys(cols, object), n="int64") \
        .groupby(cols, as_index=False)["n"].sum()
    out["n"] = out["n"].astype("int64")
    return out


def q_event_transitions(sf_dir: str):
    """First-order Markov transition matrix of event types per user:
    count of (event, next event) adjacencies in each user's stream
    ordered by (ts, event_id), row-normalized to P(next | current).

    Recipe: the bigram counts of ``_event_ngrams`` (the driver merges
    ≤ #buckets × |types|² rows) and one exact division per row."""
    out = _event_ngrams(sf_dir, ["src", "dst"])
    out["p"] = out["n"].to_numpy(np.float64) / out.groupby("src")["n"].transform(
        "sum"
    ).to_numpy(np.float64)
    return out.sort_values(["src", "dst"]).reset_index(drop=True)


SQL_EVENT_TRANSITIONS = """
WITH o AS (
  SELECT user_id, event_type,
         LEAD(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS nxt
  FROM events
)
SELECT event_type AS src, nxt AS dst, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(COUNT(*) AS DOUBLE) / SUM(COUNT(*)) OVER (PARTITION BY event_type) AS p
FROM o WHERE nxt IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2
"""


TRIGRAM_TOPK = 20


def q_event_trigrams(sf_dir: str):
    """Second-order sequence mining: the global top-{TRIGRAM_TOPK}
    consecutive event-type TRIGRAMS across user streams (ordered by
    (ts, event_id) per user) — the pattern the first-order transition
    matrix cannot see (A→B→A ping-pong vs A→B→C funnels).

    Same recipe as q_event_transitions, one window longer: the trigram
    counts of ``_event_ngrams`` (≤ #buckets × |types|³ rows merged on
    the driver), deterministic total order (n desc, then t1, t2, t3)
    before the top-k cut so rank-boundary ties never diverge from the
    oracle."""
    out = _event_ngrams(sf_dir, ["t1", "t2", "t3"])
    out = out.sort_values(
        ["n", "t1", "t2", "t3"], ascending=[False, True, True, True]
    ).head(TRIGRAM_TOPK)
    return out.reset_index(drop=True)


SQL_EVENT_TRIGRAMS = f"""
WITH o AS (
  SELECT event_type AS t1,
         LEAD(event_type, 1) OVER w AS t2,
         LEAD(event_type, 2) OVER w AS t3
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT t1, t2, t3, CAST(COUNT(*) AS BIGINT) AS n
FROM o WHERE t3 IS NOT NULL
GROUP BY 1, 2, 3 ORDER BY n DESC, t1, t2, t3 LIMIT {TRIGRAM_TOPK}
"""


# ---------------------------------------------------------------------------
# reciprocity over the part-succession graph
# ---------------------------------------------------------------------------

def _loopless(t: pa.Table):
    """(lo, hi, forward) endpoint arrays of an edge batch's non-loop
    edges: lo/hi the smaller/larger endpoint, forward whether src is
    the smaller one."""
    s, d = t["src"].to_numpy(), t["dst"].to_numpy()
    keep = s != d
    s, d = s[keep], d[keep]
    return np.minimum(s, d), np.maximum(s, d), s < d


def q_edge_reciprocity(sf_dir: str):
    """Directed-graph reciprocity over the part-succession graph: the
    fraction of non-loop directed edges whose reverse edge also exists
    — the standard "is this graph mutual or feed-forward" diagnostic
    (near 1 for co-purchase-style graphs, near 0 for strict
    pipelines).

    Consumes the memoized edge Dataset.  Both directions of a pair
    must meet to decide reciprocity, so the edges ride ONE shuffle on
    the UNORDERED pair (``_pack_pairs`` of min, max); per batch the
    combine keeps the distinct (pair, direction) rows, and in-bucket a
    vectorized dedup + direction count yields two additive integers per
    bucket — edge rows may repeat across order-buckets upstream, which
    the in-bucket ``drop_duplicates`` absorbs because a pair always
    lands whole."""
    edges, _ = _edges_ds_and_nodes(sf_dir)

    def directed_pairs(t: pa.Table) -> pa.Table:
        lo, hi, fwd = _loopless(t)
        return pa.table({"pair": _pack_pairs(lo, hi), "fwd": fwd}) \
            .group_by(["pair", "fwd"]).aggregate([])

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["pair", "fwd"])
        dirs = d.groupby("pair")["fwd"].size()
        n_edges = int(dirs.sum())
        n_recip = int((dirs == 2).sum()) * 2
        return pd.DataFrame({"n_edges": [n_edges], "n_recip": [n_recip]})

    p = to_pandas(shuffle(edges, "pair", _nb_rows(sf_dir, "lineitem"),
                          count_bucket, combine=directed_pairs),
                  n_edges="int64", n_recip="int64").sum()
    ne, nr = int(p["n_edges"]), int(p["n_recip"])
    return pd.DataFrame({
        "n_edges": pd.Series([ne], dtype="int64"),
        "n_reciprocal": pd.Series([nr], dtype="int64"),
        # the oracle's 0/0 is NULL
        "reciprocity": [round(nr / ne, 6) if ne else float("nan")],
    })


SQL_EDGE_RECIPROCITY = f"""
WITH {_SQL_SEQ}, e AS (
  SELECT DISTINCT src, dst FROM seq
  WHERE dst IS NOT NULL AND src <> dst
), j AS (
  SELECT e.src, e.dst, r.src AS rsrc
  FROM e LEFT JOIN e r ON r.src = e.dst AND r.dst = e.src
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_edges,
       CAST(COUNT(rsrc) AS BIGINT) AS n_reciprocal,
       ROUND(CAST(COUNT(rsrc) AS DOUBLE) / COUNT(*), 6) AS reciprocity
FROM j
"""


# ---------------------------------------------------------------------------
# inverted index (token posting lists)
# ---------------------------------------------------------------------------

IDX_TOPK = 30
IDX_POSTINGS = 10


def q_inverted_index(sf_dir: str):
    """Inverted-index head: the {IDX_TOPK} highest-document-frequency
    tokens with their df and the first {IDX_POSTINGS} posting doc_ids
    (ascending, comma-joined).

    Recipe: per-batch distinct (token, doc_id) pairs — each document
    is one row, so batch-local dedup is globally exact → ONE shuffle on
    the string token (``kb_arrow``'s siphash: a token's full posting
    set lands in one bucket; the pairs ARE the index content, so this
    shuffle is the irreducible minimum) → in-bucket df + sorted
    posting-head build, per-bucket top-k → driver merge of
    ≤ #buckets·k candidate rows."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def pairs(t: pa.Table) -> pa.Table:
        p = _explode_words(t).drop_duplicates(["doc_id", "w"])
        return pa.table({"tok": pa.array(p["w"], pa.string()),
                         "doc_id": pa.array(p["doc_id"], pa.int64())})

    def bucket_index(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["tok", "doc_id"], kind="mergesort")
        df_ = g.groupby("tok", as_index=False).agg(df=("doc_id", "size"))
        heads = (
            g.groupby("tok")
            .head(IDX_POSTINGS)
            .groupby("tok", as_index=False)
            .agg(postings=("doc_id", lambda s: ",".join(map(str, s))))
        )
        m = df_.merge(heads, on="tok")
        return m.sort_values(["df", "tok"], ascending=[False, True],
                             kind="mergesort").head(IDX_TOPK)

    cand = to_pandas(shuffle(ds, "tok", _nb_rows(sf_dir, "documents"),
                             bucket_index, combine=pairs),
                     tok=object, df="int64", postings=object)
    top = cand.sort_values(["df", "tok"], ascending=[False, True],
                           kind="mergesort").head(IDX_TOPK).reset_index(drop=True)
    top["df"] = top["df"].astype("int64")
    return top[["tok", "df", "postings"]]


SQL_INVERTED_INDEX = rf"""
WITH raw AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '{WORD_RE}')) AS tok
  FROM documents
), w AS (
  SELECT DISTINCT doc_id, tok FROM raw
), f AS (
  SELECT tok, CAST(COUNT(*) AS BIGINT) AS df,
         array_to_string(
           list_slice(list(doc_id ORDER BY doc_id), 1, {IDX_POSTINGS}), ','
         ) AS postings
  FROM w GROUP BY tok
)
SELECT tok, df, postings FROM f ORDER BY df DESC, tok LIMIT {IDX_TOPK}
"""


# ---------------------------------------------------------------------------
# triangle counting / global clustering coefficient
# ---------------------------------------------------------------------------

def q_triangle_count(sf_dir: str):
    """Triangles, wedges and the global clustering coefficient of the
    undirected part-succession graph (self-loops dropped, edges
    deduplicated as u < v).

    Distributed recipe (node-order orientation), exactly TWO shuffles:
    shuffle 1 takes the per-batch distinct (u, v) edges on u, and its
    fused kernel emits three tagged row families keyed by a ``node``
    column in one pass — the deduped edges keyed by u, the candidate
    wedges (v, w), v < w, keyed by their own lower endpoint v, and
    additive per-node degree partials (u-side counts are complete
    in-bucket, v-side counts are partial — degrees are additive, so
    both merge downstream).  Shuffle 2 groups everything on ``node``:
    a vectorized membership probe closes wedges against the edge set,
    per-node degrees finalize, and each bucket returns two integers
    (triangle count, Σ d·(d−1)/2).  Wedge volume is the standard
    hub-node hazard; at web scale the orientation would flip to degree
    order (strictly fewer wedges), same two-shuffle shape."""
    nb = _nb_rows(sf_dir, "lineitem")
    edges_ds, _ = _edges_ds_and_nodes(sf_dir)

    def undirect(t: pa.Table) -> pa.Table:
        u, v, _ = _loopless(t)
        return pa.table({"u": u, "v": v}).group_by(["u", "v"]).aggregate([])

    def fused_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # in-bucket dedup is exact: the bucket key depends on u only,
        # so every copy of an edge lands here
        g = g.drop_duplicates(["u", "v"]).sort_values(["u", "v"])
        u = g["u"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        # wedge pairs per u WITHOUT a self-merge: triangular-index
        # expansion over the (u, v)-sorted neighbor slices (the i-th
        # element pairs with every j > i; i recovers from the pair
        # ordinal by the closed-form root of the triangular number)
        _, start = np.unique(u, return_index=True)
        c = np.diff(np.append(start, len(u)))
        pu = c * (c - 1) // 2
        grp = np.repeat(np.arange(len(c)), pu)
        within = np.arange(int(pu.sum())) - np.repeat(np.cumsum(pu) - pu, pu)
        cg = c[grp]
        i = np.floor(
            (2 * cg.astype(np.float64) - 1
             - np.sqrt((2 * cg.astype(np.float64) - 1) ** 2 - 8 * within))
            / 2
        ).astype(np.int64)
        # one-step integer correction of the float root:
        # S(i) = pairs before row i must satisfy S(i) ≤ t < S(i)+(c−1−i)
        s = i * (2 * cg - i - 1) // 2
        i -= (s > within).astype(np.int64)
        s = i * (2 * cg - i - 1) // 2
        bump = (within >= s + (cg - 1 - i)).astype(np.int64)
        i += bump
        s = i * (2 * cg - i - 1) // 2
        j = within - s + i + 1
        base = start[grp]
        wa = v[base + i]
        wb = v[base + j]  # slices sorted by v ⇒ wa < wb
        deg = pd.Series(np.concatenate([u, v])).value_counts()
        node = deg.index.to_numpy(np.int64)
        # rows are (t, node, k, d): t 0 an edge and 1 a wedge, each
        # (lo, hi) packed into ONE int64 k — the wedge stream, the
        # dominant volume (~15× the edge count here), rides the
        # shuffle at 4 ints/row and the close is a searchsorted
        # membership probe, not a frame merge; t 2 a degree partial d
        return pd.DataFrame({
            "t": np.repeat(np.arange(3, dtype=np.int64),
                           [len(u), len(wa), len(node)]),
            "node": np.concatenate([u, wa, node]),
            "k": np.concatenate([_pack_pairs(u, v), _pack_pairs(wa, wb), node]),
            "d": np.concatenate([np.zeros(len(u) + len(wa), np.int64),
                                 deg.to_numpy(np.int64)]),
        })

    def close_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        t = g["t"].to_numpy(np.int64)
        k = g["k"].to_numpy(np.int64)
        e = np.sort(k[t == 0])
        w = k[t == 1]
        loc = np.searchsorted(e, w)
        n = int((
            (loc < len(e)) & (e[np.minimum(loc, len(e) - 1)] == w)
        ).sum()) if len(e) else 0
        d = pd.Series(g.loc[t == 2, "d"].to_numpy(np.int64)) \
            .groupby(k[t == 2]).sum()
        wedge = int((d * (d - 1) // 2).sum())
        return pd.DataFrame({
            "n": pd.Series([n], dtype="int64"),
            "w": pd.Series([wedge], dtype="int64"),
        })

    # materialize between the two all-to-alls: chaining two sort
    # shuffles in one lazy plan measures >2× slower here than cutting
    # the plan at the stage boundary (the first sort re-plans under
    # the second's splits)
    stage1 = shuffle(edges_ds, "u", nb, fused_bucket,
                     combine=undirect).materialize()
    parts = shuffle(stage1, "node", nb, close_in_bucket).to_pandas()
    if parts.empty:
        # no undirected edge: the oracle's wedge SUM over no degrees is
        # NULL, and so is the clustering ratio
        return pd.DataFrame({
            "n_triangles": pd.Series([0], dtype="int64"),
            "n_wedges": [float("nan")], "clustering": [float("nan")],
        })
    n_tri = int(parts["n"].sum())
    n_wedges = int(parts["w"].sum())
    return pd.DataFrame({
        "n_triangles": pd.Series([n_tri], dtype="int64"),
        "n_wedges": pd.Series([int(n_wedges)], dtype="int64"),
        "clustering": [3.0 * n_tri / n_wedges if n_wedges else 0.0],
    })


SQL_TRIANGLE_COUNT = f"""
WITH {_SQL_SEQ}, und AS (
  SELECT DISTINCT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
  FROM seq WHERE dst IS NOT NULL AND src <> dst
), tri AS (
  SELECT COUNT(*) AS c
  FROM und e1
  JOIN und e2 ON e2.u = e1.u AND e2.v > e1.v
  JOIN und e3 ON e3.u = e1.v AND e3.v = e2.v
), deg AS (
  SELECT n, COUNT(*) AS d FROM (
    SELECT u AS n FROM und UNION ALL SELECT v AS n FROM und
  ) GROUP BY n
), wed AS (
  SELECT SUM(d * (d - 1) / 2) AS c FROM deg
)
SELECT CAST(tri.c AS BIGINT) AS n_triangles,
       CAST(wed.c AS BIGINT) AS n_wedges,
       CASE WHEN wed.c = 0 THEN 0.0
            ELSE 3.0 * tri.c / wed.c END AS clustering
FROM tri, wed
"""


# ---------------------------------------------------------------------------
# cumulative unique users (new vs returning)
# ---------------------------------------------------------------------------

def _days(t: pa.Table) -> pa.ChunkedArray:
    """Calendar day (midnight timestamp) of each event of a batch."""
    return pc.floor_temporal(t["ts"], unit="day")


def q_cumulative_users(sf_dir: str):
    """Per calendar day: how many users were seen for the FIRST time
    that day, and the running total of distinct users to date.

    Recipe: per-batch (user, min day) partials → ONE ``user_id``
    shuffle finalizes each user's first day and counts new users per
    day in-bucket → additive per-day counts → driver cumsum over
    O(#days) rows.  Active days with zero new users still appear
    (per-batch distinct-day partials carry them)."""
    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def partials(t: pa.Table) -> pa.Table:
        g = pa.table({"user_id": pc.cast(t["user_id"], pa.int64()),
                      "day": _days(t)}).group_by("user_id") \
            .aggregate([("day", "min")])
        return pa.table({"user_id": g["user_id"], "day": g["day_min"]})

    def new_per_day(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby("user_id", as_index=False)["day"].min()
        return first.groupby("day", as_index=False).agg(
            n_new=("user_id", "size"))

    first_parts = shuffle(ds, "user_id", _nb_rows(sf_dir, "events"),
                          new_per_day, combine=partials).to_pandas()
    new_by_day = first_parts.groupby("day", as_index=False)["n_new"].sum()

    days = (
        ds.map_batches(lambda t: pa.table({"day": pc.unique(_days(t))}),
                       batch_format="pyarrow")
        .to_pandas()["day"]
        .drop_duplicates()
        .sort_values()
    )
    out = pd.DataFrame({"day": days}).merge(new_by_day, on="day", how="left")
    out["n_new"] = out["n_new"].fillna(0).astype("int64")
    out = out.sort_values("day").reset_index(drop=True)
    out["cum_users"] = out["n_new"].cumsum().astype("int64")
    out["day"] = out["day"].dt.strftime("%Y-%m-%d")
    return out


SQL_CUMULATIVE_USERS = """
WITH f AS (
  SELECT user_id, MIN(CAST(ts AS DATE)) AS d FROM events GROUP BY user_id
), nu AS (
  SELECT d, COUNT(*) AS n_new FROM f GROUP BY d
), days AS (
  SELECT DISTINCT CAST(ts AS DATE) AS d FROM events
)
SELECT strftime(days.d, '%Y-%m-%d') AS day,
       CAST(COALESCE(nu.n_new, 0) AS BIGINT) AS n_new,
       CAST(SUM(COALESCE(nu.n_new, 0)) OVER (
         ORDER BY days.d ROWS UNBOUNDED PRECEDING
       ) AS BIGINT) AS cum_users
FROM days LEFT JOIN nu ON nu.d = days.d
ORDER BY day
"""


def q_degree_distribution(sf_dir: str):
    """Out-degree histogram of the order-adjacency part graph (the
    first diagnostic run on any web/link graph: degree skew decides
    shuffle-salting and orientation strategies downstream).

    Reuses the memoized edge Dataset; out-degree is additive edge
    multiplicity (SUM w — a (src, dst) pair may appear in several
    order buckets, which sums correctly), so ``exchange.aggregate``
    folds it into the O(#distinct-src) driver vector (pagerank's
    documented state bound; shard on the bucket key past ~10⁸ nodes).
    Nodes with no outgoing edge report degree 0 via the node array."""
    edges, nodes = _edges_ds_and_nodes(sf_dir)
    deg = aggregate(edges, "src", {"w": ("w", "sum")})
    od = deg["w"].to_numpy(np.float64).astype("int64")  # w is whole-valued
    degrees, counts = np.unique(od, return_counts=True)
    n_zero = len(nodes) - len(od)
    if n_zero > 0 and (len(degrees) == 0 or degrees[0] != 0):
        degrees = np.concatenate([[0], degrees])
        counts = np.concatenate([[n_zero], counts])
    elif n_zero > 0:
        counts = counts.copy()
        counts[0] += n_zero
    return pd.DataFrame({
        "out_degree": degrees.astype("int64"),
        "n_nodes": counts.astype("int64"),
    })


SQL_DEGREE_DISTRIBUTION = f"""
WITH {_SQL_SEQ}, e AS (
  SELECT src, COUNT(*) AS w FROM seq WHERE dst IS NOT NULL GROUP BY src
), nodes AS (
  SELECT DISTINCT l_partkey AS node FROM lineitem
)
SELECT CAST(COALESCE(e.w, 0) AS BIGINT) AS out_degree,
       CAST(COUNT(*) AS BIGINT) AS n_nodes
FROM nodes LEFT JOIN e ON e.src = nodes.node
GROUP BY 1 ORDER BY 1
"""


BFS_MAX_HOPS = 4


def q_bfs_hops(sf_dir: str):
    """Multi-source-free BFS: minimum hop distance (≤ {BFS_MAX_HOPS})
    from the smallest part node along the directed order-adjacency
    edges — the reachability probe every link-graph pipeline runs
    before a crawl-frontier or influence pass.

    Distributed recipe: the frontier is the broadcast state (pagerank
    / k-means centroid pattern — ``ray.put`` per hop, shard past ~10⁸
    frontier nodes); each hop is ONE streaming ``map_batches`` pass
    over the memoized edge blocks emitting per-block distinct
    successor partials (``np.isin`` against the frontier — no per-row
    Python).  The driver folds O(blocks × new-nodes) partials, diffs
    against the visited vector, and stops early when a hop adds
    nothing.  Edges never land on the driver and never shuffle; the
    oracle is DuckDB's recursive CTE over the same edge definition."""
    import ray

    edges, nodes = _edges_ds_and_nodes(sf_dir)
    seed = int(nodes[0])
    out_ids = [seed]
    out_hops = [0]
    visited = np.array([seed], dtype=np.int64)
    frontier = visited
    for h in range(1, BFS_MAX_HOPS + 1):
        fref = ray.put(frontier)

        def nbrs(batch: dict, _fref=fref) -> dict:
            f = ray.get(_fref)
            m = np.isin(np.asarray(batch["src"], np.int64), f)
            succ = np.unique(np.asarray(batch["dst"], np.int64)[m])
            return {"dst": succ}

        parts = to_pandas(edges.map_batches(nbrs, batch_format="numpy"),
                          dst="int64")
        new = np.setdiff1d(
            parts["dst"].to_numpy(np.int64), visited, assume_unique=False
        )
        if len(new) == 0:
            break
        out_ids.extend(new.tolist())
        out_hops.extend([h] * len(new))
        visited = np.union1d(visited, new)
        frontier = new
    return (
        pd.DataFrame({
            "part_key": pd.Series(out_ids, dtype="int64"),
            "hop": pd.Series(out_hops, dtype="int64"),
        })
        .sort_values("part_key")
        .reset_index(drop=True)
    )


SQL_BFS_HOPS = f"""
WITH RECURSIVE {_SQL_SEQ}, e AS (
  SELECT DISTINCT src, dst FROM seq WHERE dst IS NOT NULL
), walk(node, hop) AS (
  SELECT (SELECT MIN(l_partkey) FROM lineitem), 0
  UNION
  SELECT e.dst, w.hop + 1
  FROM walk w JOIN e ON e.src = w.node
  WHERE w.hop < {BFS_MAX_HOPS}
)
SELECT node AS part_key, CAST(MIN(hop) AS BIGINT) AS hop
FROM walk GROUP BY node ORDER BY part_key
"""


QUERIES = {
    "pagerank_parts": q_pagerank_parts,
    "bfs_hops": q_bfs_hops,
    "degree_distribution": q_degree_distribution,
    "event_funnel": q_event_funnel,
    "event_transitions": q_event_transitions,
    "event_trigrams": q_event_trigrams,
    "timed_funnel": q_timed_funnel,
    "edge_reciprocity": q_edge_reciprocity,
    "time_to_convert": q_time_to_convert,
    "inverted_index": q_inverted_index,
    "triangle_count": q_triangle_count,
    "cumulative_users": q_cumulative_users,
}

ORACLE_SQL = {
    "pagerank_parts": SQL_PAGERANK_PARTS,
    "bfs_hops": SQL_BFS_HOPS,
    "degree_distribution": SQL_DEGREE_DISTRIBUTION,
    "event_funnel": SQL_EVENT_FUNNEL,
    "event_transitions": SQL_EVENT_TRANSITIONS,
    "event_trigrams": SQL_EVENT_TRIGRAMS,
    "timed_funnel": SQL_TIMED_FUNNEL,
    "edge_reciprocity": SQL_EDGE_RECIPROCITY,
    "time_to_convert": SQL_TIME_TO_CONVERT,
    "inverted_index": SQL_INVERTED_INDEX,
    "triangle_count": SQL_TRIANGLE_COUNT,
    "cumulative_users": SQL_CUMULATIVE_USERS,
}
