"""Relational operator suite over the TPC-H-ish tables, with DuckDB
oracle SQL for the driver's correctness gate.

Each query re-expresses a reference operator family (SURVEY.md §2) as
a Ray Data pipeline and names every computed column identically to its
oracle.  Scale notes are on each function: reads are column-pruned,
small sides are broadcast (never shuffled), a group-aggregate over a
small key space is one ``exchange.aggregate`` call (an Arrow
``group_by`` per batch, one more on the driver), and only provably
small results are materialized.  A single-input exchange on an integer
column is one ``exchange.shuffle`` call (optional Arrow combine + ``kb``
tag in one map, then a pandas finalize per bucket), keyed on an integer
column, a string (``top_paths``' path), a range bucket
(``purchase_id_islands``) or a folded pair key (``part_cooccurrence``);
a pandas per-batch partial runs as its own ``map_batches`` ahead of the
shuffle (Ray fuses the two maps).  A two-sided join on an integer key
is one ``exchange.cogroup`` call (each side projected and cast in
Arrow, one pandas frame per side per bucket).  ``resequence`` and
``stratified_sample`` keep ``groupby(key).map_groups``: each is a true
per-key group over a key space too small to need buckets.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from crawler_tjce_ray.pipelines import exchange as _ex


def _nb_rows(sf_dir: str, *tables: str) -> int:
    """Size-derived fan-out for an exchange whose bucket payload scales
    with the named tables' bytes (events streams, order windows, join
    sides, per-key partials whose key cardinality grows with the
    corpus): about one bucket per read block at small scale (1–2 on
    the test tables), widening so one bucket stays
    ~TARGET_BUCKET_BYTES at 100 TB (see pipelines/exchange.py;
    invariance pinned by tests/test_exchange_fanout.py at forced
    16/128-way)."""
    return _ex.buckets_for_bytes(_ex.table_bytes(sf_dir, *tables))


def _pack_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One int64 key per (a, b) pair: a in the high 32 bits, b in the
    low 32 (the high half may wrap negative; the packing stays
    one-to-one).  Only keys in [0, 2^32) pack without collision —
    numpy wraps the shift, so (2^32+1, 5) and (1, 5) would share a key
    — so anything else raises; a larger key space needs a two-column
    (a, b) pair key."""
    if len(a) and (max(int(a.max()), int(b.max())) >= 1 << 32
                   or min(int(a.min()), int(b.min())) < 0):
        raise ValueError(
            "pair keys exceed 32-bit packing range; use a "
            "two-column (a, b) pair key for this key space")
    return (a << np.int64(32)) | b


def _read(sf_dir: str, table: str, columns=None):
    """Pruned read of a single-file table through ``exchange.scan``:
    planned from the Parquet footer (no sample task), split into
    blocks sized from its bytes — one block for a small table, up to
    one per cluster CPU (8–32) for a large one."""
    return _ex.scan(f"{sf_dir}/{table}.parquet", columns)


def _pick(**cols):
    """``cogroup`` side projection: each output column is the named
    input column."""
    return lambda t: pa.table({k: t[v] for k, v in cols.items()})


def _str_col(s: pd.Series) -> pd.Series:
    """A string group-key column with SQL NULL as ``None`` (pandas
    ``groupby(dropna=False)`` keys the NULL group as NaN)."""
    return s.astype(object).where(s.notna(), None)


def _cents(x) -> pa.ChunkedArray:
    """Dollar amounts snapped to integer cents, FLOOR(x·100 + 0.5) —
    the oracles' rounding — so every later sum is exact and
    order-independent."""
    return pc.cast(pc.floor(pc.add(
        pc.multiply(x, pa.scalar(100.0)), pa.scalar(0.5))), pa.int64())


def _priority_counts(parts: pd.DataFrame) -> pd.DataFrame:
    """(o_orderpriority, n_orders) from (priority, n) partials, the
    NULL priority kept as its own group, ascending."""
    out = parts.groupby("priority", as_index=False, dropna=False)["n"].sum()
    return (
        pd.DataFrame({
            "o_orderpriority": _str_col(out["priority"]),
            "n_orders": out["n"].astype("int64"),
        })
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )


def _spend_partial(t: pa.Table) -> pa.Table:
    """Per-batch (custkey, spend_c) combine over orders: integer-cent
    ``o_totalprice`` summed per customer."""
    g = pa.table({
        "custkey": pc.cast(t["o_custkey"], pa.int64()),
        "spend_c": _cents(t["o_totalprice"]),
    }).group_by("custkey").aggregate([("spend_c", "sum")])
    return pa.table({
        "custkey": pc.cast(g["custkey"], pa.int64()),
        "spend_c": pc.cast(g["spend_c_sum"], pa.int64()),
    })


def _sum_hist(ds, key: str, val: str, nb: int, combine) -> pd.DataFrame:
    """Value-count histogram of per-key integer sums, ascending by
    ``val``: ``combine`` emits per-batch (key, val) partials, ONE
    key-bucket exchange finalizes each key's exact sum, each bucket
    emits (val, n) rows and the driver folds O(distinct sums) rows —
    the ``chars_percent_rank`` discipline."""

    def hist_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby(key, as_index=False)[val].sum()
        h = per.groupby(val, as_index=False).size() \
            .rename(columns={"size": "n"})
        return h.astype({val: "int64", "n": "int64"})

    return (
        _ex.shuffle(ds, key, nb, hist_in_bucket, combine=combine)
        .to_pandas()
        .groupby(val, as_index=False)["n"].sum()
        .sort_values(val).reset_index(drop=True)
    )


def _hist_gini(hist: pd.DataFrame, val: str, top_k):
    """(n, Σx, Gini, sum of the ``top_k(n)`` largest x) from an
    ascending ``_sum_hist`` histogram.  Gini uses the ROW_NUMBER form
    (2·Σr·x − (n+1)·Σx)/(n·Σx), which is tie-order invariant because
    tied ranks multiply equal values; the top cut is value-invariant
    at the boundary for the same reason.  Rank sums are
    arbitrary-precision Python ints (Σ rank·x at 10¹⁰ keys overflows
    int64), so every input to the final division is an exact
    integer."""
    vals = [int(v) for v in hist[val]]
    cnts = [int(c) for c in hist["n"]]
    n = sum(cnts)
    tot = sum(v * c for v, c in zip(vals, cnts))
    # Σ rank·x with ranks 1..n ascending: a value v with count c and
    # C strictly-smaller keys owns ranks C+1..C+c
    rs, below = 0, 0
    for v, c in zip(vals, cnts):
        rs += v * (c * below + c * (c + 1) // 2)
        below += c
    top, need = 0, top_k(n)
    for v, c in zip(reversed(vals), reversed(cnts)):
        take = min(c, need)
        top += v * take
        need -= take
        if need == 0:
            break
    gini = (2.0 * rs - (n + 1.0) * tot) / (float(n) * tot) if tot else 0.0
    return n, tot, gini, top


# ---------------------------------------------------------------------------
# A: aggregations (A1-A5) — groupby + global aggregates
# ---------------------------------------------------------------------------

def q_pricing_summary(sf_dir: str):
    """TPC-H Q1-style multi-aggregate (reference A-family: per-group
    sums/counts) through ``exchange.aggregate``: the 6-value key space
    pre-reduces per batch, so only O(#blocks × 6) partial rows leave
    the map stage — no full shuffle.  Mean is Σ/n on the driver."""
    def derive(t: pa.Table) -> pa.Table:
        return t.append_column("disc_price", pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])))

    g = _ex.aggregate(
        _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity",
                                   "l_extendedprice", "l_discount"]),
        ["l_returnflag", "l_linestatus"],
        {"sum_qty": ("l_quantity", "sum"),
         "sum_base_price": ("l_extendedprice", "sum"),
         "sum_disc_price": ("disc_price", "sum"),
         "n_qty": ("l_quantity", "count"),
         "count_order": ("l_quantity", "count_all")}, derive)
    g["avg_qty"] = (g["sum_qty"] / g["n_qty"]).round(2)
    for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
        g[c] = g[c].round(2)
    return g[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
              "sum_disc_price", "avg_qty", "count_order"]]


SQL_PRICING = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2) AS sum_qty,
       ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       ROUND(AVG(l_quantity), 2) AS avg_qty,
       COUNT(*) AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def q_groupby_count(sf_dir: str):
    """A1/A4: count per group (the reference's per-fetch record counts
    and invalid-reason histogram shape)."""
    return _ex.aggregate(_read(sf_dir, "orders", ["o_orderpriority"]),
                         "o_orderpriority",
                         {"n": ("o_orderpriority", "count_all")})


SQL_GROUPBY_COUNT = """
SELECT o_orderpriority, COUNT(*) AS n FROM orders
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def q_distinct(sf_dir: str):
    """A2/D1: distinct values (the entity-set union across pages)."""
    return _ex.aggregate(_read(sf_dir, "customer", ["c_mktsegment"]),
                         "c_mktsegment", {})


SQL_DISTINCT = "SELECT DISTINCT c_mktsegment FROM customer ORDER BY c_mktsegment"


def q_min_max_dates(sf_dir: str):
    """A3/S5: global min/max over a timestamp column (the edital
    last-updated probe, ds.min(\"warc_ts\") analog): one global row of
    per-batch min/max partials."""
    return _ex.aggregate(_read(sf_dir, "events", ["ts"]), [],
                         {"min_ts": ("ts", "min"), "max_ts": ("ts", "max")})


SQL_MIN_MAX = "SELECT MIN(ts) AS min_ts, MAX(ts) AS max_ts FROM events"


# ---------------------------------------------------------------------------
# O: sorts / limits / top-k (O1-O7)
# ---------------------------------------------------------------------------

def q_topk_orders(sf_dir: str):
    """O1/O4: total-order sort + limit (pagination window).  The sort
    key (price desc, key asc) is total, so the limit cut is exact."""
    out = (
        _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(100)
        .to_pandas()
    )
    out["o_totalprice"] = out["o_totalprice"].round(2)
    return out


SQL_TOPK = """
SELECT o_orderkey, ROUND(o_totalprice, 2) AS o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 100
"""


def q_limit_window(sf_dir: str):
    """O4: the page-window limit in ascending crawl order."""
    return (
        _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
        .sort(["o_orderdate", "o_orderkey"])
        .limit(500)
        .to_pandas()
    )


SQL_LIMIT_WINDOW = """
SELECT o_orderkey, o_orderdate FROM orders
ORDER BY o_orderdate, o_orderkey LIMIT 500
"""


def q_filter_range_agg(sf_dir: str):
    """User-extension surface (main.py:698-729 apply_filters): range
    predicates pushed into a vectorized batch filter, then aggregate."""
    def derive(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(t["l_shipdate"], pa.scalar(pd.Timestamp("1997-01-01"))),
            pc.and_(
                pc.greater_equal(t["l_discount"], pa.scalar(0.02)),
                pc.less_equal(t["l_discount"], pa.scalar(0.06)),
            ),
        )
        t = t.filter(m)
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return t.append_column("revenue", rev)

    out = _ex.aggregate(
        _read(sf_dir, "lineitem",
              ["l_returnflag", "l_shipdate", "l_discount", "l_extendedprice"]),
        "l_returnflag", {"revenue": ("revenue", "sum")}, derive)
    out["revenue"] = out["revenue"].round(2)
    return out


SQL_FILTER_RANGE = """
SELECT l_returnflag, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1997-01-01'
  AND l_discount BETWEEN 0.02 AND 0.06
GROUP BY l_returnflag ORDER BY l_returnflag
"""


# ---------------------------------------------------------------------------
# J: joins / lookups (J1-J4) — broadcast small sides, never shuffle
# ---------------------------------------------------------------------------

def _broadcast_inner_lookup(dim_keys, dim_vals, fact_col: str, out_col: str):
    """The canonical broadcast-dim join: the (keys, values) Arrow
    arrays are ``ray.put`` once; the returned ``map_batches`` callable
    resolves ``fact_col`` → ``out_col`` with a vectorized
    ``index_in``/``take`` and DROPS unmatched rows — inner-join
    semantics, matching the SQL oracles even on referentially broken
    data (a kept null key would otherwise become a phantom group)."""
    import ray

    ref = ray.put((
        pa.array(dim_keys, pa.int64()),
        pa.array(dim_vals, pa.string()),
    ))

    def join(t: pa.Table) -> pa.Table:
        keys, vals = ray.get(ref)
        idx = pc.index_in(pc.cast(t[fact_col], pa.int64()), value_set=keys)
        t = t.append_column(out_col, pc.take(vals, idx))
        return t.filter(pc.is_valid(t[out_col]))

    return join


def q_broadcast_join(sf_dir: str):
    """J1/J2: slug↔name style broadcast lookup — the dimension table is
    ray.put once and resolved per batch (no shuffle join)."""
    region = _read(sf_dir, "region").to_pandas()
    join = _broadcast_inner_lookup(
        region["r_regionkey"], region["r_name"], "n_regionkey", "r_name"
    )

    out = (
        _read(sf_dir, "nation", ["n_name", "n_regionkey"])
        .map_batches(join, batch_format="pyarrow")
        .to_pandas()[["n_name", "r_name"]]
    )
    return out.sort_values("n_name").reset_index(drop=True)


SQL_BROADCAST_JOIN = """
SELECT n_name, r_name FROM nation JOIN region ON n_regionkey = r_regionkey
ORDER BY n_name
"""


def q_join_agg(sf_dir: str):
    """J1 + A: broadcast join then grouped aggregate (customers per
    nation with balances).  The group key space is |nations| (tiny),
    so ``exchange.aggregate`` pre-reduces each batch to per-nation
    partials and the only cross-node traffic is O(blocks × nations)
    partial rows — no all-to-all shuffle."""
    nation = _read(sf_dir, "nation").to_pandas()
    join = _broadcast_inner_lookup(
        nation["n_nationkey"], nation["n_name"], "c_nationkey", "n_name"
    )
    out = _ex.aggregate(
        _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"]), "n_name",
        {"num_customers": ("c_acctbal", "count_all"),
         "total_acctbal": ("c_acctbal", "sum")}, join)
    out["total_acctbal"] = out["total_acctbal"].round(2)
    return out


SQL_JOIN_AGG = """
SELECT n_name, COUNT(*) AS num_customers, ROUND(SUM(c_acctbal), 2) AS total_acctbal
FROM customer JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name ORDER BY n_name
"""


def q_supplier_region(sf_dir: str):
    """Two-level broadcast join (supplier ⋈ nation ⋈ region): the two
    dim tables compose driver-side (both tiny) into ONE broadcast
    nationkey→region-name lookup, so the fact table pays a single
    vectorized index_in/take pass, and ``exchange.aggregate`` folds
    the |regions| groups."""
    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    n2r = nation.merge(
        region, left_on="n_regionkey", right_on="r_regionkey"
    )[["n_nationkey", "r_name"]]
    join = _broadcast_inner_lookup(
        n2r["n_nationkey"], n2r["r_name"], "s_nationkey", "r_name"
    )
    out = _ex.aggregate(
        _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"]), "r_name",
        {"n_suppliers": ("s_acctbal", "count_all"),
         "max_acctbal": ("s_acctbal", "max")}, join)
    out["max_acctbal"] = out["max_acctbal"].round(2)
    return out


SQL_SUPPLIER_REGION = """
SELECT r_name, COUNT(*) AS n_suppliers,
       ROUND(MAX(s_acctbal), 2) AS max_acctbal
FROM supplier JOIN nation ON s_nationkey = n_nationkey
              JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name ORDER BY r_name
"""


def q_brand_revenue(sf_dir: str):
    """Fact-to-dimension revenue rollup (lineitem ⋈ part → brand):
    each batch resolves the broadcast partkey→brand map and
    pre-aggregates revenue per BRAND (25 keys) in
    ``exchange.aggregate``; no shuffle exists at all.  Line items with
    no part match are dropped by the inner-join lookup (mirrors the
    oracle).

    Scale note: broadcast holds while the part dim fits the object
    store comfortably (~20 MB at sf1); past that, ``exchange.cogroup``
    BOTH sides on partkey (the asof/range-join recipe) and keep the
    per-brand combine inside each bucket."""
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"]).to_pandas()
    join = _broadcast_inner_lookup(
        part["p_partkey"], part["p_brand"], "l_partkey", "p_brand"
    )

    def derive(t: pa.Table) -> pa.Table:
        t = join(t)
        return t.append_column("rev", pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])))

    out = _ex.aggregate(
        _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"]),
        "p_brand", {"revenue": ("rev", "sum")}, derive)
    out["revenue"] = out["revenue"].round(2)
    return out


SQL_BRAND_REVENUE = """
SELECT p_brand, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_brand ORDER BY p_brand
"""


def q_anti_join(sf_dir: str):
    """D1/T5 analog: the URL-seen anti-join — membership set broadcast
    (a sharded cuckoo filter at 10^10 scale; exact set here), filter
    inside map_batches."""
    import ray

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    seen_ref = ray.put(pa.array(
        cust.loc[cust["c_mktsegment"] == "BUILDING", "c_custkey"], pa.int64()
    ))

    def filt(t: pa.Table) -> pa.Table:
        seen = ray.get(seen_ref)
        hit = pc.is_in(pc.cast(t["o_custkey"], pa.int64()), value_set=seen)
        return t.filter(pc.invert(hit))

    out = (
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
        .map_batches(filt, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("o_orderkey").reset_index(drop=True)


SQL_ANTI_JOIN = """
SELECT o_orderkey, o_custkey FROM orders
WHERE o_custkey NOT IN (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')
ORDER BY o_orderkey
"""


# ---------------------------------------------------------------------------
# windows / ordering (O1, M7, §2.9 streaming semantics)
# ---------------------------------------------------------------------------

def q_topk_per_user(sf_dir: str):
    """Frontier wave selection analog (O1): first k per partition key
    in (ts, id) order.

    Grouping directly on ``user_id`` dispatches one pandas group per
    user (the tiny-group anti-pattern — a scale-killer at 10⁹ users);
    instead the shuffle groups on coarse size-derived ``user_id`` buckets
    (the same recipe as ``q_asof_join``) and the per-bucket kernel is
    one vectorized sort + ``groupby.head(3)``."""
    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def head3(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        return g.groupby("user_id", sort=False).head(3)[
            ["user_id", "event_id", "ts"]
        ]

    out = _ex.shuffle(ds, "user_id", nb, head3).to_pandas()
    return out.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)


SQL_TOPK_PER_USER = """
SELECT user_id, event_id, ts FROM (
  SELECT user_id, event_id, ts,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events) t
WHERE rn <= 3 ORDER BY user_id, ts, event_id
"""


def q_resequence(sf_dir: str):
    """M7: the global 1-based ``ordem`` resequencing after a total-order
    sort, distributed as per-group ranks + a broadcast prefix-sum over
    group counts (O(#groups) driver state — the same recipe
    assign_global_ordem uses for pages).

    The shuffle groups by MONTH, not day: ``exchange.aggregate``'s
    month counts feed the month prefix-sums, and each month group
    ranks its rows in one vectorized sort — grouping by the 2400
    distinct days would pay per-group dispatch far exceeding the rank
    work.  It stays a true
    per-key ``groupby("month").map_groups`` rather than
    ``exchange.shuffle``: ``rank_group`` reads its month's offset from
    the group's one key, and the ~80 months are already as coarse as
    buckets would be."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def with_month(t: pa.Table) -> pa.Table:
        # vectorized month truncation (Arrow temporal kernel)
        return t.append_column(
            "month", pc.floor_temporal(t["o_orderdate"], unit="month")
        )

    # consumed twice (counts + rank shuffle): materialize the tiny
    # 3-column projection once instead of re-running read+map per sink
    monthly = ds.map_batches(with_month, batch_format="pyarrow").materialize()

    counts = _ex.aggregate(monthly, "month", {"n": ("o_orderkey", "count_all")})
    counts["offset"] = counts["n"].cumsum().shift(fill_value=0)
    offsets = dict(zip(counts["month"], counts["offset"]))

    def rank_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_orderdate", "o_orderkey"]).reset_index(drop=True)
        g["ordem"] = offsets[g["month"].iloc[0]] + np.arange(1, len(g) + 1)
        return g[["ordem", "o_orderkey"]]

    out = _ex.to_pandas(
        monthly.groupby("month").map_groups(rank_group, batch_format="pandas"),
        ordem="int64", o_orderkey="int64")
    out["ordem"] = out["ordem"].astype("int64")
    return out.sort_values("ordem").reset_index(drop=True)


SQL_RESEQUENCE = """
SELECT CAST(row_number() OVER (ORDER BY o_orderdate, o_orderkey) AS BIGINT) AS ordem,
       o_orderkey
FROM orders ORDER BY ordem
"""


def q_hourly_window(sf_dir: str):
    """§2.9 streaming-shaped: tumbling event-time window aggregate
    (hour buckets × event type) through ``exchange.aggregate``: window
    keys are dense within a batch, so the partials are
    O(#blocks × windows) rows, never the events."""
    def derive(t: pa.Table) -> pa.Table:
        return t.append_column("window_start",
                               pc.floor_temporal(t["ts"], unit="hour"))

    out = _ex.aggregate(
        _read(sf_dir, "events", ["ts", "event_type", "value"]),
        ["window_start", "event_type"],
        {"n": ("value", "count_all"), "total_value": ("value", "sum")}, derive)
    out["total_value"] = out["total_value"].round(2)
    return out


SQL_HOURLY_WINDOW = """
SELECT date_trunc('hour', ts) AS window_start, event_type,
       COUNT(*) AS n, ROUND(SUM(value), 2) AS total_value
FROM events GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_sliding_window(sf_dir: str):
    """Sliding (3-hour, 1-hour step) windowed aggregate — the overlap
    generalization of ``q_hourly_window``: hourly partials through
    ``exchange.aggregate`` (the only pass over events), then the window
    roll runs over the tiny hourly table on the driver with gap-aware
    reindexing (a RANGE frame, not a row frame)."""
    def derive(t: pa.Table) -> pa.Table:
        return t.append_column("hour_start",
                               pc.floor_temporal(t["ts"], unit="hour"))

    hourly = _ex.aggregate(
        _read(sf_dir, "events", ["ts", "value"]), "hour_start",
        {"n": ("value", "count_all"), "tv": ("value", "sum")}, derive)
    hourly = hourly.set_index("hour_start")
    # gap-aware: reindex to the continuous hour range so a 3-bucket
    # rolling sum equals the oracle's RANGE 2h-preceding frame
    full = pd.date_range(hourly.index.min(), hourly.index.max(), freq="h") \
        if len(hourly) else hourly.index
    dense = hourly.reindex(full, fill_value=0)
    roll = dense.rolling(3, min_periods=1).sum()
    out = roll.loc[hourly.index]  # only hours that actually have events
    return pd.DataFrame({
        "hour_start": out.index,
        "n_3h": out["n"].astype("int64").to_numpy(),
        "value_3h": np.round(out["tv"].to_numpy(), 2),
    }).reset_index(drop=True)


SQL_SLIDING_WINDOW = """
WITH h AS (
  SELECT date_trunc('hour', ts) AS hour_start,
         COUNT(*) AS n, SUM(value) AS tv
  FROM events GROUP BY 1)
SELECT hour_start,
       CAST(SUM(n) OVER w AS BIGINT) AS n_3h,
       ROUND(SUM(tv) OVER w, 2) AS value_3h
FROM h
WINDOW w AS (ORDER BY hour_start
             RANGE BETWEEN INTERVAL 2 HOUR PRECEDING AND CURRENT ROW)
ORDER BY hour_start
"""


def q_asof_join(sf_dir: str):
    """As-of join (custom operator Ray Data lacks): each event matched
    to the user's latest order at or before the event time.

    Distributed recipe: ONE ``exchange.cogroup`` of events and orders
    on the key; in-bucket the right side pre-reduces to one row per
    (key, time) and the merge is a sorted ``pd.merge_asof``.
    Partitioning assumption: a single key's rows fit one group (true
    for user-keyed activity; salt hot keys otherwise)."""
    nb = _nb_rows(sf_dir, 'events', 'orders')  # row-carrying exchange

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    # the deterministic right-side pre-reduce (one row per (custkey,
    # date), max key) happens INSIDE the kb bucket in merge() — the kb
    # shuffle already co-locates every row of a custkey, so a separate
    # Ray groupby(["o_custkey","o_orderdate"]) shuffle (whose key
    # cardinality is ~#orders — the degenerate high-cardinality
    # aggregate regime) would be a second exchange for nothing
    o = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    # shuffle key: nb coarse buckets, not raw user ids — per-group
    # dispatch over thousands of tiny key groups would dwarf the merge
    # work; inside a bucket the as-of is one vectorized
    # pd.merge_asof(by=key)
    def merge(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        left = left.sort_values("t", kind="mergesort")
        right = (
            right.groupby(["key", "t"], as_index=False)["o_orderkey"].max()
            .sort_values("t", kind="mergesort")
        )
        if left.empty or right.empty:
            return pd.DataFrame(
                columns=["event_id", "user_id", "ts", "o_orderkey"]
            )
        m = pd.merge_asof(left, right, on="t", by="key", direction="backward")
        m = m[m["o_orderkey"].notna()]
        return pd.DataFrame({
            "event_id": m["event_id"].to_numpy(),
            "user_id": m["key"].to_numpy(),
            "ts": m["t"].to_numpy(),
            "o_orderkey": m["o_orderkey"].to_numpy().astype("int64"),
        })

    ts = pa.timestamp("us")
    out = _ex.to_pandas(_ex.cogroup([
        (events, {"key": pa.int64(), "t": ts, "event_id": pa.int64()},
         _pick(key="user_id", t="ts", event_id="event_id")),
        (o, {"key": pa.int64(), "t": ts, "o_orderkey": pa.int64()},
         _pick(key="o_custkey", t="o_orderdate", o_orderkey="o_orderkey")),
    ], "key", nb, merge), event_id="int64", user_id="int64",
        ts="datetime64[us]", o_orderkey="int64")
    out = out.astype({"event_id": "int64", "user_id": "int64", "o_orderkey": "int64"})
    return out.sort_values("event_id").reset_index(drop=True)


SQL_ASOF_JOIN = """
WITH o AS (
  SELECT o_custkey, o_orderdate, MAX(o_orderkey) AS o_orderkey
  FROM orders GROUP BY o_custkey, o_orderdate)
SELECT e.event_id, e.user_id, e.ts, o.o_orderkey
FROM events e ASOF JOIN o
  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
ORDER BY e.event_id
"""


def q_range_join(sf_dir: str):
    """Range (interval) join — the other join shape Ray Data lacks:
    per order, count its lineitems shipped inside the order's 90-day
    window (key equality + range predicate on the time axis).

    Distributed recipe (same skeleton as ``q_asof_join``): ONE
    ``exchange.cogroup`` of orders and lineitems on coarse size-derived
    key buckets; inside a bucket one vectorized ``pd.merge`` on the key
    followed by the window filter + groupby count.  Partitioning
    assumption: one key's order×lineitem pairs fit a group — bounded
    by lines-per-order; salt hot keys otherwise."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    lines = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    nb = _nb_rows(sf_dir, 'orders', 'lineitem')  # row-carrying exchange

    def count_in_window(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        if left.empty:
            return pd.DataFrame(columns=["o_orderkey", "n_shipped_90d"])
        m = left.merge(right.rename(columns={"t": "ship"}), on="key", how="left")
        in_win = (m["ship"] >= m["t"]) & (
            m["ship"] < m["t"] + pd.Timedelta(days=90)
        )
        m["hit"] = in_win.fillna(False).astype("int64")
        out = m.groupby("key", as_index=False)["hit"].sum()
        return pd.DataFrame({
            "o_orderkey": out["key"].astype("int64"),
            "n_shipped_90d": out["hit"].astype("int64"),
        })

    side = {"key": pa.int64(), "t": pa.timestamp("us")}
    out = _ex.cogroup([
        (orders, side, _pick(key="o_orderkey", t="o_orderdate")),
        (lines, side, _pick(key="l_orderkey", t="l_shipdate")),
    ], "key", nb, count_in_window).to_pandas()
    out = out.astype({"o_orderkey": "int64", "n_shipped_90d": "int64"})
    return out.sort_values("o_orderkey").reset_index(drop=True)


SQL_RANGE_JOIN = """
SELECT o.o_orderkey, CAST(COUNT(l.l_orderkey) AS BIGINT) AS n_shipped_90d
FROM orders o LEFT JOIN lineitem l
  ON l.l_orderkey = o.o_orderkey
 AND CAST(l.l_shipdate AS TIMESTAMP) >= CAST(o.o_orderdate AS TIMESTAMP)
 AND CAST(l.l_shipdate AS TIMESTAMP)
     < CAST(o.o_orderdate AS TIMESTAMP) + INTERVAL 90 DAY
GROUP BY o.o_orderkey ORDER BY o.o_orderkey
"""


def q_sessionize(sf_dir: str):
    """Sessionization (streaming-shaped §2.9): gap-based session ids
    per user (new session when >30 min since the previous event).
    One shuffle on coarse size-derived ``user_id`` buckets (not per-user —
    per-user dispatch is the tiny-group anti-pattern); inside a bucket
    the assignment is one vectorized per-user diff + cumsum."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = g.reset_index(drop=True)
        gap = g.groupby("user_id", sort=False)["ts"].diff() > pd.Timedelta(minutes=30)
        g["session_id"] = gap.groupby(g["user_id"], sort=False).cumsum().astype("int64") + 1
        return g[["user_id", "event_id", "session_id"]]

    out = (
        _ex.shuffle(ds, "user_id", nb, assign)
        .to_pandas()
        .astype({"user_id": "int64", "event_id": "int64", "session_id": "int64"})
    )
    return out.sort_values(["user_id", "event_id"]).reset_index(drop=True)


SQL_SESSIONIZE = """
WITH marked AS (
  SELECT user_id, event_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_sess
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT user_id, event_id,
       CAST(SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
FROM marked ORDER BY user_id, event_id
"""


def q_event_dwell(sf_dir: str):
    """Per-event dwell time: seconds until the SAME user's next event
    (LEAD over the user stream; each user's last event drops) — the
    engagement-duration primitive behind bounce/read-time analytics.
    Same bucketing as q_sessionize: ONE shuffle on coarse
    size-derived ``user_id`` buckets, in-bucket vectorized sort + shift.
    Dwell is an exact INTEGER microsecond difference (the timestamps
    carry µs precision; a float seconds column would hash-diverge on
    ns-vs-µs division ulps)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def dwell(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        nxt = g["ts"].shift(-1)
        same = (g["user_id"].shift(-1) == g["user_id"]).to_numpy()
        d = (nxt - g["ts"]) / pd.Timedelta(microseconds=1)
        out = pd.DataFrame({
            "event_id": g["event_id"][same],
            "user_id": g["user_id"][same],
            "dwell_us": d[same].astype("int64"),
        })
        return out

    out = _ex.to_pandas(_ex.shuffle(ds, "user_id", nb, dwell),
                        event_id="int64", user_id="int64", dwell_us="int64"
                        ).astype({"event_id": "int64", "user_id": "int64",
                                  "dwell_us": "int64"})
    return out.sort_values("event_id").reset_index(drop=True)


SQL_EVENT_DWELL = """
WITH o AS (
  SELECT event_id, user_id, ts,
         LEAD(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS nxt
  FROM events)
SELECT event_id, user_id,
       CAST(date_diff('microsecond', ts, nxt) AS BIGINT) AS dwell_us
FROM o WHERE nxt IS NOT NULL ORDER BY event_id
"""


def q_cohort_matrix(sf_dir: str):
    """Weekly cohort-retention matrix — THE product-analytics grid:
    users grouped by the Monday week of their FIRST event (cohort),
    counted once per (cohort, whole weeks elapsed) cell they were
    active in.  ``retention`` gives one diagonal of this; the full
    matrix is the operator dashboards actually draw.

    ONE bucketed user_id shuffle (a user's whole history lives in its
    bucket, so both the first-event week and the distinct active weeks
    are exact in-bucket) → additive (cohort_week, week_age,
    n_users) partials (a user contributes to exactly one bucket, so
    distinct-user counts add) → driver folds ≤ 64 × weeks² rows.
    Week arithmetic is integer days-since-Monday, no float anywhere."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def cells(g: pd.DataFrame) -> pd.DataFrame:
        day = g["ts"].dt.floor("D")
        week = day - pd.to_timedelta(day.dt.weekday, unit="D")
        x = pd.DataFrame({"user_id": g["user_id"], "week": week})
        first = x.groupby("user_id")["week"].transform("min")
        x["cohort_week"] = first
        x["week_age"] = ((x["week"] - first).dt.days // 7).astype("int64")
        cells = x.drop_duplicates(["user_id", "week_age"])
        out = cells.groupby(["cohort_week", "week_age"], as_index=False).agg(
            n_users=("user_id", "size"))
        return out.astype({"week_age": "int64", "n_users": "int64"})

    parts = _ex.shuffle(ds, "user_id", nb, cells).to_pandas()
    out = parts.groupby(["cohort_week", "week_age"], as_index=False)[
        "n_users"].sum()
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values(["cohort_week", "week_age"]).reset_index(drop=True)


SQL_COHORT_MATRIX = """
WITH f AS (
  SELECT user_id, MIN(date_trunc('week', ts)) AS cohort_week
  FROM events GROUP BY user_id
), a AS (
  SELECT DISTINCT e.user_id, date_trunc('week', e.ts) AS w FROM events e
)
SELECT f.cohort_week,
       CAST(date_diff('day', f.cohort_week, a.w) / 7 AS BIGINT) AS week_age,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM a JOIN f USING (user_id)
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_big_spenders(sf_dir: str):
    """Customers whose lifetime spend exceeds 2× their market
    segment's average customer spend — the correlated-subquery /
    HAVING-against-group-average class (TPC-H Q17/Q22 flavor) none of
    the existing joins cover.

    Three bounded stages: (1) per-batch (custkey, cents) partials over
    orders — spend snaps to integer cents per order, so every later
    sum is order-independent; (2) ONE custkey-bucket exchange joining
    spend partials with customer's (custkey, segment)
    (``exchange.cogroup``) — emits the
    per-customer spend table, bounded by #customers; (3) segment
    averages fold from additive (segment, tot_cents, n_cust) partials,
    and the filter re-runs over stage-2 blocks with the tiny threshold
    table broadcast in the closure.  The selection predicate
    ``spend_c · n > 2 · tot_c`` is pure int64 — bit-exact vs the
    oracle, no average ever rounds."""
    nb = _nb_rows(sf_dir, 'orders', 'customer')  # row-carrying exchange
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def join_bucket(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame:
        facts = facts.groupby("custkey", as_index=False)["spend_c"].sum()
        # a NULL segment joins no segment average (SQL NULL ≠ NULL), so
        # its customers can never be picked
        return facts.merge(dims.dropna(subset=["segment"]), on="custkey")

    per_cust = _ex.cogroup([
        (orders, {"custkey": pa.int64(), "spend_c": pa.int64()},
         _spend_partial),
        (cust, {"custkey": pa.int64(), "segment": pa.string()},
         _pick(custkey="c_custkey", segment="c_mktsegment")),
    ], "custkey", nb, join_bucket).materialize()

    def seg_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("segment", as_index=False).agg(
            tot_c=("spend_c", "sum"), n_cust=("spend_c", "size"))

    seg_parts = _ex.to_pandas(
        per_cust.map_batches(seg_partial, batch_format="pandas"),
        segment=object, tot_c="int64", n_cust="int64")
    seg = seg_parts.groupby("segment", as_index=False).sum()
    tot_by_seg = dict(zip(seg["segment"], seg["tot_c"].astype("int64")))
    n_by_seg = dict(zip(seg["segment"], seg["n_cust"].astype("int64")))

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        tot = df["segment"].map(tot_by_seg).to_numpy(np.int64)
        n = df["segment"].map(n_by_seg).to_numpy(np.int64)
        sp = df["spend_c"].to_numpy(np.int64)
        keep = sp * n > 2 * tot
        out = df.loc[keep, ["custkey", "segment", "spend_c"]].copy()
        out["spend"] = out["spend_c"].to_numpy(np.float64) / 100.0
        out["ratio_to_avg"] = (
            out["spend_c"].to_numpy(np.float64) * n[keep] / tot[keep]
        ).round(6)
        return out[["custkey", "segment", "spend", "ratio_to_avg"]]

    out = _ex.to_pandas(per_cust.map_batches(pick, batch_format="pandas"),
                        custkey="int64", segment=object, spend="float64",
                        ratio_to_avg="float64")
    out = out.astype({"custkey": "int64", "segment": object,
                      "spend": "float64", "ratio_to_avg": "float64"})
    return out.sort_values("custkey").reset_index(drop=True)


SQL_BIG_SPENDERS = """
WITH s AS (
  SELECT o_custkey AS custkey,
         SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS spend_c
  FROM orders GROUP BY 1
), j AS (
  SELECT c_custkey AS custkey, c_mktsegment AS segment, spend_c
  FROM s JOIN customer ON custkey = c_custkey
), a AS (
  SELECT segment, SUM(spend_c) AS tot_c, COUNT(*) AS n_cust
  FROM j GROUP BY 1
)
SELECT j.custkey, j.segment, j.spend_c / 100.0 AS spend,
       ROUND(CAST(j.spend_c AS DOUBLE) * a.n_cust / a.tot_c, 6)
         AS ratio_to_avg
FROM j JOIN a USING (segment)
WHERE j.spend_c * a.n_cust > 2 * a.tot_c
ORDER BY j.custkey
"""


def q_concentration_stats(sf_dir: str):
    """Revenue-concentration summary: the Gini coefficient of
    per-customer lifetime spend plus the share held by the top 1 % of
    customers — the inequality diagnostic behind "how head-heavy is
    this corpus/market" (the same question webtext pipelines ask of
    per-domain page counts).

    Recipe: ``_spend_partial`` per batch → ``_sum_hist`` (ONE
    custkey-bucket exchange, a (spend_c, n) value-count histogram, the
    driver folds O(#distinct spends) rows; at 10¹⁰ customers the fold
    itself would shard on a value-bucket key first) → ``_hist_gini``
    with the top-1 % head count ceil(n/100)."""
    nb = _nb_rows(sf_dir, 'orders')  # row-carrying exchange
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    hist = _sum_hist(orders, "custkey", "spend_c", nb, _spend_partial)
    n, tot, gini, top_c = _hist_gini(hist, "spend_c", lambda n: -(-n // 100))
    return pd.DataFrame({
        "n_customers": pd.Series([n], dtype="int64"),
        "total_spend": [tot / 100.0],
        "gini": [round(gini, 6)],
        "top1pct_share": [round(top_c / tot, 6) if tot else 0.0],
    })


SQL_CONCENTRATION_STATS = """
WITH s AS (
  SELECT o_custkey,
         SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS spend_c
  FROM orders GROUP BY 1
), r AS (
  SELECT spend_c,
         ROW_NUMBER() OVER (ORDER BY spend_c, o_custkey) AS rn
  FROM s
), t AS (
  SELECT COUNT(*) AS n, SUM(spend_c) AS tot, SUM(rn * spend_c) AS rs FROM r
), k AS (
  SELECT CAST(CEIL(n / 100.0) AS BIGINT) AS k, n, tot, rs FROM t
), tp AS (
  SELECT SUM(r.spend_c) AS top_c FROM r CROSS JOIN k WHERE r.rn > k.n - k.k
)
SELECT CAST(k.n AS BIGINT) AS n_customers,
       k.tot / 100.0 AS total_spend,
       ROUND((2.0 * k.rs - (k.n + 1.0) * k.tot)
             / (CAST(k.n AS DOUBLE) * k.tot), 6) AS gini,
       ROUND(CAST(tp.top_c AS DOUBLE) / k.tot, 6) AS top1pct_share
FROM k CROSS JOIN tp
"""


def q_assoc_rules(sf_dir: str):
    """Association rules over the top-100 co-bought part pairs:
    for each pair, BOTH directed rules p_from→p_to with confidence
    = pairs/orders_with(p_from) and lift = confidence /
    (orders_with(p_to)/N) — the Apriori-style post-processing of
    ``part_cooccurrence``'s pair counts.

    Scale shape: the pair counts come from the two-exchange
    ``q_part_cooccurrence`` machinery (pair space never touches the
    driver); the supports pass PRE-COMBINES per batch before its
    orderkey exchange — each scan batch ships only its distinct
    orderkeys (sentinel part −1) plus its distinct (orderkey, part)
    rows filtered to the ≤200 broadcast candidates, so the exchange
    payload is O(orders + candidate hits), not O(lineitem rows); the
    in-bucket merge re-dedups across batch partials (orderkeys are
    disjoint across buckets, so counts add exactly) and returns
    O(candidates + buckets) rows, never O(#parts).  conf and lift are
    ratios of exact ints, rounded to 6 dp."""
    nb = _nb_rows(sf_dir, 'lineitem')  # row-carrying exchange
    top = q_part_cooccurrence(sf_dir)
    cand = set(map(int, top["p1"])) | set(map(int, top["p2"]))
    cand_arr = pa.array(sorted(cand), type=pa.int64())

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def combine_batch(t: pa.Table) -> pa.Table:
        key = pc.cast(t["l_orderkey"], pa.int64())
        part = pc.cast(t["l_partkey"], pa.int64())
        hits = (
            pa.table({"l_orderkey": key, "l_partkey": part})
            .filter(pc.is_in(part, value_set=cand_arr))
            .group_by(["l_orderkey", "l_partkey"]).aggregate([])
        )
        okeys = pc.unique(key)
        return pa.concat_tables([
            hits,
            pa.table({
                "l_orderkey": okeys,
                "l_partkey": pa.array(np.full(len(okeys), -1, np.int64)),
            }),
        ])

    def support_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["l_orderkey", "l_partkey"]].drop_duplicates()
        s = d[d["l_partkey"] != -1].groupby(
            "l_partkey", as_index=False).agg(s=("l_orderkey", "size"))
        s = s.rename(columns={"l_partkey": "part"})
        n_orders = pd.DataFrame({
            "part": [-1],
            "s": [int(d.loc[d["l_partkey"] == -1, "l_orderkey"].nunique())]})
        return pd.concat([s, n_orders]).astype({"part": "int64", "s": "int64"})

    sup = (
        _ex.shuffle(ds, "l_orderkey", nb, support_in_bucket,
                    combine=combine_batch)
        .to_pandas()
        .groupby("part", as_index=False)["s"].sum()
    )
    smap = dict(zip(sup["part"].astype("int64"), sup["s"].astype("int64")))
    n_orders = smap.pop(-1)

    rules = pd.concat([
        top.rename(columns={"p1": "p_from", "p2": "p_to"}),
        top.rename(columns={"p2": "p_from", "p1": "p_to"}),
    ])[["p_from", "p_to", "pair_count"]]
    sf = rules["p_from"].map(smap).to_numpy(np.int64)
    st = rules["p_to"].map(smap).to_numpy(np.int64)
    c = rules["pair_count"].to_numpy(np.int64)
    rules["conf"] = np.round(c / sf.astype(np.float64), 6)
    rules["lift"] = np.round(
        (c / sf.astype(np.float64)) / (st / float(n_orders)), 6)
    rules = rules.astype({"p_from": "int64", "p_to": "int64",
                          "pair_count": "int64"})
    return rules.sort_values(
        ["pair_count", "p_from", "p_to"], ascending=[False, True, True]
    ).reset_index(drop=True)


SQL_ASSOC_RULES = """
WITH d AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
), pc_ AS (
  SELECT a.l_partkey AS p1, b.l_partkey AS p2, COUNT(*) AS c
  FROM d a JOIN d b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2
), top AS (
  SELECT * FROM pc_ ORDER BY c DESC, p1, p2 LIMIT 100
), sup AS (
  SELECT l_partkey, COUNT(*) AS s FROM d GROUP BY 1
), n AS (
  SELECT COUNT(DISTINCT l_orderkey) AS n FROM lineitem
), rules AS (
  SELECT p1 AS p_from, p2 AS p_to, c FROM top
  UNION ALL
  SELECT p2 AS p_from, p1 AS p_to, c FROM top
)
SELECT r.p_from, r.p_to, CAST(r.c AS BIGINT) AS pair_count,
       ROUND(CAST(r.c AS DOUBLE) / sf.s, 6) AS conf,
       ROUND((CAST(r.c AS DOUBLE) / sf.s) / (CAST(st.s AS DOUBLE) / n.n), 6)
         AS lift
FROM rules r
JOIN sup sf ON r.p_from = sf.l_partkey
JOIN sup st ON r.p_to = st.l_partkey
CROSS JOIN n
ORDER BY pair_count DESC, p_from, p_to
"""


def q_drawdown_value_per_user(sf_dir: str):
    """Maximum drawdown per user over the ``value`` stream ordered by
    (ts, event_id): the largest drop from a running peak — the
    scan-class risk statistic (ewma is the smoothing scan, this is the
    extremum scan; no window-function SQL idiom exists for "max of
    running-max minus current" without nesting, which is exactly why
    it earns an operator).  ONE bucketed user_id shuffle, in-bucket
    per-user cummax + subtract — comparisons and subtraction of the
    raw doubles only, never a float SUM, so the result is bit-exact
    against the oracle."""
    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def dd(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        peak = g.groupby("user_id", sort=False)["value"].cummax()
        drop = peak - g["value"]
        out = pd.DataFrame({"user_id": g["user_id"], "p": peak, "d": drop})
        agg = out.groupby("user_id", as_index=False).agg(
            peak_value=("p", "max"), max_drawdown=("d", "max"))
        return agg.astype({"user_id": "int64"})

    out = (
        _ex.shuffle(ds, "user_id", nb, dd)
        .to_pandas()
        .astype({"user_id": "int64", "peak_value": "float64",
                 "max_drawdown": "float64"})
    )
    return out.sort_values("user_id").reset_index(drop=True)


SQL_DRAWDOWN = """
WITH r AS (
  SELECT user_id, value,
         MAX(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS peak
  FROM events)
SELECT user_id, MAX(peak) AS peak_value,
       MAX(peak - value) AS max_drawdown
FROM r GROUP BY user_id ORDER BY user_id
"""


def q_purchase_id_islands(sf_dir: str):
    """Gaps-and-islands over a GLOBAL integer sequence: the contiguous
    runs of event_id among purchase events (start, end, length).
    ``merge_intervals`` islands per-user timestamp spans; this is the
    global-sequence form — completeness auditing for id-keyed feeds
    ("which id ranges are missing?").

    Range-partition recipe (hash would split runs): distinct matching
    ids ride ONE ``exchange.shuffle`` keyed on the ``event_id >> 10``
    range bucket, so each 1024-id range lands whole in one bucket and a
    bucket's interior islands are exact (two ranges sharing a bucket
    are ``nb`` ranges apart, so no island spans them); only the two
    boundary islands per range can continue into a neighbor, and the
    driver's final fold stitches islands whose ends touch across the
    sorted O(#islands) rows it already holds (result-bounded, no
    second pass)."""
    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange
    ds = _read(sf_dir, "events", ["event_id", "event_type"])

    def matching(t: pa.Table) -> pa.Table:
        ids = pc.cast(
            t.filter(pc.equal(t["event_type"], "purchase"))["event_id"],
            pa.int64())
        u = pc.unique(ids)
        return pa.table({"event_id": u, "rb": pc.shift_right(u, 10)})

    def islands(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.unique(g["event_id"].to_numpy(np.int64))
        brk = np.flatnonzero(np.diff(ids) > 1)
        starts = ids[np.r_[0, brk + 1]]
        ends = ids[np.r_[brk, len(ids) - 1]]
        return pd.DataFrame({"start_id": starts, "end_id": ends})

    parts = _ex.to_pandas(
        _ex.shuffle(ds, "rb", nb, islands, combine=matching),
        start_id="int64", end_id="int64",
    ).sort_values("start_id").reset_index(drop=True)
    # stitch islands that touch across range-bucket borders
    starts, ends = [], []
    for s0, e0 in zip(parts["start_id"], parts["end_id"]):
        if ends and s0 == ends[-1] + 1:
            ends[-1] = e0
        else:
            starts.append(s0)
            ends.append(e0)
    out = pd.DataFrame({
        "start_id": pd.Series(starts, dtype="int64"),
        "end_id": pd.Series(ends, dtype="int64"),
    })
    out["n_ids"] = (out["end_id"] - out["start_id"] + 1).astype("int64")
    return out.reset_index(drop=True)


SQL_PURCHASE_ID_ISLANDS = """
WITH p AS (
  SELECT DISTINCT event_id FROM events WHERE event_type = 'purchase'
), g AS (
  SELECT event_id,
         event_id - ROW_NUMBER() OVER (ORDER BY event_id) AS grp
  FROM p)
SELECT MIN(event_id) AS start_id, MAX(event_id) AS end_id,
       CAST(COUNT(*) AS BIGINT) AS n_ids
FROM g GROUP BY grp ORDER BY start_id
"""


def q_session_stats(sf_dir: str):
    """Global session summary on top of the 30-minute sessionization:
    how many sessions, how many span multiple events, mean events per
    session and mean session duration — the one-row health panel a
    product team reads before any per-user drill-down.

    Same ONE user-bucket shuffle as ``q_sessionize`` (sessions are
    per-user, so each is complete in its bucket); a bucket emits ONE
    additive partial row (n_sessions, n_multi, Σevents, Σduration_µs —
    all exact int64), and the two means are driver-side ratios of
    exact integers rounded to 6 dp."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        gap = g.groupby("user_id", sort=False)["ts"].diff() > pd.Timedelta(
            minutes=30)
        sess = gap.groupby(g["user_id"], sort=False).cumsum()
        key = pd.DataFrame({"u": g["user_id"], "s": sess, "ts": g["ts"]})
        agg = key.groupby(["u", "s"]).agg(
            n=("ts", "size"), lo=("ts", "min"), hi=("ts", "max"))
        dur_us = ((agg["hi"] - agg["lo"]) / pd.Timedelta(microseconds=1)) \
            .astype("int64")
        return pd.DataFrame({
            "n_sessions": [int(len(agg))],
            "n_multi": [int((agg["n"] > 1).sum())],
            "sum_events": [int(agg["n"].sum())],
            "sum_dur_us": [int(dur_us.sum())],
        })

    p = (
        _ex.shuffle(ds, "user_id", nb, partial)
        .to_pandas().sum()
    )
    ns = int(p["n_sessions"])
    return pd.DataFrame({
        "n_sessions": pd.Series([ns], dtype="int64"),
        "multi_event_sessions": pd.Series([int(p["n_multi"])], dtype="int64"),
        "avg_events": [round(int(p["sum_events"]) / ns, 6) if ns else 0.0],
        "avg_duration_s": [
            round(int(p["sum_dur_us"]) / ns / 1e6, 6) if ns else 0.0],
    })


# the 30-minute session-start flag and the CTE that numbers sessions,
# shared by the session oracles
_SQL_NEW_SESS = """         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_sess
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), tagged AS ("""


SQL_SESSION_STATS = f"""
WITH marked AS (
  SELECT user_id, ts, event_id,
{_SQL_NEW_SESS}
  SELECT user_id, ts,
         SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
              ROWS UNBOUNDED PRECEDING) AS sid
  FROM marked
), s AS (
  SELECT user_id, sid, COUNT(*) AS n,
         CAST(date_diff('microsecond', MIN(ts), MAX(ts)) AS BIGINT) AS dur_us
  FROM tagged GROUP BY 1, 2
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_sessions,
       CAST(COUNT(*) FILTER (n > 1) AS BIGINT) AS multi_event_sessions,
       ROUND(CAST(SUM(n) AS DOUBLE) / COUNT(*), 6) AS avg_events,
       ROUND(CAST(SUM(dur_us) AS DOUBLE) / COUNT(*) / 1e6, 6)
         AS avg_duration_s
FROM s
"""


def _revenue_cents_by(sf_dir: str, unit: str) -> pd.DataFrame:
    """(``unit``, rev_c): orders' integer-cent revenue per ``unit``
    ("day", "week" — Monday weeks — or "month" of the year),
    ascending, through ``exchange.aggregate``."""
    def derive(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"]
        k = pc.month(d) if unit == "month" else pc.floor_temporal(d, unit=unit)
        return pa.table({unit: k, "rev_c": _cents(t["o_totalprice"])})

    return _ex.aggregate(_read(sf_dir, "orders", ["o_orderdate", "o_totalprice"]),
                         unit, {"rev_c": ("rev_c", "sum")}, derive)


def q_weekly_revenue_wow(sf_dir: str):
    """Week-over-week revenue trend: Monday-week order revenue (exact
    integer cents) with the relative change vs the previous week —
    the monitoring series every revenue dashboard plots.  Weeks are a
    tiny key space folded by ``exchange.aggregate``; the LAG finishes
    on the driver's series; the first week's change is NULL like the
    window oracle's."""
    wk = _revenue_cents_by(sf_dir, "week")
    prev = wk["rev_c"].shift(1)
    wow = (wk["rev_c"] - prev) / prev
    return pd.DataFrame({
        "week": wk["week"],
        "revenue": wk["rev_c"].to_numpy(np.float64) / 100.0,
        "wow_pct": wow.astype("float64").round(6),
    })


SQL_WEEKLY_REVENUE_WOW = """
WITH w AS (
  SELECT date_trunc('week', o_orderdate) AS week,
         SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS rev_c
  FROM orders GROUP BY 1
)
SELECT week, rev_c / 100.0 AS revenue,
       ROUND(CAST(rev_c - lag(rev_c) OVER (ORDER BY week) AS DOUBLE)
             / lag(rev_c) OVER (ORDER BY week), 6) AS wow_pct
FROM w ORDER BY week
"""


def q_ship_latency_by_priority(sf_dir: str):
    """Order-fulfilment latency per priority class: days from order
    date to the order's LAST line shipment — per priority the order
    count, mean latency and worst case.  The operational-SLA rollup of
    the orders ⋈ lineitem join.

    Same single orderkey ``exchange.cogroup`` as ``hash_join_big``
    (both sides corpus-sized); in-bucket the per-order max-shipdate join is
    vectorized, and only additive (priority, n, Σdays, max_days)
    int64 partials return.  Latency is exact integer days; the mean
    is a driver-side ratio rounded to 6 dp."""
    nb = _nb_rows(sf_dir, 'orders', 'lineitem')  # row-carrying exchange
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderpriority", "o_orderdate"])
    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def agg_bucket(left: pd.DataFrame, line: pd.DataFrame) -> pd.DataFrame:
        last = line.groupby("key", as_index=False)["sdate"].max()
        j = left.merge(last, on="key", how="inner")
        days = ((j["sdate"].dt.floor("D") - j["odate"].dt.floor("D"))
                .dt.days).astype("int64")
        out = pd.DataFrame({"priority": j["priority"], "days": days})
        agg = out.groupby("priority", as_index=False, dropna=False).agg(
            n_orders=("days", "size"), sum_days=("days", "sum"),
            max_days=("days", "max"))
        return agg.astype({"n_orders": "int64", "sum_days": "int64",
                           "max_days": "int64"})

    ts = pa.timestamp("us")
    parts = _ex.to_pandas(_ex.cogroup([
        (orders, {"key": pa.int64(), "priority": pa.string(), "odate": ts},
         _pick(key="o_orderkey", priority="o_orderpriority",
               odate="o_orderdate")),
        (line, {"key": pa.int64(), "sdate": ts},
         _pick(key="l_orderkey", sdate="l_shipdate")),
    ], "key", nb, agg_bucket), priority=object, n_orders="int64",
        sum_days="int64", max_days="int64")
    out = parts.groupby("priority", as_index=False, dropna=False).agg(
        n_orders=("n_orders", "sum"), sum_days=("sum_days", "sum"),
        max_days=("max_days", "max"))
    res = pd.DataFrame({
        "o_orderpriority": _str_col(out["priority"]),
        "n_orders": out["n_orders"].astype("int64"),
        "avg_days": (out["sum_days"].to_numpy(np.float64)
                     / out["n_orders"].to_numpy(np.float64)).round(6),
        "max_days": out["max_days"].astype("int64"),
    })
    return res.sort_values("o_orderpriority").reset_index(drop=True)


SQL_SHIP_LATENCY = """
WITH o AS (
  SELECT o_orderkey, o_orderpriority, o_orderdate,
         MAX(l_shipdate) AS last_ship
  FROM orders JOIN lineitem ON o_orderkey = l_orderkey
  GROUP BY 1, 2, 3
), d AS (
  SELECT o_orderpriority,
         CAST(date_diff('day', date_trunc('day', o_orderdate),
                        date_trunc('day', last_ship)) AS BIGINT) AS days
  FROM o
)
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(CAST(SUM(days) AS DOUBLE) / COUNT(*), 6) AS avg_days,
       MAX(days) AS max_days
FROM d GROUP BY 1 ORDER BY 1
"""


def q_path_to_purchase(sf_dir: str):
    """Events before conversion: for every user with a purchase, the
    number of events STRICTLY before their first purchase timestamp —
    the journey-length distribution growth teams segment on.  ONE
    user-bucket shuffle; in-bucket the first-purchase time and the
    strict-before count are two vectorized passes; users without a
    purchase drop (inner semantics, matching the oracle join)."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def count_before(g: pd.DataFrame) -> pd.DataFrame:
        first = g.loc[g["event_type"] == "purchase"] \
            .groupby("user_id")["ts"].min()
        t1 = g["user_id"].map(first)
        before = g.loc[g["ts"] < t1]
        out = before.groupby("user_id", as_index=False).agg(
            n_before=("ts", "size"))
        # converters whose purchase was their very first event
        zero = first.index.difference(out["user_id"])
        out = pd.concat([out, pd.DataFrame({
            "user_id": zero, "n_before": np.zeros(len(zero), np.int64)})])
        return out.astype({"user_id": "int64", "n_before": "int64"})

    out = _ex.to_pandas(_ex.shuffle(ds, "user_id", nb, count_before),
                        user_id="int64", n_before="int64"
                        ).astype({"user_id": "int64", "n_before": "int64"})
    return out.sort_values("user_id").reset_index(drop=True)


SQL_PATH_TO_PURCHASE = """
WITH f AS (
  SELECT user_id, MIN(ts) AS t1 FROM events
  WHERE event_type = 'purchase' GROUP BY user_id
)
SELECT f.user_id,
       CAST(COUNT(e.ts) FILTER (e.ts < f.t1) AS BIGINT) AS n_before
FROM f JOIN events e USING (user_id)
GROUP BY f.user_id ORDER BY f.user_id
"""



def q_session_type_pairs(sf_dir: str):
    """Within-session event-type co-occurrence: for every unordered
    type pair, how many sessions contain BOTH — the "what do users do
    together in one sitting" matrix (market-basket over sessions
    instead of orders).  Same ONE user-bucket shuffle as
    ``q_sessionize``; in-bucket: session ids → distinct (session,
    type) → vectorized self-merge (fan-out ≤ |types| per session) →
    additive per-pair counts; the driver folds ≤ 64 × |types|² rows."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        gap = g.groupby("user_id", sort=False)["ts"].diff() > pd.Timedelta(
            minutes=30)
        sess = gap.groupby(g["user_id"], sort=False).cumsum()
        d = pd.DataFrame({
            "u": g["user_id"], "s": sess, "t": g["event_type"],
        }).drop_duplicates()
        m = d.merge(d, on=["u", "s"])
        m = m.loc[m["t_x"] < m["t_y"]]
        out = m.groupby(["t_x", "t_y"], as_index=False).size() \
            .rename(columns={"t_x": "type_a", "t_y": "type_b",
                             "size": "n_sessions"})
        return out.astype({"n_sessions": "int64"})

    parts = _ex.to_pandas(_ex.shuffle(ds, "user_id", nb, pairs),
                          type_a=object, type_b=object, n_sessions="int64")
    out = parts.groupby(["type_a", "type_b"], as_index=False)[
        "n_sessions"].sum()
    out["n_sessions"] = out["n_sessions"].astype("int64")
    out["type_a"] = out["type_a"].astype(object)
    out["type_b"] = out["type_b"].astype(object)
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)


SQL_SESSION_TYPE_PAIRS = f"""
WITH marked AS (
  SELECT user_id, ts, event_id, event_type,
{_SQL_NEW_SESS}
  SELECT user_id, event_type,
         SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
              ROWS UNBOUNDED PRECEDING) AS sid
  FROM marked
), d AS (
  SELECT DISTINCT user_id, sid, event_type FROM tagged
)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(COUNT(*) AS BIGINT) AS n_sessions
FROM d a JOIN d b
  ON a.user_id = b.user_id AND a.sid = b.sid
 AND a.event_type < b.event_type
GROUP BY 1, 2 ORDER BY 1, 2
"""



def q_ltv_by_cohort(sf_dir: str):
    """Customer lifetime value by acquisition cohort: customers
    grouped by their FIRST order's year, with the cohort's size, total
    and mean lifetime spend — the classic LTV table.  Per-batch
    partials carry (custkey, min-year, cents) so the custkey exchange
    decides both the cohort AND the exact spend in one hop; driver
    folds additive (year, n, cents) rows (≤ #years).  Spend snaps to
    integer cents per order, the mean is a ratio of exact ints."""
    nb = _nb_rows(sf_dir, 'orders')  # row-carrying exchange
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "custkey": pc.cast(t["o_custkey"], pa.int64()),
            "yr": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
            "spend_c": _cents(t["o_totalprice"]),
        }).group_by("custkey").aggregate([("yr", "min"), ("spend_c", "sum")])
        return pa.table({
            "custkey": pc.cast(g["custkey"], pa.int64()),
            "yr": pc.cast(g["yr_min"], pa.int64()),
            "spend_c": pc.cast(g["spend_c_sum"], pa.int64()),
        })

    def cohort_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby("custkey", as_index=False).agg(
            yr=("yr", "min"), spend_c=("spend_c", "sum"))
        out = per.groupby("yr", as_index=False).agg(
            n_customers=("spend_c", "size"), cents=("spend_c", "sum"))
        return out.astype({"yr": "int64", "n_customers": "int64",
                           "cents": "int64"})

    parts = _ex.shuffle(orders, "custkey", nb, cohort_in_bucket,
                        combine=partial).to_pandas()
    agg = parts.groupby("yr", as_index=False).sum().sort_values("yr")
    return pd.DataFrame({
        "cohort_year": agg["yr"].astype("int64"),
        "n_customers": agg["n_customers"].astype("int64"),
        "total_spend": agg["cents"].astype("int64").to_numpy(np.float64)
        / 100.0,
        "avg_ltv": ((agg["cents"].to_numpy(np.float64) / 100.0)
                    / agg["n_customers"].to_numpy(np.float64)).round(6),
    }).reset_index(drop=True)


SQL_LTV_BY_COHORT = """
WITH per AS (
  SELECT o_custkey,
         CAST(MIN(EXTRACT(year FROM o_orderdate)) AS BIGINT) AS yr,
         SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS spend_c
  FROM orders GROUP BY 1
)
SELECT yr AS cohort_year,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       SUM(spend_c) / 100.0 AS total_spend,
       ROUND((CAST(SUM(spend_c) AS DOUBLE) / 100.0) / COUNT(*), 6)
         AS avg_ltv
FROM per GROUP BY yr ORDER BY yr
"""


PRICE_CV_MIN_N = 5
PRICE_CV_TOPK = 20


def q_price_cv_topk(sf_dir: str):
    """Price-dispersion screen: the {PRICE_CV_TOPK} parts with the
    highest coefficient of variation of sale price (n ≥
    {PRICE_CV_MIN_N} lineitems) — the high-CARDINALITY grouped-moments
    operator (``qty_moments_by_flag`` folds 3 groups on the driver;
    partkey groups grow with the corpus, so here the moments finalize
    inside ONE partkey-bucket exchange and only each bucket's local
    top-k candidates return).  Prices snap to integer cents, so n, Σx
    and Σx² are exact int64 and the variance numerator n·Σx² − (Σx)²
    is bit-identical to the oracle's; sqrt/divide happen once at the
    end, rounded to 6 dp, ranked (cv desc, partkey) with the tie-break
    making the top-k cut deterministic."""
    nb = _nb_rows(sf_dir, 'lineitem')  # row-carrying exchange
    line = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])

    def moment_partial(t: pa.Table) -> pa.Table:
        part = pc.cast(t["l_partkey"], pa.int64())
        cents = _cents(t["l_extendedprice"])
        sq = pc.multiply(cents, cents)
        g = pa.table({"part": part, "one": pc.cast(
            pc.greater_equal(part, pa.scalar(0)), pa.int64()),
            "s1": cents, "s2": sq}) \
            .group_by("part").aggregate([
                ("one", "sum"), ("s1", "sum"), ("s2", "sum"),
            ])
        return pa.table({
            "part": pc.cast(g["part"], pa.int64()),
            "n": pc.cast(g["one_sum"], pa.int64()),
            "s1": pc.cast(g["s1_sum"], pa.int64()),
            "s2": pc.cast(g["s2_sum"], pa.int64()),
        })

    def cv_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("part", as_index=False)[["n", "s1", "s2"]].sum()
        agg = agg.loc[agg["n"] >= PRICE_CV_MIN_N]
        if agg.empty:
            return pd.DataFrame({
                "part": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
                "cv": pd.Series([], dtype="float64"),
            })
        n = agg["n"].to_numpy(np.float64)
        s1 = agg["s1"].to_numpy(np.float64)
        s2 = agg["s2"].to_numpy(np.float64)
        # var_samp = (n·Σx² − (Σx)²) / (n·(n−1)); mean = Σx/n — all
        # inputs exact ints, one expression tree shared with the oracle
        var = (n * s2 - s1 * s1) / (n * (n - 1.0))
        cv = np.round(np.sqrt(var) / (s1 / n), 6)
        out = pd.DataFrame({
            "part": agg["part"].astype("int64"),
            "n": agg["n"].astype("int64"),
            "cv": cv,
        })
        return out.sort_values(["cv", "part"], ascending=[False, True],
                               kind="mergesort").head(PRICE_CV_TOPK)

    parts = _ex.to_pandas(_ex.shuffle(line, "part", nb, cv_in_bucket,
                                      combine=moment_partial),
                          part="int64", n="int64", cv="float64")
    top = parts.sort_values(["cv", "part"], ascending=[False, True],
                            kind="mergesort").head(PRICE_CV_TOPK)
    return pd.DataFrame({
        "l_partkey": top["part"].astype("int64"),
        "n": top["n"].astype("int64"),
        "cv": top["cv"].astype("float64"),
    }).reset_index(drop=True)


SQL_PRICE_CV_TOPK = f"""
WITH m AS (
  SELECT l_partkey,
         COUNT(*) AS n,
         SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) AS s1,
         SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)
             * CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) AS s2
  FROM lineitem GROUP BY 1
)
SELECT l_partkey, CAST(n AS BIGINT) AS n,
       ROUND(SQRT((n * s2 - s1 * s1) / (n * (n - 1.0)))
             / (s1 / CAST(n AS DOUBLE)), 6) AS cv
FROM m WHERE n >= {PRICE_CV_MIN_N}
ORDER BY cv DESC, l_partkey LIMIT {PRICE_CV_TOPK}
"""


TOP_PATHS_K = 10


def q_top_paths(sf_dir: str):
    """The {TOP_PATHS_K} most common first-5-event journeys across
    users — the aggregate twin of ``user_journey`` (which emits every
    user's path; this asks which paths dominate).  Stage 1: the same
    user-bucket shuffle assembles each user's head-5 path and emits
    per-(bucket, path) partial counts.  Stage 2: path cardinality
    grows with the data, so partials re-shuffle on the path string
    (``kb_arrow``'s string bucket) where counts finalize and each
    bucket keeps its local top-{TOP_PATHS_K}; the driver merges
    ≤ nb·k candidate rows with a (count desc, path) tie-break shared
    with the oracle."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def path_counts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = g.reset_index(drop=True)
        g["k"] = g.groupby("user_id", sort=False).cumcount()
        head = g.loc[g["k"] < 5, ["user_id", "k", "event_type"]]
        wide = head.pivot(index="user_id", columns="k", values="event_type")
        journey = wide[0].copy()
        for c in range(1, 5):
            if c in wide.columns:
                seg = ">" + wide[c]
                journey = journey + seg.where(wide[c].notna(), "")
        c = pd.DataFrame({"path": journey.to_numpy(object)}) \
            .groupby("path", as_index=False).size() \
            .rename(columns={"size": "c"})
        return c.astype({"c": "int64"})

    def topk_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        sm = g.groupby("path", as_index=False)["c"].sum()
        return sm.sort_values(["c", "path"], ascending=[False, True],
                              kind="mergesort").head(TOP_PATHS_K)

    cand = _ex.to_pandas(
        _ex.shuffle(_ex.shuffle(ds, "user_id", nb, path_counts),
                    "path", nb, topk_in_bucket),
        path=object, c="int64")
    top = cand.sort_values(["c", "path"], ascending=[False, True],
                           kind="mergesort").head(TOP_PATHS_K)
    return pd.DataFrame({
        "path": top["path"].astype(object),
        "n_users": top["c"].astype("int64"),
    }).reset_index(drop=True)


SQL_TOP_PATHS = f"""
WITH o AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS k
  FROM events
), j AS (
  SELECT user_id, string_agg(event_type, '>' ORDER BY k) AS path
  FROM o WHERE k <= 5 GROUP BY user_id
)
SELECT path, CAST(COUNT(*) AS BIGINT) AS n_users
FROM j GROUP BY path ORDER BY n_users DESC, path LIMIT {TOP_PATHS_K}
"""



def q_region_year_revenue(sf_dir: str):
    """Snowflake-dimension revenue rollup: lineitem revenue by the
    SUPPLIER's region and order year — the mixed join strategy
    ``segment_year_revenue`` (two big exchanges) deliberately does not
    use: supplier⋈nation⋈region are broadcast-joined driver-side into
    one DENSE suppkey→region-id int8 array (dims are lookup-sized even
    at 100 TB of facts — 5e7 suppliers ≈ 50 MB, one ``ray.put``), so
    the region attaches in the SCAN via one vectorized ``np.take`` and
    each lineitem batch PRE-COMBINES to (orderkey, region-id,
    cents-sum, count) partials before the ONE unavoidable orderkey
    ``exchange.cogroup`` (int-cent partials commute exactly); region
    names only reappear on the driver's ≤ regions × years rows.
    Revenue snaps to integer cents per term (the order-independent
    discipline)."""
    nb = _nb_rows(sf_dir, 'orders', 'lineitem')  # row-carrying exchange
    import ray

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]).to_pandas()
    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    dims = sup.merge(nat, left_on="s_nationkey", right_on="n_nationkey") \
        .merge(reg, left_on="n_regionkey", right_on="r_regionkey")
    rid2name = sorted(dims["r_name"].astype(str).unique())
    name2rid = {n: i for i, n in enumerate(rid2name)}
    skeys = dims["s_suppkey"].to_numpy(np.int64)
    s2rid = np.full(int(skeys.max()) + 1 if len(skeys) else 1, -1, np.int8)
    s2rid[skeys] = dims["r_name"].astype(str).map(name2rid).to_numpy(np.int8)
    s2rid_ref = ray.put(s2rid)

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    line = _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])

    def year_of(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["o_orderkey"],
                         "year": pc.year(t["o_orderdate"])})

    def combine_line(t: pa.Table) -> pa.Table:
        lookup = ray.get(s2rid_ref)
        sk = t["l_suppkey"].to_numpy().astype(np.int64)
        rid = np.where(sk < len(lookup), lookup[np.minimum(sk, len(lookup) - 1)], -1)
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        g = (
            pa.table({"key": t["l_orderkey"], "rid": pa.array(rid.astype(np.int64)),
                      "rev_c": _cents(rev)})
            .filter(pa.array(rid >= 0))  # inner-join: drop unmapped supps
            .group_by(["key", "rid"])
            .aggregate([("rev_c", "sum"), ("rev_c", "count")])
        )
        return pa.table({"key": g["key"], "rid": g["rid"],
                         "rev_c": g["rev_c_sum"], "n": g["rev_c_count"]})

    def join_bucket(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        j = right.merge(left, on="key", how="inner")
        return j.groupby(["rid", "year"], as_index=False).agg(
            rev_c=("rev_c", "sum"), n_items=("n", "sum"))

    i64 = pa.int64()
    parts = _ex.to_pandas(_ex.cogroup([
        (orders, {"key": i64, "year": i64}, year_of),
        (line, {"key": i64, "rid": i64, "rev_c": i64, "n": i64}, combine_line),
    ], "key", nb, join_bucket), rid="int64", year="int64", rev_c="int64",
        n_items="int64")
    agg = parts.groupby(["rid", "year"], as_index=False).agg(
        rev_c=("rev_c", "sum"), n_items=("n_items", "sum"))
    out = pd.DataFrame({
        "r_name": agg["rid"].astype("int64").map(
            dict(enumerate(rid2name))).astype(object),
        "order_year": agg["year"].astype("int64"),
        "revenue": agg["rev_c"].astype("int64").to_numpy(np.float64) / 100.0,
        "n_items": agg["n_items"].astype("int64"),
    })
    return out.sort_values(["r_name", "order_year"]).reset_index(drop=True)


# revenue and line count per order year over lineitem ⋈ orders, shared
# by the year-revenue rollups
_SQL_YEAR_REVENUE = """       CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS order_year,
       SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                AS BIGINT)) / 100.0 AS revenue,
       CAST(COUNT(*) AS BIGINT) AS n_items
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey"""


SQL_REGION_YEAR_REVENUE = f"""
SELECT r_name,
{_SQL_YEAR_REVENUE}
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY 1, 2 ORDER BY 1, 2
"""


SAMPLE_K = 100


def q_hash_reservoir_sample(sf_dir: str):
    """Deterministic uniform sample: the {SAMPLE_K} orders with the
    smallest md5(o_orderkey) — hash-rank sampling, the reproducible
    alternative to RNG reservoirs (same sample on any cluster size,
    any block order, any restart; the md5 rank IS the reservoir
    priority).  Per-batch local bottom-k by digest (a combiner — at
    most k rows leave each block), driver merges ≤ blocks·k
    candidates.  The md5 is computed identically in the oracle."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    import hashlib as _h

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        keys = df["o_orderkey"].astype("int64").astype(str)
        h = [_h.md5(k.encode()).hexdigest() for k in keys]
        out = pd.DataFrame({
            "o_orderkey": df["o_orderkey"].astype("int64"),
            "o_totalprice": df["o_totalprice"].astype("float64"),
            "hk": h,
        })
        return out.sort_values(["hk", "o_orderkey"]).head(SAMPLE_K)

    cand = ds.map_batches(local_topk, batch_format="pandas").to_pandas()
    top = cand.sort_values(["hk", "o_orderkey"]).head(SAMPLE_K)
    return top[["o_orderkey", "o_totalprice", "hk"]].reset_index(drop=True)


SQL_HASH_RESERVOIR_SAMPLE = f"""
SELECT o_orderkey, o_totalprice,
       md5(CAST(o_orderkey AS VARCHAR)) AS hk
FROM orders
ORDER BY hk, o_orderkey LIMIT {SAMPLE_K}
"""



def q_hourly_dense_counts(sf_dir: str):
    """Dense time-series: events per hour INCLUDING empty hours over
    the corpus's [min, max] hour span — the gap-filling operator
    (`hourly_window` only emits hours that occur; monitoring and
    forecasting need the zeros).  ``exchange.aggregate`` folds the
    (hour, n) counts; the dense hour domain generates driver-side
    (bounded by the time span, not the data) and left-joins them.
    Pure integer timestamp arithmetic."""
    def derive(t: pa.Table) -> pa.Table:
        return pa.table({"hour": pc.floor_temporal(t["ts"], unit="hour")})

    parts = _ex.aggregate(_read(sf_dir, "events", ["ts"]), "hour",
                          {"n": ("hour", "count_all")}, derive)
    hours = pd.date_range(
        parts["hour"].min(), parts["hour"].max(), freq="h",
        unit=np.datetime_data(parts["hour"].dtype)[0]) \
        if len(parts) else parts["hour"]
    out = pd.DataFrame({"hour": hours}).merge(parts, on="hour", how="left")
    out["n"] = out["n"].fillna(0).astype("int64")
    return out


SQL_HOURLY_DENSE_COUNTS = """
WITH b AS (
  SELECT date_trunc('hour', MIN(ts)) AS lo, date_trunc('hour', MAX(ts)) AS hi
  FROM events
), d AS (
  SELECT unnest(generate_series(lo, hi, INTERVAL 1 HOUR)) AS hour FROM b
), c AS (
  SELECT date_trunc('hour', ts) AS hour, COUNT(*) AS n
  FROM events GROUP BY 1
)
SELECT d.hour, CAST(COALESCE(c.n, 0) AS BIGINT) AS n
FROM d LEFT JOIN c USING (hour) ORDER BY d.hour
"""


def q_attribution_first_touch(sf_dir: str):
    """First-touch attribution: every purchase event credits the
    user's FIRST-ever event type; output is purchases per attributed
    channel with its share — the marketing-attribution primitive.
    Each batch PRE-COMBINES to one row per user (its batch-first
    event by (ts, event_id) + its batch purchase count — both exact
    partials: the global first is the min of batch firsts, counts are
    additive), so the ONE user-bucket exchange carries O(users ×
    blocks) rows, not every event; in-bucket the true first resolves
    and (channel, n) partials fold on the driver.  Share is a ratio
    of exact ints rounded to 6 dp."""
    nb = _nb_rows(sf_dir, 'events')  # row-carrying exchange
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        first = g.drop_duplicates("user_id")[
            ["user_id", "ts", "event_id", "event_type"]]
        pn = g.loc[g["event_type"] == "purchase"] \
            .groupby("user_id").size()
        out = first.copy()
        out["pn"] = out["user_id"].map(pn).fillna(0).astype("int64")
        return out

    def attribute(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        first = g.drop_duplicates("user_id")[["user_id", "event_type"]] \
            .rename(columns={"event_type": "channel"})
        purchases = g.groupby("user_id", as_index=False).agg(n=("pn", "sum"))
        j = purchases.loc[purchases["n"] > 0].merge(first, on="user_id")
        out = j.groupby("channel", as_index=False)["n"].sum()
        return out.astype({"n": "int64"})

    parts = _ex.to_pandas(
        _ex.shuffle(ds.map_batches(combine, batch_format="pandas"),
                    "user_id", nb, attribute),
        channel=object, n="int64",
    ).groupby("channel", as_index=False)["n"].sum()
    tot = int(parts["n"].sum())
    out = pd.DataFrame({
        "channel": parts["channel"].astype(object),
        "n_purchases": parts["n"].astype("int64"),
        "share": (parts["n"].to_numpy(np.float64) / tot).round(6),
    })
    return out.sort_values("channel").reset_index(drop=True)


SQL_ATTRIBUTION_FIRST_TOUCH = """
WITH f AS (
  SELECT DISTINCT ON (user_id) user_id, event_type AS channel
  FROM events ORDER BY user_id, ts, event_id
), p AS (
  SELECT user_id, COUNT(*) AS n FROM events
  WHERE event_type = 'purchase' GROUP BY user_id
), j AS (
  SELECT f.channel, p.n FROM p JOIN f USING (user_id)
), t AS (SELECT SUM(n) AS tot FROM j)
SELECT channel, CAST(SUM(n) AS BIGINT) AS n_purchases,
       ROUND(CAST(SUM(n) AS DOUBLE) / t.tot, 6) AS share
FROM j CROSS JOIN t GROUP BY channel, t.tot ORDER BY channel
"""


def q_orders_per_customer_hist(sf_dir: str):
    """Count-of-counts: how many customers placed exactly k orders —
    the frequency histogram behind power-law checks on customer
    activity (the customer-side of ``degree_distribution``).  Stage 1
    custkey exchange finalizes per-customer order counts; stage 2
    emits additive (k, n_customers) partials per bucket; the driver
    folds O(distinct k) rows.  All integers."""
    nb = _nb_rows(sf_dir, 'orders')  # row-carrying exchange
    orders = _read(sf_dir, "orders", ["o_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        key = pc.cast(t["o_custkey"], pa.int64())
        g = pa.table({"custkey": key}).group_by("custkey").aggregate([
            ("custkey", "count"),
        ])
        return pa.table({
            "custkey": pc.cast(g["custkey"], pa.int64()),
            "c": pc.cast(g["custkey_count"], pa.int64()),
        })

    hist = _sum_hist(orders, "custkey", "c", nb, partial)
    return hist.rename(columns={"c": "n_orders", "n": "n_customers"})


SQL_ORDERS_PER_CUSTOMER_HIST = """
WITH per AS (
  SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS n_orders
  FROM orders GROUP BY 1
)
SELECT n_orders, CAST(COUNT(*) AS BIGINT) AS n_customers
FROM per GROUP BY 1 ORDER BY 1
"""



KS_SRC_A = "src0"
KS_SRC_B = "src1"


def q_ks_two_sources(sf_dir: str):
    """Two-sample Kolmogorov–Smirnov distance between {KS_SRC_A} and
    {KS_SRC_B}'s document-length (n_chars) distributions — the
    drift/mixture-shift test run between corpus snapshots or sources.
    ``exchange.aggregate`` folds (value, source) counts into two
    value-count histograms (O(distinct lengths) driver state — the
    chars_percent_rank discipline); the KS statistic is the max
    |ECDF_a − ECDF_b| over the merged support, a ratio of exact ints
    evaluated identically in the oracle, rounded to 6 dp."""
    def derive(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["source"],
                                 value_set=pa.array([KS_SRC_A, KS_SRC_B])))

    h = _ex.aggregate(_read(sf_dir, "documents", ["source", "n_chars"]),
                      ["n_chars", "source"], {"n": ("source", "count_all")},
                      derive)
    pv = h.pivot(index="n_chars", columns="source", values="n") \
        .fillna(0).sort_index()
    na = int(pv[KS_SRC_A].sum()) if KS_SRC_A in pv else 0
    nb = int(pv[KS_SRC_B].sum()) if KS_SRC_B in pv else 0
    ca = pv.get(KS_SRC_A, pd.Series(0, index=pv.index)).cumsum() \
        .to_numpy(np.float64)
    cb = pv.get(KS_SRC_B, pd.Series(0, index=pv.index)).cumsum() \
        .to_numpy(np.float64)
    ks = float(np.abs(ca / max(na, 1) - cb / max(nb, 1)).max()) \
        if len(pv) else 0.0
    rows = 1 if len(pv) else 0  # SQL's GROUP BY over no length: no row
    return pd.DataFrame({
        "n_a": pd.Series([na] * rows, dtype="int64"),
        "n_b": pd.Series([nb] * rows, dtype="int64"),
        "ks_stat": [round(ks, 6)] * rows,
    })


SQL_KS_TWO_SOURCES = f"""
WITH d AS (
  SELECT n_chars, source FROM documents
  WHERE source IN ('{KS_SRC_A}', '{KS_SRC_B}')
), t AS (
  SELECT
    CAST(COUNT(*) FILTER (source = '{KS_SRC_A}') AS DOUBLE) AS na,
    CAST(COUNT(*) FILTER (source = '{KS_SRC_B}') AS DOUBLE) AS nb
  FROM d
), c AS (
  SELECT n_chars,
         SUM(COUNT(*) FILTER (source = '{KS_SRC_A}'))
           OVER (ORDER BY n_chars) AS ca,
         SUM(COUNT(*) FILTER (source = '{KS_SRC_B}'))
           OVER (ORDER BY n_chars) AS cb
  FROM d GROUP BY n_chars
)
SELECT CAST(t.na AS BIGINT) AS n_a, CAST(t.nb AS BIGINT) AS n_b,
       ROUND(MAX(ABS(c.ca / t.na - c.cb / t.nb)), 6) AS ks_stat
FROM c CROSS JOIN t GROUP BY t.na, t.nb
"""


def q_join_coverage_audit(sf_dir: str):
    """Referential-integrity audit of the customer↔orders FULL OUTER
    relationship: customers with/without orders, orders whose custkey
    has no customer row, and match coverage — the data-quality panel
    run before any join-dependent pipeline is trusted.  Customer keys
    and per-batch deduped order custkeys ride one custkey
    ``exchange.cogroup``; each bucket emits four additive counters."""
    nb = _nb_rows(sf_dir, 'customer', 'orders')  # row-carrying exchange
    orders = _read(sf_dir, "orders", ["o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey"])

    def audit(c: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        c, o = set(c["key"]), set(o["key"])
        return pd.DataFrame({
            "n_customers": [len(c)],
            "with_orders": [len(c & o)],
            "without_orders": [len(c - o)],
            "orphan_order_keys": [len(o - c)],
        })

    side = {"key": pa.int64()}
    p = _ex.cogroup([
        (cust, side, _pick(key="c_custkey")),
        (orders, side, lambda t: pa.table({"key": pc.unique(t["o_custkey"])})),
    ], "key", nb, audit).to_pandas().sum()
    nc, w = int(p["n_customers"]), int(p["with_orders"])
    return pd.DataFrame({
        "n_customers": pd.Series([nc], dtype="int64"),
        "with_orders": pd.Series([w], dtype="int64"),
        "without_orders": pd.Series([int(p["without_orders"])],
                                    dtype="int64"),
        "orphan_order_keys": pd.Series([int(p["orphan_order_keys"])],
                                       dtype="int64"),
        "coverage": [round(w / nc, 6) if nc else 0.0],
    })


SQL_JOIN_COVERAGE_AUDIT = """
WITH o AS (SELECT DISTINCT o_custkey AS key FROM orders),
c AS (SELECT c_custkey AS key FROM customer)
SELECT CAST((SELECT COUNT(*) FROM c) AS BIGINT) AS n_customers,
       CAST((SELECT COUNT(*) FROM c JOIN o USING (key)) AS BIGINT)
         AS with_orders,
       CAST((SELECT COUNT(*) FROM c LEFT JOIN o USING (key)
             WHERE o.key IS NULL) AS BIGINT) AS without_orders,
       CAST((SELECT COUNT(*) FROM o LEFT JOIN c USING (key)
             WHERE c.key IS NULL) AS BIGINT) AS orphan_order_keys,
       ROUND(CAST((SELECT COUNT(*) FROM c JOIN o USING (key)) AS DOUBLE)
             / (SELECT COUNT(*) FROM c), 6) AS coverage
"""



def q_rolling_daily_revenue_p50(sf_dir: str):
    """Windowed QUANTILE: per day, the exact median of the trailing
    7 days' revenue (including the day) — the robust rolling baseline
    dashboards prefer over the mean (``rolling_avg3`` is this family's
    mean form; a median window cannot be pre-aggregated, which is why
    it earns an operator).  ``exchange.aggregate`` folds (day, cents);
    the 7-row windows finish on the driver — bounded by the time
    span — with quantile_disc rank semantics over exact ints,
    bit-equal to the window oracle."""
    daily = _revenue_cents_by(sf_dir, "day")
    rc = daily["rev_c"].to_numpy(np.int64)
    med = np.empty(len(rc), dtype=np.int64)
    for i in range(len(rc)):
        w = np.sort(rc[max(0, i - 6): i + 1])
        med[i] = w[-(-len(w) // 2) - 1]  # quantile_disc(0.5): ⌈n/2⌉-th
    return pd.DataFrame({
        "day": daily["day"],
        "revenue": rc.astype(np.float64) / 100.0,
        "p50_7d": med.astype(np.float64) / 100.0,
    })


SQL_ROLLING_DAILY_P50 = """
WITH d AS (
  SELECT date_trunc('day', o_orderdate) AS day,
         SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS rev_c
  FROM orders GROUP BY 1
)
SELECT day, rev_c / 100.0 AS revenue,
       quantile_disc(rev_c, 0.5) OVER (
         ORDER BY day ROWS BETWEEN 6 PRECEDING AND CURRENT ROW
       ) / 100.0 AS p50_7d
FROM d ORDER BY day
"""


def q_pareto_8020(sf_dir: str):
    """The 80/20 mass quantile: the smallest number of customers whose
    combined spend reaches 80 % of total revenue, plus their exact
    share — the "how many whales" headline behind
    ``concentration_stats``'s Gini.  Same spend value-count-histogram
    fold (per-customer cents decided in a custkey exchange, driver
    state O(distinct spends)); the top-down walk uses arbitrary-
    precision Python ints and the 5·spend ≥ 4·total comparison stays
    integer-exact.  Equal-spend customers are interchangeable, so the
    count is order-invariant."""
    nb = _nb_rows(sf_dir, 'orders')  # row-carrying exchange
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    hist = _sum_hist(orders, "custkey", "spend_c", nb, _spend_partial)[::-1]
    total = sum(int(v) * int(c) for v, c in zip(hist["spend_c"], hist["n"]))
    n_cust = int(hist["n"].sum())
    if total == 0:
        # Degenerate all-zero-spend corpus: the oracle's 5*cum >= 4*tot
        # predicate is satisfied at rn=1 (0 >= 0), so SQL yields k=1 and
        # a NULL share (division by zero).  Mirror that exactly instead
        # of counting the whole zero-spend tie group.
        return pd.DataFrame({
            "n_customers": pd.Series([n_cust], dtype="int64"),
            "top_k_for_80pct": pd.Series([1 if n_cust else 0],
                                         dtype="int64"),
            "top_k_share": [float("nan")],
        })
    cum, k = 0, 0
    for v, c in zip(hist["spend_c"], hist["n"]):
        v, c = int(v), int(c)
        if 5 * (cum + c * v) < 4 * total:  # whole tie-group fits below
            cum += c * v
            k += c
            continue
        # smallest m in this group with 5·(cum + m·v) ≥ 4·total
        m = -((-(4 * total - 5 * cum)) // (5 * v)) if v else c
        cum += m * v
        k += m
        break
    return pd.DataFrame({
        "n_customers": pd.Series([n_cust], dtype="int64"),
        "top_k_for_80pct": pd.Series([k], dtype="int64"),
        "top_k_share": [round(cum / total, 6) if total else 0.0],
    })


SQL_PARETO_8020 = """
WITH s AS (
  SELECT o_custkey,
         SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS spend_c
  FROM orders GROUP BY 1
), t AS (SELECT SUM(spend_c) AS tot, COUNT(*) AS n FROM s),
r AS (
  SELECT spend_c,
         SUM(spend_c) OVER (ORDER BY spend_c DESC, o_custkey
                            ROWS UNBOUNDED PRECEDING) AS cum,
         ROW_NUMBER() OVER (ORDER BY spend_c DESC, o_custkey) AS rn
  FROM s
), k AS (
  SELECT MIN(rn) AS k, MIN(cum) AS cum_k
  FROM r CROSS JOIN t WHERE 5 * cum >= 4 * t.tot
)
SELECT CAST(t.n AS BIGINT) AS n_customers,
       CAST(k.k AS BIGINT) AS top_k_for_80pct,
       ROUND(CAST((SELECT cum FROM r WHERE rn = k.k) AS DOUBLE)
             / t.tot, 6) AS top_k_share
FROM t CROSS JOIN k
"""



def q_longest_streak_per_user(sf_dir: str):
    """Longest consecutive-day activity streak per user — the
    engagement metric product dashboards headline.  ONE user-bucket
    shuffle (a user's distinct active days are complete in-bucket);
    inside, the classic day − rank(day) islands trick runs vectorized
    over all users at once, and only (user, longest, n_active_days)
    rows return.  Pure integer day arithmetic."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def streaks(g: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({
            "u": g["user_id"].astype("int64"),
            "day": (g["ts"].dt.floor("D") - pd.Timestamp("1970-01-01"))
            .dt.days.astype("int64"),
        }).drop_duplicates().sort_values(["u", "day"])
        rk = d.groupby("u", sort=False).cumcount()
        d["grp"] = d["day"] - rk
        runs = d.groupby(["u", "grp"], as_index=False).agg(
            run=("day", "size"))
        out = runs.groupby("u", as_index=False).agg(
            longest_streak=("run", "max"))
        days = d.groupby("u", as_index=False).agg(n_active_days=("day", "size"))
        out = out.merge(days, on="u").rename(columns={"u": "user_id"})
        return out.astype({"user_id": "int64", "longest_streak": "int64",
                           "n_active_days": "int64"})

    out = (
        _ex.shuffle(ds, "user_id", nb, streaks)
        .to_pandas()
        .astype({"user_id": "int64", "longest_streak": "int64",
                 "n_active_days": "int64"})
    )
    return out.sort_values("user_id").reset_index(drop=True)


SQL_LONGEST_STREAK = """
WITH d AS (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events
), r AS (
  SELECT user_id, day,
         day - INTERVAL 1 DAY * row_number() OVER (
           PARTITION BY user_id ORDER BY day) AS grp
  FROM d
), runs AS (
  SELECT user_id, grp, COUNT(*) AS run FROM r GROUP BY 1, 2
)
SELECT user_id,
       CAST(MAX(run) AS BIGINT) AS longest_streak,
       CAST(SUM(run) AS BIGINT) AS n_active_days
FROM runs GROUP BY user_id ORDER BY user_id
"""


def q_weekly_churn(sf_dir: str):
    """Weekly churn: per Monday week, the count of users active that
    week but absent the next (plus actives and the churn rate) — the
    inverse of ``retention``'s diagonal and the number growth teams
    alarm on.  ONE user-bucket shuffle; per bucket each user's
    distinct active weeks self-check membership of week+7d (a user's
    whole history is in-bucket, so the lookahead is exact), emitting
    additive (week, active, churned) partials.  The last observed
    corpus week has no next week and is EXCLUDED on both engines."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def churn(g: pd.DataFrame) -> pd.DataFrame:
        day = g["ts"].dt.floor("D")
        week = day - pd.to_timedelta(day.dt.weekday, unit="D")
        d = pd.DataFrame({"u": g["user_id"], "w": week}).drop_duplicates()
        nxt = d.copy()
        nxt["w"] = nxt["w"] - pd.Timedelta(days=7)
        nxt["has_next"] = True
        j = d.merge(nxt[["u", "w", "has_next"]], on=["u", "w"], how="left")
        j["churned"] = j["has_next"].isna()
        out = j.groupby("w", as_index=False).agg(
            active=("u", "size"), churned=("churned", "sum"))
        return out.astype({"active": "int64", "churned": "int64"})

    parts = (
        _ex.shuffle(ds, "user_id", nb, churn)
        .to_pandas()
        .groupby("w", as_index=False)[["active", "churned"]].sum()
        .sort_values("w").reset_index(drop=True)
    )
    parts = parts.iloc[:-1]  # final week has no successor on either engine
    return pd.DataFrame({
        "week": parts["w"],
        "active_users": parts["active"].astype("int64"),
        "churned_users": parts["churned"].astype("int64"),
        "churn_rate": (parts["churned"].to_numpy(np.float64)
                       / parts["active"].to_numpy(np.float64)).round(6),
    }).reset_index(drop=True)


SQL_WEEKLY_CHURN = """
WITH d AS (
  SELECT DISTINCT user_id, date_trunc('week', ts) AS w FROM events
), m AS (SELECT MAX(w) AS last_w FROM d),
j AS (
  SELECT a.w, a.user_id,
         (b.user_id IS NULL) AS churned
  FROM d a LEFT JOIN d b
    ON b.user_id = a.user_id AND b.w = a.w + INTERVAL 7 DAY
)
SELECT j.w AS week,
       CAST(COUNT(*) AS BIGINT) AS active_users,
       CAST(COUNT(*) FILTER (churned) AS BIGINT) AS churned_users,
       ROUND(CAST(COUNT(*) FILTER (churned) AS DOUBLE) / COUNT(*), 6)
         AS churn_rate
FROM j CROSS JOIN m WHERE j.w < m.last_w
GROUP BY j.w ORDER BY j.w
"""



def q_median_order_gap(sf_dir: str):
    """Exact median days between consecutive orders, per customer —
    the grouped quantile at CUSTOMER cardinality, where the
    grouped-quickselect engine (driver state O(groups × 256)) is the
    wrong tool: a customer's orders are complete inside its custkey
    bucket, so the median is decided IN-BUCKET with one vectorized
    sort + segment-offset gather (quantile_disc rank ⌈n/2⌉), and only
    result rows return.  Customers with fewer than two orders drop,
    matching the oracle's HAVING.  Pure integer day gaps."""
    nb = _nb_rows(sf_dir, 'orders')  # row-carrying exchange
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"])

    def med(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                          kind="mergesort").reset_index(drop=True)
        day = (g["o_orderdate"].dt.floor("D")
               - pd.Timestamp("1970-01-01")).dt.days.astype("int64")
        gap = day.groupby(g["o_custkey"], sort=False).diff()
        d = pd.DataFrame({"u": g["o_custkey"], "gap": gap}).dropna()
        d["gap"] = d["gap"].astype("int64")
        d = d.sort_values(["u", "gap"], kind="mergesort").reset_index(drop=True)
        starts = d.groupby("u", sort=False).cumcount() == 0
        idx0 = np.flatnonzero(starts.to_numpy())
        n = np.diff(np.r_[idx0, len(d)])
        pick = idx0 + (-(-n // 2) - 1)  # ⌈n/2⌉-th, 1-based
        return pd.DataFrame({
            "o_custkey": d["u"].to_numpy(np.int64)[idx0],
            "n_gaps": n.astype(np.int64),
            "median_gap_days": d["gap"].to_numpy(np.int64)[pick],
        })

    out = _ex.to_pandas(_ex.shuffle(ds, "o_custkey", nb, med),
                        o_custkey="int64", n_gaps="int64",
                        median_gap_days="int64"
                        ).astype({"o_custkey": "int64", "n_gaps": "int64",
                                  "median_gap_days": "int64"})
    return out.sort_values("o_custkey").reset_index(drop=True)


SQL_MEDIAN_ORDER_GAP = """
WITH o AS (
  SELECT o_custkey,
         CAST(date_diff('day',
           lag(date_trunc('day', o_orderdate)) OVER (
             PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey),
           date_trunc('day', o_orderdate)) AS BIGINT) AS gap
  FROM orders
)
SELECT o_custkey, CAST(COUNT(gap) AS BIGINT) AS n_gaps,
       CAST(quantile_disc(gap, 0.5) AS BIGINT) AS median_gap_days
FROM o WHERE gap IS NOT NULL
GROUP BY o_custkey HAVING COUNT(gap) >= 1 ORDER BY o_custkey
"""


def q_revenue_reconciliation(sf_dir: str):
    """Cross-table reconciliation: per order year, the order-header
    total (Σ o_totalprice) vs the lineitem-derived gross
    (Σ extendedprice·(1+tax)·(1−discount)) with the delta — the audit
    every finance pipeline runs before trusting either table.  Both
    sides snap to integer cents per term, so the partials are additive
    int64 and the delta is exact; the per-year fold is driver-sized.
    The lineitem side needs the order year, so it rides the ONE
    orderkey ``exchange.cogroup`` with the header's (orderkey, year)."""
    nb = _nb_rows(sf_dir, 'orders', 'lineitem')  # row-carrying exchange
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_totalprice"])
    line = _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_extendedprice", "l_discount", "l_tax"])

    def header(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["o_orderkey"],
                         "year": pc.year(t["o_orderdate"]),
                         "hdr_c": _cents(t["o_totalprice"])})

    def line_cents(t: pa.Table) -> pa.Table:
        gross = pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.add(pa.scalar(1.0), t["l_tax"])),
            pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"key": t["l_orderkey"], "line_c": _cents(gross)})

    def recon(hdr: pd.DataFrame, line: pd.DataFrame) -> pd.DataFrame:
        ln = line.groupby("key", as_index=False)["line_c"].sum()
        j = hdr.merge(ln, on="key", how="left")
        j["line_c"] = j["line_c"].fillna(0)
        out = j.groupby("year", as_index=False).agg(
            hdr_c=("hdr_c", "sum"), line_c=("line_c", "sum"),
            n_orders=("key", "size"))
        return out.astype({"line_c": "int64"})

    i64 = pa.int64()
    parts = (
        _ex.cogroup([
            (orders, {"key": i64, "year": i64, "hdr_c": i64}, header),
            (line, {"key": i64, "line_c": i64}, line_cents),
        ], "key", nb, recon)
        .to_pandas()
        .groupby("year", as_index=False)[["hdr_c", "line_c", "n_orders"]]
        .sum().sort_values("year").reset_index(drop=True)
    )
    return pd.DataFrame({
        "order_year": parts["year"].astype("int64"),
        "n_orders": parts["n_orders"].astype("int64"),
        "header_total": parts["hdr_c"].astype("int64")
        .to_numpy(np.float64) / 100.0,
        "lineitem_total": parts["line_c"].astype("int64")
        .to_numpy(np.float64) / 100.0,
        "delta": (parts["hdr_c"] - parts["line_c"]).astype("int64")
        .to_numpy(np.float64) / 100.0,
    })


SQL_REVENUE_RECONCILIATION = """
WITH ln AS (
  SELECT l_orderkey,
         SUM(CAST(FLOOR(l_extendedprice * (1 + l_tax) * (1 - l_discount)
                        * 100 + 0.5) AS BIGINT)) AS line_c
  FROM lineitem GROUP BY 1
), j AS (
  SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS order_year,
         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS hdr_c,
         COALESCE(ln.line_c, 0) AS line_c
  FROM orders LEFT JOIN ln ON o_orderkey = l_orderkey
)
SELECT order_year, CAST(COUNT(*) AS BIGINT) AS n_orders,
       SUM(hdr_c) / 100.0 AS header_total,
       SUM(line_c) / 100.0 AS lineitem_total,
       (SUM(hdr_c) - SUM(line_c)) / 100.0 AS delta
FROM j GROUP BY 1 ORDER BY 1
"""



def q_abc_classification(sf_dir: str):
    """ABC inventory-style customer classification: walking customers
    by spend DESC, class A holds the head up to 70 % of cumulative
    revenue, B to 90 %, C the tail — the banded sibling of
    ``pareto_8020`` (one cut) and ``lorenz_deciles`` (value bands;
    ABC bands by cumulative MASS).  Same custkey-exchange spend
    histogram; the driver walk steps whole tie-groups with
    arbitrary-precision ints, and every threshold test (10·cum vs
    7·total / 9·total) is integer-exact.  A tie-group straddling a
    boundary splits deterministically because equal-spend customers
    are interchangeable."""
    nb = _nb_rows(sf_dir, 'orders')  # row-carrying exchange
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    hist = _sum_hist(orders, "custkey", "spend_c", nb, _spend_partial)[::-1]
    total = sum(int(v) * int(c) for v, c in zip(hist["spend_c"], hist["n"]))
    acc = {"A": [0, 0], "B": [0, 0], "C": [0, 0]}  # class -> [n, cents]
    cum = 0
    for v, c in zip(hist["spend_c"], hist["n"]):
        v, c = int(v), int(c)
        for _ in range(2):  # a tie-group can straddle both boundaries
            if c == 0:
                break
            if 10 * cum < 7 * total:
                room = 7 * total - 10 * cum
                take = min(c, -((-room) // (10 * v)) if v else c)
                cls = "A"
            elif 10 * cum < 9 * total:
                room = 9 * total - 10 * cum
                take = min(c, -((-room) // (10 * v)) if v else c)
                cls = "B"
            else:
                take, cls = c, "C"
            acc[cls][0] += take
            acc[cls][1] += take * v
            cum += take * v
            c -= take
        if c:
            acc["C"][0] += c
            acc["C"][1] += c * v
            cum += c * v
    return pd.DataFrame({
        "abc_class": ["A", "B", "C"],
        "n_customers": pd.Series([acc[k][0] for k in "ABC"], dtype="int64"),
        "revenue": [acc[k][1] / 100.0 for k in "ABC"],
        "share": [round(acc[k][1] / total, 6) if total else 0.0
                  for k in "ABC"],
    })


SQL_ABC_CLASSIFICATION = """
WITH s AS (
  SELECT o_custkey,
         SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS spend_c
  FROM orders GROUP BY 1
), t AS (SELECT SUM(spend_c) AS tot FROM s),
r AS (
  SELECT spend_c,
         SUM(spend_c) OVER (ORDER BY spend_c DESC, o_custkey
                            ROWS UNBOUNDED PRECEDING) AS cum
  FROM s
), c AS (
  SELECT spend_c,
         CASE WHEN 10 * (cum - spend_c) < 7 * t.tot THEN 'A'
              WHEN 10 * (cum - spend_c) < 9 * t.tot THEN 'B'
              ELSE 'C' END AS abc_class
  FROM r CROSS JOIN t
)
SELECT abc_class,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       SUM(spend_c) / 100.0 AS revenue,
       ROUND(CAST(SUM(spend_c) AS DOUBLE) / t.tot, 6) AS share
FROM c CROSS JOIN t GROUP BY abc_class, t.tot ORDER BY abc_class
"""


def q_monthly_seasonality(sf_dir: str):
    """Calendar-month seasonality index: revenue per month-of-year
    with index = month_share × 12 (1.0 = a flat month) — the seasonal
    profile forecasting normalizes by.  ``exchange.aggregate`` folds
    (month, cents) to 12 rows; ratios of exact ints, rounded to 6
    dp."""
    m = _revenue_cents_by(sf_dir, "month")
    tot = int(m["rev_c"].sum())
    return pd.DataFrame({
        "month": m["month"],
        "revenue": m["rev_c"].to_numpy(np.float64) / 100.0,
        "seasonality_index": (
            m["rev_c"].to_numpy(np.float64) * 12.0 / tot
        ).round(6),
    })


SQL_MONTHLY_SEASONALITY = """
WITH m AS (
  SELECT CAST(EXTRACT(month FROM o_orderdate) AS BIGINT) AS month,
         SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS rev_c
  FROM orders GROUP BY 1
), t AS (SELECT SUM(rev_c) AS tot FROM m)
SELECT month, rev_c / 100.0 AS revenue,
       ROUND(CAST(rev_c AS DOUBLE) * 12.0 / t.tot, 6)
         AS seasonality_index
FROM m CROSS JOIN t ORDER BY month
"""



OUTLIER_TOPK = 20


def q_value_outliers_topk(sf_dir: str):
    """Anomaly surfacing: the {OUTLIER_TOPK} events with the largest
    |z| within their event_type — the triage list an alerting pipeline
    pages on (``zscore_events`` emits every z; this asks which rows
    matter).  The per-type moments fold exactly as in zscore; each
    block then emits only its local top-k by (|z| desc, event_id), a
    safe combiner because the global top-k is a subset of the union of
    block top-ks; the driver merges ≤ blocks·k rows.  z rounds to 9 dp
    on both engines (strict driver hash), and the |z| ranking uses the
    the ROUNDED value so rank boundaries cannot diverge.  The sd is
    built from integer-cent moment sums (n, Σv, Σv²) with the SAME
    double expression tree the oracle evaluates — exact ints make the
    summation order irrelevant and the identical IEEE op sequence
    makes mean/sd/z bit-identical on both engines (the price_cv_topk
    pattern), so 9-dp rounding cannot flip a rank."""
    import math

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def moments(t: pa.Table) -> pa.Table:
        vc = _cents(t["value"])
        # int64 exactness ceilings for the in-batch Σvc² partial (the
        # oracle runs HUGEINT): per-element vc² needs |vc| < 2^31
        # (a single event value below ~$21M — documented magnitude
        # ceiling, same style as the driver-state guards); the batch
        # sum needs rows·max(vc²) < 2^63, restored by halving the
        # batch — partials are additive Python-int on the driver, so
        # several partial rows per type fold exactly.
        vmax = pc.max(pc.abs(vc)).as_py() or 0
        if vmax >= (1 << 31):
            raise ValueError(
                "value_outliers_topk: |value| cents >= 2^31 exceeds the "
                "int64 moment ceiling; widen to a hi/lo split partial")
        if t.num_rows > 1 and t.num_rows * vmax * vmax >= (1 << 63):
            half = t.num_rows // 2
            return pa.concat_tables(
                [moments(t.slice(0, half)), moments(t.slice(half))])
        g = pa.table({
            "event_type": t["event_type"], "vc": vc,
            "vv": pc.multiply(vc, vc),
        }).group_by("event_type").aggregate([
            ("vc", "count"), ("vc", "sum"), ("vv", "sum"),
        ])
        return pa.table({
            "event_type": g["event_type"],
            "n": pc.cast(g["vc_count"], pa.int64()),
            "s1": pc.cast(g["vc_sum"], pa.int64()),
            "s2": pc.cast(g["vv_sum"], pa.int64()),
        })

    st = ds.map_batches(moments, batch_format="pyarrow").to_pandas()
    # Python-int fold: Σvc² per type is arbitrary precision on the
    # driver (the oracle's HUGEINT analog), never an int64 wraparound
    st["s1"] = st["s1"].map(int)
    st["s2"] = st["s2"].map(int)
    st = st.groupby("event_type", as_index=False).agg(
        n=("n", "sum"), s1=("s1", "sum"), s2=("s2", "sum"))
    mean_tbl, sd_tbl = {}, {}
    for et, n, s1, s2 in zip(st["event_type"], st["n"], st["s1"], st["s2"]):
        n, s1d, s2d = int(n), float(int(s1)), float(int(s2))
        mean_tbl[et] = s1d / n
        if n < 2:
            # STDDEV_SAMP of one row is NULL in the oracle; NaN z
            # reproduces that (NaN serializes as NULL in the compare)
            sd_tbl[et] = float("nan")
            continue
        var = (s2d - s1d * s1d / n) / (n - 1)
        # var == 0 → oracle divides by SQRT(0) → NULL; tiny negative
        # (double rounding of an all-equal group) must not raise
        sd_tbl[et] = math.sqrt(var) if var > 0 else float("nan")

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        vc = np.floor(df["value"].to_numpy(np.float64) * 100.0 + 0.5)
        m = df["event_type"].map(mean_tbl).to_numpy(np.float64)
        sd = df["event_type"].map(sd_tbl).to_numpy(np.float64)
        z = np.round((vc - m) / sd, 9)
        out = pd.DataFrame({
            "event_id": df["event_id"].astype("int64"),
            "event_type": df["event_type"],
            "z": z,
            "abs_z": np.abs(z),
        })
        return out.sort_values(["abs_z", "event_id"],
                               ascending=[False, True],
                               kind="mergesort").head(OUTLIER_TOPK)

    cand = ds.map_batches(local_topk, batch_format="pandas").to_pandas()
    top = cand.sort_values(["abs_z", "event_id"], ascending=[False, True],
                           kind="mergesort").head(OUTLIER_TOPK)
    return top[["event_id", "event_type", "z"]].reset_index(drop=True)


SQL_VALUE_OUTLIERS_TOPK = f"""
WITH v AS (
  SELECT event_id, event_type,
         CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS vc
  FROM events
), m AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
         SUM(vc) AS s1, SUM(CAST(vc AS HUGEINT) * vc) AS s2
  FROM v GROUP BY 1
), z AS (
  SELECT v.event_id, v.event_type,
         ROUND((CAST(v.vc AS DOUBLE) - CAST(m.s1 AS DOUBLE) / m.n)
           / SQRT((CAST(m.s2 AS DOUBLE)
                   - CAST(m.s1 AS DOUBLE) * CAST(m.s1 AS DOUBLE) / m.n)
                  / (m.n - 1)), 9) AS z
  FROM v JOIN m USING (event_type)
)
SELECT event_id, event_type, z
FROM z ORDER BY ABS(z) DESC, event_id LIMIT {OUTLIER_TOPK}
"""



def q_supplier_concentration(sf_dir: str):
    """Supply-side concentration: the Gini coefficient of per-supplier
    revenue plus the top-5 suppliers' share — ``concentration_stats``
    aimed at the OTHER side of the market (and a different fact path:
    revenue accrues straight from lineitem, no order join).  Same
    suppkey-exchange value-count-histogram fold; rank sums in
    arbitrary-precision ints; both outputs are exact-int ratios
    rounded to 6 dp."""
    nb = _nb_rows(sf_dir, 'lineitem')  # row-carrying exchange
    line = _read(sf_dir, "lineitem",
                 ["l_suppkey", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        g = pa.table({
            "suppkey": pc.cast(t["l_suppkey"], pa.int64()),
            "rev_c": _cents(rev),
        }).group_by("suppkey").aggregate([("rev_c", "sum")])
        return pa.table({
            "suppkey": pc.cast(g["suppkey"], pa.int64()),
            "rev_c": pc.cast(g["rev_c_sum"], pa.int64()),
        })

    hist = _sum_hist(line, "suppkey", "rev_c", nb, partial)
    n, tot, gini, top5 = _hist_gini(hist, "rev_c", lambda n: 5)
    return pd.DataFrame({
        "n_suppliers": pd.Series([n], dtype="int64"),
        "total_revenue": [tot / 100.0],
        "gini": [round(gini, 6)],
        "top5_share": [round(top5 / tot, 6) if tot else 0.0],
    })


SQL_SUPPLIER_CONCENTRATION = """
WITH s AS (
  SELECT l_suppkey,
         SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                  AS BIGINT)) AS rev_c
  FROM lineitem GROUP BY 1
), r AS (
  SELECT rev_c,
         ROW_NUMBER() OVER (ORDER BY rev_c, l_suppkey) AS rn
  FROM s
), t AS (
  SELECT COUNT(*) AS n, SUM(rev_c) AS tot, SUM(rn * rev_c) AS rs FROM r
), tp AS (
  SELECT SUM(r.rev_c) AS top5 FROM r CROSS JOIN t WHERE r.rn > t.n - 5
)
SELECT CAST(t.n AS BIGINT) AS n_suppliers,
       t.tot / 100.0 AS total_revenue,
       ROUND((2.0 * t.rs - (t.n + 1.0) * t.tot)
             / (CAST(t.n AS DOUBLE) * t.tot), 6) AS gini,
       ROUND(CAST(tp.top5 AS DOUBLE) / t.tot, 6) AS top5_share
FROM t CROSS JOIN tp
"""


def q_weekday_profile(sf_dir: str):
    """Day-of-week activity profile: events per ISO weekday (1 =
    Monday) with each day's share — the weekly rhythm panel beside
    ``monthly_seasonality``.  ``exchange.aggregate`` folds (weekday, n)
    to seven rows; shares are ratios of exact ints."""
    def derive(t: pa.Table) -> pa.Table:
        return pa.table({"weekday": pc.day_of_week(
            t["ts"], count_from_zero=False, week_start=1)})

    p = _ex.aggregate(_read(sf_dir, "events", ["ts"]), "weekday",
                      {"n_events": ("weekday", "count_all")}, derive)
    p["share"] = (p["n_events"].to_numpy(np.float64)
                  / int(p["n_events"].sum())).round(6)
    return p


SQL_WEEKDAY_PROFILE = """
WITH d AS (
  SELECT CAST(isodow(ts) AS BIGINT) AS weekday, COUNT(*) AS n
  FROM events GROUP BY 1
), t AS (SELECT SUM(n) AS tot FROM d)
SELECT weekday, CAST(n AS BIGINT) AS n_events,
       ROUND(CAST(n AS DOUBLE) / t.tot, 6) AS share
FROM d CROSS JOIN t ORDER BY weekday
"""


def q_token_histogram(sf_dir: str):
    """Heavy hitters: global top-20 token frequencies.  The canonical
    pre-aggregation shape: each batch emits its own token counts (a
    combiner over the batch vocabulary), the driver merges the small
    partials — the full token stream is never shuffled."""
    from crawler_tjce_ray.pipelines.textops import _read_docs, token_counts

    return token_counts(_read_docs(sf_dir, ["text"])) \
        .head(20).reset_index(drop=True)


SQL_TOKEN_HISTOGRAM = """
SELECT tok, COUNT(*) AS n FROM (
  SELECT unnest(string_split(text, ' ')) AS tok FROM documents) t
GROUP BY tok ORDER BY n DESC, tok LIMIT 20
"""


def _md5_bucket(vals: pd.Series, mod: int) -> np.ndarray:
    """Per-value md5 bucket (md5 is pinned by the DuckDB oracle, so the
    digest loop stays; the int→str conversion is one vectorized pass)."""
    import hashlib

    md5 = hashlib.md5
    strs = vals.astype("int64").astype(str).to_numpy()
    return np.fromiter(
        (int(md5(s.encode()).hexdigest()[:8], 16) % mod for s in strs),
        dtype=np.int64,
        count=len(strs),
    )


def q_hash_split(sf_dir: str):
    """Deterministic train/val split by content-stable hash (the
    standard reproducible-split recipe for training corpora): pure
    per-row map, no shuffle, identical on any cluster size."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def split(df: pd.DataFrame) -> pd.DataFrame:
        b = _md5_bucket(df["doc_id"], 10)
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "split": np.where(b < 8, "train", "val"),
        })

    out = ds.map_batches(split, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_HASH_SPLIT = """
SELECT doc_id,
       CASE WHEN CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                 AS BIGINT) % 10 < 8
            THEN 'train' ELSE 'val' END AS split
FROM documents ORDER BY doc_id
"""


#: per-language keep rates in thousandths (int thresholds keep the
#: oracle comparison exact — no float boundary)
WEIGHTED_SAMPLE_RATES = {"en": 900, "es": 500, "fr": 500, "de": 400}
WEIGHTED_SAMPLE_DEFAULT = 250


def q_weighted_sample(sf_dir: str):
    """Deterministic weighted Bernoulli sample (corpus rebalancing by
    language — the up/down-sampling step of training-data curation):
    keep a doc iff md5(doc_id) mod 1000 < rate(lang).  Pure per-row
    map, no shuffle, reproducible on any cluster size — the weighted
    generalization of ``q_hash_split``."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        b = _md5_bucket(df["doc_id"], 1000)
        thr = (
            df["lang"].map(WEIGHTED_SAMPLE_RATES)
            .fillna(WEIGHTED_SAMPLE_DEFAULT).to_numpy(dtype=np.int64)
        )
        keep = df[b < thr]
        return pd.DataFrame({
            "doc_id": keep["doc_id"].astype("int64"),
            "lang": keep["lang"],
        })

    out = ds.map_batches(pick, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _weighted_sample_sql() -> str:
    cases = "\n".join(
        f"         WHEN lang = '{k}' THEN {v}"
        for k, v in WEIGHTED_SAMPLE_RATES.items()
    )
    return f"""
SELECT doc_id, lang FROM documents
WHERE CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
           AS BIGINT) % 1000
      < CASE
{cases}
         ELSE {WEIGHTED_SAMPLE_DEFAULT} END
ORDER BY doc_id
"""


SQL_WEIGHTED_SAMPLE = _weighted_sample_sql()


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified sample: first 25 docs per language in
    md5 order (seeded reservoir analog with an exact oracle).  Per-group
    sort of a pre-pruned 2-column table; at scale the md5 order key is
    computed in the map stage and a per-group top-k keeps the shuffle
    payload tiny.  It stays a true per-key ``groupby("lang").map_groups``
    rather than ``exchange.shuffle``: ``pick`` takes the first 25 of
    ONE language, and the handful of languages is already as coarse as
    buckets would be."""
    import hashlib

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["h"] = [
            hashlib.md5(str(int(d)).encode()).hexdigest() for d in g["doc_id"]
        ]
        g = g.sort_values(["h", "doc_id"]).head(25)
        return g[["doc_id", "lang"]]

    out = ds.groupby("lang").map_groups(pick, batch_format="pandas").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values(["lang", "doc_id"]).reset_index(drop=True)


SQL_STRATIFIED_SAMPLE = """
SELECT doc_id, lang FROM (
  SELECT doc_id, lang,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
  FROM documents) t
WHERE rn <= 25 ORDER BY lang, doc_id
"""


# ---------------------------------------------------------------------------
# M: scalar-kernel parity queries (M5/M8/M10, §2.8)
# ---------------------------------------------------------------------------

def q_slugify(sf_dir: str):
    """M8: slugify as a vectorized batch kernel, SQL-mirrored."""
    from crawler_tjce_ray.functions.text import slugify

    def add_slug(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["slug"] = df["c_name"].map(slugify)
        return df

    out = (
        _read(sf_dir, "customer", ["c_custkey", "c_name"])
        .map_batches(add_slug, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("c_custkey").reset_index(drop=True)


SQL_SLUGIFY = """
SELECT c_custkey, c_name,
       trim(regexp_replace(regexp_replace(strip_accents(lower(c_name)),
            '[^a-z0-9 \t-]', '', 'g'), '[- \t]+', '-', 'g'), '-') AS slug
FROM customer ORDER BY c_custkey
"""


def q_digits_only(sf_dir: str):
    """CPF/CNPJ digits-only cleaner (models/models.py:330-339)."""
    # Arrow-native: one RE2 pass over the whole batch (the scalar
    # digits_only kernel stays the reference-parity implementation;
    # equality of the two is pinned in tests/test_kernels.py)
    def clean(t: pa.Table) -> pa.Table:
        digits = pc.replace_substring_regex(t["c_name"], "[^0-9]", "")
        digits = pc.if_else(
            pc.equal(digits, pa.scalar("")), pa.scalar("-"), digits
        )
        return pa.table({
            "c_custkey": t["c_custkey"], "c_name": t["c_name"],
            "digits": digits,
        })

    out = (
        _read(sf_dir, "customer", ["c_custkey", "c_name"])
        .map_batches(clean, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("c_custkey").reset_index(drop=True)


SQL_DIGITS_ONLY = """
SELECT c_custkey, c_name,
       CASE WHEN regexp_replace(c_name, '[^0-9]', '', 'g') = '' THEN '-'
            ELSE regexp_replace(c_name, '[^0-9]', '', 'g') END AS digits
FROM customer ORDER BY c_custkey
"""


def q_zero_pad(sf_dir: str):
    """M5 ``processo`` zero-pad-20 (crawler/crawler.py:114-117)."""
    # Arrow-native lpad (scalar zero_pad_processo equality pinned in
    # tests/test_kernels.py)
    def pad(t: pa.Table) -> pa.Table:
        s = pc.cast(t["o_orderkey"], pa.string())
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "processo": pc.utf8_lpad(s, 20, "0"),
        })

    out = (
        _read(sf_dir, "orders", ["o_orderkey"])
        .map_batches(pad, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("o_orderkey").reset_index(drop=True)


SQL_ZERO_PAD = """
SELECT o_orderkey, lpad(CAST(o_orderkey AS VARCHAR), 20, '0') AS processo
FROM orders ORDER BY o_orderkey
"""


def q_currency_brl(sf_dir: str):
    """M10 currency display formatter (manual deterministic path)."""
    from crawler_tjce_ray.functions.numeric import format_currency_brl

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["total_brl"] = df["o_totalprice"].map(format_currency_brl)
        return df[["o_orderkey", "total_brl"]]

    out = (
        _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .map_batches(fmt, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("o_orderkey").reset_index(drop=True)


SQL_CURRENCY_BRL = """
SELECT o_orderkey,
       'R$ ' ||
       replace(format('{:,}', CAST(floor(round(o_totalprice, 2)) AS BIGINT)), ',', '.') ||
       ',' ||
       lpad(CAST(CAST(round(o_totalprice * 100) AS BIGINT) % 100 AS VARCHAR), 2, '0')
       AS total_brl
FROM orders ORDER BY o_orderkey
"""


def q_date_render(sf_dir: str):
    """dd/MM/yyyy date rendering (crawler/crawler.py:1141-1147)."""

    def fmt(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "display_date": pc.strftime(t["o_orderdate"], "%d/%m/%Y"),
        })

    out = (
        _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
        .map_batches(fmt, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("o_orderkey").reset_index(drop=True)


SQL_DATE_RENDER = """
SELECT o_orderkey, strftime(o_orderdate, '%d/%m/%Y') AS display_date
FROM orders ORDER BY o_orderkey
"""


def q_json_props(sf_dir: str):
    """M1 analog: JSON path navigation with defaults, vectorized."""
    import json

    def extract(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["k"] = df["props"].map(lambda s: int(json.loads(s).get("k", -1)) if s else -1).astype("int64")
        return df[["event_id", "k"]]

    out = (
        _read(sf_dir, "events", ["event_id", "props"])
        .map_batches(extract, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("event_id").reset_index(drop=True)


SQL_JSON_PROPS = """
SELECT event_id,
       COALESCE(CAST(json_extract(props, '$.k') AS BIGINT), -1) AS k
FROM events ORDER BY event_id
"""


def q_reason_histogram(sf_dir: str):
    """M11/A4: validation-reason histogram (the legacy normalizer's
    invalid-row report, script.py:654-691) over documents."""
    def derive(t: pa.Table) -> pa.Table:
        reason = pa.scalar("ok")
        for cond, r in [(pc.not_equal(t["lang"], "en"), "not_english"),
                        (pc.greater(t["n_chars"], 400), "too_long"),
                        (pc.less(t["n_chars"], 100), "too_short")]:
            reason = pc.if_else(pc.fill_null(cond, False), r, reason)
        return pa.table({"reason": reason})

    return _ex.aggregate(_read(sf_dir, "documents", ["n_chars", "lang"]),
                         "reason", {"n": ("reason", "count_all")}, derive)


SQL_REASON_HISTOGRAM = """
SELECT CASE WHEN n_chars < 100 THEN 'too_short'
            WHEN n_chars > 400 THEN 'too_long'
            WHEN lang != 'en' THEN 'not_english'
            ELSE 'ok' END AS reason,
       COUNT(*) AS n
FROM documents GROUP BY 1 ORDER BY 1
"""


def q_hash_join_big(sf_dir: str):
    """Big-big repartition (shuffle hash) join: orders ⋈ lineitem on
    orderkey with NEITHER side broadcast — the join class
    ``broadcast_join``/``join_agg`` cannot cover when both sides are
    corpus-sized.  Same single-shuffle recipe as ``q_asof_join``: ONE
    ``exchange.cogroup`` of the two sides on coarse key buckets,
    vectorized ``pd.merge`` + per-bucket partial aggregation inside
    the bucket, tiny driver-side final reduce.  Shuffle volume is the
    pruned columns only; the per-bucket output is O(groups), never the
    joined rows.  The exchange carries ROW-LEVEL data (both join
    sides), so its fan-out is sized from the input bytes (``_nb_rows``
    — about one bucket per read block, growing so one bucket's payload
    stays ~TARGET_BUCKET_BYTES at 100 TB)."""
    nb = _nb_rows(sf_dir, "orders", "lineitem")

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    line = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    )

    def join_bucket(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        j = right.merge(left, on="key", how="inner")
        j["rev"] = j["price"] * (1.0 - j["disc"])
        return j.groupby(["priority", "flag"], as_index=False,
                         dropna=False).agg(revenue=("rev", "sum"),
                                           n_items=("rev", "size"))

    parts = _ex.to_pandas(_ex.cogroup([
        (orders, {"key": pa.int64(), "priority": pa.string()},
         _pick(key="o_orderkey", priority="o_orderpriority")),
        (line, {"key": pa.int64(), "price": pa.float64(),
                "disc": pa.float64(), "flag": pa.string()},
         _pick(key="l_orderkey", price="l_extendedprice", disc="l_discount",
               flag="l_returnflag")),
    ], "key", nb, join_bucket), priority=object, flag=object,
        revenue="float64", n_items="int64")
    out = parts.groupby(["priority", "flag"], as_index=False, dropna=False).agg(
        revenue=("revenue", "sum"), n_items=("n_items", "sum")
    )
    out = pd.DataFrame({
        "o_orderpriority": _str_col(out["priority"]),
        "l_returnflag": _str_col(out["flag"]),
        "revenue": out["revenue"].round(2),
        "n_items": out["n_items"].astype("int64"),
    })
    return out.sort_values(["o_orderpriority", "l_returnflag"]).reset_index(drop=True)


SQL_HASH_JOIN_BIG = """
SELECT o_orderpriority, l_returnflag,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue,
       CAST(COUNT(*) AS BIGINT) AS n_items
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
GROUP BY o_orderpriority, l_returnflag
ORDER BY o_orderpriority, l_returnflag
"""


def q_segment_year_revenue(sf_dir: str):
    """THREE-way big join (TPC-H Q3/Q5 flavor): revenue per customer
    market segment × order year over lineitem ⋈ orders ⋈ customer —
    the join chain ``hash_join_big`` (one big-big exchange) doesn't
    cover.  At 100 TB all three tables are corpus-sized, so the plan
    is TWO successive bucket exchanges that each carry only pruned
    columns and shrink between hops:

    1. orderkey ``exchange.cogroup`` — orders rows ride as (orderkey,
       custkey, year); lineitem rows PRE-COMBINE per batch to (orderkey,
       cents-sum, count) partials before the exchange (each term is
       already snapped to integer cents, so batch-level partial sums
       commute exactly), cutting hop-1 shuffle volume by the mean
       lineitems-per-order factor; in-bucket merge pre-aggregates to
       (custkey, year, rev, n) partials, so what leaves hop 1 is
       bounded by #customers × years, not joined rows;
    2. custkey ``exchange.cogroup`` — hop-1 partials against
       customer's (custkey, mktsegment); in-bucket merge emits
       (mktsegment, year) partials; the driver folds
       ≤ buckets × segments × years additive rows.

    Each revenue term is snapped to INTEGER CENTS before any sum
    (floor(x·100 + 0.5) — identical IEEE ops in both engines), so the
    aggregate is an order-independent int64 sum: bucket-partial
    summation can never drift a cent from the oracle's single-pass
    sum, unlike the ROUND-after-float-SUM convention (which measurably
    flips the last cent here — 35 groups × ~10⁸ magnitudes).

    Hop 1 carries row-level data (both join sides), so its fan-out is
    sized from orders+lineitem bytes; hop 2's biggest rider is the
    customer table, so it sizes from that (hop-1 partials are bounded
    by customers × years)."""
    nb1 = _nb_rows(sf_dir, "orders", "lineitem")
    nb2 = _nb_rows(sf_dir, "customer")

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    line = _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_extendedprice", "l_discount"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def order_rows(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["o_orderkey"], "custkey": t["o_custkey"],
                         "year": pc.year(t["o_orderdate"])})

    def combine_line(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        # snap each term to integer cents FIRST (identical IEEE ops to
        # the oracle), then pre-combine per orderkey within the batch:
        # int sums commute, so the partial is exact
        g = pa.table({"key": t["l_orderkey"], "rev_c": _cents(rev)}) \
            .group_by("key").aggregate([
                ("rev_c", "sum"), ("rev_c", "count"),
            ])
        return pa.table({"key": g["key"], "rev_c": g["rev_c_sum"],
                         "n": g["rev_c_count"]})

    def join_orderkey(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        j = right.merge(left, on="key", how="inner")
        return j.groupby(["custkey", "year"], as_index=False).agg(
            rev_c=("rev_c", "sum"), n_items=("n", "sum")).astype("int64")

    def join_custkey(facts: pd.DataFrame, dims: pd.DataFrame) -> pa.Table:
        j = facts.merge(dims, on="custkey", how="inner")
        out = j.groupby(["segment", "year"], as_index=False, dropna=False).agg(
            rev_c=("rev_c", "sum"), n_items=("n_items", "sum"))
        # typed Arrow out-block: an empty bucket otherwise emits a
        # schemaless frame (executor schema-mismatch warnings)
        return pa.table({
            "segment": pa.array(out["segment"], type=pa.string()),
            "year": pa.array(out["year"].to_numpy(np.int64)),
            "rev_c": pa.array(out["rev_c"].to_numpy(np.int64)),
            "n_items": pa.array(out["n_items"].to_numpy(np.int64)),
        })

    i64 = pa.int64()
    hop1 = _ex.cogroup([
        (orders, {"key": i64, "custkey": i64, "year": i64}, order_rows),
        (line, {"key": i64, "rev_c": i64, "n": i64}, combine_line),
    ], "key", nb1, join_orderkey)
    parts = _ex.to_pandas(_ex.cogroup([
        (hop1, {"custkey": i64, "year": i64, "rev_c": i64, "n_items": i64},
         None),
        (cust, {"custkey": i64, "segment": pa.string()},
         _pick(custkey="c_custkey", segment="c_mktsegment")),
    ], "custkey", nb2, join_custkey), segment=object, year="int64",
        rev_c="int64", n_items="int64")
    out = parts.groupby(["segment", "year"], as_index=False, dropna=False).agg(
        rev_c=("rev_c", "sum"), n_items=("n_items", "sum"))
    out = pd.DataFrame({
        "c_mktsegment": _str_col(out["segment"]),
        "order_year": out["year"].astype("int64"),
        "revenue": out["rev_c"].astype("int64").to_numpy(np.float64) / 100.0,
        "n_items": out["n_items"].astype("int64"),
    })
    return out.sort_values(["c_mktsegment", "order_year"]).reset_index(drop=True)


SQL_SEGMENT_YEAR_REVENUE = f"""
SELECT c_mktsegment,
{_SQL_YEAR_REVENUE}
JOIN customer ON o_custkey = c_custkey
GROUP BY 1, 2 ORDER BY 1, 2
"""


def _fine_revenue(sf_dir: str) -> pd.DataFrame:
    """Finest-level (returnflag, linestatus) revenue/count table through
    ``exchange.aggregate`` — the one fact-table scan both ROLLUP and
    CUBE derive every super-aggregate level from."""
    def derive(t: pa.Table) -> pa.Table:
        return t.append_column("rev", pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])))

    return _ex.aggregate(
        _read(sf_dir, "lineitem",
              ["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"]),
        ["l_returnflag", "l_linestatus"],
        {"revenue": ("rev", "sum"), "n_items": ("rev", "count_all")}, derive)


def _finish_grouping_sets(frames: list[pd.DataFrame]) -> pd.DataFrame:
    out = pd.concat(frames, ignore_index=True)
    out["revenue"] = out["revenue"].round(2)
    out["n_items"] = out["n_items"].astype("int64")
    out = out[["l_returnflag", "l_linestatus", "revenue", "n_items"]]
    return out.sort_values(
        ["l_returnflag", "l_linestatus"], na_position="last"
    ).reset_index(drop=True)


def q_rollup_revenue(sf_dir: str):
    """ROLLUP aggregation: revenue at (returnflag, linestatus), per
    returnflag, and grand total in one result.  Only the finest level
    is computed distributed (``_fine_revenue``'s ``exchange.aggregate``); the
    super-aggregate levels derive from those few rows driver-side —
    rollups never rescan the fact table."""
    fine = _fine_revenue(sf_dir)
    lvl1 = fine.groupby("l_returnflag", as_index=False).agg(
        revenue=("revenue", "sum"), n_items=("n_items", "sum")
    )
    lvl1["l_linestatus"] = None
    total = pd.DataFrame({
        "l_returnflag": [None], "l_linestatus": [None],
        "revenue": [fine["revenue"].sum(min_count=1)],
        "n_items": [fine["n_items"].sum()],
    })
    return _finish_grouping_sets([fine, lvl1, total])


SQL_ROLLUP_REVENUE = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue,
       CAST(COUNT(*) AS BIGINT) AS n_items
FROM lineitem
GROUP BY ROLLUP (l_returnflag, l_linestatus)
ORDER BY l_returnflag NULLS LAST, l_linestatus NULLS LAST
"""


def q_cube_revenue(sf_dir: str):
    """CUBE aggregation — all four grouping sets of (returnflag,
    linestatus) in one result.  Same discipline as ``q_rollup_revenue``
    (and the same ``_fine_revenue`` scan): every super-aggregate —
    including the ((), linestatus) level that ROLLUP lacks — derives
    from the finest-level rows driver-side."""
    fine = _fine_revenue(sf_dir)
    by_flag = fine.groupby("l_returnflag", as_index=False).agg(
        revenue=("revenue", "sum"), n_items=("n_items", "sum")
    )
    by_flag["l_linestatus"] = None
    by_status = fine.groupby("l_linestatus", as_index=False).agg(
        revenue=("revenue", "sum"), n_items=("n_items", "sum")
    )
    by_status["l_returnflag"] = None
    total = pd.DataFrame({
        "l_returnflag": [None], "l_linestatus": [None],
        "revenue": [fine["revenue"].sum(min_count=1)],
        "n_items": [fine["n_items"].sum()],
    })
    return _finish_grouping_sets([fine, by_flag, by_status, total])


SQL_CUBE_REVENUE = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue,
       CAST(COUNT(*) AS BIGINT) AS n_items
FROM lineitem
GROUP BY CUBE (l_returnflag, l_linestatus)
ORDER BY l_returnflag NULLS LAST, l_linestatus NULLS LAST
"""


def q_pivot_status(sf_dir: str):
    """Pivot (conditional aggregation): orders counted per priority
    with one column per order status.  Statuses are a tiny CLOSED set,
    so the pivot is one 0/1 column per status summed by
    ``exchange.aggregate`` — |priorities| × 4 partials, no shuffle."""
    statuses = ["F", "O", "P"]

    def derive(t: pa.Table) -> pa.Table:
        cols = {"o_orderpriority": t["o_orderpriority"]}
        for s in statuses:
            cols[f"n_{s}"] = pc.fill_null(
                pc.cast(pc.equal(t["o_orderstatus"], s), pa.int64()), 0)
        return pa.table(cols)

    aggs = {"n_total": ("o_orderpriority", "count_all")}
    aggs.update({f"n_{s}": (f"n_{s}", "sum") for s in statuses})
    return _ex.aggregate(
        _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"]),
        "o_orderpriority", aggs, derive)


SQL_PIVOT_STATUS = """
SELECT o_orderpriority,
       CAST(COUNT(*) AS BIGINT) AS n_total,
       CAST(COUNT(*) FILTER (o_orderstatus = 'F') AS BIGINT) AS n_F,
       CAST(COUNT(*) FILTER (o_orderstatus = 'O') AS BIGINT) AS n_O,
       CAST(COUNT(*) FILTER (o_orderstatus = 'P') AS BIGINT) AS n_P
FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def q_chars_percent_rank(sf_dir: str):
    """PERCENT_RANK over the whole corpus WITHOUT a global sort: the
    integer ``n_chars`` column reduces to a value-count histogram
    (``exchange.aggregate``, O(distinct values) driver state), the
    exact min-rank CDF broadcasts, and a second vectorized pass maps
    every doc — the distributed recipe for rank-style windows on
    low-cardinality keys."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    hist = _ex.aggregate(ds, "n_chars", {"n": ("n_chars", "count_all")})
    total = int(hist["n"].sum())
    # SQL PERCENT_RANK = (rank - 1) / (n - 1), ties share the min rank
    hist["rank_min"] = hist["n"].cumsum().shift(fill_value=0) + 1
    pr = dict(zip(
        hist["n_chars"],
        (hist["rank_min"].to_numpy(np.float64) - 1.0) / max(total - 1, 1),
    ))

    def rank_map(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "pct_rank": df["n_chars"].map(pr).astype("float64"),
        })

    out = _ex.to_pandas(ds.map_batches(rank_map, batch_format="pandas"),
                        doc_id="int64", pct_rank="float64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_CHARS_PERCENT_RANK = """
SELECT doc_id, PERCENT_RANK() OVER (ORDER BY n_chars) AS pct_rank
FROM documents ORDER BY doc_id
"""


def q_zscore_events(sf_dir: str):
    """Group-wise normalization (feature scaling): z-score each event's
    value within its event_type.  Two ``exchange.aggregate`` passes
    reduce (n, Σv) and then Σ(v−μ)² to O(|types|) constants, which
    broadcast into a vectorized normalize pass — the value stream
    never shuffles."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    # Two passes instead of the one-pass (Σv² − (Σv)²/n) formula: that
    # form cancels catastrophically for near-constant groups (variance
    # lands at a tiny NEGATIVE float → sqrt → NaN) while DuckDB's
    # STDDEV_SAMP is Welford-stable.  Pass 1 reduces means; pass 2
    # reduces centered squares.
    st = _ex.aggregate(ds, "event_type",
                       {"n": ("value", "count"), "s": ("value", "sum")})
    st["mean"] = st["s"] / st["n"]
    # O(|types|) moment table, shipped in the closure and hash-joined
    # per batch (Arrow join — no Python map over rows)
    mean_tbl = pa.table({
        "event_type": pa.array(st["event_type"], pa.string()),
        "mean_": pa.array(st["mean"], pa.float64()),
    })

    def centered(t: pa.Table) -> pa.Table:
        j = t.join(mean_tbl, keys="event_type")
        d = pc.subtract(j["value"], j["mean_"])
        return pa.table({"event_type": j["event_type"], "ssd": pc.multiply(d, d)})

    st = st.merge(_ex.aggregate(ds, "event_type", {"ssd": ("ssd", "sum")},
                                centered), on="event_type")
    # n < 2 → NULL stddev in SQL → NaN here (divide-by-NaN propagates)
    st["sd"] = np.sqrt(
        np.where(st["n"] > 1, st["ssd"] / np.maximum(st["n"] - 1, 1), np.nan)
    )
    stats_tbl = pa.table({
        "event_type": pa.array(st["event_type"], pa.string()),
        "mean_": pa.array(st["mean"], pa.float64()),
        "sd_": pa.array(st["sd"], pa.float64()),
    })

    def normalize(t: pa.Table) -> pa.Table:
        # round 9: the moment sums fold in different orders across the
        # two engines (Arrow partials vs one-pass window), so raw z
        # values disagree in the last ulp — the driver hash is strict
        j = t.join(stats_tbl, keys="event_type")
        return pa.table({
            "event_id": j["event_id"],
            "event_type": j["event_type"],
            "z": pc.round(
                pc.divide(pc.subtract(j["value"], j["mean_"]), j["sd_"]),
                ndigits=9),
        })

    out = _ex.to_pandas(ds.map_batches(normalize, batch_format="pyarrow"),
                        event_id="int64", event_type=object, z="float64")
    return out.sort_values("event_id").reset_index(drop=True)


SQL_ZSCORE_EVENTS = """
SELECT event_id, event_type,
       ROUND((value - AVG(value) OVER (PARTITION BY event_type))
         / STDDEV_SAMP(value) OVER (PARTITION BY event_type), 9) AS z
FROM events ORDER BY event_id
"""


def q_left_join_counts(sf_dir: str):
    """LEFT OUTER join shape: every customer with their order count,
    zero-order customers included.  The big (orders) side pre-reduces
    per batch to (custkey, n) partials BEFORE the single
    ``exchange.cogroup``, so the exchange carries counts, not orders;
    outer semantics come from the in-bucket left merge + fillna(0)."""
    nb = _nb_rows(sf_dir, 'customer')  # row-carrying exchange
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey"])

    def partial_counts(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([("o_custkey", "count")])
        return pa.table({"key": g["o_custkey"], "n": g["o_custkey_count"]})

    def merge_bucket(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        right = right.groupby("key", as_index=False)["n"].sum()
        m = left.merge(right, on="key", how="left")
        return pd.DataFrame({
            "c_custkey": m["key"],
            "c_mktsegment": m["seg"],
            "n_orders": m["n"].fillna(0).astype("int64"),
        })

    out = _ex.cogroup([
        (cust, {"key": pa.int64(), "seg": pa.string()},
         _pick(key="c_custkey", seg="c_mktsegment")),
        (orders, {"key": pa.int64(), "n": pa.int64()}, partial_counts),
    ], "key", nb, merge_bucket).to_pandas()
    return out.sort_values("c_custkey").reset_index(drop=True)


SQL_LEFT_JOIN_COUNTS = """
SELECT c_custkey, c_mktsegment, CAST(COUNT(o_orderkey) AS BIGINT) AS n_orders
FROM customer LEFT JOIN orders ON o_custkey = c_custkey
GROUP BY c_custkey, c_mktsegment ORDER BY c_custkey
"""


def _bucketed_orders_window(sf_dir: str, kernel):
    """Shared shell for per-customer window functions: ONE shuffle on
    coarse ``o_custkey`` buckets (the q_asof_join recipe — never
    per-customer dispatch), then a vectorized kernel over each bucket
    sorted by (custkey, date, key).  The exchange carries raw ORDER
    ROWS, so its fan-out is sized from the orders bytes."""
    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"])
    nb = _nb_rows(sf_dir, "orders")

    def run(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                          kind="mergesort").reset_index(drop=True)
        return kernel(g)

    out = _ex.shuffle(ds, "o_custkey", nb, run).to_pandas()
    return out.sort_values("o_orderkey").reset_index(drop=True)


def q_running_total(sf_dir: str):
    """§2.9-style running aggregate: per-customer cumulative order
    value in (date, key) order — the streaming-window class (cumsum
    over a partitioned, ordered stream).  Sums run in exact int64
    cents so the result is bit-identical to the oracle's window SUM
    regardless of either engine's float summation order."""
    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(g["o_totalprice"].to_numpy() * 100.0).astype("int64")
        running = pd.Series(cents).groupby(g["o_custkey"].to_numpy()).cumsum()
        return pd.DataFrame({
            "o_orderkey": g["o_orderkey"],
            "o_custkey": g["o_custkey"],
            "running_cents": running.astype("int64"),
        })

    return _bucketed_orders_window(sf_dir, kernel)


SQL_RUNNING_TOTAL = """
SELECT o_orderkey, o_custkey,
       CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) OVER (
         PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT) AS running_cents
FROM orders ORDER BY o_orderkey
"""


def q_order_gap_days(sf_dir: str):
    """LAG window: days since the customer's previous order (-1 for
    the first).  ``o_orderdate`` is midnight-aligned in this corpus,
    so pandas' 24h-period ``.dt.days`` equals DuckDB's
    boundary-counting ``date_diff('day', …)``."""
    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        prev = g.groupby("o_custkey")["o_orderdate"].shift()
        gap = (g["o_orderdate"] - prev).dt.days
        return pd.DataFrame({
            "o_orderkey": g["o_orderkey"],
            "o_custkey": g["o_custkey"],
            "gap_days": gap.fillna(-1).astype("int64"),
        })

    return _bucketed_orders_window(sf_dir, kernel)


SQL_ORDER_GAP_DAYS = """
SELECT o_orderkey, o_custkey,
       CAST(COALESCE(date_diff('day',
         lag(o_orderdate) OVER (PARTITION BY o_custkey
                                ORDER BY o_orderdate, o_orderkey),
         o_orderdate), -1) AS BIGINT) AS gap_days
FROM orders ORDER BY o_orderkey
"""


_BLOOM_M = 1 << 17   # minimum bits per filter (16 KiB packed)
_BLOOM_K = 4         # probes per key (double hashing)


def _bloom_size(n_keys: int) -> int:
    """Bits for ~0.24% FP at k=4: m ≥ 16·n, power of two, floored at
    ``_BLOOM_M``.  Sized from the blocklist count so the filter never
    saturates as the blocklist grows — a fixed m would degrade to
    ~100% false positives (and corpus-sized verification shuffles)
    once kn/m ≫ 1."""
    m = _BLOOM_M
    while m < 16 * max(1, n_keys):
        m <<= 1
    return m


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain mixing constants)
    — deterministic across processes, unlike Python's salted hash."""
    with np.errstate(over="ignore"):
        z = x + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _bloom_positions(keys: np.ndarray, m: int = _BLOOM_M) -> np.ndarray:
    """(k, n) bit positions via double hashing h1 + i·h2 mod m."""
    u = keys.astype(np.uint64)
    h1 = _splitmix64(u)
    h2 = _splitmix64(u ^ np.uint64(0xA5A5A5A5A5A5A5A5)) | np.uint64(1)
    with np.errstate(over="ignore"):
        return np.stack([
            ((h1 + np.uint64(i) * h2) % np.uint64(m)).astype(np.int64)
            for i in range(_BLOOM_K)
        ])


def _bloom_build(keys: np.ndarray, m: int = _BLOOM_M) -> np.ndarray:
    """Packed bit array (uint8[m/8]) — per-batch partials OR-merge."""
    bits = np.zeros(m, dtype=bool)
    if len(keys):
        bits[_bloom_positions(keys, m).ravel()] = True
    return np.packbits(bits)


def _bloom_test(packed: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership mask — no false negatives, ~(1-e^{-kn/m})^k FPs."""
    if not len(keys):
        return np.zeros(0, dtype=bool)
    bits = np.unpackbits(packed).astype(bool)
    return bits[_bloom_positions(keys, len(bits))].all(axis=0)


def _bloom_ref(cust, mask):
    """``ray.put`` Bloom filter over the ``c_custkey`` of the customer
    rows ``mask`` (Arrow table → boolean array) selects.  A cheap count
    pass sizes it so it never saturates as the list grows (m ≈ 16·n
    bits → ~0.24% FPs at any cardinality; a fixed m would trend to
    ~100% FPs at kn/m ≫ 1); per-batch partials of O(m/8) bytes
    OR-merge on the driver."""
    import ray

    def count(t: pa.Table) -> pa.Table:
        return pa.table({"n": [t.filter(mask(t)).num_rows]})

    m = _bloom_size(int(
        cust.map_batches(count, batch_format="pyarrow").to_pandas()["n"].sum()))

    def partial(t: pa.Table) -> pa.Table:
        keys = t.filter(mask(t))["c_custkey"].to_numpy().astype(np.int64)
        return pa.table({"bloom": [_bloom_build(keys, m).tobytes()]})

    packed = np.zeros(m // 8, dtype=np.uint8)
    for blob in cust.map_batches(partial, batch_format="pyarrow") \
            .to_pandas()["bloom"]:
        packed |= np.frombuffer(blob, dtype=np.uint8)
    return ray.put(packed)


def q_bloom_anti_join(sf_dir: str):
    """Big-big ANTI-join via a Bloom prefilter: orders whose customer
    is NOT on the blocklist (negative-balance customers), per order
    priority.  The big-big form of ``anti_join_seen``: when the right
    side is too large to broadcast exactly, broadcast a Bloom filter
    instead (``_bloom_ref``).
    Bloom NEGATIVES are definitely not blocked, so they pre-aggregate
    inside the same ``map_batches`` pass and ride the exchange as
    (custkey −1, priority, count) rows — −1 matches no blocklist key;
    only the ~1% of Bloom POSITIVES (true members + false positives)
    ride as rows for the exact verification — ONE ``exchange.cogroup``
    against the real blocklist — making the final result EXACT
    (oracle-checked), with shuffle volume proportional to the
    blocklist, not the corpus."""
    import ray

    nb = _nb_rows(sf_dir, 'orders')  # row-carrying exchange
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def blocked(t: pa.Table) -> pa.Array:
        return pc.less(t["c_acctbal"], pa.scalar(0.0))

    bloom_ref = _bloom_ref(cust, blocked)

    def split_orders(t: pa.Table) -> pa.Table:
        pos = _bloom_test(ray.get(bloom_ref),
                          t["o_custkey"].to_numpy().astype(np.int64))
        keep = t.filter(pa.array(~pos)).group_by("o_orderpriority") \
            .aggregate([("o_custkey", "count")])
        cand = t.filter(pa.array(pos))
        return pa.concat_tables([
            pa.table({"custkey": pa.array(np.full(keep.num_rows, -1, np.int64)),
                      "priority": keep["o_orderpriority"],
                      "n": keep["o_custkey_count"]}),
            pa.table({"custkey": cand["o_custkey"],
                      "priority": cand["o_orderpriority"],
                      "n": pa.array(np.ones(cand.num_rows, np.int64))}),
        ])

    def verify_bucket(cand: pd.DataFrame, block: pd.DataFrame) -> pa.Table:
        ok = cand[~np.isin(cand["custkey"].to_numpy(),
                           block["custkey"].to_numpy())]
        out = ok.groupby("priority", as_index=False, dropna=False)["n"].sum()
        # typed Arrow out-block: an empty bucket otherwise yields an
        # object-dtype pandas column Ray's size estimator can't measure
        return pa.table({
            "priority": pa.array(out["priority"], type=pa.string()),
            "n": pa.array(out["n"].to_numpy(np.int64), type=pa.int64()),
        })

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
    i64 = pa.int64()
    parts = _ex.cogroup([
        (orders, {"custkey": i64, "priority": pa.string(), "n": i64},
         split_orders),
        (cust, {"custkey": i64},
         lambda t: pa.table({"custkey": t.filter(blocked(t))["c_custkey"]})),
    ], "custkey", nb, verify_bucket).to_pandas()
    return _priority_counts(parts)


SQL_BLOOM_ANTI_JOIN = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders
WHERE o_custkey NOT IN (SELECT c_custkey FROM customer WHERE c_acctbal < 0)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def q_corr_qty_price(sf_dir: str):
    """Distributed Pearson correlation / population covariance /
    stddevs of (l_quantity, l_extendedprice) — the two-streaming-pass
    moment recipe (same family as ``bm25_score``'s df pass): pass 1
    reduces per-batch ``(n, Σx, Σy)`` partials to the global means;
    pass 2 sums CENTERED second moments against the broadcast means.
    Centering first avoids the ``nΣxy − ΣxΣy`` catastrophic
    cancellation of the one-pass formula, so the result agrees with
    DuckDB's two-pass aggregates to well past the rounded 6 decimals.
    Values never shuffle; each pass ships ``O(blocks × 4)`` floats."""
    import ray

    cols = ["l_quantity", "l_extendedprice"]

    def p1(t: pa.Table) -> pa.Table:
        return pa.table({
            "n": pa.array([float(t.num_rows)]),
            "sx": pa.array([pc.sum(pc.cast(t["l_quantity"], pa.float64())).as_py() or 0.0]),
            "sy": pa.array([pc.sum(pc.cast(t["l_extendedprice"], pa.float64())).as_py() or 0.0]),
        })

    parts = (
        _read(sf_dir, "lineitem", columns=cols)
        .map_batches(p1, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["n", "sx", "sy"], kind="mergesort")
    )
    n = parts["n"].sum()
    mx, my = parts["sx"].sum() / n, parts["sy"].sum() / n
    ref = ray.put((mx, my))

    def p2(t: pa.Table) -> pa.Table:
        cx, cy = ray.get(ref)
        x = pc.subtract(pc.cast(t["l_quantity"], pa.float64()), pa.scalar(cx))
        y = pc.subtract(pc.cast(t["l_extendedprice"], pa.float64()), pa.scalar(cy))
        return pa.table({
            "sxx": pa.array([pc.sum(pc.multiply(x, x)).as_py() or 0.0]),
            "syy": pa.array([pc.sum(pc.multiply(y, y)).as_py() or 0.0]),
            "sxy": pa.array([pc.sum(pc.multiply(x, y)).as_py() or 0.0]),
        })

    m = (
        _read(sf_dir, "lineitem", columns=cols)
        .map_batches(p2, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["sxx", "syy", "sxy"], kind="mergesort")
        .sum()
    )
    return pd.DataFrame(
        {
            "n_rows": [int(n)],
            "corr_qp": [round(m["sxy"] / np.sqrt(m["sxx"] * m["syy"]), 6)],
            "covar_pop_qp": [round(m["sxy"] / n, 6)],
            "stddev_pop_q": [round(np.sqrt(m["sxx"] / n), 6)],
            "stddev_pop_p": [round(np.sqrt(m["syy"] / n), 6)],
        }
    )


SQL_CORR_QTY_PRICE = """
SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
       round(corr(l_quantity, l_extendedprice), 6) AS corr_qp,
       round(covar_pop(l_quantity, l_extendedprice), 6) AS covar_pop_qp,
       round(stddev_pop(l_quantity), 6) AS stddev_pop_q,
       round(stddev_pop(l_extendedprice), 6) AS stddev_pop_p
FROM lineitem
"""


def _grouped_centered_moments(
    sf_dir: str, powers: tuple[int, ...] = (), with_y: bool = False
):
    """Shared two-pass engine for the grouped moment/regression
    queries over (l_returnflag, l_quantity[, l_extendedprice]):
    pass 1 reduces per-flag ``(n, Σx[, Σy])`` to group means; pass 2
    broadcasts the means and sums CENTERED products per flag —
    ``Σ(x−μx)^p`` for each requested power and, with ``with_y``, the
    regression sums ``Σdx², Σdy², Σdx·dy``.  Centering first kills the
    catastrophic cancellation of raw-power formulas (x⁴ sums overflow
    double precision long before the centered ones do).  Both passes
    are ``exchange.aggregate`` calls; the per-row group mean is an
    ``index_in`` + ``take`` against the tiny flag vector, and each
    pass ships O(blocks × |flags| × |sums|) floats — values never
    shuffle.  Returns ``(flags, ns, mx, my, sums)`` where ``sums``
    maps ``"m{p}"`` / ``"xx"``/``"yy"``/``"xy"`` to per-flag arrays
    (``my`` is None without ``with_y``)."""
    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity"]
               + (["l_extendedprice"] if with_y else []))

    def p1(t: pa.Table) -> pa.Table:
        data = {"f": t["l_returnflag"],
                "x": pc.cast(t["l_quantity"], pa.float64())}
        if with_y:
            data["y"] = pc.cast(t["l_extendedprice"], pa.float64())
        return pa.table(data)

    aggs = {"sx": ("x", "sum"), "n": ("x", "count")}
    if with_y:
        aggs["sy"] = ("y", "sum")
    parts = _ex.aggregate(ds, "f", aggs, p1)
    flags = parts["f"].tolist()
    ns = parts["n"].to_numpy(np.float64)
    mx = (parts["sx"] / parts["n"]).to_numpy(np.float64)
    my = (parts["sy"] / parts["n"]).to_numpy(np.float64) if with_y else None
    fl = pa.array(flags, pa.string())
    names = [f"m{p}" for p in powers] + (["xx", "yy", "xy"] if with_y else [])

    def p2(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["l_returnflag"], value_set=fl)
        dx = pc.subtract(pc.cast(t["l_quantity"], pa.float64()),
                         pc.take(pa.array(mx, pa.float64()), idx))
        cols_out = {"f": t["l_returnflag"]}
        acc = dx
        for p in range(2, max(powers, default=1) + 1):
            acc = pc.multiply(acc, dx)
            if p in powers:
                cols_out[f"m{p}"] = acc
        if with_y:
            dy = pc.subtract(pc.cast(t["l_extendedprice"], pa.float64()),
                             pc.take(pa.array(my, pa.float64()), idx))
            cols_out["xx"] = pc.multiply(dx, dx)
            cols_out["yy"] = pc.multiply(dy, dy)
            cols_out["xy"] = pc.multiply(dx, dy)
        return pa.table(cols_out)

    m = _ex.aggregate(ds, "f", {c: (c, "sum") for c in names}, p2)
    sums = {c: m[c].to_numpy(np.float64) for c in names}
    return flags, ns, mx, my, sums


def q_qty_moments_by_flag(sf_dir: str):
    """Grouped higher-moment statistics: bias-corrected sample
    skewness (G1) and excess kurtosis (G2) of l_quantity per
    l_returnflag — DuckDB's exact ``skewness()`` / ``kurtosis()``
    estimators, reproduced from distributed centered-moment partials:

      G1 = (m3/m2^1.5) · sqrt(n(n−1))/(n−2)
      G2 = ((n+1)(m4/m2² − 3) + 6) · (n−1)/((n−2)(n−3))

    Degenerate groups follow DuckDB's NULL rules (pinned empirically):
    skewness is NULL below n=3 or at zero variance, kurtosis below
    n=4 or at zero variance.  Both engines round to 6 decimals so the
    driver's value hash is exact (the ``corr_qty_price`` discipline)."""
    flags, ns, _, _, s = _grouped_centered_moments(sf_dir, powers=(2, 3, 4))
    with np.errstate(divide="ignore", invalid="ignore"):
        m2, m3, m4 = s["m2"] / ns, s["m3"] / ns, s["m4"] / ns
        g1 = m3 / m2 ** 1.5
        skew = g1 * np.sqrt(ns * (ns - 1.0)) / (ns - 2.0)
        g2 = m4 / m2**2 - 3.0
        kurt = ((ns + 1.0) * g2 + 6.0) * (ns - 1.0) / ((ns - 2.0) * (ns - 3.0))
    skew = np.where((ns < 3) | (m2 <= 0.0), np.nan, skew)
    kurt = np.where((ns < 4) | (m2 <= 0.0), np.nan, kurt)
    return pd.DataFrame({
        "l_returnflag": pd.Series(flags, dtype="object"),
        "n_rows": ns.astype("int64"),
        "skew_qty": np.round(skew, 6),
        "kurt_qty": np.round(kurt, 6),
    })


SQL_QTY_MOMENTS = """
SELECT l_returnflag,
       CAST(COUNT(*) AS BIGINT) AS n_rows,
       round(skewness(l_quantity), 6) AS skew_qty,
       round(kurtosis(l_quantity), 6) AS kurt_qty
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def q_regr_price_qty(sf_dir: str):
    """Grouped simple linear regression of l_extendedprice on
    l_quantity per l_returnflag — slope, intercept and R², i.e.
    DuckDB's ``regr_slope/regr_intercept/regr_r2``, from the shared
    ``_grouped_centered_moments`` engine with the y column enabled:
    slope = Sxy/Sxx, intercept = ȳ − slope·x̄, R² = Sxy²/(Sxx·Syy).

    Degenerate groups follow DuckDB's NULL rules (pinned empirically):
    all three are NULL at zero x-variance; R² is 1.0 at zero
    y-variance (a constant y is fit perfectly).  Rounded to 6
    decimals on both engines."""
    flags, ns, mx, my, s = _grouped_centered_moments(sf_dir, with_y=True)
    sxx, syy, sxy = s["xx"], s["yy"], s["xy"]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(sxx > 0.0, sxy / np.where(sxx > 0.0, sxx, 1.0), np.nan)
        intercept = my - slope * mx
        r2 = np.where(
            sxx <= 0.0, np.nan,
            np.where(syy <= 0.0, 1.0,
                     sxy**2 / np.where((sxx > 0.0) & (syy > 0.0),
                                       sxx * syy, 1.0)),
        )
    return pd.DataFrame({
        "l_returnflag": pd.Series(flags, dtype="object"),
        "n_rows": ns.astype("int64"),
        "slope": np.round(slope, 6),
        "intercept": np.round(intercept, 6),
        "r2": np.round(r2, 6),
    })


SQL_REGR_PRICE_QTY = """
SELECT l_returnflag,
       CAST(COUNT(*) AS BIGINT) AS n_rows,
       round(regr_slope(l_extendedprice, l_quantity), 6) AS slope,
       round(regr_intercept(l_extendedprice, l_quantity), 6) AS intercept,
       round(regr_r2(l_extendedprice, l_quantity), 6) AS r2
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def q_mode_qty_per_flag(sf_dir: str):
    """Group-wise MODE with a deterministic min-value tie-break:
    the most frequent l_quantity per l_returnflag.
    ``exchange.aggregate`` folds ``(flag, qty, count)`` (the key space
    is |flags| × |distinct qty| ≈ tiny, independent of row count);
    the raw rows never shuffle.  Exact integer counts → exact
    oracle."""
    parts = _ex.aggregate(
        _read(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity"]),
        ["l_returnflag", "l_quantity"], {"c": ("l_quantity", "count_all")})
    # min-qty among max-count ties, per flag (deterministic)
    parts = parts.sort_values(
        ["l_returnflag", "c", "l_quantity"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    out = parts.groupby("l_returnflag", as_index=False).first()
    return pd.DataFrame(
        {
            "l_returnflag": out["l_returnflag"],
            "mode_qty": out["l_quantity"].round(2),
            "mode_count": out["c"].astype("int64"),
        }
    ).sort_values("l_returnflag").reset_index(drop=True)


SQL_MODE_QTY_PER_FLAG = """
SELECT l_returnflag,
       round(MIN(l_quantity), 2) AS mode_qty,
       CAST(MAX(c) AS BIGINT) AS mode_count
FROM (
  SELECT l_returnflag, l_quantity,
         COUNT(*) AS c,
         MAX(COUNT(*)) OVER (PARTITION BY l_returnflag) AS mx
  FROM lineitem GROUP BY l_returnflag, l_quantity
)
WHERE c = mx
GROUP BY l_returnflag
ORDER BY l_returnflag
"""


def q_row_number_ntile(sf_dir: str):
    """Global ROW_NUMBER + NTILE(10) over (n_chars, doc_id) WITHOUT a
    global sort: the exact rank decomposes as
    ``rows-before-my-value + within-value rank``.  Pass 1 reduces a
    value-count histogram (O(distinct values) driver state — the
    ``chars_percent_rank`` recipe) whose cumsum gives each value's
    global offset; the within-value tie rank needs all rows of a value
    together, which ONE coarse-bucket shuffle on the value provides
    (a value never straddles buckets).  Total is the only other
    broadcast scalar, so NTILE's uneven-bucket arithmetic is local."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    hist = _ex.aggregate(ds, "n_chars", {"n": ("n_chars", "count_all")})
    total = int(hist["n"].sum())
    offset = dict(zip(hist["n_chars"],
                      hist["n"].cumsum().shift(fill_value=0).astype("int64")))
    k = 10
    q, r = divmod(total, k)
    boundary = r * (q + 1)  # rows in the r first (larger) buckets

    # document rows ride the tie-rank exchange: size from the table
    nbv = _nb_rows(sf_dir, "documents")

    def rank_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_chars", "doc_id"], kind="mergesort")
        tie = g.groupby("n_chars", sort=False).cumcount().to_numpy()
        rn = g["n_chars"].map(offset).to_numpy(np.int64) + tie + 1
        decile = np.where(
            rn <= boundary,
            (rn - 1) // (q + 1) + 1,
            r + (rn - 1 - boundary) // max(q, 1) + 1,
        )
        return pd.DataFrame({
            "doc_id": g["doc_id"].astype("int64"),
            "rn": rn.astype("int64"),
            "decile": decile.astype("int64"),
        })

    out = _ex.to_pandas(_ex.shuffle(ds, "n_chars", nbv, rank_in_bucket),
                        doc_id="int64", rn="int64", decile="int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_ROW_NUMBER_NTILE = """
SELECT doc_id,
       CAST(ROW_NUMBER() OVER (ORDER BY n_chars, doc_id) AS BIGINT) AS rn,
       CAST(NTILE(10) OVER (ORDER BY n_chars, doc_id) AS BIGINT) AS decile
FROM documents ORDER BY doc_id
"""


def q_rolling_avg3(sf_dir: str):
    """Moving average over the previous 3 events per user (ROWS
    BETWEEN 2 PRECEDING AND CURRENT ROW) — the bounded-frame window
    class.  Same single coarse-bucket shuffle as ``q_sessionize``;
    inside a bucket two ``groupby.shift`` lags replace any rolling
    apply, and the sums add in frame order ((lag2+lag1)+v) so the
    float tail matches the oracle's sequential accumulation."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = g.reset_index(drop=True)
        v = g["value"].to_numpy(np.float64)
        by = g.groupby("user_id", sort=False)["value"]
        lag1 = by.shift(1).to_numpy(np.float64)
        lag2 = by.shift(2).to_numpy(np.float64)
        avg3 = np.where(
            ~np.isnan(lag2), ((lag2 + lag1) + v) / 3.0,
            np.where(~np.isnan(lag1), (lag1 + v) / 2.0, v),
        )
        return pd.DataFrame({
            "event_id": g["event_id"].astype("int64"),
            "user_id": g["user_id"].astype("int64"),
            "avg3": avg3,
        })

    out = _ex.shuffle(ds, "user_id", nb, roll).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


SQL_ROLLING_AVG3 = """
SELECT event_id, user_id,
       AVG(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS avg3
FROM events ORDER BY event_id
"""


def q_user_journey(sf_dir: str):
    """Ordered string aggregation: each user's first-5 event-type
    journey ('a>b>c') plus their total event count — the sequence-
    assembly op behind funnel labeling and session mining.  ONE
    user-bucket shuffle; in-bucket the head-5 rows pivot to at most
    five aligned columns and concatenate vectorized (no per-user
    apply loop)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = g.reset_index(drop=True)
        n = g.groupby("user_id", sort=False)["event_id"].transform("size")
        g["k"] = g.groupby("user_id", sort=False).cumcount()
        head = g.loc[g["k"] < 5, ["user_id", "k", "event_type"]]
        wide = head.pivot(index="user_id", columns="k", values="event_type")
        journey = wide[0].copy()  # every user has >= 1 event
        for c in range(1, 5):
            if c in wide.columns:
                seg = ">" + wide[c]
                journey = journey + seg.where(wide[c].notna(), "")
        out = pd.DataFrame({
            "user_id": wide.index.to_numpy(np.int64),
            "journey": journey.to_numpy(),
        })
        nn = g.drop_duplicates("user_id")[["user_id"]].copy()
        nn["n_events"] = n[nn.index].to_numpy(np.int64)
        return out.merge(nn, on="user_id")[["user_id", "n_events", "journey"]]

    out = _ex.shuffle(ds, "user_id", nb, assemble).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


SQL_USER_JOURNEY = """
WITH ranked AS (
  SELECT user_id, event_type,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS n_events
  FROM events)
SELECT user_id,
       CAST(MAX(n_events) AS BIGINT) AS n_events,
       string_agg(event_type, '>' ORDER BY rn) AS journey
FROM ranked WHERE rn <= 5
GROUP BY user_id ORDER BY user_id
"""


def _lang_source_cells(sf_dir: str):
    """The lang × source contingency table of ``documents``, folded by
    ``exchange.aggregate`` (|langs| × |sources| rows).  Returns the
    (lang, source, n) cells and, as float64, the grand total and each
    cell's row total, column total and count."""
    cells = _ex.aggregate(_read(sf_dir, "documents", ["lang", "source"]),
                          ["lang", "source"], {"n": ("lang", "count_all")})
    row_t = cells.groupby("lang")["n"].sum()
    col_t = cells.groupby("source")["n"].sum()
    return (cells, float(cells["n"].sum()),
            cells["lang"].map(row_t).to_numpy(np.float64),
            cells["source"].map(col_t).to_numpy(np.float64),
            cells["n"].to_numpy(np.float64))


def q_chi2_lang_source(sf_dir: str):
    """Chi-square independence table for lang × source: observed
    count, expected count under independence, and the per-cell χ²
    contribution — the corpus-balance diagnostic for mixture design.
    ``exchange.aggregate`` folds the contingency cells (key space
    |langs| × |sources|, independent of row count); every float is a
    product/quotient of exact integer totals, so no summation-order
    ambiguity exists."""
    cells, total, rn, cn, n = _lang_source_cells(sf_dir)
    expected = rn * cn / total
    contrib = (n - expected) ** 2 / expected
    out = pd.DataFrame({
        "lang": cells["lang"],
        "source": cells["source"],
        "n": cells["n"].astype("int64"),
        "expected": expected,
        "contrib": contrib,
    })
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


# the contingency cells with their total, row and column totals, shared
# by the lang × source oracles
_SQL_LANG_SOURCE_CELLS = """WITH c AS (
  SELECT lang, source, COUNT(*) AS n FROM documents GROUP BY lang, source),
t AS (SELECT CAST(SUM(n) AS DOUBLE) AS tot FROM c),
r AS (SELECT lang, CAST(SUM(n) AS DOUBLE) AS rn FROM c GROUP BY lang),
cl AS (SELECT source, CAST(SUM(n) AS DOUBLE) AS cn FROM c GROUP BY source)
SELECT c.lang, c.source, CAST(c.n AS BIGINT) AS n,"""


SQL_CHI2_LANG_SOURCE = f"""
{_SQL_LANG_SOURCE_CELLS}
       r.rn * cl.cn / t.tot AS expected,
       POWER(c.n - r.rn * cl.cn / t.tot, 2) / (r.rn * cl.cn / t.tot) AS contrib
FROM c JOIN r USING (lang) JOIN cl USING (source) CROSS JOIN t
ORDER BY lang, source
"""


def q_mi_lang_source(sf_dir: str):
    """Pointwise mutual information per lang × source cell plus each
    cell's contribution to the global mutual information I(lang;
    source) — the information-theoretic sibling of
    ``q_chi2_lang_source`` (chi² asks "is the mixture independent?",
    MI says "how many nats does knowing the source tell you about the
    language").  Same contingency cells (``_lang_source_cells``,
    |langs| × |sources| rows from ``exchange.aggregate``).  PMI =
    ln(n·total / (rn·cn)) rounded to 6 dp (repo-wide libm convention:
    ln is the one non-exact op; both engines round the same double)."""
    cells, total, rn, cn, n = _lang_source_cells(sf_dir)
    pmi = np.log(n * total / (rn * cn))
    out = pd.DataFrame({
        "lang": cells["lang"],
        "source": cells["source"],
        "n": cells["n"].astype("int64"),
        "pmi": pmi.round(6),
        "mi_part": ((n / total) * pmi).round(6),
    })
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


SQL_MI_LANG_SOURCE = f"""
{_SQL_LANG_SOURCE_CELLS}
       ROUND(LN(c.n * t.tot / (r.rn * cl.cn)), 6) AS pmi,
       ROUND((c.n / t.tot) * LN(c.n * t.tot / (r.rn * cl.cn)), 6) AS mi_part
FROM c JOIN r USING (lang) JOIN cl USING (source) CROSS JOIN t
ORDER BY lang, source
"""


def q_distinct_users_by_type(sf_dir: str):
    """Grouped EXACT distinct count — ``COUNT(DISTINCT user_id)`` per
    event_type — with the shuffle-shrinking discipline the exact path
    needs at 100 TB: ``exchange.aggregate`` groups (event_type,
    user_id) pairs with no aggregate, so each block ships only its
    DISTINCT pairs and the driver merges them; the tally runs over the
    merged pairs.  At 10^10 users the final merge becomes a
    pair-keyed exchange; here the distinct-pair set is driver-sized
    (types × users) by construction.  This is the exact counterpart of
    the HLL ``approx_distinct_users``: same question, exact pairs
    instead of a 2^p-byte sketch, the right trade when the distinct
    set itself is exchange-affordable."""
    pairs = _ex.aggregate(_read(sf_dir, "events", ["event_type", "user_id"]),
                          ["event_type", "user_id"], {})
    return pairs.groupby("event_type", as_index=False, dropna=False) \
        .agg(n_users=("user_id", "count"))


SQL_DISTINCT_USERS_BY_TYPE = """
SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type ORDER BY event_type
"""


def q_sources_per_lang(sf_dir: str):
    """Ordered list/string aggregation — ``STRING_AGG(DISTINCT source
    ORDER BY source)`` per language — the one aggregate class
    (collect-to-list) the registry lacked.  Same discipline as
    ``q_distinct_users_by_type``: ``exchange.aggregate`` merges the
    blocks' distinct (lang, source) pairs, sorted, and the
    join-to-string happens once per group over them.  The result is
    bounded by |langs × sources| — list aggregation is only sane when
    the collected set is."""
    pairs = _ex.aggregate(_read(sf_dir, "documents", ["lang", "source"]),
                          ["lang", "source"], {})
    return pairs.groupby("lang", as_index=False).agg(
        n_sources=("source", "size"), sources=("source", ",".join))


SQL_SOURCES_PER_LANG = """
SELECT lang, CAST(COUNT(DISTINCT source) AS BIGINT) AS n_sources,
       STRING_AGG(DISTINCT source, ',' ORDER BY source) AS sources
FROM documents GROUP BY lang ORDER BY lang
"""


def q_first_last_order(sf_dir: str):
    """Per-customer FIRST_VALUE/LAST_VALUE — the order value of each
    customer's earliest and latest order — via packed argmin/argmax
    combiners: each block keeps ONE (key, price) extreme per customer
    (key = epoch-seconds · 10⁸ + orderkey, a single int64 that totally
    orders (o_orderdate, o_orderkey)), so the groupby exchange carries
    per-block-distinct customers, never order rows.  This is the
    window-function class (FIRST/LAST per partition) expressed as an
    associative aggregate — the form that survives 100 TB, where a
    PARTITION BY ... ORDER BY window would demand a full sort."""
    nb = _nb_rows(sf_dir, 'orders')  # row-carrying exchange
    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sec = df["o_orderdate"].to_numpy().astype("datetime64[s]").astype("int64")
        t = pd.DataFrame({
            "c_custkey": df["o_custkey"].to_numpy("int64"),
            "key": sec * 100_000_000 + df["o_orderkey"].to_numpy("int64"),
            "price": df["o_totalprice"].to_numpy("float64"),
        })
        g = t.groupby("c_custkey")
        imin = g["key"].idxmin()
        imax = g["key"].idxmax()
        # idxmin/idxmax/size all iterate groups in sorted-key order
        return pd.DataFrame({
            "c_custkey": imin.index.to_numpy("int64"),
            "kmin": t.loc[imin, "key"].to_numpy("int64"),
            "first_price": t.loc[imin, "price"].to_numpy("float64"),
            "kmax": t.loc[imax, "key"].to_numpy("int64"),
            "last_price": t.loc[imax, "price"].to_numpy("float64"),
            "n": g.size().to_numpy("int64"),
        })

    # one vectorized combine per custkey bucket (a customer's
    # partials all land in one bucket, so the in-bucket idxmin/idxmax
    # is globally exact) — a raw groupby("c_custkey") would dispatch a
    # Python `final` per customer, O(#customers) interpreter overhead
    def final_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.reset_index(drop=True)
        gb = g.groupby("c_custkey")
        imin = gb["kmin"].idxmin()
        imax = gb["kmax"].idxmax()
        return pd.DataFrame({
            "c_custkey": imin.index.to_numpy("int64"),
            "n_orders": gb["n"].sum().to_numpy("int64"),
            "first_price": g.loc[imin, "first_price"].to_numpy("float64"),
            "last_price": g.loc[imax, "last_price"].to_numpy("float64"),
        })

    out = _ex.to_pandas(
        _ex.shuffle(ds.map_batches(partial, batch_format="pandas"),
                    "c_custkey", nb, final_bucket),
        c_custkey="int64", n_orders="int64", first_price="float64",
        last_price="float64")
    return out.sort_values("c_custkey").reset_index(drop=True)


SQL_FIRST_LAST_ORDER = """
SELECT o_custkey AS c_custkey,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       min_by(o_totalprice,
              CAST(epoch(o_orderdate) AS BIGINT) * 100000000 + o_orderkey
       ) AS first_price,
       max_by(o_totalprice,
              CAST(epoch(o_orderdate) AS BIGINT) * 100000000 + o_orderkey
       ) AS last_price
FROM orders GROUP BY 1 ORDER BY 1
"""


EWMA_ALPHA = 0.3


def q_ewma_value_per_user(sf_dir: str):
    """Exponentially weighted moving average of ``value`` per user in
    event order (α = 0.3, ``adjust=False`` recurrence: y₁ = x₁,
    yₜ = (1−α)·yₜ₋₁ + α·xₜ) — the linear-recurrence *scan* class
    (decayed counters, trend lines) that no associative aggregate
    covers.  Same plan as sessionize: one shuffle onto coarse
    size-derived ``user_id`` buckets, then the per-user scan runs vectorized
    inside the bucket (pandas' cython ``groupby.ewm``); a user's whole
    stream lives in one bucket, so state never crosses tasks.  The
    oracle expands the recurrence to its closed power form — O(n_u²)
    per user is fine for DuckDB at oracle scale, while the engine side
    stays O(n)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = g.reset_index(drop=True)
        ew = (
            g.groupby("user_id", sort=False)["value"]
            .ewm(alpha=EWMA_ALPHA, adjust=False).mean()
            .reset_index(drop=True)
        )
        # round 6 with a shared +1e-9 nudge: with alpha = 0.3 the
        # true ewma is an EXACT DECIMAL, so it lands on x.xxxxx5
        # grid halves where the engines' half-even vs half-away modes
        # (and their ~1e-13 computational skew) disagree — measured:
        # two flipped cells at sf0.01.  Adding the same epsilon on
        # both sides moves the rounding boundary to x.xxxxx5−1e-9, a
        # point the decimal-valued data never occupies, so both
        # engines always round the same way.  The driver's value hash
        # is strict; tolerance lives in the parity test only.
        return pd.DataFrame({
            "user_id": g["user_id"].astype("int64"),
            "event_id": g["event_id"].astype("int64"),
            "ewma_value": np.round(ew.to_numpy(np.float64) + 1e-9, 6),
        })

    out = _ex.shuffle(ds, "user_id", nb, scan).to_pandas()
    return out.sort_values(["user_id", "event_id"]).reset_index(drop=True)


SQL_EWMA_VALUE_PER_USER = f"""
WITH o AS (
  SELECT user_id, event_id, value,
         row_number() OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS rn
  FROM events
)
SELECT a.user_id, a.event_id,
       ROUND(SUM(b.value *
             CASE WHEN b.rn = 1 THEN power({1 - EWMA_ALPHA}, a.rn - 1)
                  ELSE {EWMA_ALPHA} * power({1 - EWMA_ALPHA}, a.rn - b.rn)
             END) + 1e-9, 6) AS ewma_value
FROM o a JOIN o b ON b.user_id = a.user_id AND b.rn <= a.rn
GROUP BY 1, 2 ORDER BY 1, 2
"""


DEBOUNCE_US = 6 * 3600 * 1_000_000  # 6 hours, in timestamp[us] ticks


def q_debounce_events(sf_dir: str):
    """Stateful streaming throttle-dedup (debounce): per user, keep an
    event only when ≥ 6 h have passed since the last KEPT event — the
    recurrence is data-dependent (which events are suppressed depends
    on which were kept), so unlike sessionize no window function
    expresses it.  Bucketed like sessionize (user streams never cross
    tasks); inside a bucket each user's kept set is recovered with an
    output-sensitive ``searchsorted`` hop loop — O(k log n) per user,
    where k is the number of KEPT events, not the stream length.  The
    oracle is the same recurrence as a recursive CTE with a LATERAL
    next-kept probe."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    nb = _nb_rows(sf_dir, "events")  # row-carrying exchange: size fan-out

    def debounce(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = g.reset_index(drop=True)
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        kept = np.zeros(len(g), dtype=bool)
        starts = np.flatnonzero(
            g["user_id"].ne(g["user_id"].shift()).to_numpy()
        )
        bounds = np.append(starts, len(g))
        for s, e in zip(bounds[:-1], bounds[1:]):
            i = s
            while i < e:  # hops kept→kept, not row→row
                kept[i] = True
                i = s + np.searchsorted(ts[s:e], ts[i] + DEBOUNCE_US, "left")
        return pd.DataFrame({
            "user_id": g["user_id"].astype("int64"),
            "event_id": g["event_id"].astype("int64"),
            "kept": kept.astype("int64"),
        })

    out = _ex.shuffle(ds, "user_id", nb, debounce).to_pandas()
    return out.sort_values(["user_id", "event_id"]).reset_index(drop=True)


SQL_DEBOUNCE_EVENTS = """
WITH RECURSIVE o AS (
  SELECT user_id, event_id, ts,
         row_number() OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS rn
  FROM events
), k AS (
  SELECT user_id, event_id, ts, rn FROM o WHERE rn = 1
  UNION ALL
  SELECT n.user_id, n.event_id, n.ts, n.rn
  FROM k JOIN LATERAL (
    SELECT o.user_id, o.event_id, o.ts, o.rn FROM o
    WHERE o.user_id = k.user_id AND o.ts >= k.ts + INTERVAL 6 HOUR
    ORDER BY o.rn LIMIT 1
  ) n ON true
)
SELECT e.user_id, e.event_id,
       CAST(k.event_id IS NOT NULL AS BIGINT) AS kept
FROM events e LEFT JOIN k ON k.event_id = e.event_id
ORDER BY 1, 2
"""


def q_part_cooccurrence(sf_dir: str):
    """Market-basket pair mining: the 100 part pairs most often bought
    together in one order.  Stage 1 shuffles (orderkey, partkey) once
    on coarse orderkey buckets; inside a bucket the pairs fall out
    of one vectorized dedup + self-merge (orders are disjoint across
    buckets, so bucket pair-counts are exact partials that sum).
    Stage 2 re-shuffles the packed ``p1<<32|p2`` partials keyed on
    the pair xor-folded onto its low half (so both partkeys mix into
    the bucket) — the pair
    space grows with the data, so unlike the tiny combiner queries it
    must NOT merge on the driver.  A pair lands in exactly one bucket,
    so the in-bucket pandas sum is the exact global count and each
    bucket emits only its local top-100; the driver merges ≤64×100
    rows.  (A plain Ray ``groupby("pair").sum`` is ~20× slower here:
    its sort-exchange degenerates on a high-cardinality int key,
    68 s vs 3 s at sf0.01.)
    Skew note: the pair blowup per order is C(items,2); baskets are
    bounded (≤7 lineitems per order in this schema), so no salt is
    needed — a power-law basket source would cap or split hot
    orderkeys first."""
    nb = _nb_rows(sf_dir, 'lineitem')  # row-carrying exchange
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["l_orderkey", "l_partkey"]].drop_duplicates()
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        pair = _pack_pairs(m["l_partkey_x"].to_numpy(np.int64),
                           m["l_partkey_y"].to_numpy(np.int64))
        u, c = np.unique(pair, return_counts=True)
        return pd.DataFrame({"pair": u, "c": c.astype(np.int64)})

    def fold(t: pa.Table) -> pa.Table:
        return t.append_column(
            "fold", pc.bit_wise_xor(t["pair"], pc.shift_right(t["pair"], 32)))

    def sum_topk_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("pair", as_index=False)["c"].sum()
        s = s.sort_values(["c", "pair"], ascending=[False, True],
                          kind="mergesort")
        return s.head(100)[["pair", "c"]]

    # no order with two parts: no pair partial
    parts = _ex.to_pandas(
        _ex.shuffle(_ex.shuffle(ds, "l_orderkey", nb, pairs_in_bucket),
                    "fold", nb, sum_topk_in_bucket, combine=fold),
        pair="int64", c="int64")
    parts = parts.sort_values(["c", "pair"], ascending=[False, True],
                              kind="mergesort").head(100)
    pair = parts["pair"].to_numpy(np.int64)
    return pd.DataFrame({
        "p1": pair >> np.int64(32),
        "p2": pair & np.int64(0xFFFFFFFF),
        "pair_count": parts["c"].to_numpy(np.int64),
    })


SQL_PART_COOCCURRENCE = """
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
SELECT a.l_partkey AS p1, b.l_partkey AS p2,
       CAST(COUNT(*) AS BIGINT) AS pair_count
FROM d a JOIN d b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
GROUP BY 1, 2 ORDER BY pair_count DESC, p1, p2 LIMIT 100
"""


def q_welch_t_value(sf_dir: str):
    """Grouped two-sample statistics: Welch's t of ``value`` for each
    event_type against its complement (all other events).  One
    ``exchange.aggregate`` pass of (n, Σv, Σv²) per type — the
    complement's moments fall out of the global totals, so nothing is
    scanned twice and nothing shuffles.  The oracle spells out the
    identical naive-moment algebra so both engines share rounding
    behavior (the ``corr_qty_price`` discipline)."""
    def derive(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"], "v": t["value"],
                         "v2": pc.multiply(t["value"], t["value"])})

    m = _ex.aggregate(_read(sf_dir, "events", ["event_type", "value"]),
                      "event_type", {"s": ("v", "sum"), "ss": ("v2", "sum"),
                                     "n": ("v", "count")}, derive)
    n = m["n"].to_numpy(np.float64)
    s = m["s"].to_numpy(np.float64)
    ss = m["ss"].to_numpy(np.float64)
    N, S, SS = n.sum(), s.sum(), ss.sum()
    mean = s / n
    v = (ss - n * mean**2) / (n - 1.0)
    nc = N - n
    mc = (S - s) / nc
    vc = ((SS - ss) - nc * mc**2) / (nc - 1.0)
    t_w = (mean - mc) / np.sqrt(v / n + vc / nc)
    return pd.DataFrame({
        "event_type": m["event_type"].astype("object"),
        "n_events": m["n"].astype("int64"),
        "mean_value": np.round(mean, 6),
        "t_welch": np.round(t_w, 6),
    })


SQL_WELCH_T = """
WITH s AS (
  SELECT event_type, CAST(COUNT(*) AS DOUBLE) AS n,
         SUM(value) AS sm, SUM(value * value) AS ss
  FROM events GROUP BY 1),
tot AS (SELECT SUM(n) AS n, SUM(sm) AS sm, SUM(ss) AS ss FROM s),
c AS (
  SELECT s.event_type, s.n, s.sm / s.n AS m,
         (s.ss - s.n * pow(s.sm / s.n, 2)) / (s.n - 1) AS v,
         (tot.n - s.n) AS nc,
         (tot.sm - s.sm) / (tot.n - s.n) AS mc,
         ((tot.ss - s.ss)
          - (tot.n - s.n) * pow((tot.sm - s.sm) / (tot.n - s.n), 2))
         / (tot.n - s.n - 1) AS vc
  FROM s, tot)
SELECT event_type, CAST(n AS BIGINT) AS n_events, round(m, 6) AS mean_value,
       round((m - mc) / sqrt(v / n + vc / nc), 6) AS t_welch
FROM c ORDER BY event_type
"""


def q_burstiness_users(sf_dir: str):
    """Per-user inter-arrival statistics (burstiness): count, mean and
    coefficient of variation of the gaps between consecutive events.
    CV≈1 is Poisson arrivals, CV≫1 is bursty — the per-host politeness
    scheduler's admission heuristic, surfaced as a query.  Bucketed
    like ``sessionize`` (coarse user buckets, one shuffle); inside a
    bucket the gap extraction is one vectorized grouped diff.  Users
    with a single event have no gaps and drop out (matching the
    oracle's WHERE); single-gap users get a NULL cv (stddev_samp of
    one value)."""
    nb = _nb_rows(sf_dir, 'events')  # row-carrying exchange
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def stats(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = g.reset_index(drop=True)
        # exact integer µs gaps: round-6 of a float-seconds mean HITS
        # half-even/half-away boundaries (µs-exact gaps make x.xxxxxx5
        # means common — one flipped at sf0.01), so the mean is an
        # unrounded ratio of exact ints and the CV is unitless over µs
        gap = g.groupby("user_id", sort=False)["ts"].diff() \
            / pd.Timedelta(microseconds=1)
        d = pd.DataFrame({"user_id": g["user_id"], "gap_us": gap}).dropna()
        agg = d.groupby("user_id", sort=False)["gap_us"].agg(
            ["count", "sum", "std"]
        ).reset_index()
        n = agg["count"].to_numpy(np.float64)
        su = agg["sum"].to_numpy(np.float64)
        return pd.DataFrame({
            "user_id": agg["user_id"].astype("int64"),
            "n_gaps": agg["count"].astype("int64"),
            "mean_gap_s": su / n / 1e6,
            "cv_gap": np.round(
                agg["std"].to_numpy(np.float64) / (su / n), 6),
        })

    out = _ex.to_pandas(_ex.shuffle(ds, "user_id", nb, stats),
                        user_id="int64", n_gaps="int64",
                        mean_gap_s="float64", cv_gap="float64")
    return out.sort_values("user_id").reset_index(drop=True)


SQL_BURSTINESS_USERS = """
WITH g AS (
  SELECT user_id,
         CAST(date_diff('microsecond', lag(ts) OVER (
           PARTITION BY user_id ORDER BY ts, event_id), ts) AS BIGINT)
           AS gap_us
  FROM events)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_gaps,
       CAST(SUM(gap_us) AS DOUBLE) / COUNT(*) / 1e6 AS mean_gap_s,
       round(stddev_samp(CAST(gap_us AS DOUBLE))
             / (CAST(SUM(gap_us) AS DOUBLE) / COUNT(*)), 6) AS cv_gap
FROM g WHERE gap_us IS NOT NULL GROUP BY user_id ORDER BY user_id
"""


def q_semi_join_vip(sf_dir: str):
    """Big-big SEMI-join (EXISTS) via a Bloom prefilter: orders per
    priority whose customer IS on the VIP list (``c_acctbal > 9000``).
    Mirror image of ``q_bloom_anti_join``: there Bloom NEGATIVES are
    the definite answers; here they are definite NON-members, so they
    drop inside the scan pass and never shuffle.  Only Bloom POSITIVES
    (true members + ~0.24% false positives at m = 16n bits) ride the
    coarse-bucket ``exchange.cogroup`` for exact verification against
    the real list, so the result is EXACT and shuffle volume is
    proportional to the MATCH set, not the corpus — the shape that
    matters when a 100 TB fact table is probed against a 10⁷-row
    dimension.  The verify exchange carries the Bloom-positive rows
    (∝ match set ⊆ orders), so its fan-out sizes from the orders
    bytes."""
    import ray

    nb = _nb_rows(sf_dir, "orders")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def vip(t: pa.Table) -> pa.Array:
        return pc.greater(t["c_acctbal"], pa.scalar(9000.0))

    bloom_ref = _bloom_ref(cust, vip)

    def candidates(t: pa.Table) -> pa.Table:
        keys = t["o_custkey"].to_numpy().astype(np.int64)
        cand = t.filter(pa.array(_bloom_test(ray.get(bloom_ref), keys)))
        return pa.table({"custkey": cand["o_custkey"],
                         "priority": cand["o_orderpriority"]})

    def verify_bucket(cand: pd.DataFrame, vips: pd.DataFrame) -> pd.DataFrame:
        ok = cand[np.isin(cand["custkey"].to_numpy(), vips["custkey"].to_numpy())]
        return ok.groupby("priority", as_index=False, dropna=False) \
            .agg(n=("priority", "size"))

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
    parts = _ex.to_pandas(_ex.cogroup([
        (orders, {"custkey": pa.int64(), "priority": pa.string()}, candidates),
        (cust, {"custkey": pa.int64()},
         lambda t: pa.table({"custkey": t.filter(vip(t))["c_custkey"]})),
    ], "custkey", nb, verify_bucket), priority=object, n="int64")
    return _priority_counts(parts)


SQL_SEMI_JOIN_VIP = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders
WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 9000)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def q_customer_year_setops(sf_dir: str):
    """Distributed set operations (INTERSECT / EXCEPT / UNION-distinct)
    between two derived key sets: customers who ordered in 1995 vs
    1996.  Recipe: per-block DISTINCT (custkey, year-flag) partials →
    ONE custkey bucket exchange (a custkey's rows all land in
    one bucket, so the in-bucket membership classification is globally
    exact) → each bucket emits four partial counts; the driver sums
    ≤ 64·4 rows.  No full-key materialization anywhere — the classic
    "EXCEPT needs both sides sorted" plan becomes one hash exchange of
    the deduped key partials."""
    nb = _nb_rows(sf_dir, 'orders')  # row-carrying exchange
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        yr = pd.DatetimeIndex(df["o_orderdate"]).year.to_numpy()
        out = []
        for y, flag in ((1995, "a"), (1996, "b")):
            keys = df.loc[yr == y, "o_custkey"].drop_duplicates()
            out.append(pd.DataFrame({
                "custkey": keys.to_numpy("int64"),
                "s": flag,
            }))
        return pd.concat(out, ignore_index=True) if out else pd.DataFrame({
            "custkey": pd.Series([], dtype="int64"),
            "s": pd.Series([], dtype=object),
        })

    ops = ["except_95_96", "except_96_95", "intersect", "union_distinct"]

    def classify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["custkey", "s"])
        in_a = pd.Index(d.loc[d["s"] == "a", "custkey"])
        in_b = pd.Index(d.loc[d["s"] == "b", "custkey"])
        n_int = int(in_a.isin(in_b).sum())
        return pd.DataFrame({
            "op": ops,
            "n": pd.Series(
                [len(in_a) - n_int, len(in_b) - n_int, n_int,
                 len(in_a) + len(in_b) - n_int],
                dtype="int64",
            ),
        })

    parts = _ex.to_pandas(
        _ex.shuffle(ds.map_batches(partial, batch_format="pandas"),
                    "custkey", nb, classify_bucket),
        op=object, n="int64",
    )
    # no bucket at all (no order in either year): every count is 0
    n = parts.groupby("op")["n"].sum().reindex(ops, fill_value=0)
    return pd.DataFrame({"op": pd.Series(ops, dtype=object),
                         "n": n.to_numpy(np.int64)})


SQL_CUSTOMER_YEAR_SETOPS = """
WITH y95 AS (SELECT DISTINCT o_custkey FROM orders
             WHERE year(o_orderdate) = 1995),
     y96 AS (SELECT DISTINCT o_custkey FROM orders
             WHERE year(o_orderdate) = 1996)
SELECT 'except_95_96' AS op, CAST(COUNT(*) AS BIGINT) AS n
FROM (SELECT * FROM y95 EXCEPT SELECT * FROM y96)
UNION ALL
SELECT 'except_96_95', CAST(COUNT(*) AS BIGINT)
FROM (SELECT * FROM y96 EXCEPT SELECT * FROM y95)
UNION ALL
SELECT 'intersect', CAST(COUNT(*) AS BIGINT)
FROM (SELECT * FROM y95 INTERSECT SELECT * FROM y96)
UNION ALL
SELECT 'union_distinct', CAST(COUNT(*) AS BIGINT)
FROM (SELECT * FROM y95 UNION SELECT * FROM y96)
ORDER BY op
"""


def q_dense_rank_topk(sf_dir: str):
    """DENSE_RANK-with-ties top-k per group: each customer's orders
    whose price sits in the customer's top-2 DISTINCT price values —
    the window-function shape (rank ≤ k keeps ALL tied rows) that a
    plain per-group top-k cannot express.

    Scale recipe: a block-local dense-rank ≤ k filter is a SAFE
    combiner (a row's rank within any subset containing it is ≤ its
    global rank, so no qualifying row is dropped), shrinking the
    exchange to ≤ k distinct price classes per (block, customer); one
    custkey bucket exchange then ranks exactly — vectorized
    ``groupby.rank(method="dense")``, never a per-customer Python
    dispatch."""
    nb = _nb_rows(sf_dir, 'orders')  # row-carrying exchange
    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderkey", "o_totalprice"])
    K = 2

    def local_filter(df: pd.DataFrame) -> pd.DataFrame:
        rk = df.groupby("o_custkey")["o_totalprice"].rank(
            method="dense", ascending=False)
        return df.loc[rk <= K, ["o_custkey", "o_orderkey", "o_totalprice"]]

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.reset_index(drop=True)
        rk = g.groupby("o_custkey")["o_totalprice"].rank(
            method="dense", ascending=False)
        out = g.loc[rk <= K, ["o_custkey", "o_orderkey", "o_totalprice"]]
        out = out.copy()
        out["drk"] = rk[rk <= K].astype("int64").to_numpy()
        return out

    out = _ex.to_pandas(
        _ex.shuffle(ds.map_batches(local_filter, batch_format="pandas"),
                    "o_custkey", nb, rank_bucket),
        o_custkey="int64", o_orderkey="int64", o_totalprice="float64",
        drk="int64",
    ).rename(columns={"o_custkey": "c_custkey"})
    out["o_totalprice"] = out["o_totalprice"].round(2)
    return (
        out.sort_values(["c_custkey", "drk", "o_orderkey"])
        .reset_index(drop=True)
    )


SQL_DENSE_RANK_TOPK = """
SELECT o_custkey AS c_custkey, o_orderkey,
       ROUND(o_totalprice, 2) AS o_totalprice,
       CAST(drk AS BIGINT) AS drk
FROM (SELECT o_custkey, o_orderkey, o_totalprice,
             DENSE_RANK() OVER (PARTITION BY o_custkey
                                ORDER BY o_totalprice DESC) AS drk
      FROM orders)
WHERE drk <= 2
ORDER BY c_custkey, drk, o_orderkey
"""


def _pareto_filter(df: pd.DataFrame) -> pd.DataFrame:
    """Vectorized 2-D skyline sweep: keep rows not dominated on
    (minimize p_size, maximize p_retailprice).  A row is dominated iff
    a strictly smaller size reaches price >= p (``m_lt``) or any
    size <= s reaches price > p (``m_le``); both maxima come from one
    per-size prefix cummax — no pairwise O(n²) comparison."""
    d = df.sort_values(["p_size", "p_retailprice"], ascending=[True, False])
    per_size = d.groupby("p_size")["p_retailprice"].max()
    prefix = per_size.cummax()
    m_le = d["p_size"].map(prefix)
    m_lt = d["p_size"].map(prefix.shift(1))
    price = d["p_retailprice"]
    dominated = (m_lt.notna() & (m_lt >= price)) | (m_le > price)
    return d.loc[~dominated]


def q_skyline_pareto(sf_dir: str):
    """Pareto frontier (skyline) over parts: cheapest-for-smallest —
    the parts no other part beats on BOTH (size lower-or-equal,
    retail price higher-or-equal, strictly better in one).

    Scale recipe: the block-local skyline filter is a SAFE combiner —
    a globally non-dominated row is non-dominated in every subset
    containing it, so no answer row is dropped — and shrinks each
    block to its local frontier (tiny: bounded by the number of
    distinct sizes for 2-D skylines).  The survivors (O(#blocks ×
    frontier), thousands at most regardless of corpus size) take one
    final exact sweep; the corpus itself never shuffles."""
    ds = _read(sf_dir, "part", ["p_partkey", "p_size", "p_retailprice"])

    survivors = (
        ds.map_batches(_pareto_filter, batch_format="pandas").to_pandas()
    )
    out = _pareto_filter(survivors)
    return (
        pd.DataFrame({
            "p_partkey": out["p_partkey"].astype("int64"),
            "p_size": out["p_size"].astype("int64"),
            "p_retailprice": out["p_retailprice"].round(2),
        })
        .sort_values(["p_size", "p_partkey"])
        .reset_index(drop=True)
    )


SQL_SKYLINE_PARETO = """
SELECT p_partkey, CAST(p_size AS BIGINT) AS p_size,
       ROUND(p_retailprice, 2) AS p_retailprice
FROM part p
WHERE NOT EXISTS (
  SELECT 1 FROM part q
  WHERE q.p_size <= p.p_size AND q.p_retailprice >= p.p_retailprice
    AND (q.p_size < p.p_size OR q.p_retailprice > p.p_retailprice))
ORDER BY p_size, p_partkey
"""


def q_merge_intervals(sf_dir: str):
    """Gaps-and-islands interval coverage: each event opens a 300 s
    activity window; overlapping/touching windows per user merge into
    islands, reporting islands and total covered time per user — the
    classic sessionized-coverage shape (SQL needs two window passes).

    Scale recipe: ONE user bucket exchange (a user's events all
    land in one bucket, so the in-bucket island sweep is globally
    exact); inside the bucket everything is vectorized pandas — sorted
    per-user cummax of window ends, shift, break-flag cumsum for
    island ids, one groupby for (min start, max end).  No window
    function ever sees more than a bucket, and the driver receives one
    row per user."""
    nb = _nb_rows(sf_dir, 'events')  # row-carrying exchange
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    WIN = pd.Timedelta(seconds=300)

    def islands(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"]).reset_index(drop=True)
        g["end"] = g["ts"] + WIN
        g["cme"] = g.groupby("user_id")["end"].cummax()
        prev = g.groupby("user_id")["cme"].shift(1)
        brk = prev.isna() | (g["ts"] > prev)
        g["gid"] = brk.cumsum()  # users are contiguous post-sort
        isl = g.groupby(["user_id", "gid"], as_index=False).agg(
            s=("ts", "min"), e=("end", "max"))
        cov_us = (isl["e"] - isl["s"]).to_numpy("timedelta64[us]").astype("int64")
        return (
            isl.assign(cov_us=cov_us)
            .groupby("user_id", as_index=False)
            .agg(n_islands=("gid", "size"), covered_us=("cov_us", "sum"))
        )

    out = _ex.to_pandas(_ex.shuffle(ds, "user_id", nb, islands),
                        user_id="int64", n_islands="int64",
                        covered_us="int64")
    return out.sort_values("user_id").reset_index(drop=True)


SQL_MERGE_INTERVALS = """
WITH iv AS (
  SELECT user_id, ts AS s, ts + INTERVAL 300 SECOND AS e FROM events
), m AS (
  SELECT user_id, s, e,
         MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prev_max_e
  FROM iv
), f AS (
  SELECT user_id, s, e,
         CASE WHEN prev_max_e IS NULL OR s > prev_max_e
              THEN 1 ELSE 0 END AS brk
  FROM m
), g AS (
  SELECT user_id, s, e,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY s, e
                        ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
           AS gid
  FROM f
), isl AS (
  SELECT user_id, gid, MIN(s) AS s, MAX(e) AS e FROM g
  GROUP BY user_id, gid
)
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_islands,
       CAST(SUM(date_diff('microsecond', s, e)) AS BIGINT) AS covered_us
FROM isl GROUP BY user_id ORDER BY user_id
"""


QUERIES = {
    "pricing_summary": q_pricing_summary,
    "groupby_count": q_groupby_count,
    "distinct_values": q_distinct,
    "min_max_dates": q_min_max_dates,
    "topk_orders": q_topk_orders,
    "limit_window": q_limit_window,
    "filter_range_agg": q_filter_range_agg,
    "broadcast_join": q_broadcast_join,
    "join_agg": q_join_agg,
    "supplier_region": q_supplier_region,
    "brand_revenue": q_brand_revenue,
    "anti_join_seen": q_anti_join,
    "topk_per_user": q_topk_per_user,
    "resequence_ordem": q_resequence,
    "hourly_window": q_hourly_window,
    "sliding_window": q_sliding_window,
    "slugify_kernel": q_slugify,
    "digits_only_kernel": q_digits_only,
    "zero_pad_kernel": q_zero_pad,
    "currency_brl_kernel": q_currency_brl,
    "date_render_kernel": q_date_render,
    "json_props_extract": q_json_props,
    "reason_histogram": q_reason_histogram,
    "asof_join": q_asof_join,
    "range_join": q_range_join,
    "hash_split": q_hash_split,
    "stratified_sample": q_stratified_sample,
    "weighted_sample": q_weighted_sample,
    "sessionize": q_sessionize,
    "event_dwell": q_event_dwell,
    "cohort_matrix": q_cohort_matrix,
    "big_spenders": q_big_spenders,
    "concentration_stats": q_concentration_stats,
    "assoc_rules": q_assoc_rules,
    "drawdown_value_per_user": q_drawdown_value_per_user,
    "purchase_id_islands": q_purchase_id_islands,
    "session_stats": q_session_stats,
    "session_type_pairs": q_session_type_pairs,
    "ltv_by_cohort": q_ltv_by_cohort,
    "region_year_revenue": q_region_year_revenue,
    "hourly_dense_counts": q_hourly_dense_counts,
    "ks_two_sources": q_ks_two_sources,
    "rolling_daily_revenue_p50": q_rolling_daily_revenue_p50,
    "longest_streak_per_user": q_longest_streak_per_user,
    "median_order_gap": q_median_order_gap,
    "abc_classification": q_abc_classification,
    "value_outliers_topk": q_value_outliers_topk,
    "supplier_concentration": q_supplier_concentration,
    "weekday_profile": q_weekday_profile,
    "monthly_seasonality": q_monthly_seasonality,
    "revenue_reconciliation": q_revenue_reconciliation,
    "weekly_churn": q_weekly_churn,
    "pareto_8020": q_pareto_8020,
    "join_coverage_audit": q_join_coverage_audit,
    "attribution_first_touch": q_attribution_first_touch,
    "orders_per_customer_hist": q_orders_per_customer_hist,
    "hash_reservoir_sample": q_hash_reservoir_sample,
    "price_cv_topk": q_price_cv_topk,
    "top_paths": q_top_paths,
    "weekly_revenue_wow": q_weekly_revenue_wow,
    "ship_latency_by_priority": q_ship_latency_by_priority,
    "path_to_purchase": q_path_to_purchase,
    "token_histogram": q_token_histogram,
    "hash_join_big": q_hash_join_big,
    "segment_year_revenue": q_segment_year_revenue,
    "left_join_counts": q_left_join_counts,
    "zscore_events": q_zscore_events,
    "distinct_users_by_type": q_distinct_users_by_type,
    "sources_per_lang": q_sources_per_lang,
    "first_last_order": q_first_last_order,
    "ewma_value_per_user": q_ewma_value_per_user,
    "debounce_events": q_debounce_events,
    "rollup_revenue": q_rollup_revenue,
    "pivot_status": q_pivot_status,
    "chars_percent_rank": q_chars_percent_rank,
    "running_total": q_running_total,
    "order_gap_days": q_order_gap_days,
    "corr_qty_price": q_corr_qty_price,
    "qty_moments_by_flag": q_qty_moments_by_flag,
    "regr_price_qty": q_regr_price_qty,
    "mode_qty_per_flag": q_mode_qty_per_flag,
    "bloom_anti_join": q_bloom_anti_join,
    "cube_revenue": q_cube_revenue,
    "row_number_ntile": q_row_number_ntile,
    "rolling_avg3": q_rolling_avg3,
    "user_journey": q_user_journey,
    "chi2_lang_source": q_chi2_lang_source,
    "mi_lang_source": q_mi_lang_source,
    "part_cooccurrence": q_part_cooccurrence,
    "welch_t_value": q_welch_t_value,
    "burstiness_users": q_burstiness_users,
    "semi_join_vip": q_semi_join_vip,
    "customer_year_setops": q_customer_year_setops,
    "dense_rank_topk": q_dense_rank_topk,
    "skyline_pareto": q_skyline_pareto,
    "merge_intervals": q_merge_intervals,
}

ORACLE_SQL = {
    "pricing_summary": SQL_PRICING,
    "groupby_count": SQL_GROUPBY_COUNT,
    "distinct_values": SQL_DISTINCT,
    "min_max_dates": SQL_MIN_MAX,
    "topk_orders": SQL_TOPK,
    "limit_window": SQL_LIMIT_WINDOW,
    "filter_range_agg": SQL_FILTER_RANGE,
    "broadcast_join": SQL_BROADCAST_JOIN,
    "join_agg": SQL_JOIN_AGG,
    "supplier_region": SQL_SUPPLIER_REGION,
    "brand_revenue": SQL_BRAND_REVENUE,
    "anti_join_seen": SQL_ANTI_JOIN,
    "topk_per_user": SQL_TOPK_PER_USER,
    "resequence_ordem": SQL_RESEQUENCE,
    "hourly_window": SQL_HOURLY_WINDOW,
    "sliding_window": SQL_SLIDING_WINDOW,
    "slugify_kernel": SQL_SLUGIFY,
    "digits_only_kernel": SQL_DIGITS_ONLY,
    "zero_pad_kernel": SQL_ZERO_PAD,
    "currency_brl_kernel": SQL_CURRENCY_BRL,
    "date_render_kernel": SQL_DATE_RENDER,
    "json_props_extract": SQL_JSON_PROPS,
    "reason_histogram": SQL_REASON_HISTOGRAM,
    "asof_join": SQL_ASOF_JOIN,
    "range_join": SQL_RANGE_JOIN,
    "hash_split": SQL_HASH_SPLIT,
    "stratified_sample": SQL_STRATIFIED_SAMPLE,
    "weighted_sample": SQL_WEIGHTED_SAMPLE,
    "sessionize": SQL_SESSIONIZE,
    "event_dwell": SQL_EVENT_DWELL,
    "cohort_matrix": SQL_COHORT_MATRIX,
    "big_spenders": SQL_BIG_SPENDERS,
    "concentration_stats": SQL_CONCENTRATION_STATS,
    "assoc_rules": SQL_ASSOC_RULES,
    "drawdown_value_per_user": SQL_DRAWDOWN,
    "purchase_id_islands": SQL_PURCHASE_ID_ISLANDS,
    "session_stats": SQL_SESSION_STATS,
    "session_type_pairs": SQL_SESSION_TYPE_PAIRS,
    "ltv_by_cohort": SQL_LTV_BY_COHORT,
    "region_year_revenue": SQL_REGION_YEAR_REVENUE,
    "hourly_dense_counts": SQL_HOURLY_DENSE_COUNTS,
    "ks_two_sources": SQL_KS_TWO_SOURCES,
    "rolling_daily_revenue_p50": SQL_ROLLING_DAILY_P50,
    "longest_streak_per_user": SQL_LONGEST_STREAK,
    "median_order_gap": SQL_MEDIAN_ORDER_GAP,
    "abc_classification": SQL_ABC_CLASSIFICATION,
    "value_outliers_topk": SQL_VALUE_OUTLIERS_TOPK,
    "supplier_concentration": SQL_SUPPLIER_CONCENTRATION,
    "weekday_profile": SQL_WEEKDAY_PROFILE,
    "monthly_seasonality": SQL_MONTHLY_SEASONALITY,
    "revenue_reconciliation": SQL_REVENUE_RECONCILIATION,
    "weekly_churn": SQL_WEEKLY_CHURN,
    "pareto_8020": SQL_PARETO_8020,
    "join_coverage_audit": SQL_JOIN_COVERAGE_AUDIT,
    "attribution_first_touch": SQL_ATTRIBUTION_FIRST_TOUCH,
    "orders_per_customer_hist": SQL_ORDERS_PER_CUSTOMER_HIST,
    "hash_reservoir_sample": SQL_HASH_RESERVOIR_SAMPLE,
    "price_cv_topk": SQL_PRICE_CV_TOPK,
    "top_paths": SQL_TOP_PATHS,
    "weekly_revenue_wow": SQL_WEEKLY_REVENUE_WOW,
    "ship_latency_by_priority": SQL_SHIP_LATENCY,
    "path_to_purchase": SQL_PATH_TO_PURCHASE,
    "token_histogram": SQL_TOKEN_HISTOGRAM,
    "hash_join_big": SQL_HASH_JOIN_BIG,
    "segment_year_revenue": SQL_SEGMENT_YEAR_REVENUE,
    "left_join_counts": SQL_LEFT_JOIN_COUNTS,
    "zscore_events": SQL_ZSCORE_EVENTS,
    "distinct_users_by_type": SQL_DISTINCT_USERS_BY_TYPE,
    "sources_per_lang": SQL_SOURCES_PER_LANG,
    "first_last_order": SQL_FIRST_LAST_ORDER,
    "ewma_value_per_user": SQL_EWMA_VALUE_PER_USER,
    "debounce_events": SQL_DEBOUNCE_EVENTS,
    "rollup_revenue": SQL_ROLLUP_REVENUE,
    "pivot_status": SQL_PIVOT_STATUS,
    "chars_percent_rank": SQL_CHARS_PERCENT_RANK,
    "running_total": SQL_RUNNING_TOTAL,
    "order_gap_days": SQL_ORDER_GAP_DAYS,
    "corr_qty_price": SQL_CORR_QTY_PRICE,
    "qty_moments_by_flag": SQL_QTY_MOMENTS,
    "regr_price_qty": SQL_REGR_PRICE_QTY,
    "mode_qty_per_flag": SQL_MODE_QTY_PER_FLAG,
    "bloom_anti_join": SQL_BLOOM_ANTI_JOIN,
    "cube_revenue": SQL_CUBE_REVENUE,
    "row_number_ntile": SQL_ROW_NUMBER_NTILE,
    "rolling_avg3": SQL_ROLLING_AVG3,
    "user_journey": SQL_USER_JOURNEY,
    "chi2_lang_source": SQL_CHI2_LANG_SOURCE,
    "mi_lang_source": SQL_MI_LANG_SOURCE,
    "part_cooccurrence": SQL_PART_COOCCURRENCE,
    "welch_t_value": SQL_WELCH_T,
    "burstiness_users": SQL_BURSTINESS_USERS,
    "semi_join_vip": SQL_SEMI_JOIN_VIP,
    "customer_year_setops": SQL_CUSTOMER_YEAR_SETOPS,
    "dense_rank_topk": SQL_DENSE_RANK_TOPK,
    "skyline_pareto": SQL_SKYLINE_PARETO,
    "merge_intervals": SQL_MERGE_INTERVALS,
}
