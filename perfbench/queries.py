"""The ``query_mix`` workload: a fixed list of registry queries run one
after another (a closed loop of one client), checked against their
DuckDB oracles, plus the query-layer tracer used by ``--trace 1``.

The tracer wraps Ray Data's public execution triggers and, after each
one, reads the executed plan's statistics (the object behind
``Dataset.stats()``).  Every operator's task time is filed under one
kind: reads are *scan*, maps before the first all-to-all operator are
*combine*, all-to-all operators are *exchange*, and maps after one are
*finalize*.  Wall time of a query outside every trigger is the
*driver reduce*.
"""

from __future__ import annotations

import statistics
import threading
import time

# The split comes from a traced run: each of the 22 EXCHANGE_BOUND
# queries runs at least one all-to-all operator (sort-based groupby,
# hash join), and its post-exchange finalize carries most of its task
# time; none of the 18 SCAN_BOUND queries runs one.  The split is 22/18
# rather than 20/20 so that the median query latency falls inside the
# dense exchange-bound cluster, not on the gap between the two clusters.
# The heaviest exchange queries of the full suite (segment_year_revenue,
# dedup_jaccard_prefix, region_year_revenue, assoc_rules, semdedup) are
# left out to keep one pass near 15 s on 4 CPUs.  ``value_histogram`` is left out on purpose:
# it raises on every run at this commit, and a later fix to it must not
# read as a slower suite.
EXCHANGE_BOUND = [
    "hash_join_big", "abc_classification", "customer_year_setops",
    "triangle_count", "semi_join_vip", "top_paths", "topk_per_user",
    "running_total", "dense_rank_topk", "purchase_id_islands",
    "sample_to_budget", "lang_id_confusion", "concentration_stats",
    "vocab_growth",
    "orders_per_customer_hist", "pareto_8020", "price_cv_topk",
    "edge_reciprocity", "event_dwell", "bfs_hops", "rolling_avg3",
    "supplier_concentration",
]
SCAN_BOUND = [
    "token_count", "text_quality", "pii_redact", "c4_filters",
    "pack_sequences", "text_ttr", "char_class_profile", "weekday_profile",
    "hourly_window", "doc_fingerprint", "repetition_stats", "line_filter",
    "chi2_lang_source", "cube_revenue", "gopher_rules", "mi_lang_source",
    "skyline_pareto", "lang_purity_by_source",
]
QUERY_MIX = EXCHANGE_BOUND + SCAN_BOUND


def frames_equal(mine, ref) -> bool:
    """Strict comparison: same columns, same row count, and equal rows
    after casting every value to ``str`` and sorting."""
    a = mine[sorted(mine.columns)].reset_index(drop=True)
    b = ref[sorted(ref.columns)].reset_index(drop=True)
    if len(a) != len(b) or list(a.columns) != list(b.columns):
        return False
    cols = list(a.columns)
    sa = a.astype(str).sort_values(cols, kind="mergesort").reset_index(drop=True)
    sb = b.astype(str).sort_values(cols, kind="mergesort").reset_index(drop=True)
    return bool(sa.equals(sb))


class Oracle:
    """DuckDB views over the tables; each query's expected frame is
    computed once and cached.  Queries without oracle SQL fall back to
    the row count of their first result."""

    def __init__(self, sf_dir: str, tables: list[str], sql: dict[str, str]):
        import duckdb

        self.con = duckdb.connect()
        for t in tables:
            self.con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
        self.sql = sql
        self.expected: dict = {}

    def check(self, name: str, result) -> str | None:
        """None when ``result`` is right, else a short reason."""
        if name not in self.expected:
            if name in self.sql:
                self.expected[name] = self.con.execute(self.sql[name]).df()
            else:
                self.expected[name] = len(result)
        ref = self.expected[name]
        if isinstance(ref, int):
            return None if len(result) == ref else f"rows {len(result)} != {ref}"
        return None if frames_equal(result, ref) else "differs from DuckDB oracle"

    def close(self) -> None:
        self.con.close()


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

TRIGGERS = ["to_pandas", "materialize", "take_all", "iter_batches",
            "count", "write_parquet"]
_ALL_TO_ALL = ("Sort", "Aggregate", "Repartition", "RandomShuffle", "Join",
               "HashShuffle", "HashAggregate", "Zip")


def _is_read(name: str) -> bool:
    return name.startswith(("Read", "FromPandas", "FromArrow", "FromItems",
                            "FromNumpy", "InputDataBuffer"))


class QueryTracer:
    """Wraps the Dataset triggers while active.  Only the outermost
    trigger of a nested call (``to_pandas`` runs ``iter_batches``) is
    timed, and an executed plan node is counted once per query."""

    def __init__(self):
        self._local = threading.local()
        self._saved: dict = {}
        self.reset()

    def reset(self) -> None:
        self.in_trigger_s = 0.0
        self.kind_s = {"scan": 0.0, "combine": 0.0, "exchange": 0.0,
                       "finalize": 0.0}
        self.exchanges = 0
        self.skews: list[float] = []
        self._seen: set[int] = set()
        self._keep: list = []  # hold nodes so ids stay unique

    def __enter__(self):
        from ray.data import Dataset

        for name in TRIGGERS:
            orig = getattr(Dataset, name)
            self._saved[name] = orig
            setattr(Dataset, name, self._wrap(name, orig))
        return self

    def __exit__(self, *exc):
        from ray.data import Dataset

        for name, orig in self._saved.items():
            setattr(Dataset, name, orig)
        self._saved.clear()

    def _wrap(self, name, orig):
        tracer = self

        def gen_wrapper(ds, it, t0):
            try:
                yield from it
            finally:
                tracer._done(ds, t0)

        def wrapper(ds, *args, **kwargs):
            depth = getattr(tracer._local, "depth", 0)
            if depth:
                return orig(ds, *args, **kwargs)
            tracer._local.depth = 1
            t0 = time.perf_counter()
            try:
                out = orig(ds, *args, **kwargs)
            except BaseException:
                tracer._local.depth = 0
                tracer.in_trigger_s += time.perf_counter() - t0
                raise
            if name == "iter_batches":
                # the work happens while the caller iterates
                return gen_wrapper(ds, out, t0)
            tracer._done(out if name == "materialize" else ds, t0)
            return out

        return wrapper

    def _done(self, ds, t0: float) -> None:
        self._local.depth = 0
        self.in_trigger_s += time.perf_counter() - t0
        try:
            stats = ds._plan.stats()
        except Exception:
            return
        self._file(stats)

    def _file(self, root) -> None:
        """Walk the stats tree upstream-first and file each operator."""
        order: list = []

        def walk(node):
            if id(node) in self._seen:
                return
            self._seen.add(id(node))
            self._keep.append(node)
            for p in getattr(node, "parents", []) or []:
                walk(p)
            order.append(node)

        walk(root)
        after_exchange = False
        for node in order:
            meta = getattr(node, "metadata", {}) or {}
            names = list(meta)
            if not names:
                continue
            task_s = {n: sum((b.exec_stats.wall_time_s or 0.0)
                             for b in meta[n] if b.exec_stats is not None)
                      for n in names}
            all_to_all = len(names) > 1 or names[0].startswith(_ALL_TO_ALL)
            if all_to_all:
                self.exchanges += 1
                self.kind_s["exchange"] += sum(task_s.values())
                rows = [b.num_rows or 0 for b in meta[names[-1]]]
                mean = statistics.fmean(rows) if rows else 0.0
                if mean > 0:
                    self.skews.append(max(rows) / mean)
                after_exchange = True
                continue
            name = names[0]
            kind = ("scan" if _is_read(name)
                    else "finalize" if after_exchange else "combine")
            self.kind_s[kind] += task_s[name]

    def new_query(self) -> None:
        self._local.depth = 0
        self._seen.clear()
        self._keep.clear()
