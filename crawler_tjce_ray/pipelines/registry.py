"""The driver-facing query registry: name → callable(sf_dir) plus the
matching DuckDB oracle SQL.

Queries whose semantics DuckDB can express carry an oracle; genuinely
non-SQL pipelines (DSR extraction, crawl traces, sketches) are listed
without one and get the driver's rows-only check.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def build_queries() -> dict[str, Callable[[str], Any]]:
    out: dict[str, Callable[[str], Any]] = {}

    # crawl/extraction pipelines over the synthetic pages corpus
    # (non-SQL: the DSR wire format is not expressible in DuckDB)
    def _pages(sf_dir: str) -> str:
        from crawler_tjce_ray.sources.pages import corpus_cache_dir

        return corpus_cache_dir(n_entities=8, total_pages=40, rows_per_page=50, seed=42)

    def q_extract_precatorios(sf_dir: str):
        from crawler_tjce_ray.pipelines.extract_all import run_flagship

        return run_flagship(_pages(sf_dir), current_year=2026)

    def q_extract_editais(sf_dir: str):
        from crawler_tjce_ray.pipelines.extract_all import assign_global_ordem, extract_records

        # editais serve ordem-DESC (O2); later pages hold the lowest
        # ordem, so the global resequencing walks pages DESCENDING to
        # end ordem-ascending like the reference's client re-sort (O3)
        return assign_global_ordem(
            extract_records(_pages(sf_dir), "editais"), descending_pages=True
        )

    def q_extract_pagamentos(sf_dir: str):
        from crawler_tjce_ray.pipelines.extract_all import assign_global_ordem, extract_records

        return assign_global_ordem(extract_records(_pages(sf_dir), "pagamentos"))

    def q_pages_min_ts(sf_dir: str):
        """S5 parity (edital last-updated probe): global min over the
        pages table's warc_ts through ``exchange.aggregate``."""
        from crawler_tjce_ray.pipelines.exchange import aggregate
        from crawler_tjce_ray.sources.pages import read_pages

        return aggregate(read_pages(_pages(sf_dir), columns=["warc_ts"]), [],
                         {"min_warc_ts": ("warc_ts", "min")})

    def q_pages_lang_hist(sf_dir: str):
        """Language histogram over the pages corpus (exercises the
        input_hint ``lang`` column) through ``exchange.aggregate``."""
        from crawler_tjce_ray.pipelines.exchange import aggregate
        from crawler_tjce_ray.sources.pages import read_pages

        return aggregate(read_pages(_pages(sf_dir), columns=["lang"]), "lang",
                         {"n": ("lang", "count_all")})

    def _crawl_run(sf_dir: str):
        """One deterministic wave crawl over the small corpus, memoized
        per process and shared by the trace and metrics queries.  The
        workdir is process-private (mkdtemp): a shared path would let
        concurrent driver/bench/test processes wipe each other's
        checkpoints mid-crawl."""
        import tempfile

        from crawler_tjce_ray.pipelines.crawl import CrawlConfig, run_crawl

        if not hasattr(_crawl_run, "_memo"):
            workdir = tempfile.mkdtemp(prefix="tjce_trace_query_")
            cfg = CrawlConfig(wave_size=64, per_host_budget=8, max_waves=60,
                              fetch_concurrency=2)
            _crawl_run._memo = run_crawl(_pages(sf_dir), workdir, config=cfg)
        return _crawl_run._memo

    def q_crawl_trace(sf_dir: str):
        """The frontier engine end-to-end, surfaced as data: the full
        lineage trace (wave, order_in_wave, url, seed, status) — the
        crawl-order contract as a queryable table."""
        return _crawl_run(sf_dir).trace.reset_index(drop=True).copy()

    def q_crawl_metrics(sf_dir: str):
        """T8 metrics surface (reference analog: the per-entity
        Prometheus counters, metrics.py:6-70): per-wave engine counters
        in long form (wave, metric, value) plus the pool-merged
        per-actor lifetime counters as wave = -1 ``actors_*`` rows
        (fetched/denied/failed-page/retry/cache counts)."""
        import pandas as pd

        res = _crawl_run(sf_dir)
        rows = []
        for m in res.metrics:
            w = int(m["wave"])
            for k, v in m.items():
                if k != "wave":
                    rows.append((w, k, float(v)))
        for k, v in sorted(res.actor_stats.items()):
            rows.append((-1, f"actors_{k}", float(v)))
        out = pd.DataFrame(rows, columns=["wave", "metric", "value"])
        out["wave"] = out["wave"].astype("int64")
        return out.sort_values(["wave", "metric"]).reset_index(drop=True)

    def q_extract_entities(sf_dir: str):
        """S4/K4 end-to-end: decoded entity list + slugs (rows-only —
        the distinct-values wire format has no SQL analog).  Shape of
        the reference's data/entidades_tjce.csv + the slug mapping of
        get_and_save_entities."""
        from crawler_tjce_ray.pipelines.extract_all import extract_entities

        return extract_entities(_pages(sf_dir))

    out["crawl_extract_entities"] = q_extract_entities
    out["crawl_extract_precatorios"] = q_extract_precatorios
    out["crawl_extract_editais"] = q_extract_editais
    out["crawl_extract_pagamentos"] = q_extract_pagamentos
    out["crawl_pages_min_ts"] = q_pages_min_ts
    out["crawl_pages_lang_hist"] = q_pages_lang_hist
    out["crawl_trace"] = q_crawl_trace
    out["crawl_metrics"] = q_crawl_metrics

    from crawler_tjce_ray.pipelines import (
        bpe, clustering, dedup, fuzzy, graph, relational, similarity,
        sketches, textops, training, webtext,
    )
    from crawler_tjce_ray.stages import multimodal

    out.update(relational.QUERIES)
    out.update(fuzzy.QUERIES)
    out.update(training.QUERIES)
    out.update(graph.QUERIES)
    out.update(dedup.QUERIES)
    out.update(similarity.QUERIES)
    out.update(textops.QUERIES)
    out.update(webtext.QUERIES)
    out.update(multimodal.QUERIES)
    out.update(sketches.QUERIES)
    out.update(bpe.QUERIES)
    out.update(clustering.QUERIES)
    return _rotate_for_driver_window(out)


# The external driver oracle-checks only the FIRST 50 registry entries
# each round.  To convert every pytest-parity claim into hard external
# evidence, each round front-loads the queries that have never had a
# driver CORRECTNESS row (rotation history in BASELINE.md):
#   r1+r2 verified: the 42 relational/kernel oracles + 8 rows-only
#   crawl queries + 18 r1-window entries (see CORRECTNESS_r01/r02.json).
#   r3 verified: 49 oracle-backed queries green incl. strict hash
#   (windows/dedup-clusters/webtext/graph/training block) +
#   dedup_minhash_lsh rows-only-err (now oracle-backed, re-fronted).
#   r4 window (below): 49 of the 80 oracle-backed queries that have
#   never had a driver row, hardest-first per the r3 verdict, plus
#   dedup_minhash_lsh whose r3 slot returned err:no_oracle and which
#   now has an exact-Jaccard τ=0.8 oracle (recall-1 equality verified
#   at sf0.001 and sf0.01).
#   r5 window (below): the ENTIRE never-checked remainder — the 31
#   oracle-backed queries listed in the r4 verdict plus the 9
#   rows-only queries that have never had a driver row (rows-only
#   entries record the weaker rows-only check; any that gain oracles
#   this round upgrade to strict automatically) — closing the
#   external-verification debt to zero: after r5 every registry query
#   has a driver CORRECTNESS row in at least one round.  The 10
#   remaining slots re-verify queries whose row-carrying exchanges
#   were converted to the size-derived fan-out THIS round (regression
#   guard on the rollout; each was green in r1-r4 before conversion).
#   The window is EXACTLY _DRIVER_WINDOW_SIZE entries — pinned by
#   tests/test_registry_window.py so an insertion can never silently
#   push the tail entry past the driver's horizon.
_DRIVER_WINDOW_SIZE = 50
_DRIVER_WINDOW_FRONT = [
    # never-checked oracle-backed remainder (31)
    "event_dwell", "cohort_matrix", "big_spenders",
    "concentration_stats", "region_year_revenue",
    "hourly_dense_counts", "ks_two_sources",
    "rolling_daily_revenue_p50", "median_order_gap",
    "abc_classification", "supplier_concentration", "weekday_profile",
    "monthly_seasonality", "revenue_reconciliation", "weekly_churn",
    "join_coverage_audit", "orders_per_customer_hist",
    "hash_reservoir_sample", "sources_per_lang", "first_last_order",
    "degree_distribution", "embedding_dim_variance",
    "vocab_overlap_sources", "text_ttr", "hapax_rate_by_source",
    "lang_purity_by_source", "char_class_profile",
    "lang_entropy_by_source", "zipf_slope", "vocab_growth",
    "lorenz_deciles",
    # never-checked rows-only (9; oracle conversions upgrade in
    # place — round 5 converted kmeans_embeddings and semdedup to
    # exact unrolled-Lloyd's oracles, so their slots are now strict)
    "kmeans_embeddings", "semdedup", "cms_heavy_hitters",
    "approx_value_quantiles", "ann_lsh_topk", "bpe_train",
    "bpe_token_count", "multimodal_image_resize",
    "multimodal_phash_dedup",
    # newly oracle-backed this round and never strict-checked
    # externally (takes the slot of rolling_avg3, which shares
    # _bucketed_orders_window with the running_total and
    # order_gap_days re-checks below — one representative of that
    # shell is enough)
    "ann_ivf_topk",
    # fan-out-rollout regression re-checks (9, all previously green)
    "sessionize", "running_total", "order_gap_days",
    "left_join_counts", "asof_join", "range_join", "inverted_index",
    "triangle_count", "bloom_anti_join",
]


def _rotate_for_driver_window(
    out: dict[str, Callable[[str], Any]],
) -> dict[str, Callable[[str], Any]]:
    front = [n for n in _DRIVER_WINDOW_FRONT if n in out]
    rest = [n for n in out if n not in set(front)]
    return {n: out[n] for n in [*front, *rest]}


def build_oracle_sql() -> dict[str, str]:
    from crawler_tjce_ray.pipelines import (
        clustering, dedup, fuzzy, graph, relational, similarity, sketches,
        textops, training, webtext,
    )

    sql = dict(relational.ORACLE_SQL)
    sql.update(fuzzy.ORACLE_SQL)
    sql.update(training.ORACLE_SQL)
    sql.update(graph.ORACLE_SQL)
    sql.update(dedup.ORACLE_SQL)
    sql.update(similarity.ORACLE_SQL)
    sql.update(textops.ORACLE_SQL)
    sql.update(webtext.ORACLE_SQL)
    sql.update(sketches.ORACLE_SQL)
    sql.update(clustering.ORACLE_SQL)
    return sql
