"""Exchange fan-out and read-block parameterization: the row-carrying
coarse-bucket exchanges — hash_join_big, segment_year_revenue,
semi_join_vip, dedup_substring_clean (plus the jaccard-prefix and
minhash scale tiers), the graph and text families — must produce
ORACLE-EQUAL output at any power-of-two bucket count and any read
block count.
The driver runs the size-derived default (1–2 blocks and buckets on
the test tables); these tests force 16- and 128-way fan-outs, and
reads split to their cap, on the same inputs and require strict
equality with DuckDB, so the size-derived plan at 100 TB is covered
by construction.  The
``exchange.cogroup`` contract (typed per-side frames), the
``exchange.kb_arrow`` key-type rule and SQL NULL group keys at the
cogroup join sites are pinned here too."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

from crawler_tjce_ray.pipelines import exchange

SF = "/root/testdata/sf0.001"

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture()
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    yield c
    c.close()


@pytest.fixture(params=[16, 128])
def forced_buckets(request):
    exchange.set_forced_buckets(request.param)
    yield request.param
    exchange.set_forced_buckets(None)


def _check(qfn, sql, con):
    mine = qfn(SF)
    if hasattr(mine, "to_pandas"):
        mine = mine.to_pandas()
    ref = con.execute(sql).df()
    pd.testing.assert_frame_equal(
        mine.reset_index(drop=True), ref, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestFanoutInvariance:
    def test_hash_join_big(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.relational import (
            SQL_HASH_JOIN_BIG, q_hash_join_big,
        )
        _check(q_hash_join_big, SQL_HASH_JOIN_BIG, con)

    def test_segment_year_revenue(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.relational import (
            SQL_SEGMENT_YEAR_REVENUE, q_segment_year_revenue,
        )
        _check(q_segment_year_revenue, SQL_SEGMENT_YEAR_REVENUE, con)

    def test_semi_join_vip(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.relational import (
            SQL_SEMI_JOIN_VIP, q_semi_join_vip,
        )
        _check(q_semi_join_vip, SQL_SEMI_JOIN_VIP, con)

    def test_dedup_substring_clean(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.dedup import (
            SQL_DEDUP_SUBSTRING_CLEAN, q_dedup_substring_clean,
        )
        _check(q_dedup_substring_clean, SQL_DEDUP_SUBSTRING_CLEAN, con)

    def test_jaccard_prefix(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.dedup import (
            SQL_DEDUP_NGRAM_JACCARD, q_dedup_jaccard_prefix,
        )
        _check(q_dedup_jaccard_prefix, SQL_DEDUP_NGRAM_JACCARD, con)

    def test_minhash_scale_tier(self, forced_buckets, con, monkeypatch):
        """Force the bucketed verify tier AND a non-default fan-out."""
        from crawler_tjce_ray.pipelines import dedup

        monkeypatch.setattr(dedup, "VERIFY_BROADCAST_MAX_DOCS", 0)
        _check(dedup.q_dedup_minhash_lsh, dedup.SQL_DEDUP_MINHASH_LSH, con)

    # ---- round-5 rollout: one representative per converted family ----

    def test_sessionize_events_stream(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.relational import (
            SQL_SESSIONIZE, q_sessionize,
        )
        _check(q_sessionize, SQL_SESSIONIZE, con)

    def test_running_total_orders_window(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.relational import (
            SQL_RUNNING_TOTAL, q_running_total,
        )
        _check(q_running_total, SQL_RUNNING_TOTAL, con)

    def test_left_join_counts(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.relational import (
            SQL_LEFT_JOIN_COUNTS, q_left_join_counts,
        )
        _check(q_left_join_counts, SQL_LEFT_JOIN_COUNTS, con)

    def test_asof_join(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.relational import (
            SQL_ASOF_JOIN, q_asof_join,
        )
        _check(q_asof_join, SQL_ASOF_JOIN, con)

    def test_bloom_anti_join_verify_hop(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.relational import (
            SQL_BLOOM_ANTI_JOIN, q_bloom_anti_join,
        )
        _check(q_bloom_anti_join, SQL_BLOOM_ANTI_JOIN, con)

    def test_dedup_paragraphs_text_hop(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.dedup import (
            SQL_DEDUP_PARAGRAPHS, q_dedup_paragraphs,
        )
        _check(q_dedup_paragraphs, SQL_DEDUP_PARAGRAPHS, con)

    def test_inverted_index_posting_lists(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.graph import (
            SQL_INVERTED_INDEX, q_inverted_index,
        )
        _check(q_inverted_index, SQL_INVERTED_INDEX, con)

    def test_triangle_count_wedges(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines import graph

        # the edge cache would hand back edges built at another fan-out
        graph._EDGES_CACHE.clear()
        _check(graph.q_triangle_count, graph.SQL_TRIANGLE_COUNT, con)

    # ---- graph exchanges with no forced fan-out test of their own above
    @pytest.mark.parametrize("name", [
        "event_funnel", "timed_funnel", "event_transitions",
        "event_trigrams", "edge_reciprocity", "time_to_convert",
        "cumulative_users",
    ])
    def test_graph_exchange(self, name, forced_buckets, con):
        from crawler_tjce_ray.pipelines import graph

        graph._EDGES_CACHE.clear()
        _check(graph.QUERIES[name], graph.ORACLE_SQL[name], con)

    def test_epoch_shuffle_range_buckets(self, forced_buckets, con):
        # range buckets floor at 256: forcing below exercises max()
        from crawler_tjce_ray.pipelines.training import (
            SQL_EPOCH_SHUFFLE, q_epoch_shuffle,
        )
        _check(q_epoch_shuffle, SQL_EPOCH_SHUFFLE, con)

    def test_bigram_lm_word_buckets(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.training import (
            SQL_BIGRAM_LM, q_bigram_lm,
        )
        _check(q_bigram_lm, SQL_BIGRAM_LM, con)

    def test_dup_rate_by_source_digests(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.dedup import (
            SQL_DUP_RATE_BY_SOURCE, q_dup_rate_by_source,
        )
        _check(q_dup_rate_by_source, SQL_DUP_RATE_BY_SOURCE, con)

    def test_minhash_banding_subbuckets(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.dedup import (
            SQL_DEDUP_MINHASH_LSH, q_dedup_minhash_lsh,
        )
        _check(q_dedup_minhash_lsh, SQL_DEDUP_MINHASH_LSH, con)

    def test_simhash_banding_subbuckets(self, forced_buckets):
        # rows-only query: invariance = identical output at the
        # default fan-out (the pairs and their canonical order cannot
        # depend on the banding sub-bucket assignment)
        from crawler_tjce_ray.pipelines import exchange
        from crawler_tjce_ray.pipelines.dedup import q_dedup_simhash

        forced = q_dedup_simhash(SF)
        exchange.set_forced_buckets(None)
        base = q_dedup_simhash(SF)
        pd.testing.assert_frame_equal(forced, base)

    def test_fuzzy_name_pairs_buckets(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.fuzzy import (
            SQL_FUZZY_NAME_PAIRS, q_fuzzy_name_pairs,
        )
        _check(q_fuzzy_name_pairs, SQL_FUZZY_NAME_PAIRS, con)

    def test_top_terms_token_buckets(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.textops import (
            SQL_TOP_TERMS_PER_LANG, q_top_terms_per_lang,
        )
        _check(q_top_terms_per_lang, SQL_TOP_TERMS_PER_LANG, con)

    def test_vocab_overlap_token_buckets(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.textops import (
            SQL_VOCAB_OVERLAP_SOURCES, q_vocab_overlap_sources,
        )
        _check(q_vocab_overlap_sources, SQL_VOCAB_OVERLAP_SOURCES, con)

    def test_ngram_novelty_shingle_buckets(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.webtext import (
            SQL_NGRAM_NOVELTY, q_ngram_novelty,
        )
        _check(q_ngram_novelty, SQL_NGRAM_NOVELTY, con)

    def test_vocab_growth_shingle_buckets(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.webtext import (
            SQL_VOCAB_GROWTH, q_vocab_growth,
        )
        _check(q_vocab_growth, SQL_VOCAB_GROWTH, con)

    # ---- text exchanges with no forced fan-out test of their own above
    @pytest.mark.parametrize("name", [
        "bigram_logprob", "curation_pipeline", "dup_ngram_docs",
        "bigram_pmi_topk", "retention", "rolling_unique_users",
        "hapax_rate_by_source",
    ])
    def test_text_exchange(self, name, forced_buckets, con):
        from crawler_tjce_ray.pipelines import textops, training, webtext

        m = next(m for m in (webtext, training, textops) if name in m.QUERIES)
        _check(m.QUERIES[name], m.ORACLE_SQL[name], con)

    def test_region_year_revenue_combiner(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.relational import (
            SQL_REGION_YEAR_REVENUE, q_region_year_revenue,
        )
        _check(q_region_year_revenue, SQL_REGION_YEAR_REVENUE, con)

    def test_assoc_rules_support_combiner(self, forced_buckets, con):
        from crawler_tjce_ray.pipelines.relational import (
            SQL_ASSOC_RULES, q_assoc_rules,
        )
        _check(q_assoc_rules, SQL_ASSOC_RULES, con)

    # ---- exchange.cogroup sites with no test of their own above
    @pytest.mark.parametrize("name,sql", [
        ("range_join", "SQL_RANGE_JOIN"),
        ("big_spenders", "SQL_BIG_SPENDERS"),
        ("ship_latency_by_priority", "SQL_SHIP_LATENCY"),
        ("join_coverage_audit", "SQL_JOIN_COVERAGE_AUDIT"),
        ("revenue_reconciliation", "SQL_REVENUE_RECONCILIATION"),
    ])
    def test_cogroup_join(self, name, sql, forced_buckets, con):
        from crawler_tjce_ray.pipelines import relational

        _check(getattr(relational, f"q_{name}"), getattr(relational, sql), con)

    # ---- dedup exchanges with no forced fan-out test of their own above
    @pytest.mark.parametrize("name,sql", [
        ("cross_source_dup_matrix", "SQL_CROSS_SOURCE_DUP_MATRIX"),
        ("dedup_canonical", "SQL_DEDUP_CANONICAL"),
        ("dedup_clusters_distributed", "SQL_DEDUP_CLUSTERS"),
    ])
    def test_dedup_exchange(self, name, sql, forced_buckets, con):
        from crawler_tjce_ray.pipelines import dedup

        # the pair cache would hand back pairs built at another fan-out
        dedup._DUP_PAIRS_CACHE.clear()
        _check(getattr(dedup, f"q_{name}"), getattr(dedup, sql), con)

    # ---- exchange.shuffle: the shared spend histogram, the combine
    # path, pandas partials ahead of the shuffle, and the string, range
    # and folded-pair keys
    @pytest.mark.parametrize("name", [
        "concentration_stats", "price_cv_topk", "orders_per_customer_hist",
        "first_last_order", "dense_rank_topk", "merge_intervals",
        "customer_year_setops", "attribution_first_touch",
        "purchase_id_islands", "top_paths", "part_cooccurrence",
    ])
    def test_shuffle_combine(self, name, forced_buckets, con):
        from crawler_tjce_ray.pipelines import relational

        _check(getattr(relational, f"q_{name}"),
               getattr(relational, f"SQL_{name.upper()}"), con)


@pytest.mark.usefixtures("ray_session")
class TestCogroup:
    """``exchange.cogroup`` hands ``finalize`` one typed pandas frame
    per side, whatever the other sides carry."""

    I64 = pa.int64()

    def _run(self, sides, nb=4):
        import ray.data as rd

        def finalize(*frames):
            return pd.DataFrame({
                "side": range(len(frames)),
                "rows": [len(f) for f in frames],
                "cols": [",".join(f"{c}:{f[c].dtype}" for c in f.columns)
                         for f in frames],
                "vals": [repr(sorted(f.itertuples(index=False)))
                         for f in frames],
            })

        return exchange.cogroup(
            [(rd.from_arrow(t), s, None) for t, s in sides],
            "k", nb, finalize).to_pandas()

    def test_absent_side_is_typed_empty_frame(self):
        # bucket 1 holds only side 0's key, bucket 2 only side 1's
        a = pa.table({"k": pa.array([1], self.I64),
                      "ts": pa.array([0], pa.timestamp("us"))})
        b = pa.table({"k": pa.array([2], self.I64),
                      "s": pa.array(["x"], pa.string())})
        out = self._run([(a, {"k": self.I64, "ts": pa.timestamp("us")}),
                         (b, {"k": self.I64, "s": pa.string()})])
        assert len(out) == 4  # two buckets × two sides
        empty = out[out["rows"] == 0].sort_values("side")
        assert empty["cols"].tolist() == ["k:int64,ts:datetime64[us]",
                                          "k:int64,s:object"]

    def test_int64_above_2_53_is_exact(self):
        big = 2**53 + 1
        a = pa.table({"k": pa.array([1, 2], self.I64),
                      "v": pa.array([big, 5], self.I64)})
        b = pa.table({"k": pa.array([1], self.I64),
                      "w": pa.array([1.5], pa.float64())})
        out = self._run([(a, {"k": self.I64, "v": self.I64}),
                         (b, {"k": self.I64, "w": pa.float64()})], nb=1)
        side0 = out[out["side"] == 0].iloc[0]
        assert side0["cols"] == "k:int64,v:int64"
        assert str(big) in side0["vals"]

    def test_sides_may_share_a_column_name(self):
        a = pa.table({"k": pa.array([1, 1], self.I64),
                      "t": pa.array([10, 11], self.I64)})
        b = pa.table({"k": pa.array([1], self.I64),
                      "t": pa.array(["late"], pa.string())})
        out = self._run([(a, {"k": self.I64, "t": self.I64}),
                         (b, {"k": self.I64, "t": pa.string()})], nb=1)
        assert out["cols"].tolist() == ["k:int64,t:int64", "k:int64,t:object"]
        assert out["rows"].tolist() == [2, 1]
        assert "'late'" in out["vals"][1]

    def test_three_sides_and_cast_to_schema(self):
        # side 2 arrives as int32 and is cast to its declared int64
        a = pa.table({"k": pa.array([1, 2], self.I64)})
        b = pa.table({"k": pa.array([2], self.I64),
                      "x": pa.array([7], self.I64)})
        c = pa.table({"k": pa.array([1, 1, 2], pa.int32()),
                      "y": pa.array([3, 4, 5], pa.int32())})
        out = self._run([(a, {"k": self.I64}),
                         (b, {"k": self.I64, "x": self.I64}),
                         (c, {"k": self.I64, "y": self.I64})], nb=1)
        assert out["rows"].tolist() == [2, 1, 3]
        assert out["cols"].tolist()[2] == "k:int64,y:int64"


@pytest.mark.usefixtures("ray_session")
class TestKbArrowTypes:
    """``exchange.kb_arrow`` picks the bucket from the key's type: a
    uint64 digest masks its own low bits (an int64 cast overflows at
    ≥ 2^63) and a string hashes like ``kb_words``."""

    def _buckets_per_key(self, keys, nb=4):
        import ray.data as rd

        # three blocks, each holding every key, so a key's rows reach
        # the exchange from different map tasks
        ds = rd.from_arrow([pa.table({"k": keys, "v": range(len(keys))})
                            for _ in range(3)])
        out = exchange.shuffle(
            ds, "k", nb,
            lambda g: g.groupby("k", as_index=False).agg(
                kb=("kb", "first"), nkb=("kb", "nunique"), n=("v", "size")),
        ).to_pandas()
        assert out["nkb"].eq(1).all()
        # a key that landed in two buckets appears in two output rows
        assert not out["k"].duplicated().any()
        assert out["n"].eq(3).all() and len(out) == len(keys)
        assert out["kb"].between(0, nb - 1).all()
        return out

    def test_uint64_above_2_63_keeps_low_bits(self):
        keys = pa.array([2**63, 2**63 + 1, 2**64 - 1, 2**64 - 6, 7],
                        pa.uint64())
        out = self._buckets_per_key(keys)
        assert [int(k) & 3 for k in out["k"]] == out["kb"].tolist()

    def test_string_key_one_bucket_per_key(self):
        keys = pa.array(["alpha", "beta", "", "gamma delta", "beta gamma",
                         "zeta"], pa.string())
        out = self._buckets_per_key(keys)
        assert out["kb"].tolist() == exchange.kb_words(
            out["k"].to_numpy(object), 4).tolist()

    def test_string_matches_kb_words(self):
        import numpy as np

        words = ["a", "b", "naïve", "", "a", "x" * 100]
        for nb in (1, 4, 128):
            got = exchange.kb_arrow(pa.chunked_array([words[:3], words[3:]]), nb)
            assert got.type == pa.int64()
            assert got.to_pylist() == exchange.kb_words(
                np.array(words, dtype=object), nb).tolist()


def _raise_on_empty():
    # built per test: cloudpickle ships a nested function by value,
    # while a module-level one would need this test module on workers
    def udf(batch):
        if len(batch) == 0:
            raise AssertionError("UDF called on an empty batch")
        return batch

    return udf


@pytest.mark.usefixtures("ray_session")
class TestEmptyBlocksSkipUdfs:
    """Ray Data passes an empty block through a ``map_batches`` UDF
    without calling it, and ``map_groups`` never forms an empty group.
    ``exchange.shuffle`` and every per-batch combine in ``pipelines/``
    rely on that instead of guarding at UDF entry, so a Ray upgrade
    that starts calling UDFs on empty batches must fail here."""

    T = pa.table({"k": pa.array([1, 2, 3, 18, 2], pa.int64()),
                  "v": pa.array([10, 20, 30, 40, 50], pa.int64())})

    @pytest.fixture(params=["no_schema", "zero_rows"])
    def blocks(self, request):
        empty = pa.table({}) if request.param == "no_schema" \
            else self.T.slice(0, 0)
        return [self.T, empty]

    @pytest.mark.parametrize("fmt", ["pyarrow", "pandas"])
    def test_map_batches_skips_empty_blocks(self, blocks, fmt):
        import ray.data as rd

        out = rd.from_arrow(blocks) \
            .map_batches(_raise_on_empty(), batch_format=fmt).to_pandas()
        assert sorted(out["k"]) == [1, 2, 2, 3, 18]

    def test_shuffle_combine_ignores_empty_blocks(self, blocks):
        import ray.data as rd

        check = _raise_on_empty()

        def combine(t):
            g = check(t).group_by("k").aggregate([("v", "sum")])
            return pa.table({"k": g["k"], "v": g["v_sum"]})

        def finalize(g):
            return check(g).groupby("k", as_index=False)["v"].sum()

        def run(bs):
            out = exchange.shuffle(rd.from_arrow(bs), "k", 4, finalize,
                                   combine=combine).to_pandas()
            return out.sort_values("k").reset_index(drop=True)

        got = run(blocks)
        pd.testing.assert_frame_equal(got, run([self.T]))
        assert got["v"].tolist() == [10, 70, 30, 40]


# (module, query, oracle) per block-split read site and exchange kind
BLOCK_SPLIT_QUERIES = [
    # exchange.shuffle with a per-batch combine
    ("relational", "q_price_cv_topk", "SQL_PRICE_CV_TOPK"),
    # two-sided exchange.cogroup
    ("relational", "q_hash_join_big", "SQL_HASH_JOIN_BIG"),
    # kb_words exchange over a read_documents scan
    ("training", "q_bigram_lm", "SQL_BIGRAM_LM"),
    # read_documents scan, paragraph-hash and doc-id exchanges
    ("dedup", "q_dedup_paragraphs", "SQL_DEDUP_PARAGRAPHS"),
    # the other split reads: customer names, embeddings, events
    ("fuzzy", "q_fuzzy_name_pairs", "SQL_FUZZY_NAME_PAIRS"),
    ("similarity", "q_ann_cosine_topk", "SQL_ANN_COSINE_TOPK"),
    ("sketches", "q_value_quantiles", "SQL_VALUE_QUANTILES"),
    ("dedup", "q_dedup_embedding_nn", "SQL_DEDUP_EMBEDDING_NN"),
]


@pytest.mark.usefixtures("ray_session")
class TestBlockCountInvariance:
    """The test tables read as one block under the size-derived rule,
    so the multi-block paths (sort sampling across blocks, per-block
    combines merged in-bucket) are forced here: a 1-byte block target
    splits every read to its cap, and the result must still equal the
    oracle."""

    @pytest.fixture()
    def split_reads(self, monkeypatch):
        monkeypatch.setattr(exchange, "TARGET_BLOCK_BYTES", 1)

    def test_reads_split_to_cap(self, split_reads):
        from crawler_tjce_ray.pipelines.relational import _read

        path = f"{SF}/orders.parquet"
        assert exchange.read_blocks(path) == exchange.read_cap() > 1
        assert _read(SF, "orders").materialize().num_blocks() > 1

    @pytest.mark.parametrize(
        "mod,qfn,sql", BLOCK_SPLIT_QUERIES,
        ids=[q[1][2:] for q in BLOCK_SPLIT_QUERIES])
    def test_oracle_equal(self, split_reads, con, mod, qfn, sql):
        import importlib

        m = importlib.import_module(f"crawler_tjce_ray.pipelines.{mod}")
        _check(getattr(m, qfn), getattr(m, sql), con)


# every 50th o_orderpriority and every 40th c_mktsegment set to NULL
NULL_EVERY = {("orders", "o_orderpriority"): 50,
              ("customer", "c_mktsegment"): 40}


@pytest.mark.usefixtures("ray_session")
class TestNullGroupKeys:
    """SQL ``GROUP BY`` keeps a NULL group and a join on a NULL key
    matches nothing: the join-then-group queries must agree with the
    oracle on a copy of the test tables with NULL string keys."""

    @pytest.fixture(scope="class")
    def null_sf(self, tmp_path_factory):
        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        out = tmp_path_factory.mktemp("sf_null")
        for t in TABLES:
            table = pq.read_table(f"{SF}/{t}.parquet")
            for (nt, col), every in NULL_EVERY.items():
                if nt == t:
                    arr = table[col]
                    mask = pa.array(np.arange(len(arr)) % every == 0)
                    table = table.set_column(
                        table.schema.get_field_index(col), col,
                        pc.if_else(mask, pa.nulls(len(arr), arr.type), arr))
            pq.write_table(table, out / f"{t}.parquet")
        return str(out)

    @pytest.mark.parametrize("name,sql", [
        ("ship_latency_by_priority", "SQL_SHIP_LATENCY"),
        ("hash_join_big", "SQL_HASH_JOIN_BIG"),
        ("segment_year_revenue", "SQL_SEGMENT_YEAR_REVENUE"),
        ("semi_join_vip", "SQL_SEMI_JOIN_VIP"),
        ("bloom_anti_join", "SQL_BLOOM_ANTI_JOIN"),
        ("big_spenders", "SQL_BIG_SPENDERS"),
        ("groupby_count", "SQL_GROUPBY_COUNT"),
        ("pivot_status", "SQL_PIVOT_STATUS"),
    ])
    def test_oracle_equal(self, null_sf, name, sql):
        import warnings

        from crawler_tjce_ray.pipelines import relational

        c = duckdb.connect()
        for t in TABLES:
            c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{null_sf}/{t}.parquet'")
        ref = c.execute(getattr(relational, sql)).df()
        mine = getattr(relational, f"q_{name}")(null_sf)
        # NULL must come back as None, not NaN or the string "None"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pd.testing.assert_frame_equal(
                mine.reset_index(drop=True), ref, check_dtype=False)
        assert ref.isna().any().any() or name == "big_spenders"


def _one_shot(t: pa.Table, by, aggs: dict) -> pd.DataFrame:
    """``aggs`` over the whole of ``t`` in one Arrow ``group_by``."""
    import pyarrow.compute as pc

    spec = [(name, "count", pc.CountOptions(mode="all")) if fn == "count_all"
            else (name, fn) for name, (_, fn) in aggs.items()]
    cols = {k: t[k] for k in by} | {n: t[c] for n, (c, _) in aggs.items()}
    g = pa.table(cols).group_by(by, use_threads=False).aggregate(spec)
    out = pa.table({k: g[k] for k in by}
                   | {n: g[f"{n}_{f}"] for n, f, *_ in spec})
    if by:
        out = out.sort_by([(k, "ascending") for k in by])
    return out.to_pandas()


@pytest.mark.usefixtures("ray_session")
class TestAggregate:
    """``exchange.aggregate`` equals one Arrow ``group_by`` over the
    whole table at any block count, keeps SQL's NULL semantics (a NULL
    key is a group; an all-NULL sum is NULL), and returns a typed empty
    frame for an empty input with no dtype declared anywhere."""

    # per 8 rows: a → x [1, 4, NULL], b → [NULL, 7], NULL → [3, 6],
    # c → [NULL] (row count 1, non-null count 0, sum NULL)
    T = pa.table({
        "k": pa.array(["a", "b", None, "a", "c", None, "b", "a"] * 5,
                      pa.string()),
        "x": pa.array([1, None, 3, 4, None, 6, 7, None] * 5, pa.int64()),
    })
    AGGS = {"n": ("x", "count_all"), "nx": ("x", "count"),
            "s": ("x", "sum"), "lo": ("x", "min"), "hi": ("x", "max")}

    @pytest.mark.parametrize("blocks", [1, 7, 16])
    @pytest.mark.parametrize("by", [["k"], []], ids=["by_k", "global"])
    def test_equals_one_shot_group_by(self, blocks, by):
        import ray.data as rd

        ds = rd.from_arrow(self.T).repartition(blocks)
        got = exchange.aggregate(ds, by, self.AGGS)
        pd.testing.assert_frame_equal(got, _one_shot(self.T, by, self.AGGS))
        if by:
            assert got["k"].tolist() == ["a", "b", "c", None]
            assert got["n"].tolist() == [15, 10, 5, 10]
            assert got["nx"].tolist() == [10, 5, 0, 10]
            assert pd.isna(got["s"][2]) and got["s"][0] == 25

    def test_distinct_and_derive(self):
        import pyarrow.compute as pc
        import ray.data as rd

        ds = rd.from_arrow(self.T).repartition(7)
        got = exchange.aggregate(
            ds, "k", {}, lambda t: t.filter(pc.is_valid(t["x"])))
        assert got["k"].tolist() == ["a", "b", None]
        assert list(got.columns) == ["k"]

    @pytest.mark.parametrize("how", ["zero_rows", "pandas_block",
                                     "all_filtered"])
    def test_empty_input_is_typed(self, how):
        import pyarrow.compute as pc
        import ray.data as rd

        if how == "zero_rows":
            ds, derive = rd.from_arrow(self.T.slice(0, 0)), None
        elif how == "pandas_block":  # a pandas finalize's empty output
            ds, derive = rd.from_pandas(self.T.slice(0, 0).to_pandas()), None
        else:
            ds = rd.from_arrow(self.T).repartition(7)
            derive = lambda t: t.filter(pc.equal(t["k"], "none"))  # noqa: E731
        got = exchange.aggregate(ds, "k", self.AGGS, derive)
        want = _one_shot(self.T.slice(0, 0), ["k"], self.AGGS)
        assert got.empty
        pd.testing.assert_frame_equal(got, want)
        assert got.dtypes.astype(str).tolist() == [
            "object", "int64", "int64", "int64", "int64", "int64"]


class TestBucketSizing:
    def test_floor_and_growth(self):
        # unknown size keeps the 64-way fan-out
        assert exchange.buckets_for_bytes(None) == 64
        # a one-block input gets one bucket, a two-block input two
        assert exchange.buckets_for_bytes(0) == 1
        assert exchange.buckets_for_bytes(1) == 1
        one_block = exchange.TARGET_BLOCK_BYTES // exchange.PARQUET_INFLATION
        assert exchange.buckets_for_bytes(one_block) == 1
        assert exchange.buckets_for_bytes(one_block + 1) == 2
        # 100 TB on disk -> 400 TB decompressed -> ~1.6M target tasks,
        # clamped at the 65536 ceiling
        assert exchange.buckets_for_bytes(100 * (1 << 40)) == 65536
        # 1 TB -> 4 TB decompressed / 256 MB = 16384 buckets
        assert exchange.buckets_for_bytes(1 << 40) == 16384

    def test_env_and_forced_precede_size(self, monkeypatch):
        monkeypatch.setenv("CRAWLER_EXCHANGE_BUCKETS", "16")
        assert exchange.buckets_for_bytes(1) == 16
        assert exchange.buckets_for_bytes(None) == 16
        exchange.set_forced_buckets(128)
        try:
            assert exchange.buckets_for_bytes(1 << 40) == 128
        finally:
            exchange.set_forced_buckets(None)

    def test_blocks_for_bytes(self):
        one_block = exchange.TARGET_BLOCK_BYTES // exchange.PARQUET_INFLATION
        assert exchange.blocks_for_bytes(0, 8) == 1
        assert exchange.blocks_for_bytes(1, 8) == 1
        assert exchange.blocks_for_bytes(one_block, 8) == 1
        assert exchange.blocks_for_bytes(one_block + 1, 8) == 2
        assert exchange.blocks_for_bytes(3 * one_block, 8) == 3
        # unknown or huge sizes take the cap
        assert exchange.blocks_for_bytes(None, 8) == 8
        assert exchange.blocks_for_bytes(None, 32) == 32
        assert exchange.blocks_for_bytes(1 << 40, 8) == 8
        assert exchange.blocks_for_bytes(100 * (1 << 40), 32) == 32

    def test_read_cap_from_cluster_cpus(self, monkeypatch):
        import ray

        monkeypatch.setattr(ray, "is_initialized", lambda: True)
        for cpus, per, cap in [(1, 1, 8), (4, 1, 8), (20, 1, 20),
                               (64, 1, 32), (64, 2, 32), (48, 4, 12),
                               (16, 4, 8)]:
            monkeypatch.setattr(ray, "cluster_resources",
                                lambda: {"CPU": float(cpus)})
            assert exchange.read_cap(per) == cap

    def test_small_tables_read_as_one_block(self):
        for t in ("orders", "lineitem", "events", "documents"):
            assert exchange.read_blocks(f"{SF}/{t}.parquet") == 1

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            exchange.set_forced_buckets(48)
        exchange.set_forced_buckets(None)

    def test_band_subbuckets(self):
        # total budget split across bands, floored at 1, power of two
        assert exchange.band_subbuckets(None, 32) == 1
        assert exchange.band_subbuckets(0, 32) == 1
        assert exchange.band_subbuckets(16, 32) == 1    # forced-16 case
        assert exchange.band_subbuckets(64, 32) == 2    # test-scale floor
        assert exchange.band_subbuckets(128, 32) == 4
        assert exchange.band_subbuckets(65536, 32) == 2048  # 100 TB cap
        assert exchange.band_subbuckets(64, 4) == 16    # pHash bands
        # non-pow2 band counts still yield a pow2 sub-bucket mask
        n = exchange.band_subbuckets(64, 3)
        assert n & (n - 1) == 0

    def test_table_bytes(self):
        b = exchange.table_bytes(SF, "orders", "lineitem")
        assert b and b > 0
        assert exchange.table_bytes(SF, "nope_no_such_table") is None
