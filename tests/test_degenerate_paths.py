"""Degenerate-input agreement paths (ADVICE r3): zero-total Pareto,
no-converter quantiles, event streams with no funnel event or n-gram,
empty documents source, the 32-bit pair-packing guards, and whole
oracle sweeps over degenerate copies of sf0.01 (one line per order, a
wordless corpus, the first 5 rows of every table) — each is a path the
sf testdata never exercises, pinned here so the engine and oracle
agree on the edge too."""

import importlib
import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write(tmp_path, name, table):
    pq.write_table(table, str(tmp_path / f"{name}.parquet"))


@pytest.mark.usefixtures("ray_session")
class TestDegenerateOracleAgreement:
    def test_pareto_8020_zero_total(self, tmp_path):
        """All-zero spend: oracle's 5*cum >= 4*tot holds at rn=1, so
        k=1 and the share is NULL (0/0) — the engine must mirror that
        instead of counting the whole zero-spend tie group."""
        import duckdb

        from crawler_tjce_ray.pipelines.relational import (
            SQL_PARETO_8020, q_pareto_8020,
        )

        _write(tmp_path, "orders", pa.table({
            "o_custkey": pa.array([1, 2, 3], pa.int64()),
            "o_orderdate": pa.array(
                [pd.Timestamp("2024-01-01")] * 3,
                pa.timestamp("us")),
            "o_totalprice": pa.array([0.0, 0.0, 0.0], pa.float64()),
        }))
        got = q_pareto_8020(str(tmp_path))
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW orders AS SELECT * FROM "
            f"read_parquet('{tmp_path}/orders.parquet')")
        want = con.execute(SQL_PARETO_8020).df()
        assert int(got["n_customers"][0]) == int(want["n_customers"][0]) == 3
        assert int(got["top_k_for_80pct"][0]) \
            == int(want["top_k_for_80pct"][0]) == 1
        assert math.isnan(got["top_k_share"][0])
        assert want["top_k_share"].isna().iloc[0]

    def test_time_to_convert_no_converters(self, tmp_path):
        """No signup→purchase pairs: the oracle's quantile_disc over an
        empty set is NULL, so the engine emits NaN, not 0.0."""
        from crawler_tjce_ray.pipelines.graph import q_time_to_convert

        _write(tmp_path, "events", pa.table({
            "event_id": pa.array([1, 2], pa.int64()),
            "user_id": pa.array([1, 2], pa.int64()),
            "event_type": pa.array(["view", "view"], pa.string()),
            "ts": pa.array([pd.Timestamp("2024-01-01")] * 2,
                           pa.timestamp("us")),
            "value": pa.array([1.0, 2.0], pa.float64()),
        }))
        got = q_time_to_convert(str(tmp_path))
        assert int(got["n_converters"][0]) == 0
        assert math.isnan(got["median_s"][0])
        assert math.isnan(got["p90_s"][0])

    @pytest.mark.parametrize("name", [
        "event_funnel", "timed_funnel", "event_transitions", "event_trigrams",
    ])
    def test_event_sequences_without_matches(self, tmp_path, name):
        """A stream with no funnel event and no user with two events:
        the oracle returns zero counts and empty n-gram tables, and so
        must the engine, whose exchange then returns no partials."""
        import duckdb

        from crawler_tjce_ray.pipelines import graph

        _write(tmp_path, "events", pa.table({
            "event_id": pa.array([1, 2], pa.int64()),
            "user_id": pa.array([1, 2], pa.int64()),
            "event_type": pa.array(["view", "view"], pa.string()),
            "ts": pa.array([pd.Timestamp("2024-01-01")] * 2,
                           pa.timestamp("us")),
            "value": pa.array([1.0, 2.0], pa.float64()),
        }))
        got = graph.QUERIES[name](str(tmp_path))
        con = duckdb.connect()
        con.execute("CREATE VIEW events AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/events.parquet')")
        want = con.execute(graph.ORACLE_SQL[name]).df()
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want, check_dtype=False)

    def test_documents_max_doc_id_empty_raises(self, tmp_path):
        """An empty non-parquet documents source raises a descriptive
        error instead of an opaque NaN-cast ValueError."""
        from crawler_tjce_ray.sources.docs import documents_max_doc_id

        empty = pd.DataFrame({
            "doc_id": pd.Series([], dtype="int64"),
            "text": pd.Series([], dtype="object"),
        })
        (tmp_path / "documents.jsonl").write_text(
            empty.to_json(orient="records", lines=True))
        with pytest.raises(ValueError, match="no rows"):
            documents_max_doc_id(str(tmp_path))

    def test_pair_packing_guard(self, tmp_path):
        """Partkeys at or above 2^32 must be rejected by the packed-pair
        kernels, not silently corrupted."""
        from crawler_tjce_ray.pipelines.relational import q_part_cooccurrence

        _write(tmp_path, "lineitem", pa.table({
            "l_orderkey": pa.array([1, 1], pa.int64()),
            "l_linenumber": pa.array([1, 2], pa.int64()),
            "l_partkey": pa.array([5, 1 << 32], pa.int64()),
        }))
        with pytest.raises(Exception, match="32-bit packing range"):
            q_part_cooccurrence(str(tmp_path))

    @pytest.mark.parametrize("name", ["edge_reciprocity", "triangle_count"])
    def test_graph_pair_packing_guard(self, tmp_path, name):
        """A partkey at 2^32 would wrap the packed (lo << 32) | hi
        pair key onto a small one — (2^32+1, 5) and (1, 5) both pack to
        4294967301 — so both packed-pair graph queries must raise."""
        from crawler_tjce_ray.pipelines import graph

        _write(tmp_path, "lineitem", pa.table({
            "l_orderkey": pa.array([1, 1, 1, 2, 2], pa.int64()),
            "l_linenumber": pa.array([1, 2, 3, 1, 2], pa.int32()),
            "l_partkey": pa.array([1, 5, (1 << 32) + 1, 5, 1], pa.int64()),
        }))
        with pytest.raises(Exception, match="32-bit packing range"):
            graph.QUERIES[name](str(tmp_path))

    def test_embedding_nn_singleton_block(self, tmp_path):
        """A label block with one vector has no nearest neighbour: the
        oracle's ``a.vec_id <> b.vec_id`` self-join gives it no row, so
        the engine must not return the vector as its own neighbour."""
        import duckdb

        from crawler_tjce_ray.pipelines.dedup import (
            SQL_DEDUP_EMBEDDING_NN, q_dedup_embedding_nn,
        )

        _write(tmp_path, "embeddings", pa.table({
            "vec_id": pa.array([1, 2, 3, 4], pa.int64()),
            "embedding": pa.array([[1.0, 0.0], [0.6, 0.8], [1.0, 1.0],
                                   [0.0, 1.0]], pa.list_(pa.float32())),
            "label": pa.array([0, 1, 0, 2], pa.int32()),
        }))
        got = q_dedup_embedding_nn(str(tmp_path))
        con = duckdb.connect()
        con.execute("CREATE VIEW embeddings AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/embeddings.parquet')")
        want = con.execute(SQL_DEDUP_EMBEDDING_NN).df()
        assert got["vec_id"].tolist() == want["vec_id"].tolist() == [1, 3]
        assert got["nn_vec_id"].tolist() == want["nn_vec_id"].tolist() == [3, 1]
        assert got["cosine"].tolist() == want["cosine"].tolist()

        # every block a singleton: no row at all, typed like the oracle
        _write(tmp_path, "embeddings", pa.table({
            "vec_id": pa.array([1, 2], pa.int64()),
            "embedding": pa.array([[1.0, 0.0], [0.0, 1.0]],
                                  pa.list_(pa.float32())),
            "label": pa.array([0, 1], pa.int32()),
        }))
        got = q_dedup_embedding_nn(str(tmp_path))
        assert got.empty and list(got.columns) == ["vec_id", "nn_vec_id", "cosine"]
        assert con.execute(SQL_DEDUP_EMBEDDING_NN).df().empty

    def test_lang_entropy_one_language_source(self, tmp_path):
        """The oracle negates the summed p·log2 p, so a one-language
        source's entropy is -0.0; the engine must print the same."""
        import duckdb

        from crawler_tjce_ray.pipelines.textops import (
            SQL_LANG_ENTROPY_BY_SOURCE, q_lang_entropy_by_source,
        )

        _write(tmp_path, "documents", pa.table({
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(["a b", "c d", "e f", "g h", "i j"], pa.string()),
            "lang": pa.array(["pt", "pt", "en", "pt", "en"], pa.string()),
            "source": pa.array(["mono", "mono", "mixed", "mixed", "mixed"],
                               pa.string()),
            "n_chars": pa.array([3] * 5, pa.int64()),
        }))
        got = q_lang_entropy_by_source(str(tmp_path))
        con = duckdb.connect()
        con.execute("CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/documents.parquet')")
        want = con.execute(SQL_LANG_ENTROPY_BY_SOURCE).df()
        assert [str(v) for v in got["lang_entropy_bits"]] \
            == [str(v) for v in want["lang_entropy_bits"]] == ["0.918296", "-0.0"]
        assert got["source"].tolist() == want["source"].tolist()


SF = "/root/testdata/sf0.01"


def _first_line_per_order(t: pa.Table) -> pa.Table:
    """lineitem cut to the first line of each order: the
    part-succession graph has no edge and no order holds a pair."""
    t = t.sort_by([("l_orderkey", "ascending"), ("l_linenumber", "ascending")])
    k = t["l_orderkey"].to_numpy()
    return t.filter(pa.array(np.r_[True, k[1:] != k[:-1]]))


def _wordless(t: pa.Table) -> pa.Table:
    """documents with every text empty and every n_chars 0: no word,
    no n-gram and no token partial anywhere."""
    t = t.set_column(t.schema.get_field_index("text"), "text",
                     pa.array([""] * t.num_rows, pa.string()))
    return t.set_column(t.schema.get_field_index("n_chars"), "n_chars",
                        pa.array([0] * t.num_rows, pa.int64()))


def _degenerate(tmp_path_factory, table: str, derive) -> str:
    """A copy of sf0.01 with ``table`` replaced by ``derive(table)``,
    made with pyarrow in a temp dir; the other tables are linked."""
    d = tmp_path_factory.mktemp(derive.__name__.strip("_"))
    for f in os.listdir(SF):
        if f.endswith(".parquet") and f != f"{table}.parquet":
            os.symlink(os.path.join(SF, f), d / f)
    pq.write_table(derive(pq.read_table(f"{SF}/{table}.parquet")),
                   str(d / f"{table}.parquet"))
    return str(d)


def _assert_oracle_equal(sf_dir: str, mod: str, name: str) -> None:
    """The query equals its DuckDB oracle on ``sf_dir`` under the
    strict string compare (sorted columns and rows, ``str`` values)."""
    m = importlib.import_module(f"crawler_tjce_ray.pipelines.{mod}")
    _assert_equal(sf_dir, m.QUERIES[name], m.ORACLE_SQL[name])


def _assert_equal(sf_dir: str, query, sql: str) -> None:
    import duckdb

    got = query(sf_dir)
    if hasattr(got, "to_pandas"):  # a registry query may return a Dataset
        got = got.to_pandas()
    con = duckdb.connect()
    for f in os.listdir(sf_dir):
        con.execute(f"CREATE VIEW {f[:-len('.parquet')]} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{f}')")
    want = con.execute(sql).df()

    def strict(df):
        df = df[sorted(df.columns)].astype(str)
        return df.sort_values(list(df.columns), kind="mergesort") \
            .reset_index(drop=True)

    assert strict(got).equals(strict(want))


ONE_LINE_QUERIES = [
    ("graph", "pagerank_parts"), ("graph", "bfs_hops"),
    ("graph", "degree_distribution"), ("graph", "edge_reciprocity"),
    ("graph", "triangle_count"), ("relational", "assoc_rules"),
    ("relational", "part_cooccurrence"),
]


@pytest.fixture(scope="module")
def one_line_per_order(tmp_path_factory):
    return _degenerate(tmp_path_factory, "lineitem", _first_line_per_order)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("mod,name", ONE_LINE_QUERIES,
                         ids=[n for _, n in ONE_LINE_QUERIES])
def test_one_line_per_order(one_line_per_order, mod, name):
    """Ray drops the empty per-block partials of an edgeless graph, so
    the driver used to read frames with no columns; each query must
    equal its oracle under the strict string compare, NULL ratios
    (reciprocity, wedges, clustering) included."""
    _assert_oracle_equal(one_line_per_order, mod, name)


# every text-module oracle query, and the other two word-keyed ones
WORDLESS_QUERIES = [
    (mod, name) for mod in ("webtext", "training", "textops")
    for name in importlib.import_module(
        f"crawler_tjce_ray.pipelines.{mod}").ORACLE_SQL
] + [("graph", "inverted_index"), ("sketches", "heavy_hitters_exact")]


@pytest.fixture(scope="module")
def wordless_corpus(tmp_path_factory):
    return _degenerate(tmp_path_factory, "documents", _wordless)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("mod,name", WORDLESS_QUERIES,
                         ids=[n for _, n in WORDLESS_QUERIES])
def test_wordless_corpus(wordless_corpus, mod, name):
    """Every oracle-backed text query on a corpus with no word: each
    exchange forms no group and each token partial is empty, so the
    driver reads its partials through ``exchange.to_pandas`` and must
    return the oracle's zero rows and empty tables."""
    _assert_oracle_equal(wordless_corpus, mod, name)


# the queries whose bucket exchange moved onto ``exchange.shuffle`` last,
# and the ones that group-aggregate through ``exchange.aggregate``, each
# reading orders, events, lineitem or documents
ZERO_ROW_QUERIES = [("relational", n) for n in (
    "purchase_id_islands", "top_paths", "attribution_first_touch",
    "first_last_order", "part_cooccurrence", "customer_year_setops",
    "dense_rank_topk", "merge_intervals",
    "pricing_summary", "groupby_count", "min_max_dates", "filter_range_agg",
    "brand_revenue", "hourly_window", "sliding_window", "weekly_revenue_wow",
    "hourly_dense_counts", "ks_two_sources", "rolling_daily_revenue_p50",
    "monthly_seasonality", "weekday_profile", "reason_histogram",
    "rollup_revenue", "cube_revenue", "pivot_status", "chars_percent_rank",
    "row_number_ntile", "mode_qty_per_flag", "chi2_lang_source",
    "mi_lang_source", "distinct_users_by_type", "sources_per_lang",
    "qty_moments_by_flag", "regr_price_qty", "welch_t_value",
    "zscore_events", "resequence_ordem",
)] + [
    ("textops", "lang_purity_by_source"), ("textops", "char_class_profile"),
    ("textops", "lang_id_confusion"), ("textops", "lang_entropy_by_source"),
    ("webtext", "quantile_filter"), ("webtext", "source_token_share"),
    ("webtext", "lang_median_chars"), ("sketches", "value_histogram"),
    ("sketches", "heavy_hitters_exact"), ("graph", "degree_distribution"),
    ("dedup", "dedup_exact"),
]

ZERO_ROW_TABLES = ("orders", "events", "lineitem", "documents")


@pytest.fixture(scope="module")
def zero_rows(tmp_path_factory):
    """sf0.01 with orders, events, lineitem and documents cut to zero
    rows (typed, written with pyarrow); the other tables are linked."""
    d = tmp_path_factory.mktemp("zero_rows")
    for f in os.listdir(SF):
        if f[:-len(".parquet")] in ZERO_ROW_TABLES:
            pq.write_table(pq.read_table(f"{SF}/{f}").slice(0, 0), str(d / f))
        elif f.endswith(".parquet"):
            os.symlink(os.path.join(SF, f), d / f)
    return str(d)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("mod,name", ZERO_ROW_QUERIES,
                         ids=[n for _, n in ZERO_ROW_QUERIES])
def test_zero_row_tables(zero_rows, mod, name):
    """No row reaches the exchange or the aggregate, so every partial
    is empty: ``exchange.to_pandas`` returns the declared columns and
    ``exchange.aggregate`` the typed empty result, and each query must
    return the oracle's empty (or zero-count) result, not a
    ``KeyError``."""
    _assert_oracle_equal(zero_rows, mod, name)


def _oracle_queries():
    from crawler_tjce_ray.pipelines import registry

    queries = registry.build_queries()
    return sorted(n for n in registry.build_oracle_sql() if n in queries)


# a typed error each of these documents for k > n (k-means k=8 over 5 vectors)
K_OVER_N = {"kmeans_embeddings", "semdedup"}


@pytest.fixture(scope="module")
def five_rows(tmp_path_factory):
    """sf0.01 cut to the first 5 rows of every table, written with
    pyarrow: most joins match nothing, most exchanges form no group."""
    d = tmp_path_factory.mktemp("five_rows")
    for f in os.listdir(SF):
        if f.endswith(".parquet"):
            pq.write_table(pq.read_table(f"{SF}/{f}").slice(0, 5), str(d / f))
    return str(d)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", _oracle_queries())
def test_five_rows_per_table(five_rows, name):
    """Every oracle-backed query on 5-row tables equals its oracle
    under the strict string compare; the driver reads partials that
    can all be empty through ``exchange.to_pandas``.  The k-means
    queries raise their typed k > n error instead."""
    from crawler_tjce_ray.pipelines import registry

    query = registry.build_queries()[name]
    if name in K_OVER_N:
        with pytest.raises(ValueError, match="exceeds the 5 embeddings"):
            query(five_rows)
        return
    _assert_equal(five_rows, query, registry.build_oracle_sql()[name])
