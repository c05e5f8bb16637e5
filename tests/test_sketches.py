"""HLL sketch properties: mergeability, error bound vs exact distinct,
determinism."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from crawler_tjce_ray.pipelines.sketches import (
    hll_estimate, hll_registers,
)

SF_DIR = "/root/testdata/sf0.001"


class TestHLLKernel:
    def test_merge_equals_union(self):
        a = [f"u{i}" for i in range(500)]
        b = [f"u{i}" for i in range(300, 900)]
        ra, rb = hll_registers(a), hll_registers(b)
        merged = np.maximum(ra, rb)
        assert (merged == hll_registers(a + b)).all()

    def test_error_bound(self):
        for n in (100, 1000, 20000):
            est = hll_estimate(hll_registers([f"user-{i}" for i in range(n)]))
            assert abs(est - n) / n < 0.05, (n, est)

    def test_deterministic(self):
        vals = [f"x{i}" for i in range(777)]
        assert hll_estimate(hll_registers(vals)) == hll_estimate(hll_registers(vals))


@pytest.mark.usefixtures("ray_session")
class TestSketchQueries:
    def test_approx_distinct_close_to_exact(self):
        from crawler_tjce_ray.pipelines.sketches import q_approx_distinct_users

        exact = (
            pq.read_table(f"{SF_DIR}/events.parquet", columns=["user_id"])
            .to_pandas()["user_id"].nunique()
        )
        est = q_approx_distinct_users(SF_DIR)["approx_distinct_users"].iloc[0]
        assert abs(est - exact) / exact < 0.05, (exact, est)

    def test_quantiles_match_numpy(self):
        from crawler_tjce_ray.pipelines.sketches import q_value_quantiles

        out = q_value_quantiles(SF_DIR)
        df = pq.read_table(
            f"{SF_DIR}/events.parquet", columns=["event_type", "value"]
        ).to_pandas()
        for _, row in out.iterrows():
            v = df[df["event_type"] == row["event_type"]]["value"].to_numpy()
            assert row["p50"] == pytest.approx(np.quantile(v, 0.5), abs=1e-6)
            assert row["p99"] == pytest.approx(np.quantile(v, 0.99), abs=1e-6)


@pytest.mark.usefixtures("ray_session")
class TestShardedPacking:
    def test_invariants_and_determinism(self):
        from crawler_tjce_ray.pipelines.textops import (
            PACK_CAPACITY, q_pack_sequences, q_pack_sequences_sharded,
        )

        sf = SF_DIR
        exact = q_pack_sequences(sf)
        sharded = q_pack_sequences_sharded(sf)
        # every doc packed exactly once, token counts agree with the
        # global packer (truncation rule is shard-independent)
        assert sorted(sharded["doc_id"]) == sorted(exact["doc_id"])
        merged = sharded.merge(exact, on="doc_id", suffixes=("_s", "_g"))
        assert (merged["n_tokens_s"] == merged["n_tokens_g"]).all()
        # capacity invariant per sequence
        per_seq = sharded.groupby("seq_id")["n_tokens"].sum()
        assert (per_seq <= PACK_CAPACITY).all()
        # offsets are the running sum within each sequence (doc order)
        for _, g in sharded.sort_values(["seq_id", "doc_id"]).groupby("seq_id"):
            expect = np.concatenate([[0], g["n_tokens"].cumsum().to_numpy()[:-1]])
            assert (g["offset"].to_numpy() == expect).all()
        # deterministic across runs
        again = q_pack_sequences_sharded(sf)
        pd.testing.assert_frame_equal(sharded, again)


class TestCMSKernel:
    def test_additive_merge(self):
        from crawler_tjce_ray.pipelines.sketches import cms_add, cms_estimate

        a = pd.Series({"x": 5, "y": 3})
        b = pd.Series({"x": 2, "z": 7})
        merged = cms_add(a) + cms_add(b)
        union = cms_add(pd.Series({"x": 7, "y": 3, "z": 7}))
        assert (merged == union).all()
        est = cms_estimate(merged, np.array(["x", "y", "z"], dtype=object))
        # one-sided guarantee: never under-counts
        assert (est >= np.array([7, 3, 7])).all()

    def test_one_sided_error_bound(self):
        from crawler_tjce_ray.pipelines.sketches import (
            CMS_W, cms_add, cms_estimate,
        )

        rng = np.random.default_rng(7)
        # Zipf-ish stream: ~2k distinct tokens, N total
        toks = [f"t{int(z)}" for z in rng.zipf(1.3, size=20000) if z < 2000]
        counts = pd.Series(toks).value_counts()
        sk = cms_add(counts)
        keys = counts.index.to_numpy()
        est = cms_estimate(sk, keys)
        true = counts.to_numpy(dtype=np.int64)
        assert (est >= true).all()
        # CMS bound: overshoot <= e*N/w with prob 1-e^-d; assert a
        # loose multiple to keep the test deterministic-safe
        n_total = int(true.sum())
        assert (est - true).max() <= 8 * n_total / CMS_W


@pytest.mark.usefixtures("ray_session")
class TestCMSQuery:
    def test_top_tokens_match_exact(self):
        """The sketch's top-k must agree with the exact token counts on
        the small corpus (estimates over-count at most slightly; the
        head of a Zipf distribution is unambiguous)."""
        from crawler_tjce_ray.pipelines.sketches import q_cms_heavy_hitters

        out = q_cms_heavy_hitters(SF_DIR)
        texts = (
            pq.read_table(f"{SF_DIR}/documents.parquet", columns=["text"])
            .to_pandas()["text"]
        )
        exact = (
            texts.str.lower().str.findall(r"[a-z0-9]+").explode().value_counts()
        )
        top = out.set_index("token")["est_count"]
        # every reported estimate >= its true count (one-sided)
        for tok, est in top.items():
            assert est >= exact.get(tok, 0), (tok, est, exact.get(tok, 0))
        # the exact top-5 tokens all appear in the sketch's top-20
        assert set(exact.head(5).index) <= set(top.index)
        # deterministic
        pd.testing.assert_frame_equal(out, q_cms_heavy_hitters(SF_DIR))


class TestQuantileSummaryKernel:
    def test_rank_error_bound(self):
        from crawler_tjce_ray.pipelines.sketches import (
            QSK_K, quantile_summary, quantile_summary_query,
        )

        rng = np.random.RandomState(11)
        data = rng.lognormal(0, 2, size=40_000)
        # simulate arbitrary block splits, merge the per-block summaries
        splits = np.array_split(data, 13)
        vs, ws = [], []
        for blk in splits:
            v, w = quantile_summary(blk)
            vs.append(v)
            ws.append(w)
        v, w = np.concatenate(vs), np.concatenate(ws)
        exact = np.sort(data)
        n = len(exact)
        for q in (0.05, 0.5, 0.9, 0.99):
            (est,) = quantile_summary_query(v, w, [q])
            lo = np.searchsorted(exact, est, side="left")
            hi = np.searchsorted(exact, est, side="right")
            eps = 1.0 / (2 * QSK_K)
            assert lo - n * eps <= q * n <= hi + n * eps, (q, est)

    def test_small_block_exact(self):
        from crawler_tjce_ray.pipelines.sketches import (
            quantile_summary, quantile_summary_query,
        )

        data = np.arange(100, dtype=np.float64)
        v, w = quantile_summary(data)
        assert (w == 1.0).all() and len(v) == 100  # below K -> lossless
        (med,) = quantile_summary_query(v, w, [0.5])
        assert med == np.sort(data)[49]


@pytest.mark.usefixtures("ray_session")
class TestApproxQuantilesQuery:
    def test_close_to_exact_and_deterministic(self):
        from crawler_tjce_ray.pipelines.sketches import (
            QSK_K, QUANTILES, q_approx_value_quantiles,
        )

        out = q_approx_value_quantiles(SF_DIR)
        out2 = q_approx_value_quantiles(SF_DIR)
        pd.testing.assert_frame_equal(out, out2)  # deterministic

        ev = pq.read_table(
            f"{SF_DIR}/events.parquet", columns=["event_type", "value"]
        ).to_pandas()
        eps = 1.0 / (2 * QSK_K)
        for _, row in out.iterrows():
            g = np.sort(
                ev.loc[ev["event_type"] == row["event_type"], "value"].to_numpy()
            )
            n = len(g)
            for q in QUANTILES:
                est = row[f"p{int(q * 100)}"]
                lo = np.searchsorted(g, est, side="left")
                hi = np.searchsorted(g, est, side="right")
                # blocks at sf0.001 are small -> generous 4x slack on
                # the per-block midpoint rounding
                assert lo - n * 4 * eps - 1 <= q * n <= hi + n * 4 * eps + 1, (
                    row["event_type"], q, est,
                )


class TestBloomKernel:
    def test_no_false_negatives_and_fp_rate(self):
        from crawler_tjce_ray.pipelines.relational import (
            _BLOOM_K, _BLOOM_M, _bloom_build, _bloom_test,
        )

        members = np.arange(0, 5000, dtype=np.int64)
        others = np.arange(100_000, 140_000, dtype=np.int64)
        bf = _bloom_build(members)
        assert _bloom_test(bf, members).all()  # never a false negative
        fp = _bloom_test(bf, others).mean()
        expect = (1 - np.exp(-_BLOOM_K * len(members) / _BLOOM_M)) ** _BLOOM_K
        assert fp < 3 * expect + 1e-3, (fp, expect)

    def test_or_merge_equals_union(self):
        from crawler_tjce_ray.pipelines.relational import _bloom_build

        a = np.arange(0, 1000, dtype=np.int64)
        b = np.arange(500, 1500, dtype=np.int64)
        merged = _bloom_build(a) | _bloom_build(b)
        assert (merged == _bloom_build(np.arange(0, 1500, dtype=np.int64))).all()

    def test_deterministic_across_calls(self):
        from crawler_tjce_ray.pipelines.relational import _bloom_positions

        keys = np.array([1, 2**40, -7, 0], dtype=np.int64)
        np.testing.assert_array_equal(_bloom_positions(keys), _bloom_positions(keys))


def test_bloom_sizing_tracks_blocklist():
    """m grows with the blocklist so the filter never saturates
    (fixed m would hit ~100% FPs once kn/m >> 1)."""
    from crawler_tjce_ray.pipelines.relational import (
        _BLOOM_M, _bloom_build, _bloom_size, _bloom_test,
    )

    assert _bloom_size(0) == _BLOOM_M
    assert _bloom_size(1_000_000) >= 16_000_000
    # FP rate stays low even at a cardinality that saturates _BLOOM_M
    n = 200_000
    members = np.arange(n, dtype=np.int64)
    bf = _bloom_build(members, _bloom_size(n))
    others = np.arange(10_000_000, 10_040_000, dtype=np.int64)
    assert _bloom_test(bf, members).all()
    assert _bloom_test(bf, others).mean() < 0.01


class TestQuantileSelect:
    """Distributed quickselect: exact quantiles without a value
    shuffle, multi-pass narrowing, and the all-ties short-circuit."""

    SF = "/root/testdata/sf0.001"

    def test_matches_numpy_exact(self):
        import math

        import pyarrow.parquet as pq

        from crawler_tjce_ray.pipelines.sketches import SELECT_QS, q_quantile_select

        out = q_quantile_select(self.SF)
        v = np.sort(
            pq.read_table(f"{self.SF}/events.parquet", columns=["value"])
            .to_pandas()["value"].to_numpy(np.float64)
        )
        for q, got in zip(SELECT_QS, out["value"]):
            k = max(1, math.ceil(q * len(v)))
            assert got == v[k - 1], q  # bit-exact, quantile_disc rank

    def test_multi_pass_narrowing(self, monkeypatch):
        """Forcing a tiny collect cap exercises >1 histogram round and
        must not change the (exact) answer."""
        from crawler_tjce_ray.pipelines import sketches

        base = sketches.q_quantile_select(self.SF)
        monkeypatch.setattr(sketches, "_SELECT_COLLECT_MAX", 4)
        multi = sketches.q_quantile_select(self.SF)
        pd.testing.assert_frame_equal(base, multi)

    def test_all_ties_short_circuit(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        t = pa.table({
            "event_type": pa.array(["x"] * 100),
            "value": pa.array([3.25] * 100, pa.float64()),
        })
        pq.write_table(t, str(tmp_path / "events.parquet"))
        from crawler_tjce_ray.pipelines.sketches import q_quantile_select

        out = q_quantile_select(str(tmp_path))
        assert (out["value"] == 3.25).all()


class TestGroupedMedianSelect:
    SF = "/root/testdata/sf0.001"

    def test_matches_numpy_per_group(self):
        import math

        import pyarrow.parquet as pq

        from crawler_tjce_ray.pipelines.sketches import q_grouped_median_select

        out = q_grouped_median_select(self.SF).set_index("event_type")
        df = pq.read_table(
            f"{self.SF}/events.parquet", columns=["event_type", "value"]
        ).to_pandas()
        for g, sub in df.groupby("event_type"):
            v = np.sort(sub["value"].to_numpy(np.float64))
            k = max(1, math.ceil(0.5 * len(v)))
            assert out.loc[g, "median_value"] == v[k - 1], g

    def test_multi_pass_same_answer(self, monkeypatch):
        from crawler_tjce_ray.pipelines import sketches

        base = sketches.q_grouped_median_select(self.SF)
        monkeypatch.setattr(sketches, "_SELECT_COLLECT_MAX", 2)
        multi = sketches.q_grouped_median_select(self.SF)
        pd.testing.assert_frame_equal(base, multi)


@pytest.mark.usefixtures("ray_session")
class TestHeavyHittersExact:
    def test_excludes_rare_includes_common(self):
        """The synthetic vocab is ~30 near-uniform tokens (~3.2% share
        each) plus the rare planted 'dup' (~0.1%): the phi = 3%
        threshold must keep the uniform mass and drop the rare one."""
        from crawler_tjce_ray.pipelines.sketches import q_heavy_hitters_exact

        out = q_heavy_hitters_exact(SF_DIR)
        assert "dup" not in set(out["token"])
        assert len(out) >= 20
        assert (out["token"].to_numpy() == np.sort(out["token"].to_numpy())).all()

    def test_counts_are_exact(self):
        """Output counts must equal brute-force exact counts (the CMS
        only prunes candidates; it never supplies the published
        numbers)."""
        from crawler_tjce_ray.pipelines.sketches import (
            HH_PHI, q_heavy_hitters_exact,
        )

        docs = pq.read_table(
            f"{SF_DIR}/documents.parquet", columns=["text"]
        ).to_pandas()
        toks = (
            docs["text"].str.lower().str.findall(r"[a-z0-9]+")
            .explode().dropna()
        )
        counts = toks.value_counts()
        import math
        threshold = math.ceil(HH_PHI * int(counts.sum()))
        truth = counts[counts >= threshold].sort_index()

        out = q_heavy_hitters_exact(SF_DIR)
        assert list(out["token"]) == list(truth.index)
        assert list(out["cnt"]) == [int(c) for c in truth]


@pytest.mark.usefixtures("ray_session")
class TestValueHistogram:
    def test_partition_of_rows(self):
        """Bin counts must partition the table: every value lands in
        exactly one bin, edges clamp the max into the last bin."""
        from crawler_tjce_ray.pipelines.sketches import q_value_histogram

        out = q_value_histogram(SF_DIR)
        n = len(pq.read_table(f"{SF_DIR}/events.parquet", columns=["value"]))
        assert int(out["cnt"].sum()) == n
        assert out["bin"].between(0, 15).all()
        assert out["bin"].is_monotonic_increasing
        # bin_lo is the shared left edge: strictly increasing with bin
        assert out["bin_lo"].is_monotonic_increasing

    def test_matches_sql_oracle(self):
        """The per-block ``hist`` kernel runs on pyarrow batches; its
        result must equal ``SQL_VALUE_HISTOGRAM`` exactly (same bins,
        same counts, same left edges)."""
        import duckdb

        from crawler_tjce_ray.pipelines.sketches import (
            SQL_VALUE_HISTOGRAM, q_value_histogram,
        )

        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS SELECT * FROM '{SF_DIR}/events.parquet'")
        ref = con.execute(SQL_VALUE_HISTOGRAM).df()
        out = q_value_histogram(SF_DIR)
        assert list(out["bin"]) == [int(b) for b in ref["bin"]]
        assert list(out["cnt"]) == [int(c) for c in ref["cnt"]]
        np.testing.assert_array_equal(out["bin_lo"].to_numpy(),
                                      ref["bin_lo"].round(6).to_numpy())
