"""Property tests for the non-SQL dedup / similarity / text operators:
MinHash+LSH recall vs brute-force Jaccard, SimHash blocking, winnowing
fingerprints, and IVF ANN recall vs the brute-force baseline."""

import itertools

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


def _docs():
    return (
        pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _brute_jaccard_pairs(tau: float) -> set[tuple[int, int]]:
    from crawler_tjce_ray.pipelines.dedup import ngram_set

    docs = _docs()
    grams = [ngram_set(t.split()) for t in docs["text"]]
    ids = docs["doc_id"].to_numpy()
    out = set()
    for i, j in itertools.combinations(range(len(ids)), 2):
        inter = len(grams[i] & grams[j])
        if inter and inter / (len(grams[i]) + len(grams[j]) - inter) >= tau:
            out.add((int(ids[i]), int(ids[j])))
    return out


@pytest.mark.usefixtures("ray_session")
class TestMinHashLSH:
    def test_recall_and_precision_vs_brute_force(self):
        from crawler_tjce_ray.pipelines.dedup import MINHASH_TAU, q_dedup_minhash_lsh

        truth = _brute_jaccard_pairs(MINHASH_TAU)
        got = q_dedup_minhash_lsh(SF_DIR)
        got_pairs = set(zip(got["doc_a"].astype(int), got["doc_b"].astype(int)))
        assert truth, "testdata should contain planted near-dup pairs"
        # every emitted pair is exact-verified ≥ tau by construction
        assert got_pairs <= truth
        # LSH with 32×4 bands at jaccard≈0.99 must not miss
        recall = len(got_pairs & truth) / len(truth)
        assert recall >= 0.95, f"recall {recall}"
        assert (got["jaccard"] >= MINHASH_TAU).all()

    def test_bucketed_tier_matches_broadcast_and_holds_no_driver_text(
        self, monkeypatch
    ):
        """Force the scale tier (threshold 0) and require byte-equal
        pairs vs the broadcast tier; patch ``ngram_set`` — the ONLY
        path that builds driver/broadcast shingle state — to raise, so
        any driver-side text materialization fails the test."""
        from crawler_tjce_ray.pipelines import dedup

        broadcast = dedup.q_dedup_minhash_lsh(SF_DIR)
        assert len(broadcast) > 0, "corpus should contain planted near-dups"

        def _boom(*a, **k):
            raise AssertionError("scale tier must not build shingle sets")

        monkeypatch.setattr(dedup, "VERIFY_BROADCAST_MAX_DOCS", 0)
        monkeypatch.setattr(dedup, "ngram_set", _boom)
        bucketed = dedup.q_dedup_minhash_lsh(SF_DIR)

        pd.testing.assert_frame_equal(
            bucketed.reset_index(drop=True),
            broadcast.reset_index(drop=True),
            check_exact=False, rtol=1e-12, atol=1e-12,
        )

    def test_signature_determinism_and_similarity(self):
        from crawler_tjce_ray.pipelines.dedup import (
            gram_hashes, minhash_signature, ngram_set,
        )

        a = ngram_set("the quick brown fox jumps over the lazy dog end".split())
        s1 = minhash_signature(gram_hashes(a))
        s2 = minhash_signature(gram_hashes(a))
        assert (s1 == s2).all()
        # signature agreement rate estimates jaccard
        b = ngram_set("the quick brown fox jumps over the lazy cat end".split())
        inter = len(a & b)
        jac = inter / (len(a) + len(b) - inter)
        sb = minhash_signature(gram_hashes(b))
        est = (s1 == sb).mean()
        assert abs(est - jac) < 0.25


@pytest.mark.usefixtures("ray_session")
class TestSimHash:
    def test_identical_docs_hamming_zero(self):
        from crawler_tjce_ray.pipelines.dedup import gram_hashes, ngram_set, simhash64

        h1 = simhash64(gram_hashes(ngram_set("a b c d e f g".split())))
        h2 = simhash64(gram_hashes(ngram_set("a b c d e f g".split())))
        assert h1 == h2

    def test_pairs_are_near_dups(self):
        from crawler_tjce_ray.pipelines.dedup import (
            SIMHASH_MAX_HAMMING, q_dedup_simhash,
        )

        got = q_dedup_simhash(SF_DIR)
        assert (got["hamming"] <= SIMHASH_MAX_HAMMING).all()
        assert (got["doc_a"] < got["doc_b"]).all()
        # simhash near-dups should heavily overlap the jaccard near-dups
        truth = _brute_jaccard_pairs(0.5)
        got_pairs = set(zip(got["doc_a"].astype(int), got["doc_b"].astype(int)))
        if got_pairs:
            overlap = len(got_pairs & truth) / len(got_pairs)
            assert overlap >= 0.9, f"simhash precision vs jaccard@0.5: {overlap}"


class TestWinnowing:
    def test_near_dup_docs_share_fingerprints(self):
        from crawler_tjce_ray.pipelines.textops import winnow_doc

        base = "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12 w13 w14 w15 w16".split()
        edited = list(base)
        edited[7] = "XX"
        fa = set(winnow_doc(base).tolist())
        fb = set(winnow_doc(edited).tolist())
        assert fa and fb
        assert len(fa & fb) > 0  # shared local fingerprints survive an edit
        other = set(winnow_doc("z1 z2 z3 z4 z5 z6 z7 z8 z9 z10".split()).tolist())
        assert not (fa & other)

    def test_short_doc_and_determinism(self):
        from crawler_tjce_ray.pipelines.textops import winnow_doc

        assert len(winnow_doc([])) == 0
        short = winnow_doc(["a", "b"])
        assert len(short) == 2  # token hashes for sub-k docs
        t = "the same text twice".split()
        assert (winnow_doc(t) == winnow_doc(t)).all()


@pytest.mark.usefixtures("ray_session")
class TestANN:
    def test_bruteforce_self_hit(self):
        from crawler_tjce_ray.pipelines.similarity import q_ann_cosine_topk

        got = q_ann_cosine_topk(SF_DIR)
        r1 = got[got["rank"] == 1]
        # rank-1 for every query is the query vector itself, cosine 1
        assert (r1["vec_id"].to_numpy() == r1["query_id"].to_numpy()).all()
        assert np.allclose(r1["cosine"], 1.0)

    def test_ivf_recall_vs_bruteforce(self):
        from crawler_tjce_ray.pipelines.similarity import (
            q_ann_cosine_topk, q_ann_ivf_topk,
        )

        brute = q_ann_cosine_topk(SF_DIR)
        ivf = q_ann_ivf_topk(SF_DIR)
        recalls = []
        for qid, g in brute.groupby("query_id"):
            truth = set(g["vec_id"])
            approx = set(ivf[ivf["query_id"] == qid]["vec_id"])
            recalls.append(len(truth & approx) / len(truth))
        # nprobe=4/16 cells: the self-cell is always probed; expect
        # decent average recall on 64-d gaussian-ish vectors
        assert np.mean(recalls) >= 0.5, f"mean recall {np.mean(recalls)}"
        # every query answered with k results
        assert (ivf.groupby("query_id")["rank"].count() >= 1).all()

    def test_lsh_recall_vs_bruteforce(self):
        from crawler_tjce_ray.pipelines.similarity import (
            q_ann_cosine_topk, q_ann_lsh_topk,
        )

        brute = q_ann_cosine_topk(SF_DIR)
        lsh = q_ann_lsh_topk(SF_DIR)
        recalls = []
        for qid, g in brute.groupby("query_id"):
            truth = set(g["vec_id"])
            approx = set(lsh[lsh["query_id"] == qid]["vec_id"])
            recalls.append(len(truth & approx) / len(truth))
        # 8 hyperplanes / Hamming<=3 probes ~93/256 of the space; the
        # query's own bucket is always probed (self-hit at rank 1)
        assert np.mean(recalls) >= 0.5, f"mean recall {np.mean(recalls)}"
        assert (lsh.groupby("query_id")["rank"].count() >= 1).all()
        # deterministic across runs (fixed hash family)
        import pandas as pd
        pd.testing.assert_frame_equal(lsh, q_ann_lsh_topk(SF_DIR))


@pytest.mark.usefixtures("ray_session")
class TestNgramJaccardGuard:
    def test_guard_trips_on_large_table(self, monkeypatch):
        """The O(n²) verifier refuses to run standalone past the doc
        limit instead of materializing a large corpus driver-side."""
        from crawler_tjce_ray.pipelines import dedup

        monkeypatch.setattr(dedup, "NGRAM_JACCARD_MAX_DOCS", 10)
        with pytest.raises(ValueError, match="refuses"):
            dedup.q_dedup_ngram_jaccard(SF_DIR)

    def test_passes_under_limit(self):
        from crawler_tjce_ray.pipelines import dedup

        out = dedup.q_dedup_ngram_jaccard(SF_DIR)
        assert {"doc_a", "doc_b", "jaccard"} <= set(out.columns)


@pytest.mark.usefixtures("ray_session")
class TestDistributedClusterLabels:
    def test_matches_union_find_and_runs_multi_round(self):
        from crawler_tjce_ray.pipelines import dedup

        a = dedup.q_dedup_clusters(SF_DIR)
        b = dedup.q_dedup_clusters_distributed(SF_DIR)
        pd.testing.assert_frame_equal(a, b)

    def test_long_chain_converges_via_pointer_jumping(self):
        """A 150-node path graph: plain min-propagation needs 150
        rounds; with pointer jumping it must converge well inside the
        default budget and label every node with the component min."""
        from crawler_tjce_ray.pipelines.dedup import cluster_labels_distributed

        n = 150
        pairs = pd.DataFrame({
            "doc_a": list(range(n - 1)),
            "doc_b": list(range(1, n)),
        })
        out = cluster_labels_distributed(SF_DIR, pairs, max_rounds=16)
        chain = out[out["doc_id"] < n]
        assert (chain["cluster_id"] == 0).all()
        rest = out[out["doc_id"] >= n]
        assert (rest["cluster_id"] == rest["doc_id"]).all()

    def test_exhaustion_raises_instead_of_silent_partial(self):
        from crawler_tjce_ray.pipelines.dedup import cluster_labels_distributed

        pairs = pd.DataFrame({
            "doc_a": list(range(60)),
            "doc_b": list(range(1, 61)),
        })
        with pytest.raises(RuntimeError, match="did not converge"):
            cluster_labels_distributed(SF_DIR, pairs, max_rounds=2)


@pytest.mark.usefixtures("ray_session")
class TestJaccardPrefixJoin:
    def test_equals_all_pairs_verifier(self):
        """The PPJoin-style prefix-filtered exact join must return the
        IDENTICAL pair set (ids and jaccard values) as the O(n²)
        broadcast verifier — prefix filtering is lossless for J ≥ τ."""
        from crawler_tjce_ray.pipelines import dedup

        a = dedup.q_dedup_jaccard_prefix(SF_DIR).reset_index(drop=True)
        b = dedup.q_dedup_ngram_jaccard(SF_DIR).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_distributed_verify_tier_equals_broadcast_tier(self, monkeypatch):
        """Forcing the candidate count over the broadcast cut must
        route verification through the two-hop cogroup path
        and produce the identical result."""
        from crawler_tjce_ray.pipelines import dedup

        broadcast = dedup.q_dedup_jaccard_prefix(SF_DIR).reset_index(drop=True)
        monkeypatch.setattr(dedup, "VERIFY_BROADCAST_MAX_DOCS", 0)
        distributed = dedup.q_dedup_jaccard_prefix(SF_DIR).reset_index(drop=True)
        pd.testing.assert_frame_equal(distributed, broadcast)

    def test_empty_result_schema(self, tmp_path):
        """All-distinct docs → zero pairs, but the schema and dtypes
        must still match the oracle (the driver hashes the schema)."""
        import pyarrow as pa
        import pyarrow.parquet as pq2
        from crawler_tjce_ray.pipelines import dedup

        t = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([
                "alpha beta gamma delta epsilon zeta",
                "one two three four five six seven",
                "red orange yellow green blue indigo violet",
            ]),
        })
        pq2.write_table(t, str(tmp_path / "documents.parquet"))
        out = dedup.q_dedup_jaccard_prefix(str(tmp_path))
        assert len(out) == 0
        assert list(out.columns) == ["doc_a", "doc_b", "jaccard"]
        assert str(out["doc_a"].dtype) == "int64"
        assert str(out["jaccard"].dtype) == "float64"


class TestExactTauBounds:
    """The prune thresholds must use exact integer ceil over tau's
    rational form — float np.ceil over-estimates for some tau (found
    in review at tau=0.8, n=63: 29 vs the exact 28)."""

    def test_ceil_tau_matches_fractions(self, monkeypatch):
        from fractions import Fraction

        from crawler_tjce_ray.pipelines import dedup

        for tau in (0.5, 0.8, 0.7, 0.9, 0.85):
            p, q = tau.as_integer_ratio()
            monkeypatch.setattr(dedup, "_TAU_P", p)
            monkeypatch.setattr(dedup, "_TAU_Q", q)
            n = np.arange(1, 4000, dtype=np.int64)
            got = dedup._ceil_tau_mul(n)
            ft = Fraction(p, q)
            exact = np.array([-(-(ft * int(x)).numerator
                               // (ft * int(x)).denominator) for x in n])
            assert (got == exact).all(), tau
            got_a = dedup._alpha_overlap(n)
            fa = Fraction(p, p + q)
            exact_a = np.array([-(-(fa * int(x)).numerator
                                 // (fa * int(x)).denominator) for x in n])
            assert (got_a == exact_a - 1).all(), tau  # includes the slack

    def test_prefix_join_still_exact_at_tau_08(self, monkeypatch, tmp_path):
        """End-to-end at a tau where the float bound is WRONG: plant
        boundary pairs and require prefix-join == all-pairs verifier."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from crawler_tjce_ray.pipelines import dedup

        rng = np.random.RandomState(11)
        vocab = [f"w{i}" for i in range(40)]
        texts = []
        for i in range(40):
            words = list(rng.choice(vocab, size=30))
            texts.append(" ".join(words))
        # boundary near-dups: copy with small tail edits
        for i in range(6):
            w = texts[i].split(" ")
            w[-1] = "zz%d" % i
            texts.append(" ".join(w))
        t = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        })
        pq.write_table(t, str(tmp_path / "documents.parquet"))

        for tau in (0.8, 0.85):
            p, q = tau.as_integer_ratio()
            monkeypatch.setattr(dedup, "JACCARD_TAU", tau)
            monkeypatch.setattr(dedup, "_TAU_P", p)
            monkeypatch.setattr(dedup, "_TAU_Q", q)
            a = dedup.q_dedup_jaccard_prefix(str(tmp_path)).reset_index(drop=True)
            b = dedup.q_dedup_ngram_jaccard(str(tmp_path)).reset_index(drop=True)
            pd.testing.assert_frame_equal(a, b)
            assert len(a) > 0  # the planted pairs are found


class TestDupRateBySource:
    def test_planted_duplicates_vs_oracle(self, tmp_path):
        """The real testdata has no exact dups, so the dup branch only
        fires here: planted copies across sources, checked vs DuckDB."""
        import duckdb
        import pyarrow as pa
        import pyarrow.parquet as pq

        from crawler_tjce_ray.pipelines.dedup import (
            SQL_DUP_RATE_BY_SOURCE, q_dup_rate_by_source,
        )

        texts = [f"unique doc number {i} with words" for i in range(20)]
        sources = [f"s{i % 4}" for i in range(20)]
        # plant: doc 20 dups doc 0 (same source), doc 21 dups doc 5
        # across sources, doc 22 dups doc 21 again
        texts += [texts[0], texts[5], texts[5]]
        sources += ["s0", "s3", "s2"]
        t = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(sources),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        })
        pq.write_table(t, str(tmp_path / "documents.parquet"))

        mine = q_dup_rate_by_source(str(tmp_path))
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                    f"'{tmp_path}/documents.parquet'")
        ref = con.execute(SQL_DUP_RATE_BY_SOURCE).df()
        pd.testing.assert_frame_equal(
            mine.reset_index(drop=True), ref, check_dtype=False)
        assert mine["n_dup_docs"].sum() == 5  # 2 + 3 copies involved


class TestBatchSignatureEquivalence:
    def test_batch_matches_per_doc(self):
        """The segment-reduced batch kernel must produce bit-identical
        signatures to the per-doc kernel, empties included."""
        import numpy as np

        from crawler_tjce_ray.pipelines.dedup import (
            batch_gram_hashes, batch_minhash_signatures, minhash_signature,
        )

        texts = [
            "the quick brown fox jumps over the lazy dog",
            "",  # empty -> sentinel signature
            "one two",  # short -> single padded gram
            "alpha beta gamma delta epsilon zeta eta theta " * 20,
            "the quick brown fox jumps over the lazy cat",
        ]
        gls = batch_gram_hashes(texts, sep=" ")
        batch = batch_minhash_signatures(gls)
        for i, g in enumerate(gls):
            np.testing.assert_array_equal(batch[i], minhash_signature(g))

    def test_all_empty_batch(self):
        import numpy as np

        from crawler_tjce_ray.pipelines.dedup import (
            N_PERM, _M31, batch_minhash_signatures,
        )

        out = batch_minhash_signatures([np.empty(0, np.uint64)] * 3)
        assert out.shape == (3, N_PERM)
        assert (out == np.uint64(_M31)).all()

    def test_batch_simhash_matches_per_doc(self):
        import numpy as np

        from crawler_tjce_ray.pipelines.dedup import (
            batch_gram_hashes, batch_simhash64, simhash64,
        )

        texts = [
            "the quick brown fox jumps over the lazy dog",
            "",
            "one two",
            "alpha beta gamma delta epsilon zeta eta theta " * 20,
        ]
        gls = batch_gram_hashes(texts)
        batch = batch_simhash64(gls)
        for i, g in enumerate(gls):
            assert batch[i] == simhash64(g), i


def test_batch_gram_hashes_arrow_equals_list_path():
    """The Arrow fast path of batch_gram_hashes must produce identical
    grams to the Python str.split path on every split edge case:
    consecutive/leading/trailing spaces (sep=' '), whitespace runs,
    unicode whitespace and all-whitespace docs (sep=None)."""
    import numpy as np
    import pyarrow as pa

    from crawler_tjce_ray.pipelines.dedup import batch_gram_hashes

    texts = [
        "a b c d", " a  b ", "", " ", "one",
        "a\tb\nc d e", "x\xa0y z w", "tab\t tab  three four",
        "same same same same", "\v\f  ",
    ]
    for sep in (" ", None):
        ref = batch_gram_hashes(texts, sep=sep)
        arrow = batch_gram_hashes(pa.array(texts, pa.string()), sep=sep)
        chunked = batch_gram_hashes(
            pa.chunked_array([texts[:4], texts[4:]], pa.string()), sep=sep)
        assert len(ref) == len(arrow) == len(chunked)
        for r, a, c in zip(ref, arrow, chunked):
            np.testing.assert_array_equal(r, a)
            np.testing.assert_array_equal(r, c)


class TestIvfOracleMargins:
    """Float-safety evidence for SQL_ANN_IVF_TOPK (the generated IVF
    oracle): cell assignment and probe selection are argmax/top-N_PROBE
    over cosines computed independently by numpy and DuckDB, so the
    margins at those decision boundaries must sit far above the
    ~1e-13 dot-product summation noise on every pinned corpus."""

    SFS = ["/root/testdata/sf0.001", "/root/testdata/sf0.01",
           "/root/testdata/sf0.1"]
    NOISE_FLOOR = 1e-8

    def test_cell_and_probe_margins(self):
        import pyarrow.parquet as pq

        from crawler_tjce_ray.pipelines.similarity import (
            N_PROBE, N_QUERIES, _centroids,
        )

        for sf in self.SFS:
            t = pq.read_table(f"{sf}/embeddings.parquet",
                              columns=["vec_id", "embedding"]).to_pandas()
            t = t.sort_values("vec_id")
            mat = np.stack(t["embedding"].to_numpy()).astype(np.float64)
            mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
            cents = _centroids(sf)
            sims = np.sort(mat @ cents.T, axis=1)
            cell_margin = float((sims[:, -1] - sims[:, -2]).min())
            assert cell_margin > self.NOISE_FLOOR, (sf, cell_margin)
            qs = np.sort(mat[:N_QUERIES] @ cents.T, axis=1)[:, ::-1]
            probe_gap = float((qs[:, N_PROBE - 1] - qs[:, N_PROBE]).min())
            assert probe_gap > self.NOISE_FLOOR, (sf, probe_gap)
