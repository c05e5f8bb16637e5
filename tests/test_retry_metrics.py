"""T1 fetch retries, T6 robots-cache TTL, T8 metrics surface, and the
resume stale-record-part cleanup."""

import glob
import os
import shutil

import pandas as pd
import pytest

from crawler_tjce_ray.stages.fetch import FetchActor, RobotsCache, build_page_store


@pytest.fixture(scope="module")
def corpus():
    from crawler_tjce_ray.sources.pages import corpus_cache_dir

    return corpus_cache_dir(n_entities=8, total_pages=40, rows_per_page=50, seed=42)


@pytest.fixture(scope="module")
def store(corpus, tmp_path_factory):
    return build_page_store(corpus, str(tmp_path_factory.mktemp("store") / "s"))


def _batch(corpus):
    """(urls, hosts) of the first 8 corpus pages: a FetchActor call."""
    import pyarrow.parquet as pq

    t = pq.read_table(corpus, columns=["url"]).slice(0, 8)
    urls = t["url"].to_pylist()
    from crawler_tjce_ray.state.frontier import host_of

    return urls, [host_of(u) for u in urls]


class FlakyReader:
    """Fails the first ``fail_n`` reads of every path, then succeeds."""

    def __init__(self, fail_n: int):
        import pyarrow.parquet as pq

        self.fail_n = fail_n
        self.calls: dict[str, int] = {}
        self._real = pq.read_table

    def __call__(self, path, **kw):
        seen = self.calls.get(path, 0)
        self.calls[path] = seen + 1
        if seen < self.fail_n:
            raise OSError(f"injected transient failure #{seen + 1} for {path}")
        return self._real(path, **kw)


@pytest.mark.usefixtures("ray_session")
class TestFetchRetry:
    def test_transient_failures_recover_identically(self, corpus, store):
        batch = _batch(corpus)
        clean = FetchActor(store, retry_backoff=0.001)
        flaky = FetchActor(store, retry_backoff=0.001)
        flaky.transport._read_table = FlakyReader(fail_n=2)

        out_clean = clean(*batch, wave=0)
        out_flaky = flaky(*batch, wave=0)
        assert out_flaky == out_clean  # order + content identical
        assert flaky.transport.fetch_retries > 0
        assert clean.transport.fetch_retries == 0
        assert flaky.stats()["fetch_retries"] == flaky.transport.fetch_retries

    def test_persistent_failure_raises_after_budget(self, corpus, store):
        actor = FetchActor(store, max_retries=2, retry_backoff=0.001)
        actor.transport._read_table = FlakyReader(fail_n=99)
        with pytest.raises(OSError, match="injected"):
            actor(*_batch(corpus), wave=0)
        # 1 initial + 2 retries = 3 attempts on the first bucket path
        assert actor.transport.fetch_retries == 2


class TestRobotsTTL:
    def test_no_ttl_caches_forever(self):
        rc = RobotsCache()
        for wave in range(50):
            assert rc.allowed("h", "https://h/x", wave)
        assert rc.misses == 1 and rc.hits == 49 and rc.expired == 0

    def test_ttl_expires_and_refetches(self):
        rc = RobotsCache(ttl_waves=2)
        # wave 0: miss; wave 1: hit (age 1 < 2); wave 2: expired -> miss
        assert rc.allowed("h", "https://h/x", 0)
        assert rc.allowed("h", "https://h/x", 1)
        assert rc.allowed("h", "https://h/x", 2)
        assert rc.allowed("h", "https://h/x", 3)  # refetched at 2 -> hit
        assert (rc.misses, rc.hits, rc.expired) == (2, 2, 1)

    def test_rules_still_enforced_after_expiry(self):
        rc = RobotsCache(ttl_waves=1)
        assert not rc.allowed("h", "https://h/private/x", 0)
        assert not rc.allowed("h", "https://h/private/x", 5)


@pytest.mark.usefixtures("ray_session")
class TestMetricsSurface:
    def test_crawl_metrics_query(self):
        from crawler_tjce_ray.pipelines.registry import build_queries

        qs = build_queries()
        m = qs["crawl_metrics"]("/root/testdata/sf0.001")
        assert list(m.columns) == ["wave", "metric", "value"]
        metrics = set(m["metric"])
        for k in ("selected", "fetched_ok", "outlinks", "frontier_pending",
                  "actors_fetched_ok", "actors_pages_failed",
                  "actors_fetch_retries", "actors_robots_cache_misses"):
            assert k in metrics, k
        # consistency with the trace: summed per-wave fetched_ok equals
        # both the actor counter and the trace's ok rows
        trace = qs["crawl_trace"]("/root/testdata/sf0.001")
        ok = int((trace["status"] == "ok").sum())
        per_wave = m.loc[m["metric"] == "fetched_ok", "value"].sum()
        actor_total = m.loc[m["metric"] == "actors_fetched_ok", "value"].sum()
        assert int(per_wave) == ok == int(actor_total)


@pytest.mark.usefixtures("ray_session")
class TestResumeStaleParts:
    def test_stale_parts_wiped_even_with_changed_actor_count(
        self, corpus, tmp_path
    ):
        """Crash after wave-3 records but before its checkpoint, then
        resume with a DIFFERENT fetch actor count: the old wave-3 parts
        (different part-file names) must not survive and duplicate."""
        import ray.data as rd

        from crawler_tjce_ray.pipelines.crawl import CrawlConfig, run_crawl

        base = dict(wave_size=64, per_host_budget=8, fetch_batch_size=1,
                    extract_records=True)
        full = str(tmp_path / "full")
        cut = str(tmp_path / "cut")
        run_crawl(corpus, full, config=CrawlConfig(**base, max_waves=60,
                                                   fetch_concurrency=2))
        run_crawl(corpus, cut, config=CrawlConfig(**base, max_waves=3,
                                                  fetch_concurrency=2))
        # simulate the crash: wave-3 records exist, checkpoint does not,
        # and the part layout came from a 1-actor run (part-a000 only)
        stale_dir = os.path.join(cut, "records", "precatorios", "wave=3")
        os.makedirs(stale_dir, exist_ok=True)
        some_part = glob.glob(
            os.path.join(cut, "records", "precatorios", "wave=*", "*.parquet")
        )[0]
        shutil.copy(some_part, os.path.join(stale_dir, "part-a000.parquet"))

        run_crawl(corpus, cut, config=CrawlConfig(**base, max_waves=60,
                                                  fetch_concurrency=3),
                  resume=True)

        def recs(workdir):
            return (
                rd.read_parquet(f"{workdir}/records/precatorios")
                .to_pandas().sort_values(["url", "ordem"]).reset_index(drop=True)
            )

        pd.testing.assert_frame_equal(recs(full), recs(cut))


@pytest.mark.usefixtures("ray_session")
class TestRobotsTTLIntegration:
    def test_ttl_crawl_identical_results_with_expiry_counted(
        self, corpus, tmp_path
    ):
        """A TTL only re-fetches robots rules; crawl output must be
        identical while the expired counter shows refetches happened."""
        from crawler_tjce_ray.pipelines.crawl import CrawlConfig, run_crawl

        base = dict(wave_size=64, per_host_budget=8, max_waves=60,
                    fetch_concurrency=2, fetch_batch_size=1, extract_records=False)
        a = run_crawl(corpus, str(tmp_path / "a"),
                      config=CrawlConfig(**base))
        b = run_crawl(corpus, str(tmp_path / "b"),
                      config=CrawlConfig(**base, robots_ttl_waves=1))
        pd.testing.assert_frame_equal(
            a.trace.reset_index(drop=True), b.trace.reset_index(drop=True)
        )
        assert a.actor_stats["robots_cache_expired"] == 0
        assert b.actor_stats["robots_cache_expired"] > 0
        assert (
            b.actor_stats["robots_cache_misses"]
            > a.actor_stats["robots_cache_misses"]
        )
