"""Wave-crawl integration: determinism, resume identity, politeness,
coverage, and an independent crawl-order oracle."""

import functools
import json
import operator
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from crawler_tjce_ray.pipelines import crawl
from crawler_tjce_ray.pipelines.crawl import CrawlConfig, run_crawl
from crawler_tjce_ray.stages.fetch import FetchPool, PageStoreTransport
from crawler_tjce_ray.state.cuckoo import CuckooFilter
from crawler_tjce_ray.state.frontier import (
    canonicalize_url,
    make_frontier_rows,
    select_wave,
    url_sha1_64,
)

N_ENTITIES, TOTAL_PAGES, ROWS = 8, 40, 20


def _final_seen(workdir, n_shards=2):
    """The seen-shard blobs of a crawl's last checkpoint."""
    base = os.path.join(workdir, "ckpt")
    last = sorted(os.listdir(base))[-1]
    return [
        open(os.path.join(base, last, f"seen_shard_{i}.bin"), "rb").read()
        for i in range(n_shards)
    ]


def _seen_layout(workdir):
    """Per commit: (its wave, its seen log's per-wave segments as
    (bytes, keys checked, keys removed), holds a shard snapshot,
    metrics.json's per-wave dicts)."""
    rows = []
    for wave in crawl._completed_waves(workdir):
        d = crawl._ckpt_dir(workdir, wave)
        with open(os.path.join(d, "seen_log.bin"), "rb") as f:
            log = f.read()
        segments, at = [], 0
        while at < len(log):
            _, _, n_checked, n_removed = np.frombuffer(log[at:at + 32], dtype=np.int64)
            size = 32 + 8 * int(n_checked + n_removed)
            segments.append((size, int(n_checked), int(n_removed)))
            at += size
        with open(os.path.join(d, "metrics.json")) as f:
            metrics = json.load(f)
        rows.append((wave, segments,
                     os.path.exists(os.path.join(d, "seen_shard_0.bin")), metrics))
    return rows


def _commit_waves(metrics, cfg):
    """The waves the group-commit rule commits at, from a crawl's
    per-wave metrics: once the waves since the last commit have
    selected wave_size urls, at the wave cap, with no url pending, and
    at the crawl's last wave."""
    commits, since = [], 0
    for i, m in enumerate(metrics):
        since += m["selected"]
        if (since >= cfg.wave_size or m["wave"] + 1 >= cfg.max_waves
                or m["frontier_pending"] == 0 or i == len(metrics) - 1):
            commits.append(m["wave"])
            since = 0
    return commits


def _record_rows(records_dir):
    """Each record kind's rows, sorted: the part files follow the
    actor count, the rows must not."""
    out = {}
    for kind in sorted(os.listdir(records_dir)):
        df = pq.read_table(os.path.join(records_dir, kind)).to_pandas()
        out[kind] = df.sort_values(list(df.columns)).reset_index(drop=True)
    return out


def _actor_table():
    # GCS actor table: ray.util.state needs the dashboard, which the
    # test session does not start
    import ray

    return ray._private.state.actors()


def _actor_ids():
    return set(_actor_table())


def _actor_classes(ids):
    table = _actor_table()
    return sorted(table[i]["ActorClassName"] for i in ids)


def _assert_all_dead(ids, timeout_s=10.0):
    """ray.kill is asynchronous: allow the GCS a moment to record it."""
    import time

    deadline = time.monotonic() + timeout_s
    while True:
        table = _actor_table()
        alive = [i for i in ids if table[i]["State"] != "DEAD"]
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not alive, [table[i]["ActorClassName"] for i in alive]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pages"))
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from crawler_tjce_ray.sources.pages import write_pages_corpus

    plan = write_pages_corpus(out, n_entities=N_ENTITIES, total_pages=TOTAL_PAGES,
                              rows_per_page=ROWS, seed=42)
    return out, plan


class TestFrontierUnits:
    def test_canonicalize(self):
        assert canonicalize_url("HTTPS://Example.COM:443/a/b/") == "https://example.com/a/b"
        assert canonicalize_url("http://example.com:8080/x?q=1#frag") == "http://example.com:8080/x?q=1"
        assert canonicalize_url("https://h.example/") == "https://h.example/"

    def test_url_key_stable(self):
        assert url_sha1_64("https://a/b") == url_sha1_64("https://a/b")
        assert url_sha1_64("https://a/b") != url_sha1_64("https://a/c")

    def test_select_wave_politeness_and_order(self):
        urls = [f"https://hot.example/p/{i}" for i in range(10)] + [
            "https://cold.example/x",
        ]
        f = make_frontier_rows(urls)
        sel, rest = (t.to_pandas() for t in
                     select_wave(f, wave=0, wave_size=100, per_host_budget=3))
        assert (sel.groupby("host").size() <= 3).all()
        # deferred hot-host urls carry to wave 1
        assert (rest["next_fetch_wave"] == 1).all()
        assert len(sel) + len(rest) == len(f)
        # order within wave: sorted by (priority, next_fetch_wave, url)
        assert list(sel["url"]) == sorted(sel["url"])


def test_crawl_config_rejects_budgets_that_select_nothing():
    """A zero per-host budget or wave size would select nothing from an
    eligible frontier while rows stay pending, so the crawl would run
    every wave up to ``max_waves`` without writing a checkpoint.  The
    pool-growth rule divides by ``fetch_batch_size``, and a crawl needs
    at least one fetch actor and one seen shard."""
    for bad in (dict(per_host_budget=0), dict(wave_size=0), dict(wave_size=-1),
                dict(fetch_batch_size=0), dict(fetch_concurrency=0),
                dict(n_seen_shards=0), dict(fetch_batch_size=-4)):
        with pytest.raises(ValueError):
            CrawlConfig(**bad)
    CrawlConfig(wave_size=1, per_host_budget=1, fetch_batch_size=1,
                fetch_concurrency=1, n_seen_shards=1)


def test_transport_keeps_only_its_bucket_share(tmp_path):
    """When the pool grows, an actor's page-store LRU keeps only the
    buckets now routed to it, in LRU order, and is sized to that share
    + 1 (a lone actor caches every bucket)."""
    t = PageStoreTransport(str(tmp_path), n_buckets=8, max_cached_buckets=9)
    for b in (3, 0, 5, 2, 7, 4, 1, 6):
        t._bucket_lookup(b)
    assert t.bucket_loads == 8 and len(t.bucket_cache) == 8
    t.keep_buckets([0, 2, 4, 6])
    assert t.bucket_lru == [0, 2, 4, 6] and sorted(t.bucket_cache) == [0, 2, 4, 6]
    assert t.max_cached_buckets == 5
    for b in (6, 4, 2, 0):
        t._bucket_lookup(b)
    assert t.bucket_loads == 8


@pytest.mark.usefixtures("ray_session")
def test_seen_log_segments_replay(tmp_path):
    """Replaying take_log outputs joined end to end (a group commit's
    seen_log.bin) equals replaying them one by one, and equals the set
    that logged them.  A later segment whose header disagrees with the
    set's geometry, or a truncated segment, raises ValueError."""
    from crawler_tjce_ray.stages.fetch import DriverMember, FetchActor
    from crawler_tjce_ray.stages.seen import ShardedSeenSet

    def seen_set(log2_buckets=6):
        s = ShardedSeenSet(3, log2_buckets)
        s.rehost([DriverMember(FetchActor(str(tmp_path)))])
        return s

    keys = np.random.default_rng(3).integers(0, 2**63, 400, dtype=np.uint64)
    src, logs = seen_set(), []
    for wave in range(4):
        batch = keys[wave * 80:wave * 80 + 120]  # overlaps: dups
        src.check_and_add(batch)
        src.remove(batch[::7])
        logs.append(src.take_log())
    one_by_one, joined = seen_set(), seen_set()
    for log in logs:
        one_by_one.replay(log)
    joined.replay(b"".join(logs))
    assert (joined.count, joined.log_bytes) == (one_by_one.count, one_by_one.log_bytes) \
        == (src.count, src.log_bytes)
    assert joined.checkpoint() == one_by_one.checkpoint() == src.checkpoint()

    other = seen_set(log2_buckets=7)
    other.check_and_add(keys[:5])
    with pytest.raises(ValueError, match="2\\^7"):
        seen_set().replay(logs[0] + other.take_log())
    with pytest.raises(ValueError, match="header says"):
        seen_set().replay(b"".join(logs)[:-8])
    with pytest.raises(ValueError, match="header"):
        seen_set().replay(logs[0] + logs[1][:20])


@pytest.mark.usefixtures("ray_session")
class TestCrawl:
    def _run(self, corpus, workdir, **kw):
        pages, _ = corpus
        cfg = CrawlConfig(wave_size=64, per_host_budget=4, max_waves=60,
                          n_seen_shards=2, log2_buckets=12,
                          fetch_concurrency=2, fetch_batch_size=1,
                          extract_records=kw.pop("extract", False))
        return run_crawl(pages, workdir, config=cfg, **kw)

    def test_full_coverage_and_determinism(self, corpus, tmp_path):
        pages, plan = corpus
        r1 = self._run(corpus, str(tmp_path / "run1"))
        r2 = self._run(corpus, str(tmp_path / "run2"))
        # every page of the corpus is crawled exactly once
        fetched = r1.trace[r1.trace["status"] == "ok"]
        assert sorted(fetched["url"]) == sorted(p.url for p in plan)
        # two runs produce byte-identical traces (order contract)
        pd.testing.assert_frame_equal(
            r1.trace.reset_index(drop=True), r2.trace.reset_index(drop=True)
        )

    def test_politeness_budget_respected(self, corpus, tmp_path):
        r = self._run(corpus, str(tmp_path / "run"))
        t = r.trace[r.trace["status"] == "ok"].copy()
        t["host"] = t["url"].str.extract(r"https://([^/]+)/")[0]
        per_wave_host = t.groupby(["wave", "host"]).size()
        assert (per_wave_host <= 4).all()

    def test_chain_order_monotonic(self, corpus, tmp_path):
        """Page k+1 of a cursor chain is always crawled in a wave ≥
        page k's wave (the restart-token protocol ordering)."""
        r = self._run(corpus, str(tmp_path / "run"))
        t = r.trace[r.trace["status"] == "ok"].copy()
        t["chain"] = t["url"].str.replace(r"/page/\d+$", "", regex=True)
        t["page_no"] = t["url"].str.extract(r"/page/(\d+)$")[0].astype(int)
        for _, g in t.groupby("chain"):
            g = g.sort_values("page_no")
            assert g["wave"].is_monotonic_increasing

    def test_resume_identical(self, corpus, tmp_path):
        """Kill after wave k, resume → identical remaining trace and
        identical URL-seen state (the north-rule resume contract)."""
        workdir_full = str(tmp_path / "full")
        full = self._run(corpus, workdir_full)

        workdir_cut = str(tmp_path / "cut")
        pages, _ = corpus
        cfg_cut = CrawlConfig(wave_size=64, per_host_budget=4, max_waves=3,
                              n_seen_shards=2, log2_buckets=12, fetch_concurrency=2,
                              fetch_batch_size=1, extract_records=False)
        run_crawl(pages, workdir_cut, config=cfg_cut)  # "killed" after wave 2
        cfg_resume = CrawlConfig(wave_size=64, per_host_budget=4, max_waves=60,
                                 n_seen_shards=2, log2_buckets=12, fetch_concurrency=2,
                                 fetch_batch_size=1, extract_records=False)
        resumed = run_crawl(pages, workdir_cut, config=cfg_resume, resume=True)
        pd.testing.assert_frame_equal(
            full.trace.reset_index(drop=True), resumed.trace.reset_index(drop=True)
        )
        # seen state equality via the final checkpoint blobs
        assert _final_seen(workdir_full) == _final_seen(workdir_cut)

    def test_resume_on_fewer_seen_hosts(self, corpus, tmp_path):
        """The seen shards live in the fetch actors (shard s on live
        actor s % n_live), but their count is CrawlConfig.n_seen_shards:
        a crawl cut on 2 fetch actors and resumed on 1 reproduces the
        uninterrupted trace and the same final shard blobs.  Each crawl
        starts only the fetch actors its waves ask for (one per
        fetch_batch_size selected urls, up to n_fetch), member 0 in
        the driver and the others as Ray actors, and none outlives
        run_crawl."""
        pages, _ = corpus
        workdir_full = str(tmp_path / "full")
        full = self._run(corpus, workdir_full)

        def cfg(fetch_concurrency, max_waves):
            return CrawlConfig(wave_size=64, per_host_budget=4,
                               max_waves=max_waves, n_seen_shards=2,
                               log2_buckets=12, extract_records=False,
                               fetch_concurrency=fetch_concurrency,
                               fetch_batch_size=4)

        workdir_cut = str(tmp_path / "cut")
        before = _actor_ids()
        cut = run_crawl(pages, workdir_cut, config=cfg(2, 3))  # "killed" after wave 2
        cut_actors = _actor_ids() - before
        resumed = run_crawl(pages, workdir_cut, config=cfg(1, 60), resume=True)
        resume_actors = _actor_ids() - before - cut_actors

        pd.testing.assert_frame_equal(
            full.trace.reset_index(drop=True), resumed.trace.reset_index(drop=True)
        )
        assert _final_seen(workdir_full) == _final_seen(workdir_cut)
        # 4-cpu session: n_fetch = min(fetch_concurrency, cpus - 2)
        max_selected = max(m["selected"] for m in cut.metrics)
        n_cut = min(2, -(-max_selected // 4))
        assert n_cut == 2
        # member 0 is the driver: a pool of n members starts n - 1 actors
        assert _actor_classes(cut_actors) == ["FetchActor"] * (n_cut - 1)
        assert _actor_classes(resume_actors) == []
        _assert_all_dead(cut_actors | resume_actors)

    def test_seen_overflow_fails_wave_and_frees_actors(self, corpus, tmp_path):
        """A cuckoo overflow inside a host actor raises out of run_crawl
        before that wave's checkpoint is written, and the pool's actors
        (and with them the seen shards) are still torn down."""
        pages, _ = corpus
        workdir = str(tmp_path / "run")
        cfg = CrawlConfig(wave_size=64, per_host_budget=4, max_waves=60,
                          n_seen_shards=2, log2_buckets=1,  # 2 × 8 slots
                          fetch_concurrency=2, fetch_batch_size=1,
                          extract_records=False)
        before = _actor_ids()
        with pytest.raises(RuntimeError, match="over capacity"):
            run_crawl(pages, workdir, config=cfg)
        # the failing wave never started its checkpoint write: no tmp
        # dir, every checkpoint present is a complete earlier wave
        ckpt = os.path.join(workdir, "ckpt")
        for name in os.listdir(ckpt):
            assert not name.endswith(".tmp")
            assert os.path.exists(os.path.join(ckpt, name, "_SUCCESS"))
        _assert_all_dead(_actor_ids() - before)

    def test_seen_checkpoint_layout_and_size(self, corpus, tmp_path):
        """Waves commit in groups: a checkpoint holds the waves since
        the last one, once they have selected wave_size urls, and at
        the crawl's last wave.  Its seen log is one segment per wave,
        8 B per key checked or removed after a 32 B header; it holds
        shard blobs only when the logs since the last snapshot reach
        one snapshot's bytes, and at the last commit.  Its metrics.json
        holds one dict per wave, with the t_* values of
        CrawlResult.metrics.  The driver's seen_total equals the
        snapshot's shard counts, and each wave's metrics carry the
        previous wave's t_ckpt, its own t_select, the live pool size
        fetch_actors (one actor per fetch_batch_size urls of the
        largest wave so far, up to fetch_concurrency), and t_pool_grow
        (actor and seen shard start-up or move, blocking) on each wave
        that grew it, the first wave included.  A wave's phases never
        sum past its wall time t_wave (checkpoint call to checkpoint
        call; every value is rounded to 0.1 ms)."""
        pages, _ = corpus
        n_shards, log2_buckets = 2, 4
        cfg = CrawlConfig(wave_size=8, per_host_budget=4, max_waves=60,
                          n_seen_shards=n_shards, log2_buckets=log2_buckets,
                          fetch_concurrency=2, fetch_batch_size=4,
                          extract_records=False, actor_token_rate=1)
        workdir = str(tmp_path / "run")
        r = run_crawl(pages, workdir, config=cfg)
        layout = _seen_layout(workdir)
        denied = r.trace[r.trace["status"] == "budget_denied"].groupby("wave").size()
        assert denied.sum() > 0, "token rate 1 should cause requeues"
        commits = _commit_waves(r.metrics, cfg)
        assert [w for w, *_ in layout] == commits
        assert 2 < len(commits) < len(r.metrics), commits

        snapshot_bytes = n_shards * CuckooFilter.blob_size(log2_buckets)
        since = 0
        for wave, segments, snap, metrics in layout:
            assert len(segments) == len(metrics) and metrics[-1]["wave"] == wave
            since += sum(size for size, _, _ in segments)
            last = wave == commits[-1]
            assert snap == (since >= snapshot_bytes or last), wave
            if snap:
                since = 0
            d = crawl._ckpt_dir(workdir, wave)
            blobs = sorted(n for n in os.listdir(d) if n.startswith("seen_shard_"))
            assert len(blobs) == (n_shards if snap else 0)
            lineage = pq.read_table(os.path.join(d, "lineage.parquet")).to_pandas()
            assert sorted(set(lineage["wave"])) == [m["wave"] for m in metrics]
        waves = [(seg, m) for _, segments, _, ms in layout for seg, m in zip(segments, ms)]
        assert [m["wave"] for _, m in waves] == [m["wave"] for m in r.metrics]
        for i, ((size, n_checked, n_removed), metrics) in enumerate(waves):
            m = r.metrics[i]
            assert n_checked == m["selected"]
            assert n_removed == denied.get(m["wave"], 0)
            assert size == 32 + 8 * (n_checked + n_removed)
            assert metrics["prev_t_ckpt"] == (r.metrics[i - 1]["t_ckpt"] if i else None)
            times = {k for k in metrics if k.startswith("t_")}
            assert times == {k for k in m if k.startswith("t_")} - {"t_ckpt", "t_wave"}
            assert {k: metrics[k] for k in times} == {k: m[k] for k in times}
            assert metrics["seen_total"] == m["seen_total"]
            assert metrics["t_select"] >= 0
            most = max(x["selected"] for x in r.metrics[:i + 1])
            assert metrics["fetch_actors"] == m["fetch_actors"] == min(2, -(-most // 4))
            grew = m["fetch_actors"] > (r.metrics[i - 1]["fetch_actors"] if i else 0)
            assert ("t_pool_grow" in metrics) == ("t_pool_grow" in m) == grew
            phases = [v for k, v in m.items() if k.startswith("t_") and k != "t_wave"]
            assert sum(phases) <= m["t_wave"] + 5e-5 * (len(phases) + 1), m
        assert sum(snap for _, _, snap, _ in layout) >= 2  # one by size, the last
        assert all("prev_t_ckpt" not in m for m in r.metrics)
        assert r.metrics[-1]["fetch_actors"] == 2 and r.t_pool_stop >= 0

        final = _final_seen(workdir, n_shards)
        assert [len(b) for b in final] == [CuckooFilter.blob_size(log2_buckets)] * n_shards
        assert sum(CuckooFilter.blob_header(b)[1] for b in final) == r.metrics[-1]["seen_total"]

    def test_full_waves_commit_every_wave(self, corpus, tmp_path):
        """A crawl whose every wave selects wave_size urls commits
        every wave: one checkpoint per wave, each with that wave's
        lineage, one metrics dict and one seen-log segment."""
        pages, _ = corpus
        cfg = CrawlConfig(wave_size=1, per_host_budget=4, max_waves=20,
                          n_seen_shards=2, log2_buckets=12, fetch_concurrency=2,
                          extract_records=False)
        workdir = str(tmp_path / "run")
        r = run_crawl(pages, workdir, config=cfg)
        assert {m["selected"] for m in r.metrics} == {1} and len(r.metrics) == 20
        layout = _seen_layout(workdir)
        assert [w for w, *_ in layout] == [m["wave"] for m in r.metrics]
        for (wave, segments, _, metrics), m in zip(layout, r.metrics):
            assert [x["wave"] for x in metrics] == [wave]
            assert segments == [(40, 1, 0)]

    def test_pool_grows_mid_crawl(self, corpus, tmp_path):
        """The fetch pool starts one member, the driver, at the first
        wave (3 urls) and grows to fetch_concurrency at the first wave
        that selects more than fetch_batch_size urls, starting one Ray
        actor and moving the seen shards whose host changed.  The
        trace, the record rows and the final seen blobs equal a
        one-member crawl's, which starts no Ray actor, and a crawl cut
        after the growth wave and resumed reproduces the uninterrupted
        trace, record rows and pool sizes; its first wave reports the
        pool's restart as t_pool_grow."""
        pages, _ = corpus

        def cfg(**kw):
            base = dict(wave_size=64, per_host_budget=4, max_waves=60,
                        n_seen_shards=2, log2_buckets=12,
                        fetch_concurrency=2, fetch_batch_size=4)
            return CrawlConfig(**{**base, **kw})

        before = _actor_ids()
        one = run_crawl(pages, str(tmp_path / "one"), config=cfg(fetch_concurrency=1))
        assert _actor_ids() == before  # its one member is the driver
        grown = run_crawl(pages, str(tmp_path / "grown"), config=cfg())
        actors = _actor_ids() - before
        _assert_all_dead(actors)
        assert _actor_classes(actors) == ["FetchActor"]

        sizes = [m["fetch_actors"] for m in grown.metrics]
        first = next(i for i, m in enumerate(grown.metrics) if m["selected"] > 4)
        assert first > 0
        assert sizes == [1] * first + [2] * (len(sizes) - first)
        assert [i for i, m in enumerate(grown.metrics) if "t_pool_grow" in m] == [0, first]
        assert {m["fetch_actors"] for m in one.metrics} == {1}
        # a lone actor's LRU holds every bucket: each loads once
        fetched = one.trace[one.trace["status"].isin(["ok", "missing"])]["url"]
        assert one.actor_stats["bucket_loads"] == len({url_sha1_64(u) % 32 for u in fetched})
        pd.testing.assert_frame_equal(one.trace, grown.trace)
        one_rows, grown_rows = _record_rows(one.records_dir), _record_rows(grown.records_dir)
        assert list(one_rows) == list(grown_rows) and len(one_rows) == 3
        for kind in one_rows:
            pd.testing.assert_frame_equal(one_rows[kind], grown_rows[kind])
        assert _final_seen(one.workdir) == _final_seen(grown.workdir)

        workdir_cut = str(tmp_path / "cut")
        run_crawl(pages, workdir_cut, config=cfg(max_waves=first + 1))
        resumed = run_crawl(pages, workdir_cut, resume=True, config=cfg())
        assert resumed.metrics[0]["wave"] == first + 1
        pd.testing.assert_frame_equal(grown.trace, resumed.trace)
        assert [m["fetch_actors"] for m in resumed.metrics] == sizes[first + 1:]
        assert "t_pool_grow" in resumed.metrics[0]
        cut_rows = _record_rows(resumed.records_dir)
        assert list(cut_rows) == list(grown_rows)
        for kind in cut_rows:
            pd.testing.assert_frame_equal(cut_rows[kind], grown_rows[kind])
        assert _final_seen(workdir_cut) == _final_seen(grown.workdir)

    def test_seen_rehost_keeps_shards(self, tmp_path):
        """Growing the host list 0 → 1 → 2 → 3 between waves starts
        the shards, then moves each shard whose host s % n_hosts
        changed: every check_and_add answers, and every shard ends
        byte-equal, as on a set that never moved; count and log_bytes
        do not change."""
        import ray

        from crawler_tjce_ray.stages.fetch import FetchActor
        from crawler_tjce_ray.stages.seen import ShardedSeenSet

        cls = ray.remote(num_cpus=0)(FetchActor)
        actors = [cls.remote(str(tmp_path)) for _ in range(4)]
        try:
            grown = ShardedSeenSet(5, 6)
            still = ShardedSeenSet(5, 6)
            still.rehost(actors[3:])
            keys = np.random.default_rng(7).integers(0, 2**63, 900, dtype=np.uint64)
            for wave, n_hosts in enumerate((1, 2, 3)):
                grown.rehost(actors[:n_hosts])
                batch = keys[wave * 200:wave * 200 + 300]  # overlaps: dups
                assert (grown.check_and_add(batch) == still.check_and_add(batch)).all()
                assert grown.take_log() == still.take_log()
                assert (grown.count, grown.log_bytes) == (still.count, still.log_bytes)
            assert grown.checkpoint() == still.checkpoint()
            by_host = ray.get([a.seen_to_bytes.remote() for a in actors[:3]])
            assert [sorted(b) for b in by_host] == [[0, 3], [1, 4], [2]]
        finally:
            for a in actors:
                ray.kill(a)

    def test_pool_growth_failure_frees_every_actor(self, corpus, tmp_path, monkeypatch):
        """An actor that fails to start while the pool grows raises out
        of run_crawl before that wave's checkpoint, and every actor the
        pool started, the failed one included, is killed."""
        import ray

        pages, _ = corpus
        grow = FetchPool.grow

        def grow_broken(pool, n):
            if pool.actors:  # actors after the first cannot build a transport
                pool._actor_kwargs["transport_factory"] = functools.partial(
                    operator.truediv, 1, 0)
            return grow(pool, n)

        workdir = str(tmp_path / "run")
        cfg = dict(wave_size=64, per_host_budget=4, n_seen_shards=2,
                   log2_buckets=12, fetch_concurrency=2, fetch_batch_size=4,
                   extract_records=False)
        # wave 0 (3 urls, the driver alone) commits by the wave cap; the
        # resumed crawl grows the pool on wave 1
        run_crawl(pages, workdir, config=CrawlConfig(**cfg, max_waves=1))
        monkeypatch.setattr(FetchPool, "grow", grow_broken)
        before = _actor_ids()
        with pytest.raises(ray.exceptions.RayActorError, match="ZeroDivisionError"):
            run_crawl(pages, workdir, resume=True, config=CrawlConfig(**cfg, max_waves=60))
        actors = _actor_ids() - before
        assert _actor_classes(actors) == ["FetchActor"]  # member 1; member 0 is the driver
        _assert_all_dead(actors)
        done = crawl._completed_waves(workdir)
        assert done == [0] and crawl._read_metrics(workdir, 0)[0]["fetch_actors"] == 1

    def test_resume_from_pandas_written_checkpoint(self, corpus, tmp_path):
        """Checkpoints written by pandas ``to_parquet`` (the frontier
        and lineage files of earlier releases, with pandas metadata)
        resume to the uninterrupted crawl's trace."""
        full = self._run(corpus, str(tmp_path / "full"))
        pages, _ = corpus
        cfg = dict(wave_size=64, per_host_budget=4, n_seen_shards=2, log2_buckets=12,
                   fetch_concurrency=2, fetch_batch_size=1, extract_records=False)
        workdir = str(tmp_path / "cut")
        run_crawl(pages, workdir, config=CrawlConfig(**cfg, max_waves=3))
        for wave in crawl._completed_waves(workdir):
            d = crawl._ckpt_dir(workdir, wave)
            names = ["lineage.parquet"] + (["frontier.parquet"] if wave == 2 else [])
            for name in names:
                path = os.path.join(d, name)
                pd.read_parquet(path).reset_index(drop=True).to_parquet(path)
                assert b"pandas" in pq.read_schema(path).metadata
        resumed = run_crawl(pages, workdir, resume=True,
                            config=CrawlConfig(**cfg, max_waves=60))
        # the resumed run restarts the pool: its first wave's t_pool_grow
        assert resumed.metrics[0]["wave"] == 3 and "t_pool_grow" in resumed.metrics[0]
        pd.testing.assert_frame_equal(
            full.trace.reset_index(drop=True), resumed.trace.reset_index(drop=True)
        )

    def test_resume_from_one_wave_checkpoints(self, corpus, tmp_path):
        """A checkpoint in the layout of earlier releases, one directory
        per wave with that wave's dict as metrics.json, resumes to the
        uninterrupted crawl's trace and final seen blobs, and group
        commits follow it.  The crawl is cut by its wave cap at each of
        its first 4 waves (a one-wave commit each) and its shard
        snapshots are dropped, so the resume replays every wave's log."""
        full = self._run(corpus, str(tmp_path / "full"))
        pages, _ = corpus
        cfg = dict(wave_size=64, per_host_budget=4, n_seen_shards=2, log2_buckets=12,
                   fetch_concurrency=2, fetch_batch_size=1, extract_records=False)
        workdir = str(tmp_path / "cut")
        for wave in range(4):
            run_crawl(pages, workdir, resume=wave > 0,
                      config=CrawlConfig(**cfg, max_waves=wave + 1))
        assert crawl._completed_waves(workdir) == [0, 1, 2, 3]
        for wave in range(4):
            d = crawl._ckpt_dir(workdir, wave)
            for name in os.listdir(d):
                if name.startswith("seen_shard_"):
                    os.remove(os.path.join(d, name))
            [metrics] = crawl._read_metrics(workdir, wave)
            with open(os.path.join(d, "metrics.json"), "w") as f:
                json.dump(metrics, f)
        resumed = run_crawl(pages, workdir, resume=True,
                            config=CrawlConfig(**cfg, max_waves=60))
        assert resumed.metrics[0]["wave"] == 4
        pd.testing.assert_frame_equal(
            full.trace.reset_index(drop=True), resumed.trace.reset_index(drop=True)
        )
        assert _final_seen(full.workdir) == _final_seen(workdir)
        commits = _commit_waves(resumed.metrics, CrawlConfig(**cfg, max_waves=60))
        assert crawl._completed_waves(workdir) == [0, 1, 2, 3, *commits]
        assert len(commits) < len(resumed.metrics)

    def test_resume_between_commits(self, corpus, tmp_path, monkeypatch):
        """A crawl killed in a wave that the next commit would have
        held (its records written, its checkpoint call raising) loses
        the waves since its last commit; the resume drops their
        records, re-runs them, and gives the uninterrupted crawl's
        trace, record rows and final seen blobs."""
        pages, _ = corpus

        def cfg():
            return CrawlConfig(wave_size=8, per_host_budget=4, max_waves=60,
                               n_seen_shards=2, log2_buckets=12,
                               fetch_concurrency=2, fetch_batch_size=4)

        full = run_crawl(pages, str(tmp_path / "full"), config=cfg())
        commits = _commit_waves(full.metrics, cfg())
        # one wave held after the second commit, then the killed one
        kill = commits[1] + 2
        assert kill < commits[2], commits

        class Killed(Exception):
            pass

        write = crawl._write_checkpoint

        def write_or_die(workdir, wave, *args, **kw):
            if wave == kill:
                raise Killed
            return write(workdir, wave, *args, **kw)

        workdir = str(tmp_path / "cut")
        with monkeypatch.context() as m:
            m.setattr(crawl, "_write_checkpoint", write_or_die)
            with pytest.raises(Killed):
                run_crawl(pages, workdir, config=cfg())
        assert crawl._completed_waves(workdir) == commits[:2]
        records = os.path.join(workdir, "records")
        written = {int(name[5:]) for kind in os.listdir(records)
                   for name in os.listdir(os.path.join(records, kind))}
        assert max(written) > commits[1]  # records of lost waves, on disk

        resumed = run_crawl(pages, workdir, resume=True, config=cfg())
        assert resumed.metrics[0]["wave"] == commits[1] + 1
        pd.testing.assert_frame_equal(full.trace, resumed.trace)
        full_rows, cut_rows = _record_rows(full.records_dir), _record_rows(resumed.records_dir)
        assert list(full_rows) == list(cut_rows) and len(full_rows) == 3
        for kind in full_rows:
            pd.testing.assert_frame_equal(full_rows[kind], cut_rows[kind])
        assert _final_seen(full.workdir) == _final_seen(workdir)
        assert crawl._completed_waves(workdir) == commits

    @pytest.mark.parametrize("log2_buckets", [12, 4])
    def test_resume_between_snapshots(self, corpus, tmp_path, monkeypatch,
                                      log2_buckets):
        """Kill a crawl in the first wave after a log-only commit whose
        logs hold budget_denied removes (a wave the next commit would
        have held), then resume: trace, final shard blobs and per-wave
        seen_total equal the uninterrupted crawl's on 2 fetch actors.
        On 1 actor they equal a resume from a snapshot
        of the same wave (the crawl stopped there by its wave cap): a
        finite actor_token_rate is per actor (``TokenBucket``), so an
        uninterrupted 2-actor crawl legitimately denies other urls.  At
        2^12 buckets the resume replays every log onto fresh shards; at
        2^4 it restores a mid-crawl snapshot first.  With
        fetch_batch_size 4 the 2-actor pool grows on wave 1, before the
        cut, so the resume restarts it at 2 actors.  Resuming with
        other shard geometry raises."""
        pages, _ = corpus

        def cfg(**kw):
            # wave_size 8: several commits; no wave selects more than 6
            base = dict(wave_size=8, per_host_budget=4, max_waves=60,
                        n_seen_shards=2, log2_buckets=log2_buckets,
                        fetch_concurrency=2, fetch_batch_size=4,
                        extract_records=False, actor_token_rate=1)
            return CrawlConfig(**{**base, **kw})

        workdir_full = str(tmp_path / "full")
        full = run_crawl(pages, workdir_full, config=cfg())
        layout = _seen_layout(workdir_full)

        # cut after the latest log-only commit whose own logs hold
        # removes: their urls are requeued into the resumed waves, so a
        # replay that mishandles removes changes the resumed trace
        cut = max(w for w, segments, snap, _ in layout[:-1]
                  if any(n_removed for *_, n_removed in segments) and not snap)
        assert cut + 1 not in [w for w, *_ in layout]  # the killed wave is held
        assert any(snap for w, _, snap, _ in layout if w < cut) == (log2_buckets == 4)
        assert next(m for m in full.metrics if m["wave"] == cut)["fetch_actors"] == 2

        workdir_snap = str(tmp_path / "snap1")
        run_crawl(pages, workdir_snap, config=cfg(max_waves=cut + 1))
        assert _seen_layout(workdir_snap)[-1][2]  # wave `cut`, a snapshot
        expected = {
            2: (full.trace, workdir_full),
            1: (run_crawl(pages, workdir_snap, resume=True,
                          config=cfg(fetch_concurrency=1)).trace, workdir_snap),
        }

        class Killed(Exception):
            pass

        write = crawl._write_checkpoint

        def write_or_die(workdir, wave, *args, **kw):
            if wave > cut:
                raise Killed
            return write(workdir, wave, *args, **kw)

        for n_fetch, (trace, workdir_expected) in expected.items():
            workdir_cut = str(tmp_path / f"cut{n_fetch}")
            with monkeypatch.context() as m:
                m.setattr(crawl, "_write_checkpoint", write_or_die)
                with pytest.raises(Killed):
                    run_crawl(pages, workdir_cut, config=cfg())
            assert crawl._completed_waves(workdir_cut)[-1] == cut
            if n_fetch == 2:
                with pytest.raises(ValueError, match="2\\^"):
                    run_crawl(pages, workdir_cut, resume=True,
                              config=cfg(log2_buckets=log2_buckets + 1))
            resumed = run_crawl(pages, workdir_cut, resume=True,
                                config=cfg(fetch_concurrency=n_fetch))
            assert resumed.metrics[0]["wave"] > cut
            pd.testing.assert_frame_equal(
                trace.reset_index(drop=True),
                resumed.trace.reset_index(drop=True),
            )
            assert _final_seen(workdir_expected) == _final_seen(workdir_cut)
            assert ([m["seen_total"] for *_, ms in _seen_layout(workdir_cut) for m in ms]
                    == [m["seen_total"]
                        for *_, ms in _seen_layout(workdir_expected) for m in ms])

    def test_robots_denied(self, corpus, tmp_path):
        pages, _ = corpus
        from crawler_tjce_ray.pipelines.crawl import default_seeds

        seeds = default_seeds() + ["https://esaj.tjce.example.org/private/secret/page/0"]
        cfg = CrawlConfig(wave_size=64, per_host_budget=8, max_waves=5,
                          n_seen_shards=2, log2_buckets=12, fetch_concurrency=2,
                          fetch_batch_size=1, extract_records=False)
        r = run_crawl(pages, str(tmp_path / "run"), seeds=seeds, config=cfg)
        denied = r.trace[r.trace["url"].str.contains("/private/")]
        assert (denied["status"] == "robots_denied").all() and len(denied) == 1

    def test_records_written(self, corpus, tmp_path):
        pages, plan = corpus
        r = self._run(corpus, str(tmp_path / "run"), extract=True)
        import ray.data as rd

        n_prec = sum(1 for p in plan if p.kind == "precatorios")
        recs = rd.read_parquet(os.path.join(r.records_dir, "precatorios"))
        assert recs.count() == n_prec * ROWS

    def test_independent_order_oracle(self, corpus, tmp_path):
        """Cross-check the wave trace against a from-scratch sequential
        simulator implementing the same policy (priority=depth BFS,
        per-host budget, lexicographic tiebreak)."""
        pages, plan = corpus
        r = self._run(corpus, str(tmp_path / "run"))

        from crawler_tjce_ray.dsr.synth import generate_page, page_outlinks
        from crawler_tjce_ray.pipelines.crawl import default_seeds

        by_url = {p.url: p for p in plan}
        pending = {u: (0, 0) for u in default_seeds()}  # url -> (depth, avail_wave)
        seen = set()
        oracle = []  # (wave, url)
        wave = 0
        while pending and wave < 60:
            elig = [(d, u) for u, (d, w) in pending.items() if w <= wave]
            elig.sort(key=lambda x: (x[0], x[1]))
            granted, host_used, taken = [], {}, 0
            for d, u in elig:
                host = u.split("/")[2]
                if taken >= 64:
                    break
                if host_used.get(host, 0) >= 4:
                    continue
                host_used[host] = host_used.get(host, 0) + 1
                taken += 1
                granted.append(u)
            for u in pending:
                if u not in granted and pending[u][1] <= wave:
                    pending[u] = (pending[u][0], wave + 1)
            for u in granted:
                d = pending.pop(u)[0]
                if u in seen:
                    continue
                seen.add(u)
                oracle.append((wave, u))
                if u in by_url:
                    for link in page_outlinks(by_url[u]):
                        if link not in seen and link not in pending:
                            pending[link] = (d + 1, wave + 1)
            wave += 1

        mine = [
            (int(w), u)
            for w, u, s in zip(r.trace["wave"], r.trace["url"], r.trace["status"])
            if s == "ok"
        ]
        assert mine == oracle
