"""The benchmark's crawl tracer (``perfbench/crawls.py::CrawlTracer``)
wraps engine functions by name.  A renamed or bypassed hook point
would make ``perfbench/run.py --trace 1`` report a zero layer without
failing; this test runs a tiny crawl under the tracer and requires a
span for every wave on each wrapped layer."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _crawl_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_crawls", os.path.join(ROOT, "perfbench", "crawls.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.CrawlTracer


@pytest.mark.usefixtures("ray_session")
def test_crawl_tracer_sees_every_layer(tmp_path):
    from crawler_tjce_ray.pipelines.crawl import CrawlConfig, run_crawl
    from crawler_tjce_ray.sources.pages import corpus_cache_dir

    pages = corpus_cache_dir(n_entities=8, total_pages=40, rows_per_page=20, seed=42)
    cfg = CrawlConfig(wave_size=64, per_host_budget=4, max_waves=4,
                      n_seen_shards=2, log2_buckets=12, fetch_concurrency=2,
                      extract_records=False)
    with _crawl_tracer()() as tracer:
        res = run_crawl(pages, str(tmp_path / "run"), config=cfg)
    waves = len(res.metrics)
    assert waves == 4
    for layer in ("select", "seen.check", "fetch", "checkpoint"):
        assert tracer.count(layer) == waves, layer
        assert tracer.total(layer) > 0, layer
    assert tracer.count("seen.checkpoint") >= 1  # the last wave's snapshot
    assert tracer.ckpt_bytes > 0 and tracer.n_actors == 2
    m = tracer.layer_metrics(res, wall=1.0)
    assert m["fetch.pages"] == res.actor_stats["fetched_ok"] > 0
