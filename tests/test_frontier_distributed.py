"""Equivalence of the driver-side and Ray-Data wave selection paths —
`select_wave` vs `select_wave_distributed` must pick the same wave and
leave the same deferred frontier on skewed inputs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from crawler_tjce_ray.state.frontier import (
    FRONTIER_SCHEMA, make_frontier_rows, select_wave, select_wave_distributed,
)


def _skewed_frontier(n: int, seed: int = 7) -> pa.Table:
    rng = np.random.RandomState(seed)
    hosts = ["hot.example.com"] * (n // 2) + [
        f"h{rng.randint(0, 37)}.example.com" for _ in range(n - n // 2)
    ]
    urls = [f"https://{h}/p/{i}" for i, h in enumerate(hosts)]
    f = make_frontier_rows(urls).to_pandas()
    f["priority"] = rng.randint(0, 3, size=n).astype(np.int32)
    f["next_fetch_wave"] = rng.randint(0, 2, size=n).astype(np.int32)
    return pa.Table.from_pandas(f, schema=FRONTIER_SCHEMA, preserve_index=False)


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df["url_key"] = df["url_key"].astype("uint64")
    df["next_fetch_wave"] = df["next_fetch_wave"].astype("int64")
    df["priority"] = df["priority"].astype("int64")
    return (
        df[["url", "url_key", "host", "priority", "next_fetch_wave"]]
        .sort_values("url").reset_index(drop=True)
    )


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("blocks", [1, 7, 16])
@pytest.mark.parametrize("wave,wave_size,budget", [
    (0, 64, 8), (1, 200, 5), (0, 10_000, 3), (1, 3, 1),
    (-1, 64, 8),  # no row eligible: nothing selected, nothing bumped
])
def test_distributed_matches_driver_path(wave, wave_size, budget, blocks):
    import ray.data as rd

    frontier = _skewed_frontier(800)
    sel_pd, def_pd = (t.to_pandas() for t in select_wave(frontier, wave, wave_size, budget))
    ds = rd.from_arrow(frontier).repartition(blocks)
    sel_rd, def_rd = select_wave_distributed(ds, wave, wave_size, budget)
    sel_rd = sel_rd.to_pandas()

    pd.testing.assert_frame_equal(_norm(sel_pd), _norm(sel_rd))
    pd.testing.assert_frame_equal(_norm(def_pd), _norm(def_rd.to_pandas()))
    # politeness holds
    if len(sel_rd):
        assert sel_rd.groupby("host")["url"].count().max() <= budget
    assert len(sel_rd) <= wave_size
    if wave < 0:
        assert len(sel_rd) == 0


@pytest.mark.usefixtures("ray_session")
def test_crawl_identical_through_distributed_route(tmp_path):
    """Forcing every wave through the Ray-Data selection path
    (threshold=0) must reproduce the default crawl trace exactly."""
    from crawler_tjce_ray.pipelines.crawl import CrawlConfig, run_crawl
    from crawler_tjce_ray.sources.pages import corpus_cache_dir

    pages = corpus_cache_dir(n_entities=8, total_pages=40, rows_per_page=50, seed=42)
    base = dict(wave_size=64, per_host_budget=4, max_waves=8, fetch_concurrency=2,
                fetch_batch_size=1)
    r_pd = run_crawl(pages, str(tmp_path / "pd"),
                     config=CrawlConfig(**base))
    r_rd = run_crawl(pages, str(tmp_path / "rd"),
                     config=CrawlConfig(**base, distributed_select_threshold=0))
    pd.testing.assert_frame_equal(
        r_pd.trace.reset_index(drop=True), r_rd.trace.reset_index(drop=True)
    )


@pytest.mark.usefixtures("ray_session")
def test_distributed_resume_from_parquet_dir_checkpoint(tmp_path):
    """Dataset-mode checkpoints store the frontier as a Parquet
    DIRECTORY (distributed write, never a driver frame); killing after
    wave k and resuming must reproduce the remaining trace exactly and
    restore the frontier from that layout."""
    import os

    from crawler_tjce_ray.pipelines.crawl import CrawlConfig, run_crawl
    from crawler_tjce_ray.sources.pages import corpus_cache_dir

    pages = corpus_cache_dir(n_entities=8, total_pages=40, rows_per_page=50, seed=42)
    base = dict(wave_size=64, per_host_budget=4, n_seen_shards=2,
                log2_buckets=12, fetch_concurrency=2, fetch_batch_size=1,
                extract_records=False, distributed_select_threshold=0)
    full = run_crawl(pages, str(tmp_path / "full"),
                     config=CrawlConfig(**base, max_waves=8))

    cut_dir = str(tmp_path / "cut")
    run_crawl(pages, cut_dir, config=CrawlConfig(**base, max_waves=3))
    # the wave-2 checkpoint must carry the directory layout
    assert os.path.isdir(
        os.path.join(cut_dir, "ckpt", "wave_00002", "frontier_parquet")
    )
    resumed = run_crawl(pages, cut_dir, resume=True,
                        config=CrawlConfig(**base, max_waves=8))
    pd.testing.assert_frame_equal(
        full.trace.reset_index(drop=True), resumed.trace.reset_index(drop=True)
    )


def test_frontier_uniqueness_guard():
    """The distributed defer filters by url_key membership; duplicate
    keys would silently drop the non-selected duplicate, so the crawl
    loop's pre-selection guard must fail loudly on corrupted state."""
    from crawler_tjce_ray.state.frontier import assert_frontier_unique

    f = _skewed_frontier(50)
    assert_frontier_unique(f)  # unique frontier passes
    dup = pa.concat_tables([f, f.slice(3, 1)])
    with pytest.raises(AssertionError, match="uniqueness invariant"):
        assert_frontier_unique(dup)
