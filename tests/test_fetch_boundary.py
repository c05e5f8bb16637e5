"""The ``FetchPool`` → ``FetchActor`` call carries plain lists, never
Arrow tables: a table crossing the Ray boundary makes the actor process
import Ray's Arrow serializer chain (``ray.data``, and pandas through
it), which costs more CPU than a small wave's fetch."""

import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from crawler_tjce_ray.stages.fetch import DEFAULT_STORE_BUCKETS, FetchPool, build_page_store
from crawler_tjce_ray.state.frontier import host_of, url_sha1_64

MISSING = "https://example.invalid/powerbi/precatorios/none/page/0"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    from crawler_tjce_ray.sources.pages import corpus_cache_dir

    pages = corpus_cache_dir(n_entities=4, total_pages=24, rows_per_page=8, seed=5)
    store = build_page_store(pages, str(tmp_path_factory.mktemp("store") / "s"))
    bodies = pq.read_table(pages, columns=["url", "html"]).slice(0, 6).to_pylist()
    return store, {r["url"]: r["html"] for r in bodies}


def _wave(urls):
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "url_key": pa.array([url_sha1_64(u) for u in urls], pa.uint64()),
        "host": pa.array([host_of(u) for u in urls], pa.string()),
        "seed": pa.array(urls, pa.string()),
        "depth": pa.array(range(len(urls)), pa.int32()),
    })


def _fetch_one_wave(store, urls, records_dir):
    """One wave on a pool grown to two members (member 0 is the driver,
    member 1 a Ray actor, each fetching some of ``urls``) → (output rows
    by url, output column names, whether the actor process imported
    ``ray.data``)."""
    import ray

    pool = FetchPool(store, n_actors=2, records_dir=records_dir)
    try:
        pool.grow(2)
        out = pool.fetch(_wave(urls), 0)
        imported = ray.get(pool.actors[1].__ray_call__.remote(
            lambda self: "ray.data" in sys.modules))
    finally:
        pool.shutdown()
    assert {url_sha1_64(u) % DEFAULT_STORE_BUCKETS % 2 for u in urls} == {0, 1}
    assert out.num_rows == len(urls)  # member-major: index it by url
    return {r["url"]: r for r in out.to_pylist()}, out.column_names, imported


@pytest.mark.usefixtures("ray_session")
class TestFetchActorBoundary:
    def test_fused_wave_keeps_ray_data_out_of_the_actor(self, corpus, tmp_path):
        store, bodies = corpus
        urls = [*bodies, MISSING]
        records = str(tmp_path / "records")
        rows, columns, imported = _fetch_one_wave(store, urls, records)
        assert imported is False
        assert columns == ["url", "host", "status", "links", "seed", "depth"]
        assert sorted(rows) == sorted(urls)
        assert [rows[u]["status"] for u in urls] == ["ok"] * len(bodies) + ["missing"]
        assert [rows[u]["seed"] for u in urls] == urls
        assert [rows[u]["depth"] for u in urls] == list(range(len(urls)))
        assert all(rows[u]["links"] for u in bodies)
        assert os.listdir(records)  # extraction ran in the pool

    def test_unfused_wave_returns_html(self, corpus):
        store, bodies = corpus
        urls = [*bodies, MISSING]
        rows, columns, imported = _fetch_one_wave(store, urls, None)
        assert imported is False
        assert columns == ["url", "host", "status", "links", "html", "seed", "depth"]
        assert [rows[u]["html"] for u in urls] == [*bodies.values(), None]
        assert rows[MISSING]["status"] == "missing"
