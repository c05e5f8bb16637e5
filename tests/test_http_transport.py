"""The live-HTTP transport seam (r3 verdict item 9): FetchActor's
network is an injectable transport whose default is the page store;
HttpTransport mirrors the reference crawler's session semantics
(/root/reference/crawler/crawler.py:252-301 — POST querydata payload,
fresh ActivityId/RequestId per request, timeout 180 s, 3 attempts with
exponential backoff clamped to [4 s, 10 s]).  No network exists in
this sandbox, so every test drives the seam with a fake ``post``."""

import json

import pytest

from crawler_tjce_ray.stages.fetch import HttpTransport

API = "https://wabi-brazil-south-b-primary-api.example/querydata"
URL = "https://host-0.example.org/powerbi/precatorios/ent-slug/page/0"


class FakePost:
    """Scripted (status, body) responses; records every call."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def __call__(self, api_url, payload, headers, timeout):
        self.calls.append((api_url, payload, headers, timeout))
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class TestHttpTransport:
    def test_success_returns_body(self):
        post = FakePost([(200, b'{"results": []}')])
        t = HttpTransport(API, post=post)
        assert t.fetch(URL) == b'{"results": []}'
        assert t.fetch_retries == 0
        (api_url, payload, headers, timeout) = post.calls[0]
        assert api_url == API
        assert timeout == 180.0  # reference crawler.py:297-299
        # the body is the url's querydata payload, not the url itself
        assert "Queries" in json.dumps(payload) or isinstance(payload, dict)
        # fresh correlation ids per request (crawler.py:265-267)
        assert headers["ActivityId"] and headers["RequestId"]

    def test_404_is_missing_not_error(self):
        post = FakePost([(404, b"")])
        t = HttpTransport(API, post=post)
        assert t.fetch(URL) is None
        assert t.fetch_retries == 0

    def test_retry_then_recover(self):
        sleeps = []
        post = FakePost([(500, b""), OSError("conn reset"),
                         (200, b"ok-body")])
        t = HttpTransport(API, post=post, sleeper=sleeps.append)
        assert t.fetch(URL) == b"ok-body"
        assert t.fetch_retries == 2
        # wait_exponential(multiplier=1, min=4, max=10): clamped waits
        assert sleeps == [4.0, 4.0]
        # each attempt got fresh correlation ids
        ids = [c[2]["RequestId"] for c in post.calls]
        assert len(set(ids)) == 3

    def test_persistent_failure_raises_after_3_attempts(self):
        post = FakePost([(503, b"")] * 5)
        t = HttpTransport(API, post=post, sleeper=lambda s: None)
        with pytest.raises(OSError, match="after 3 attempts"):
            t.fetch(URL)
        assert len(post.calls) == 3  # stop_after_attempt(3)

    def test_backoff_clamps_to_max(self):
        sleeps = []
        post = FakePost([(500, b"")] * 3 + [(200, b"x")])
        t = HttpTransport(API, post=post, max_attempts=4,
                          sleeper=sleeps.append)
        assert t.fetch(URL) == b"x"
        assert sleeps == [4.0, 4.0, 8.0]  # 2^1=2→min 4, 2^2=4→4, 2^3=8

    def test_non_corpus_url_rejected(self):
        t = HttpTransport(API, post=FakePost([(200, b"")]))
        with pytest.raises(ValueError, match="not a corpus page URL"):
            t.fetch("https://elsewhere.example/nothing")


@pytest.mark.usefixtures("ray_session")
class TestActorTransportSeam:
    def test_http_transport_matches_page_store(self, tmp_path):
        """A FetchActor over an HttpTransport whose fake post serves
        the synthetic corpus must produce output identical to the
        default page-store transport — the drop-in contract."""
        import pyarrow as pa

        from crawler_tjce_ray.dsr.synth import build_page_plan, generate_page
        from crawler_tjce_ray.stages.fetch import (
            DEFAULT_STORE_BUCKETS, FetchActor, build_page_store,
        )

        # small synthetic corpus on disk (the page store path)
        plan = build_page_plan(n_entities=4, total_pages=12, seed=7)
        rows = [generate_page(p, 10, 7) for p in plan]
        import pyarrow.parquet as pq

        src = tmp_path / "pages"
        src.mkdir()
        pq.write_table(pa.Table.from_pylist(rows), str(src / "part.parquet"))
        store = build_page_store(str(src), str(tmp_path / "store"))

        by_url = {r["url"]: r["html"] for r in rows}

        def fake_post(api_url, payload, headers, timeout):
            # the fake network: serve the synthetic page for the url
            # the transport is currently fetching (closed over below)
            return (200, by_url[fake_post.current_url]) \
                if fake_post.current_url in by_url else (404, b"")

        class CorpusHttpTransport(HttpTransport):
            def fetch(self, url):
                fake_post.current_url = url
                return super().fetch(url)

        urls = [r["url"] for r in rows[:8]]
        hosts = [u.split("/")[2] for u in urls]
        store_actor = FetchActor(store)
        http_actor = FetchActor(
            store,  # store args unused once a transport is injected
            transport_factory=lambda: CorpusHttpTransport(
                API, post=fake_post),
        )
        out_store = store_actor(urls, hosts, wave=0)
        out_http = http_actor(urls, hosts, wave=0)
        assert out_http == out_store
        assert http_actor.transport.bucket_loads == 0  # never touched the store
        assert store_actor.transport.bucket_loads > 0
