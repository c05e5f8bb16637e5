"""End-to-end tests for the HTTP serving shim (serve.py): the routes
must drive the same pipelines as the CLI, so a served /api/fetch
response and a `extract --entity` CSV agree row for row."""

import csv
import json
import threading
import urllib.request

import pytest


@pytest.fixture(scope="module")
def server(ray_session):
    from crawler_tjce_ray.serve import make_server

    srv = make_server(port=0, cache_ttl=600)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()


def _get(base, path):
    with urllib.request.urlopen(base + path) as r:
        return r.status, json.loads(r.read().decode("utf-8"))


def _get_error(base, path):
    try:
        with urllib.request.urlopen(base + path) as r:
            return r.status, json.loads(r.read().decode("utf-8"))
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read().decode("utf-8"))


class TestRoutes:
    def test_health(self, server):
        code, body = _get(server, "/api/health")
        assert code == 200
        assert body == {"status": "OK", "message": "API está operacional"}

    def test_entities(self, server):
        code, body = _get(server, "/api/entities")
        assert code == 200 and body["status"] == "success"
        assert len(body["data"]) > 0
        assert all("entidade" in row and "slug" in row for row in body["data"])

    def test_unknown_route_404(self, server):
        code, body = _get_error(server, "/api/nope")
        assert code == 404

    def test_fetch_requires_entity(self, server):
        code, body = _get_error(server, "/api/fetch")
        assert code == 400
        assert "obrigatório" in body["message"]

    def test_fetch_invalid_slug(self, server):
        code, body = _get_error(server, "/api/fetch?entity=nao-existe-xyz")
        assert code == 400

    def test_listing_editais_and_pagamentos(self, server):
        for kind in ("editais", "pagamentos"):
            code, body = _get(server, f"/api/{kind}")
            assert code == 200 and body["status"] == "success"
            assert len(body["data"]) > 0
        # ordem ascending — the O3 client re-sort contract (editais
        # display rows carry ordem; the pagamentos CSV shape does not)
        code, body = _get(server, "/api/editais")
        ordem = [int(row["ordem"]) for row in body["data"]]
        assert ordem == sorted(ordem)

    def test_cache_second_hit_identical(self, server):
        a = _get(server, "/api/editais")
        b = _get(server, "/api/editais")
        assert a == b

    def test_metrics_exposition(self, server):
        _get(server, "/api/health")  # at least one counted request
        with urllib.request.urlopen(server + "/metrics") as r:
            assert r.status == 200
            assert "text/plain" in r.headers["Content-Type"]
            text = r.read().decode("utf-8")
        # the reference's metric families (metrics.py:6-27)
        assert "# TYPE crawler_requests_total counter" in text
        assert "# TYPE crawler_request_duration_seconds histogram" in text
        assert 'crawler_requests_total{entity="/api/health"}' in text
        assert "crawler_request_duration_seconds_bucket" in text
        # gauge returns to zero once requests complete
        assert 'crawler_active_requests{entity="/api/health"} 0' in text

    def test_fetch_increments_records_counter(self, server):
        code, ents = _get(server, "/api/entities")
        slug = _real_slug(ents)
        _, body = _get(server, f"/api/fetch?entity={slug}")
        with urllib.request.urlopen(server + "/metrics") as r:
            text = r.read().decode("utf-8")
        n = body["num_precatorios_found"]
        assert f'crawler_records_processed_total{{entity="{slug}"}}' in text
        # counter is cumulative across this module's requests — at
        # least one full fetch's rows must be recorded
        line = next(
            ln for ln in text.splitlines()
            if ln.startswith(f'crawler_records_processed_total{{entity="{slug}"}}')
        )
        assert float(line.rsplit(" ", 1)[1]) >= n


def _real_slug(ents):
    """First fetchable entity: the list keeps the reference's
    '--- Selecione a Entidade' placeholder row (data/entidades_tjce.csv
    includes it), which is not a crawlable entity."""
    return next(
        r["slug"] for r in ents["data"] if "selecione" not in r["slug"]
    )


class TestMetricsLabels:
    def test_series_bounded_under_random_paths(self, server):
        """Random paths and made-up ``?entity=`` values must not mint
        series: every ``entity`` label is a route template or a known
        entity slug."""
        import random

        from crawler_tjce_ray.serve import AppState

        rng = random.Random(11)
        tokens = []
        for _ in range(50):
            tok = "zz" + "".join(rng.choices("abcdefghij0123456789", k=10))
            tokens.append(tok)
            path = rng.choice([
                f"/{tok}", f"/api/{tok}", f"/api/query/{tok}",
                f"/api/fetch?entity={tok}", f"/api/health?entity={tok}",
                f"/{tok}?entity={tok}",
            ])
            try:
                urllib.request.urlopen(server + path).read()
            except urllib.error.HTTPError:
                pass
        _, ents = _get(server, "/api/entities")
        with urllib.request.urlopen(server + "/metrics") as r:
            text = r.read().decode("utf-8")
        labels = {
            ln.split('entity="', 1)[1].split('"', 1)[0]
            for ln in text.splitlines()
            if ln.startswith("crawler_requests_total{")
        }
        allowed = (set(AppState._ROUTES) | {"/api/query/{name}", "unmatched"}
                   | {r["slug"] for r in ents["data"]})
        assert labels <= allowed, labels - allowed
        assert {"unmatched", "/api/query/{name}", "/api/fetch"} <= labels
        assert not any(tok in text for tok in tokens)


class TestFetchMatchesCli:
    def test_fetch_rows_equal_cli_csv(self, server, tmp_path):
        from crawler_tjce_ray.cli import main as cli_main

        code, ents = _get(server, "/api/entities")
        slug = _real_slug(ents)

        code, body = _get(server, f"/api/fetch?entity={slug}")
        assert code == 200 and body["num_precatorios_found"] > 0
        served = body["data"]

        out = tmp_path / "cli.csv"
        rc = cli_main([
            "extract", "--kind", "precatorios", "--entity", slug,
            "--output", str(out),
        ])
        assert rc == 0
        with open(out, encoding="utf-8-sig") as f:
            cli_rows = list(csv.DictReader(f))

        assert len(cli_rows) == len(served)
        # served rows carry the SAME display formatting as the CSV
        # sink; the CSV layer only stringifies (None → "")
        def as_csv(v):
            return "" if v is None else str(v)

        for cli_row, api_row in zip(cli_rows, served):
            assert {k: as_csv(v) for k, v in api_row.items()} == dict(cli_row)

    def test_year_filter_subsets(self, server):
        code, ents = _get(server, "/api/entities")
        slug = _real_slug(ents)
        _, allb = _get(server, f"/api/fetch?entity={slug}")
        anos = {row["ano_orcamento"] for row in allb["data"]}
        year = sorted(anos)[0]
        _, sub = _get(server, f"/api/fetch?entity={slug}&year={year}")
        assert 0 < sub["num_precatorios_found"] <= allb["num_precatorios_found"]
        assert all(row["ano_orcamento"] == year for row in sub["data"])


class TestQueryRoutes:
    """/api/queries + /api/query/<name>: the whole registry surface
    over HTTP, rows identical to calling the query directly."""

    def test_query_index_lists_registry(self, server):
        from crawler_tjce_ray.pipelines.registry import (
            build_oracle_sql, build_queries,
        )

        code, body = _get(server, "/api/queries")
        assert code == 200 and body["status"] == "success"
        names = {d["name"] for d in body["data"]}
        assert names == set(build_queries())
        oracled = {d["name"] for d in body["data"] if d["has_oracle"]}
        assert oracled == set(build_oracle_sql()) & names

    def test_query_rows_match_direct_call(self, server):
        from crawler_tjce_ray.pipelines.registry import build_queries

        code, body = _get(
            server, "/api/query/groupby_count?sf_dir=/root/testdata/sf0.001"
        )
        assert code == 200 and body["status"] == "success"
        direct = build_queries()["groupby_count"]("/root/testdata/sf0.001")
        if hasattr(direct, "to_pandas"):
            direct = direct.to_pandas()
        assert body["rows_total"] == len(direct)
        assert body["data"] == json.loads(
            direct.to_json(orient="records")
        )

    def test_query_limit_truncates(self, server):
        code, body = _get(
            server,
            "/api/query/limit_window?sf_dir=/root/testdata/sf0.001&limit=7",
        )
        assert code == 200
        assert len(body["data"]) == 7
        assert body["rows_total"] >= 7

    def test_unknown_query_404(self, server):
        code, body = _get_error(server, "/api/query/no_such_query")
        assert code == 404 and body["status"] == "error"

    def test_bad_sf_dir_400(self, server):
        code, body = _get_error(
            server, "/api/query/groupby_count?sf_dir=/nonexistent"
        )
        assert code == 400 and body["status"] == "error"


class TestJsonSafety:
    """RFC 8259-strict serialization: NaN/Inf -> null, numpy bools ->
    JSON booleans (strict parsers reject literal NaN; str(np.bool_)
    would make \"False\" truthy downstream)."""

    def test_json_records_sanitizes_nonfinite(self):
        import numpy as np
        import pandas as pd

        from crawler_tjce_ray.serve import AppState

        df = pd.DataFrame({
            "a": [1.0, float("nan"), float("inf")],
            "b": np.array([True, False, True]),
        })
        recs = AppState._json_records(df)
        assert recs[1]["a"] is None and recs[2]["a"] is None
        assert recs[0]["a"] == 1.0

    def test_json_default_numpy_bool(self):
        import numpy as np

        from crawler_tjce_ray.serve import _json_default

        assert json.dumps(np.bool_(False), default=_json_default) == "false"

    def test_query_limits_share_one_execution(self, server):
        # same rows regardless of limit; rows_total constant
        _, b5 = _get(
            server, "/api/query/limit_window?sf_dir=/root/testdata/sf0.001&limit=5"
        )
        _, b9 = _get(
            server, "/api/query/limit_window?sf_dir=/root/testdata/sf0.001&limit=9"
        )
        assert b5["rows_total"] == b9["rows_total"]
        assert b9["data"][:5] == b5["data"]


class TestCacheBounds:
    def test_concurrent_identical_requests_build_once(self):
        import time as _time

        from crawler_tjce_ray.serve import AppState

        state = AppState(corpus="/tmp", cache_ttl=600)
        calls = []

        def build():
            calls.append(1)
            _time.sleep(0.2)
            return 200, {"x": 1}

        results = []
        ts = [threading.Thread(
            target=lambda: results.append(state._cached("k", build)))
            for _ in range(4)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert len(calls) == 1
        assert all(r == (200, {"x": 1}) for r in results)

    def test_cache_evicts_oldest_past_bound(self):
        from crawler_tjce_ray.serve import AppState

        state = AppState(corpus="/tmp", cache_ttl=600)
        for i in range(AppState.CACHE_MAX_ENTRIES + 8):
            state._cached(f"k{i}", lambda i=i: (200, {"i": i}))
        assert len(state._cache) == AppState.CACHE_MAX_ENTRIES
        assert "k0" not in state._cache  # oldest evicted


class TestHtmlPages:
    """The reference serves home/cronologica/edital/pagamentos HTML
    pages (main.py:54-91); the rebuild serves the same navigation
    surface with original markup over the same /api data."""

    def _get_html(self, base, path):
        with urllib.request.urlopen(base + path) as r:
            return r.status, r.headers.get("Content-Type"), \
                r.read().decode("utf-8")

    def test_home(self, server):
        code, ctype, html = self._get_html(server, "/")
        assert code == 200 and ctype.startswith("text/html")
        assert "Sistema de Consulta TJCE" in html
        for link in ("/cronologica", "/edital", "/pagamentos"):
            assert link in html

    def test_cronologica_lists_entities_sorted(self, server):
        code, _, html = self._get_html(server, "/cronologica")
        assert code == 200
        # the dropdown is fed by the same build as /api/entities
        _, ents = _get(server, "/api/entities")
        names = [r["entidade"] for r in ents["data"]]
        assert names and all(n in html for n in names[:3])
        # official-name sort order (reference main.py:62-75)
        pos = [html.index(n) for n in sorted(names)]
        assert pos == sorted(pos)

    def test_edital_and_pagamentos_pages(self, server):
        for path, api in (("/edital", "/api/editais"),
                          ("/pagamentos", "/api/pagamentos")):
            code, _, html = self._get_html(server, path)
            assert code == 200 and api in html


class TestPageEscaping:
    """Entity names/slugs come from crawled (untrusted) HTML; the
    dropdown must escape them (the reference gets this via Jinja
    autoescape — ADVICE r4 flagged the divergence as stored XSS)."""

    def test_cronologica_escapes_entity_markup(self):
        from crawler_tjce_ray.serve import AppState

        state = AppState.__new__(AppState)
        evil = '<script>alert(1)</script> & "Q"'
        state.entities = lambda: (200, {"data": [
            {"entidade": evil, "slug": 'x" onmouseover="alert(2)'},
        ]})
        html = state._page_html("cronologica")
        assert "<script>alert(1)" not in html
        assert "&lt;script&gt;alert(1)&lt;/script&gt;" in html
        assert 'onmouseover="alert(2)' not in html
        assert "x&quot; onmouseover=&quot;alert(2)" in html
