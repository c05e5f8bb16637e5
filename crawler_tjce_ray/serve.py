"""Thin HTTP serving shim — EP1 parity with the reference's Flask API
(reference main.py:742 ``/api/health``, :751 ``/api/entities``, :825
``/api/fetch``, :137 ``/api/editais``, :229 ``/api/pagamentos``).

Stdlib ``http.server`` only (Flask/flask-restx are not in this
container); the routes drive the SAME pipelines as the CLI
(cli.cmd_extract), so a served response and a CLI CSV agree row for
row (pinned by tests/test_serve.py).  Response envelopes mirror the
reference's marshalled models: ``{status, message, data, pinata_url}``
plus ``num_precatorios_found`` on ``/api/fetch``.

The reference caches list endpoints (flask-cache,
config.cache_timeout_entities) and uploads every CSV to Pinata; here a
per-process TTL cache covers the list endpoints and the local
content-addressed artifact store (functions/artifacts.py, the honest
K6 analog) supplies the ``pinata_url`` field when configured.

The server owns no Ray session: callers init Ray first (the ``serve``
CLI subcommand does; tests use the shared session fixture).
"""

from __future__ import annotations

import html as _html
import json
import os
import tempfile
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from crawler_tjce_ray.functions.text import slugify


def _json_default(o):
    import base64

    import numpy as np

    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (bytes, bytearray)):
        return base64.b64encode(bytes(o)).decode("ascii")
    return str(o)


class AppState:
    """Shared route logic + TTL response cache (one per server)."""

    CACHE_MAX_ENTRIES = 32

    def __init__(self, corpus: str | None = None,
                 artifact_store: str | None = None,
                 cache_ttl: float = 300.0) -> None:
        if corpus is None:
            from crawler_tjce_ray.sources.pages import corpus_cache_dir

            corpus = corpus_cache_dir(
                n_entities=8, total_pages=40, rows_per_page=50, seed=42
            )
        from crawler_tjce_ray.functions.promtext import Registry

        self.corpus = corpus
        self.artifact_store = artifact_store
        self.cache_ttl = cache_ttl
        self.metrics = Registry()
        self._cache: dict[str, tuple[float, tuple[int, dict]]] = {}
        self._lock = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}

    # -- caching ----------------------------------------------------------
    def _cached(self, key: str, build):
        """TTL cache, BOUNDED (oldest-entry eviction past
        CACHE_MAX_ENTRIES — full query results would otherwise
        accumulate until the serve process OOMs) with a per-key build
        lock so concurrent identical requests run the underlying Ray
        query once, not once per request."""
        with self._lock:
            hit = self._cache.get(key)
            if hit and time.time() - hit[0] < self.cache_ttl:
                return hit[1]
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            with self._lock:
                hit = self._cache.get(key)
                if hit and time.time() - hit[0] < self.cache_ttl:
                    return hit[1]
            out = build()
            with self._lock:
                self._cache[key] = (time.time(), out)
                while len(self._cache) > self.CACHE_MAX_ENTRIES:
                    oldest = min(self._cache, key=lambda k: self._cache[k][0])
                    del self._cache[oldest]
                    self._key_locks.pop(oldest, None)
            return out

    # -- artifact pinning (the pinata_url analog) --------------------------
    def _pin(self, df, kind: str, name: str) -> str | None:
        if not self.artifact_store:
            return None
        from crawler_tjce_ray.functions.artifacts import (
            LocalCASUploader, post_write_upload,
        )
        from crawler_tjce_ray.functions.sinks import write_display_csv

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            write_display_csv(df, kind, path)
            receipt = post_write_upload(
                [path], LocalCASUploader(self.artifact_store)
            )[0]
        return f"cas://{receipt['cid']}"

    # -- HTML pages (reference main.py:54-91 serves home/cronologica/
    # edital/pagamentos templates; this is the same navigation surface
    # with original minimal markup — the data flows through the same
    # /api routes the reference's pages call) --------------------------
    _PAGES = {
        "home": ("Sistema de Consulta TJCE",
                 "Selecione o tipo de consulta."),
        "cronologica": ("Consulta de Precatórios — Ordem Cronológica",
                        "Selecione a entidade devedora."),
        "edital": ("Consulta de Editais",
                   "Listagem de editais publicados."),
        "pagamentos": ("Consulta de Pagamentos Realizados",
                       "Listagem de pagamentos realizados."),
    }

    def _page_html(self, name: str) -> str:
        title, subtitle = self._PAGES[name]
        nav = " | ".join(
            f'<a href="/{"" if p == "home" else p}">{t[0]}</a>'
            for p, t in self._PAGES.items()
        )
        body = ""
        if name == "cronologica":
            # entity dropdown, official-name sorted (main.py:62-75);
            # reuses the TTL-cached /api/entities build, whose frame
            # already carries (entidade, slug)
            _, payload = self.entities()
            ents = sorted(payload.get("data", []),
                          key=lambda r: r.get("entidade", ""))
            # entity names/slugs come from the crawled corpus (untrusted
            # HTML) — escape them like the reference's Jinja autoescape
            # does (main.py render_template), or this page is stored XSS
            opts = "\n".join(
                '<option value="{}">{}</option>'.format(
                    _html.escape(str(r.get("slug", "")), quote=True),
                    _html.escape(str(r.get("entidade", ""))),
                )
                for r in ents
            )
            body = (
                '<form action="/api/fetch" method="get">'
                f'<select name="entity">{opts}</select> '
                '<input type="number" name="year" placeholder="ano"> '
                '<button type="submit">Consultar</button></form>'
            )
        elif name == "edital":
            body = '<p><a href="/api/editais">Ver editais (JSON)</a></p>'
        elif name == "pagamentos":
            body = '<p><a href="/api/pagamentos">Ver pagamentos (JSON)</a></p>'
        else:
            body = (
                '<ul>'
                '<li><a href="/cronologica">Ordem cronológica</a></li>'
                '<li><a href="/edital">Editais</a></li>'
                '<li><a href="/pagamentos">Pagamentos</a></li>'
                '<li><a href="/api/queries">Registro de consultas (JSON)</a></li>'
                '</ul>'
            )
        return (
            "<!DOCTYPE html>\n"
            '<html lang="pt-BR"><head><meta charset="UTF-8">'
            f"<title>{title}</title></head>"
            f"<body><nav>{nav}</nav><h1>{title}</h1>"
            f"<p>{subtitle}</p>{body}</body></html>"
        )

    def _registry(self):
        from crawler_tjce_ray.state.entities import EntityRegistry

        return self._cached(
            "entity_registry", lambda: EntityRegistry.from_corpus(self.corpus))

    # -- metric labels -------------------------------------------------------
    _ROUTES = frozenset({
        "/metrics", "/", "/cronologica", "/edital", "/pagamentos",
        "/api/health", "/api/entities", "/api/editais", "/api/pagamentos",
        "/api/queries", "/api/fetch",
    })

    def metric_entity(self, path: str, params: dict) -> str:
        """The ``entity`` label of one request, from a BOUNDED set: a
        known entity slug on ``/api/fetch``, else the matched route
        template (a fixed path, ``/api/query/{name}`` or
        ``unmatched``).  A raw path or a made-up ``?entity=`` would
        mint one series per distinct request for the process's
        life."""
        ent = params.get("entity")
        if path == "/api/fetch" and ent:
            slug = slugify(ent)
            if self._registry().validate_entity_slug(slug):
                return slug
        if path in self._ROUTES:
            return path
        if path.startswith("/api/query/"):
            return "/api/query/{name}"
        return "unmatched"

    # -- routes ------------------------------------------------------------
    def health(self) -> tuple[int, dict]:
        return 200, {"status": "OK", "message": "API está operacional"}

    def entities(self) -> tuple[int, dict]:
        def build():
            from crawler_tjce_ray.pipelines.extract_all import extract_entities

            df = extract_entities(self.corpus)
            if len(df) == 0:
                return 200, {"status": "warning",
                             "message": "Nenhuma entidade encontrada.",
                             "data": [], "pinata_url": None}
            data = df.to_dict("records")
            url = self._pin(df[["entidade"]], "entities", "entidades_tjce.csv")
            return 200, {"status": "success",
                         "message": "Entidades listadas com sucesso.",
                         "data": data, "pinata_url": url}

        return self._cached("entities", build)

    def _kind_rows(self, kind: str, url_contains: str | None = None,
                   year: int | None = None):
        from crawler_tjce_ray.pipelines.extract_all import (
            assign_global_ordem, extract_records,
        )

        ds = extract_records(self.corpus, kind, url_contains=url_contains)
        ds = assign_global_ordem(
            ds, descending_pages=(kind == "editais")
        ).drop_columns(["url"]).sort("ordem")
        if year is not None:
            from crawler_tjce_ray.functions.postquery import apply_filters

            ds = apply_filters(ds, ano_min=year, ano_max=year)
        return ds.to_pandas()

    @staticmethod
    def _display_records(df, kind: str) -> list[dict]:
        """The SAME display formatting the CSV sink applies (M5/M10
        kernels via CSV_SINKS), so a served JSON row equals the
        corresponding CSV row field for field — the reference returns
        the normalized rows it writes to CSV (main.py:943
        ``data: all_rows``)."""
        from crawler_tjce_ray.functions.sinks import CSV_SINKS

        convert, _fields, _enc = CSV_SINKS[kind]
        return [convert(r) for r in df.to_dict("records")]

    def listing(self, kind: str) -> tuple[int, dict]:
        """/api/editais and /api/pagamentos: the full chain as JSON."""
        def build():
            df = self._kind_rows(kind)
            if len(df) == 0:
                return 200, {"status": "warning",
                             "message": f"Nenhum {kind[:-1]} encontrado.",
                             "data": [], "pinata_url": None}
            url = self._pin(df, kind, f"{kind}_tjce.csv")
            return 200, {"status": "success",
                         "message": f"{len(df)} registros.",
                         "data": self._display_records(df, kind),
                         "pinata_url": url}

        return self._cached(f"listing:{kind}", build)

    def fetch(self, params: dict) -> tuple[int, dict]:
        """/api/fetch?entity=<slug-or-name>[&year=][&count=] — all
        precatórios of one entity (the backend paginates internally;
        ``count`` only sizes those internal pages, so it is accepted
        and validated but does not change the result set)."""
        entity = params.get("entity")
        if not entity:
            return 400, {"status": "error",
                         "message": "O parâmetro 'entity' (slug da entidade) "
                                    "é obrigatório."}
        if "count" in params:
            try:
                int(params["count"])
            except ValueError:
                return 400, {"status": "error",
                             "message": "count deve ser inteiro"}
        year = None
        if "year" in params:
            try:
                year = int(params["year"])
            except ValueError:
                return 400, {"status": "error",
                             "message": "year deve ser inteiro"}

        registry = self._registry()
        official = registry.get_api_entity_name(entity)
        slug = registry.get_entity_slug(official)
        if not registry.validate_entity_slug(slug):
            return 400, {"status": "error",
                         "message": f"Slug de entidade inválido ou não "
                                    f"encontrado: {entity}"}
        df = self._kind_rows("precatorios", url_contains=f"/precatorios/{slug}/",
                             year=year)
        if len(df) == 0:
            year_msg = f"ano {year if year is not None else 'não aplicado'}"
            return 200, {"status": "success",
                         "message": f"Nenhum precatório para '{official}' "
                                    f"({slug}) {year_msg}.",
                         "data": [], "pinata_url": None,
                         "num_precatorios_found": 0}
        url = self._pin(
            df, "precatorios", f"precatorios_{slug.replace('-', '_')}.csv"
        )
        return 200, {
            "status": "success" if url or not self.artifact_store else "warning",
            "message": f"Precatórios para '{official}' ({slug}) recuperados.",
            "data": self._display_records(df, "precatorios"),
            "pinata_url": url,
            "num_precatorios_found": int(len(df)),
        }


    # -- registry-backed query surface --------------------------------------
    # The reference serves each pipeline behind its own route; the
    # rebuild's full operator registry (build_queries) is one uniform
    # surface, so two generic routes expose ALL of it: /api/queries
    # lists the registry, /api/query/<name> runs one entry and returns
    # its rows as JSON.  Heavy results are truncated by ``limit``
    # (default 1000 rows) — the full-size path stays the CLI/parquet
    # sinks, not an HTTP body.

    QUERY_DEFAULT_LIMIT = 1000
    QUERY_MAX_LIMIT = 100_000

    def _default_sf_dir(self) -> str:
        return os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.001")

    def query_index(self) -> tuple[int, dict]:
        from crawler_tjce_ray.pipelines.registry import (
            build_oracle_sql, build_queries,
        )

        names = build_queries()
        sql = build_oracle_sql()
        return 200, {
            "status": "success",
            "message": f"{len(names)} queries registradas.",
            "data": [{"name": n, "has_oracle": n in sql} for n in names],
        }

    @staticmethod
    def _json_records(df) -> list[dict]:
        """RFC 8259-safe records: NaN/±Inf become null (json.dumps
        would otherwise emit literal ``NaN``, which strict parsers —
        JS ``JSON.parse``, Go ``encoding/json`` — reject)."""
        import numpy as np

        def san(v):
            if isinstance(v, (float, np.floating)) and not np.isfinite(v):
                return None
            return v

        return [{k: san(v) for k, v in r.items()}
                for r in df.to_dict("records")]

    def run_query(self, name: str, params: dict) -> tuple[int, dict]:
        from crawler_tjce_ray.pipelines.registry import build_queries

        qs = build_queries()
        if name not in qs:
            return 404, {"status": "error",
                         "message": f"query desconhecida: {name}"}
        try:
            limit = int(params.get("limit", self.QUERY_DEFAULT_LIMIT))
        except ValueError:
            return 400, {"status": "error", "message": "limit deve ser inteiro"}
        limit = max(1, min(limit, self.QUERY_MAX_LIMIT))
        sf_dir = params.get("sf_dir", self._default_sf_dir())
        if not os.path.isdir(sf_dir):
            return 400, {"status": "error",
                         "message": f"sf_dir inexistente: {sf_dir}"}

        # cache the FULL result keyed (name, sf_dir) and slice per
        # request — distinct limits must not re-execute the query
        def build_full():
            res = qs[name](sf_dir)
            if hasattr(res, "to_pandas"):
                res = res.to_pandas()
            return 200, {"df": res}

        code, payload = self._cached(f"queryfull:{name}:{sf_dir}", build_full)
        res = payload["df"]
        total = int(len(res))
        return code, {
            "status": "success",
            "message": f"{total} linhas ({min(total, limit)} retornadas).",
            "rows_total": total,
            "data": self._json_records(res.head(limit)),
        }


class ApiHandler(BaseHTTPRequestHandler):
    state: AppState  # injected by make_server

    def log_message(self, fmt, *args):  # silence per-request stderr spam
        pass

    def _send(self, code: int, payload: dict) -> None:
        body = json.dumps(
            payload, ensure_ascii=False, default=_json_default
        ).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_html(self, code: int, html: str) -> None:
        body = html.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        parsed = urllib.parse.urlsplit(self.path)
        params = {k: v[0] for k, v in
                  urllib.parse.parse_qs(parsed.query).items()}
        m = self.state.metrics
        entity = self.state.metric_entity(parsed.path, params)
        start = time.time()
        m.active_requests.labels(entity=entity).inc()
        m.requests_total.labels(entity=entity).inc()
        try:
            if parsed.path == "/metrics":
                self._send_text(200, m.exposition())
            elif parsed.path in ("/", "/cronologica", "/edital",
                                 "/pagamentos"):
                page = "home" if parsed.path == "/" else parsed.path[1:]
                self._send_html(200, self.state._page_html(page))
            elif parsed.path == "/api/health":
                self._send(*self.state.health())
            elif parsed.path == "/api/entities":
                self._send(*self.state.entities())
            elif parsed.path == "/api/editais":
                self._send(*self.state.listing("editais"))
            elif parsed.path == "/api/pagamentos":
                self._send(*self.state.listing("pagamentos"))
            elif parsed.path == "/api/queries":
                self._send(*self.state.query_index())
            elif parsed.path.startswith("/api/query/"):
                qname = parsed.path[len("/api/query/"):]
                self._send(*self.state.run_query(qname, params))
            elif parsed.path == "/api/fetch":
                code, payload = self.state.fetch(params)
                if code == 200:
                    m.records_processed.labels(entity=entity).inc(
                        payload.get("num_precatorios_found",
                                    len(payload.get("data", [])))
                    )
                self._send(code, payload)
            else:
                self._send(404, {"status": "error",
                                 "message": f"rota desconhecida: {parsed.path}"})
            m.request_duration.labels(entity=entity).observe(
                time.time() - start
            )
        except Exception as e:  # mirror the reference's 500 wrapper
            m.errors_total.labels(type=type(e).__name__, entity=entity).inc()
            self._send(500, {"status": "error",
                             "message": f"Erro interno: {e}"})
        finally:
            m.active_requests.labels(entity=entity).dec()


def make_server(corpus: str | None = None, port: int = 0,
                artifact_store: str | None = None,
                cache_ttl: float = 300.0) -> ThreadingHTTPServer:
    """Build (not start) the API server; port 0 picks an ephemeral
    port (``server.server_address[1]`` reports it)."""
    state = AppState(corpus=corpus, artifact_store=artifact_store,
                     cache_ttl=cache_ttl)
    handler = type("BoundApiHandler", (ApiHandler,), {"state": state})
    return ThreadingHTTPServer(("127.0.0.1", port), handler)


def cmd_serve(args) -> int:
    from crawler_tjce_ray.cli import _ensure_ray

    _ensure_ray()
    srv = make_server(corpus=args.corpus, port=args.port,
                      artifact_store=args.artifact_store)
    print(f"serving on http://127.0.0.1:{srv.server_address[1]}/api/health")
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        srv.shutdown()
    return 0
