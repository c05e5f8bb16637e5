"""Stateless extraction stages: pages (url, html) → typed record rows.

This is the M1-M6 parse stage of SURVEY.md §2.2 re-expressed as
``map_batches`` callables over zero-copy Arrow batches.  Pages are
self-contained (row 0 of every DSR page is a full base row), so the
stage needs no cross-batch state and parallelizes freely — the key
architectural difference from the reference's sequential loop
(crawler/crawler.py:556-677).

The callables are classes so the (tiny) setup — schema objects, the
pinned ``current_year`` — happens once per actor; they also work as
plain stateless tasks since they hold no mutable state.
"""

from __future__ import annotations

import json
from datetime import datetime

import pyarrow as pa

# orjson fast path with stdlib-exact fallback for big-int/NaN bodies
# (orjson silently floats >64-bit ints and rejects NaN/Infinity)
from crawler_tjce_ray.functions.jsonio import loads_exact as json_loads

from crawler_tjce_ray.dsr.decode import (
    decode_editais_columns,
    decode_editais_page,
    decode_pagamentos_page,
    decode_precatorios_columns,
    decode_precatorios_page,
    navigate_envelope,
)

# DM0 rows from which a page decodes faster by the kind's columnar plan
# than by its scalar spec decoder (tools/decode_bench.py, warm memo).
# Move precatorios' only on a crawl measurement, not on the microbench
# alone: at 16 rows the microbench has read columnar 0.53-0.56 ms
# against scalar 0.40-0.78 ms, sometimes faster, but in crawl_narrow
# crawls (16-row pages) a threshold of 16 cost +23% and +33% machine
# CPU per page, lower in 3 of 14 alternating rounds each time
# (BASELINE.md "Crawl group commit")
PRECATORIOS_COLUMNAR_MIN_ROWS = 32
EDITAIS_COLUMNAR_MIN_ROWS = 128

_DECIMAL = pa.decimal128(18, 2)

PRECATORIO_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("ordem", pa.int64()),
        ("processo", pa.string()),
        ("comarca", pa.string()),
        ("ano_orcamento", pa.int32()),
        ("natureza", pa.string()),
        ("data_cadastro", pa.timestamp("ms")),
        ("tipo_classificacao", pa.string()),
        ("valor_original", _DECIMAL),
        ("valor_atual", _DECIMAL),
        ("situacao", pa.string()),
    ]
)

EDITAL_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("ordem", pa.int64()),
        ("ano_orcamento", pa.int32()),
        ("natureza", pa.string()),
        ("data_cadastro", pa.string()),
        ("precatorio", pa.string()),
        ("status", pa.string()),
        ("valor", _DECIMAL),
    ]
)

PAGAMENTO_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("ordem", pa.int64()),
        ("quantidade", pa.int32()),
        ("modalidade", pa.string()),
        ("natureza", pa.string()),
        ("exercicio", pa.int32()),
        ("data_protocolo", pa.string()),
        ("precatorio", pa.string()),
        ("credor_beneficiario", pa.string()),
        ("tipo", pa.string()),
        ("data_pagamento", pa.string()),
        ("cpf_cnpj", pa.string()),
        ("valor_bruto", _DECIMAL),
        ("previdencia", _DECIMAL),
        ("irrf", _DECIMAL),
        ("honorarios", _DECIMAL),
        ("valor_bruto_contratual", _DECIMAL),
        ("rra", _DECIMAL),
        ("valor_liquido", _DECIMAL),
    ]
)


def classify_url(url: str) -> str | None:
    """Record type carried by a page url, or None for non-DSR pages."""
    for kind in ("precatorios", "editais", "pagamentos", "entities"):
        if f"/{kind}/" in url:
            return kind
    return None


class _ExtractBase:
    """Shared per-page decode loop.

    The decoder, not ``json.loads``, sets the per-page cost: at 16 rows
    per page an envelope parses in ~0.2 ms and decodes into its table
    in ~1.2 ms (``perfbench/run.py --trace 1``, ``crawl_narrow``).
    Each page runs the decoder that is faster at its
    size: the kind's columnar plan (``decode_columns``) for pages of at
    least ``columnar_min_rows`` DM0 rows, the scalar spec decoder below
    that (measured by ``tools/decode_bench.py``; BASELINE.md "Page
    decode by page size").  Both give the same columns.
    ``exercicio``-style int coercion happens via the Arrow schema cast
    at table construction.
    """

    schema: pa.Schema = None
    empty_marker_col = "ordem"
    columnar_min_rows: int | None = None  # None: no columnar plan

    def __init__(self, current_year: int | None = None):
        self.current_year = current_year or datetime.now().year
        self.pages_failed = 0  # corrupt-page counter (per actor/task)

    def decode_page(self, resp: dict) -> list[dict]:
        raise NotImplementedError

    def decode_columns(self, resp: dict) -> tuple[dict[str, list], int]:
        """The kind's columnar plan (kinds with ``columnar_min_rows``)."""
        raise NotImplementedError

    def scalar_columns(self, resp: dict) -> tuple[dict[str, list], int]:
        """``decode_page`` rows as ``{field -> values list}`` + row count."""
        rows = self.decode_page(resp)
        cols = {
            f.name: [r.get(f.name) for r in rows]
            for f in self.schema
            if f.name != "url"
        }
        return cols, len(rows)

    def decode_page_columns(self, resp: dict) -> tuple[dict[str, list], int]:
        """Columnar decode: ``{field -> values list}`` + row count, by
        the decoder that is faster at this page's size."""
        if self.columnar_min_rows is not None:
            page = navigate_envelope(resp)
            if page is not None and len(page["rows"]) >= self.columnar_min_rows:
                return self.decode_columns(resp)
        return self.scalar_columns(resp)

    def _table(self, cols: dict[str, list], urls: list[str]) -> pa.Table:
        """Typed Arrow table built column-wise, one row per ``urls``
        entry.

        ``Table.from_pylist`` pays ~60 µs/row of per-row dict protocol
        overhead; building each column with ``pa.array(values, type)``
        is ~25× faster at 384 rows/page (measured) and follows the same
        python→Arrow conversion rules, so the typed-conversion failure
        semantics (e.g. "-" landing in an int column fails the
        conversion) are unchanged.
        """
        arrays = []
        for field in self.schema:
            values = urls if field.name == "url" else cols[field.name]
            arrays.append(pa.array(values, field.type))
        return pa.Table.from_arrays(arrays, schema=self.schema)

    def extract_parsed(self, pages: list[tuple[str, dict | None]]) -> pa.Table:
        """Already-parsed envelopes → typed record table.

        The fused fetch actor parses each page ONCE (for outlink
        discovery) and hands the parsed dict here — no second
        ``json.loads`` and no intermediate Arrow copy of the html
        bytes.  A ``None`` doc marks a body that failed to parse.

        The pages' decoded columns are joined and converted once, one
        ``pa.array`` per column for the whole call (a wave's pages of
        one kind); only when that typed conversion raises are the
        pages converted one by one, so a bad page still fails alone.
        """
        decoded: list[tuple[str, dict[str, list], int]] = []
        for url, resp in pages:
            # a corrupt page must never poison the batch (at corpus
            # scale malformed bodies are a certainty): skip and count,
            # mirroring the reference's drop-invalid-row behavior
            try:
                if resp is None:
                    raise ValueError("unparseable page body")
                decoded.append((url, *self.decode_page_columns(resp)))
            except Exception:
                self.pages_failed += 1
        if not decoded:
            return self.schema.empty_table()
        try:
            cols = {f.name: [v for _, c, _ in decoded for v in c[f.name]]
                    for f in self.schema if f.name != "url"}
            return self._table(cols, [u for u, _, n in decoded for _ in range(n)])
        except Exception:
            pass
        # the TYPED conversion failed for some page — e.g. a delta row
        # whose exhausted-C default "-" lands in an int column (a
        # faithful reference behavior, edital_crawler.py:600): convert
        # page by page so it fails that page only
        tables: list[pa.Table] = []
        for url, cols, n in decoded:
            try:
                tables.append(self._table(cols, [url] * n))
            except Exception:
                self.pages_failed += 1
        return pa.concat_tables([self.schema.empty_table(), *tables])

    def __call__(self, batch: pa.Table) -> pa.Table:
        pages: list[tuple[str, dict | None]] = []
        urls = batch["url"]
        htmls = batch["html"]
        for i in range(len(batch)):
            try:
                resp = json_loads(htmls[i].as_py())
            except Exception:
                resp = None
            pages.append((urls[i].as_py(), resp))
        return self.extract_parsed(pages)


class ExtractPrecatorios(_ExtractBase):
    schema = PRECATORIO_SCHEMA
    columnar_min_rows = PRECATORIOS_COLUMNAR_MIN_ROWS

    # cross-page finalized-string memo bound: dictionary vocabularies
    # (comarca/situacao/natureza/processo strings) are far smaller
    # than this in practice; the cap only guards a pathological corpus
    _MEMO_MAX = 500_000

    def __init__(self, current_year: int | None = None):
        super().__init__(current_year)
        # per-actor state, built once (the actor-pool contract): the
        # cross-page finalize memo lives for the actor's lifetime
        self._memo: dict = {}

    def decode_page(self, resp):
        rows, _ = decode_precatorios_page(resp, 0, self.current_year)
        return rows

    def decode_columns(self, resp):
        # vectorized decode (NumPy R-mask + memoized finalize);
        # equivalence with decode_page pinned by tests/test_decode_columnar.py
        if sum(len(m) for m in self._memo.values()) > self._MEMO_MAX:
            self._memo.clear()
        cols, _ = decode_precatorios_columns(
            resp, 0, self.current_year, memo=self._memo
        )
        return cols, len(cols["ordem"])


class ExtractEditais(_ExtractBase):
    schema = EDITAL_SCHEMA
    columnar_min_rows = EDITAIS_COLUMNAR_MIN_ROWS

    _MEMO_MAX = 500_000

    def __init__(self, current_year: int | None = None):
        super().__init__(current_year)
        self._memo: dict = {}  # cross-page formatted-ValueDict cache

    def decode_page(self, resp):
        # in-page sort by ordem asc (the reference's final sort,
        # crawler/edital_crawler.py:630-631, applied page-locally;
        # global order is re-established by assign_global_ordem)
        return sorted(decode_editais_page(resp), key=lambda r: r.get("ordem", 0))

    def decode_columns(self, resp):
        if sum(len(m) for m in self._memo.values()) > self._MEMO_MAX:
            self._memo.clear()
        cols = decode_editais_columns(resp, memo=self._memo)
        n = len(cols["ordem"])
        # same stable in-page ordem sort as decode_page
        order = sorted(range(n), key=lambda i: cols["ordem"][i])
        return {f: [v[i] for i in order] for f, v in cols.items()}, n


class ExtractPagamentos(_ExtractBase):
    """Scalar decode at every page size: a columnar plan measured
    slower than ``decode_pagamentos_page`` at 4 to 512 rows per page."""

    schema = PAGAMENTO_SCHEMA

    def decode_page(self, resp):
        return decode_pagamentos_page(resp, 0)


def filter_kind(batch: pa.Table, kind: str) -> pa.Table:
    """Vectorized url-substring filter for one record type."""
    import pyarrow.compute as pc

    return batch.filter(pc.match_substring(batch["url"], f"/{kind}/"))
