"""Equivalence of the vectorized precatório decoder with the scalar
conformance decoder.

``decode_precatorios_page`` is the reference-semantics spec (pinned
against /root/reference fixtures by test_dsr_conformance.py);
``decode_precatorios_columns`` is the NumPy R-mask execution plan the
extract stage actually runs.  Every page — synthetic corpus, reference
fixture, adversarial mutations, randomized fuzz — must produce
identical rows (or fail identically)."""

import copy
import json
import os

import numpy as np
import pytest

from crawler_tjce_ray.dsr import specs, synth
from crawler_tjce_ray.dsr.decode import (
    decode_precatorios_columns,
    decode_precatorios_page,
)

REF = "/root/reference"


# ONE memo shared by every assert_equiv in the session — the worst
# case for cross-page contamination: a stale/wrong memo entry from any
# earlier page would corrupt a later page's decode
_SHARED_MEMO: dict = {}


def assert_equiv(resp, start=0, year=2024):
    scalar_exc = columnar_exc = None
    try:
        rows, last_s = decode_precatorios_page(copy.deepcopy(resp), start, year)
    except Exception as e:  # noqa: BLE001 - parity includes failure
        scalar_exc = e
    try:
        cols, last_c = decode_precatorios_columns(copy.deepcopy(resp), start, year)
    except Exception as e:  # noqa: BLE001
        columnar_exc = e
    memo_exc = None
    try:
        mcols, last_m = decode_precatorios_columns(
            copy.deepcopy(resp), start, year, memo=_SHARED_MEMO
        )
    except Exception as e:  # noqa: BLE001
        memo_exc = e
    assert (scalar_exc is None) == (columnar_exc is None), (
        f"failure divergence: scalar={scalar_exc!r} columnar={columnar_exc!r}"
    )
    assert (scalar_exc is None) == (memo_exc is None), (
        f"failure divergence (memo): scalar={scalar_exc!r} memo={memo_exc!r}"
    )
    if scalar_exc is not None:
        return
    assert last_s == last_c == last_m
    assert len(cols["ordem"]) == len(rows)
    for f in specs.PRECATORIO_CSV_FIELDS:
        expect = [r[f] for r in rows]
        got = list(cols[f])
        assert got == expect, f"column {f}: {got[:5]} != {expect[:5]}"
        got_m = list(mcols[f])
        assert got_m == expect, f"memo column {f}: {got_m[:5]} != {expect[:5]}"


def _page(rows_per_page=50, idx=0, sum_wrapped=False):
    plan = synth.build_page_plan(n_entities=4, total_pages=12, seed=7)
    prec = [p for p in plan if p.kind == "precatorios"]
    return synth.generate_precatorios_envelope(
        prec[idx % len(prec)], rows_per_page, 7, sum_wrapped=sum_wrapped
    )


class TestSynthEquivalence:
    @pytest.mark.parametrize("rows_per_page", [1, 2, 3, 50, 384])
    @pytest.mark.parametrize("sum_wrapped", [False, True])
    def test_corpus_pages(self, rows_per_page, sum_wrapped):
        for idx in range(6):
            assert_equiv(_page(rows_per_page, idx, sum_wrapped))

    def test_nonzero_starting_order(self):
        assert_equiv(_page(20), start=1234)

    def test_roundtrip_through_json(self):
        resp = json.loads(json.dumps(_page(30)))
        assert_equiv(resp)


@pytest.mark.skipif(not os.path.isdir(REF), reason="reference snapshot absent")
class TestFixtureEquivalence:
    def test_response_fixture(self):
        with open(os.path.join(REF, "examples", "response.json")) as f:
            resp = json.load(f)
        assert_equiv(resp, year=2026)


def _mutate(fn):
    resp = _page(10)
    fn(resp)
    return resp


def _dm0(resp):
    return resp["results"][0]["result"]["data"]["dsr"]["DS"][0]["PH"][0]["DM0"]


class TestAdversarialEquivalence:
    def test_empty_and_broken_envelopes(self):
        assert_equiv({})
        assert_equiv({"results": []})
        assert_equiv(_mutate(lambda r: r["results"][0]["result"]["data"].pop("descriptor")))
        assert_equiv(_mutate(lambda r: _dm0(r).clear() or _dm0(r).append({})))

    def test_base_row_shape_errors(self):
        assert_equiv(_mutate(lambda r: _dm0(r)[0].pop("S")))
        assert_equiv(_mutate(lambda r: _dm0(r)[0].__setitem__("S", "bogus")))
        assert_equiv(_mutate(lambda r: _dm0(r)[0]["C"].pop()))  # len mismatch
        assert_equiv(_mutate(lambda r: _dm0(r)[0].__setitem__("C", [])))

    def test_delta_edge_shapes(self):
        # R missing entirely => inherit everything
        assert_equiv(_mutate(lambda r: _dm0(r)[1].pop("R", None)))
        # R = 0 => every column consumes
        assert_equiv(_mutate(lambda r: _dm0(r)[1].__setitem__("R", 0)))
        # exhausted C: clear all bits but supply few values
        assert_equiv(_mutate(lambda r: (_dm0(r)[2].__setitem__("R", 0),
                                        _dm0(r)[2].__setitem__("C", [1, 2]))))
        # empty C with bits cleared
        assert_equiv(_mutate(lambda r: (_dm0(r)[3].__setitem__("R", 5),
                                        _dm0(r)[3].__setitem__("C", []))))

    def test_dict_decode_edges(self):
        # out-of-range dictionary index => inherit
        assert_equiv(_mutate(lambda r: (_dm0(r)[1].__setitem__("R", 0b1111111110),
                                        _dm0(r)[1].__setitem__("C", [99999]))))
        # negative index => inherit
        assert_equiv(_mutate(lambda r: (_dm0(r)[1].__setitem__("R", 0b1111111110),
                                        _dm0(r)[1].__setitem__("C", [-3]))))
        # float into a dict column => inherit (isinstance int fails)
        assert_equiv(_mutate(lambda r: (_dm0(r)[1].__setitem__("R", 0b1111111110),
                                        _dm0(r)[1].__setitem__("C", [1.5]))))
        # direct string into a dict column => formatted literally
        assert_equiv(_mutate(lambda r: (_dm0(r)[1].__setitem__("R", 0b1111111110),
                                        _dm0(r)[1].__setitem__("C", ["direct"]))))
        # None / list cells => inherit
        assert_equiv(_mutate(lambda r: (_dm0(r)[1].__setitem__("R", 0),
                                        _dm0(r)[1].__setitem__("C", [None, [1], {}, "x", 2.5,
                                                                    1, 0, "y", 1, 0]))))

    def test_validation_drops(self):
        # negative ordem in the wire (column G6) drops the row in both
        assert_equiv(_mutate(lambda r: (_dm0(r)[1].__setitem__("R", 0b1110111111),
                                        _dm0(r)[1].__setitem__("C", [-5]))))

    def test_non_int_R_fails_both(self):
        assert_equiv(_mutate(lambda r: _dm0(r)[1].__setitem__("R", "3")))
        assert_equiv(_mutate(lambda r: _dm0(r)[1].__setitem__("R", 3.0)))

    def test_huge_R_falls_back(self):
        assert_equiv(_mutate(lambda r: _dm0(r)[1].__setitem__("R", 1 << 80)))

    def test_base_row_only(self):
        assert_equiv(_mutate(lambda r: _dm0(r).__delitem__(slice(1, None))))

    def test_sum_wrapped_quirk(self):
        assert_equiv(_page(25, sum_wrapped=True))


class TestFuzzEquivalence:
    """Randomized wire pages: arbitrary R masks, heterogeneous sparse C
    values, dict presence/absence — 200 seeds, scalar == columnar."""

    NCOLS = 10

    def _random_page(self, rng):
        names = specs.PRECATORIO_SELECT_NAMES_PLAIN
        dicts = {}
        s = []
        for j in range(self.NCOLS):
            if rng.random() < 0.6:
                dn = f"D{j}"
                dicts[dn] = [
                    rng.choice(["alpha", "be\\u00e9ta", "R$1.234,56", "42",
                                "2023-01-02T03:04:05", ""])
                    for _ in range(int(rng.integers(1, 6)))
                ]
                s.append({"N": f"G{j}", "T": 1, "DN": dn})
            else:
                s.append({"N": f"G{j}", "T": 4})

        def cell(j):
            r = rng.random()
            if r < 0.35:
                return int(rng.integers(-2, 8))
            if r < 0.55:
                return float(np.round(rng.uniform(-10, 1e6), 2))
            if r < 0.75:
                return rng.choice(["txt", "1.234,56", "1717171717171", "-",
                                   "", "0007-77.2020.8.06.0001", "none"])
            if r < 0.82:
                return int(rng.integers(10**11 + 1, 3 * 10**11))  # epoch ms
            if r < 0.86:
                # inside the epoch-ms guard but past year 9999, or
                # validator-overflow magnitude (review regressions)
                return int(rng.choice([260000000000000, 10**18, 254000000000000]))
            if r < 0.92:
                return None
            return [1, 2]

        n_rows = int(rng.integers(1, 12))
        dm0 = [{"S": s, "C": [cell(j) for j in range(self.NCOLS)]}]
        for _ in range(n_rows - 1):
            row = {}
            if rng.random() < 0.15:
                pass  # R absent: inherit all
            else:
                mask = int(rng.integers(0, 1 << self.NCOLS))
                row["R"] = mask
                n_clear = self.NCOLS - bin(mask).count("1")
                # sometimes short C (exhaustion), sometimes exact
                n_c = n_clear if rng.random() < 0.7 else int(rng.integers(0, n_clear + 1))
                row["C"] = [cell(j) for j in range(n_c)]
            dm0.append(row)
        return {
            "results": [{"result": {"data": {
                "descriptor": {"Select": [
                    {"Kind": 1, "Value": f"G{i}", "Name": nm}
                    for i, nm in enumerate(names)
                ]},
                "dsr": {"DS": [{"ValueDicts": dicts, "PH": [{"DM0": dm0}]}]},
            }}}]
        }

    def test_fuzz(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            assert_equiv(self._random_page(rng), start=int(rng.integers(0, 50)))


class TestReviewRegressions:
    """Parity breaks found by differential review fuzzing: both must
    now take the scalar-replay fallback (or exact fast-path guards)."""

    def test_epoch_ms_past_year_9999_yields_none_not_page_failure(self):
        # 2.6e14 is inside the epoch-ms guard but maps past year 9999:
        # the scalar formatter returns "" -> None; the columnar fast
        # path must not blow up the page with ValueError
        assert_equiv(_mutate(lambda r: (
            _dm0(r)[1].__setitem__("R", 0b1111110111),
            _dm0(r)[1].__setitem__("C", [260000000000000]),
        )))

    def test_cleaner_exception_on_scalar_dropped_row(self):
        # base row: negative ordem (scalar drops it BEFORE running the
        # other cleaners) + an ano value whose validator raises
        # OverflowError when eagerly cleaned; the columnar path must
        # replay the scalar decoder, not crash the page
        def mut(r):
            c = _dm0(r)[0]["C"]
            c[6] = -5           # ordem -> row dropped by finalize
            c[1] = 10**18       # ano -> validate raises OverflowError
        assert_equiv(_mutate(mut))

    def test_huge_R_still_equivalent(self):
        assert_equiv(_mutate(lambda r: _dm0(r)[1].__setitem__("R", 1 << 90)))


# ---------------------------------------------------------------------------
# editais / pagamentos columnar equivalence
# ---------------------------------------------------------------------------

def _aux_page(kind, rows_per_page=40, idx=0):
    plan = synth.build_page_plan(n_entities=4, total_pages=40, seed=11)
    pages = [p for p in plan if p.kind == kind]
    gen = (synth.generate_editais_envelope if kind == "editais"
           else synth.generate_pagamentos_envelope)
    return gen(pages[idx % len(pages)], rows_per_page, 11)


# session-shared positional memo (worst case for cross-page pollution)
_SHARED_POS_MEMO: dict = {}


def assert_equiv_editais(resp):
    from crawler_tjce_ray.dsr.decode import (
        decode_editais_columns, decode_editais_page,
    )

    se = ce = me = None
    try:
        rows = decode_editais_page(copy.deepcopy(resp))
    except Exception as e:  # noqa: BLE001
        se = e
    try:
        cols = decode_editais_columns(copy.deepcopy(resp))
    except Exception as e:  # noqa: BLE001
        ce = e
    try:
        mcols = decode_editais_columns(
            copy.deepcopy(resp), memo=_SHARED_POS_MEMO
        )
    except Exception as e:  # noqa: BLE001
        me = e
    assert (se is None) == (ce is None), f"scalar={se!r} columnar={ce!r}"
    assert (se is None) == (me is None), f"scalar={se!r} memo={me!r}"
    if se is not None:
        return
    assert len(cols["ordem"]) == len(rows)
    for f in specs.EDITAL_CSV_FIELDS:
        assert list(cols[f]) == [r.get(f) for r in rows], f
        assert list(mcols[f]) == [r.get(f) for r in rows], f"memo {f}"


PAGAMENTOS_URL = "https://h.example/powerbi/pagamentos/page/0"


def scalar_table(extractor, resp, url):
    """The typed table of the scalar spec decoder's rows, or None when
    the decode or the typed conversion fails."""
    import pyarrow as pa

    try:
        rows = extractor.decode_page(copy.deepcopy(resp))
        return pa.Table.from_pylist([{**r, "url": url} for r in rows],
                                    schema=extractor.schema)
    except Exception:  # noqa: BLE001 - parity includes failure
        return None


def assert_extract_equiv(extractor, resp, url):
    """``extract_parsed`` gives the scalar spec decoder's table, or
    counts the page failed exactly when the scalar decode fails."""
    expect = scalar_table(extractor, resp, url)
    failed = extractor.pages_failed
    got = extractor.extract_parsed([(url, copy.deepcopy(resp))])
    assert extractor.pages_failed == failed + (expect is None)
    if expect is None:
        assert got.num_rows == 0
    else:
        assert got.equals(expect), (got.slice(0, 3), expect.slice(0, 3))


# session-shared extractor (a long-lived fetch actor's worst case)
_SHARED_PAGAMENTOS = None


def assert_equiv_pagamentos(resp):
    global _SHARED_PAGAMENTOS
    from crawler_tjce_ray.stages.extract import ExtractPagamentos

    if _SHARED_PAGAMENTOS is None:
        _SHARED_PAGAMENTOS = ExtractPagamentos(2024)
    assert_extract_equiv(_SHARED_PAGAMENTOS, resp, PAGAMENTOS_URL)


class TestPositionalEquivalence:
    @pytest.mark.parametrize("rows_per_page", [1, 2, 3, 40, 200])
    def test_editais_corpus(self, rows_per_page):
        for idx in range(2):
            assert_equiv_editais(_aux_page("editais", rows_per_page, idx))

    @pytest.mark.parametrize("rows_per_page", [1, 2, 3, 40, 200])
    def test_pagamentos_corpus(self, rows_per_page):
        for idx in range(2):
            assert_equiv_pagamentos(_aux_page("pagamentos", rows_per_page, idx))

    def test_adversarial_mutations(self):
        def dm0(r):
            return r["results"][0]["result"]["data"]["dsr"]["DS"][0]["PH"][0]["DM0"]

        for kind, check in (("editais", assert_equiv_editais),
                            ("pagamentos", assert_equiv_pagamentos)):
            # base C/S length mismatch (editais: scalar skips base row)
            r = _aux_page(kind, 10)
            dm0(r)[0]["C"].pop()
            check(r)
            # missing R (defaults to 0 = all cleared)
            r = _aux_page(kind, 10)
            dm0(r)[1].pop("R", None)
            check(r)
            # exhausted C with bits cleared
            r = _aux_page(kind, 10)
            dm0(r)[2]["R"] = 0
            dm0(r)[2]["C"] = [1]
            check(r)
            # non-int R fails both
            r = _aux_page(kind, 10)
            dm0(r)[1]["R"] = "x"
            check(r)
            # dict OOB index and heterogeneous junk cells
            r = _aux_page(kind, 10)
            dm0(r)[1]["R"] = 0
            dm0(r)[1]["C"] = [9999, -1, None, [1], "txt", 2.5, "-", 1, 0,
                              "0001734-46.2020.8.06.0000", 1, 0, 1, 0, 1, 0, 1]
            check(r)

    def test_fuzz_positional(self):
        from crawler_tjce_ray.dsr import specs as sp

        for seed in range(120):
            rng = np.random.default_rng(1000 + seed)
            kind = "editais" if seed % 2 else "pagamentos"
            fields = sp.EDITAL_FIELDS if kind == "editais" else sp.PAGAMENTO_FIELDS
            ncols = len(fields)
            dicts = {
                dn: [str(rng.integers(0, 50)), "ALFA", "R$9,99", ""]
                for _, _, dn in fields if dn
            }

            def cell():
                r = rng.random()
                if r < 0.4:
                    return int(rng.integers(-2, 6))
                if r < 0.6:
                    return float(np.round(rng.uniform(-5, 1e5), 2))
                if r < 0.8:
                    return str(rng.choice(["x", "1.234,56", "-", "",
                                           "0001734-46.2020.8.06.0000"]))
                if r < 0.9:
                    return None
                return [1]

            n_rows = int(rng.integers(1, 10))
            dm0 = [{"S": [{"N": f"G{j}"} | ({"DN": dn} if dn else {})
                          for j, (_, _, dn) in enumerate(fields)],
                    "C": [cell() for _ in range(ncols)]}]
            for _ in range(n_rows - 1):
                mask = int(rng.integers(0, 1 << ncols))
                ncl = ncols - bin(mask).count("1")
                nc = ncl if rng.random() < 0.7 else int(rng.integers(0, ncl + 1))
                dm0.append({"R": mask, "C": [cell() for _ in range(nc)]})
            resp = {"results": [{"result": {"data": {"dsr": {"DS": [{
                "ValueDicts": dicts, "PH": [{"DM0": dm0}]}]}}}}]}
            if kind == "editais":
                assert_equiv_editais(resp)
            else:
                assert_equiv_pagamentos(resp)


class TestPositionalReviewRegressions:
    def test_memo_key_type_collision(self):
        """1, 1.0 and True hash equal but format differently in str
        columns — the memo cache must key on (type, value)."""
        fields_e = specs.EDITAL_FIELDS
        dm0 = [
            {"S": [{"N": f"G{j}"} for j in range(len(fields_e))],
             "C": [0, 2020, "nat", "x", "p", "s", 1.5]},
            # data_cadastro (idx 3, str type, no dict here): int 1
            {"R": 0b1110111, "C": [1]},
            # then float 1.0 — must format to '1.0', not reuse '1'
            {"R": 0b1110111, "C": [1.0]},
            {"R": 0b1110111, "C": [True]},
        ]
        resp = {"results": [{"result": {"data": {"dsr": {"DS": [{
            "ValueDicts": {}, "PH": [{"DM0": dm0}]}]}}}}]}
        assert_equiv_editais(resp)

        fields_p = specs.PAGAMENTO_FIELDS
        dm0p = [
            {"S": [{"N": f"G{j}"} for j in range(len(fields_p))]},
            {"R": (1 << len(fields_p)) - 1 - (1 << 4), "C": [1]},
            {"R": (1 << len(fields_p)) - 1 - (1 << 4), "C": [1.0]},
            {"R": (1 << len(fields_p)) - 1 - (1 << 4), "C": [True]},
        ]
        respp = {"results": [{"result": {"data": {"dsr": {"DS": [{
            "ValueDicts": {}, "PH": [{"DM0": dm0p}]}]}}}}]}
        assert_equiv_pagamentos(respp)


@pytest.mark.skipif(not os.path.isdir(REF), reason="reference snapshot absent")
class TestPositionalFixtureEquivalence:
    def test_edital_fixture(self):
        with open(os.path.join(REF, "examples", "response_edital.json")) as f:
            assert_equiv_editais(json.load(f))

    def test_pagamentos_fixture(self):
        with open(os.path.join(REF, "examples", "response_pagamentos.json")) as f:
            resp = json.load(f)
        assert_equiv_pagamentos(resp)


class TestFastPathActuallyRuns:
    """The replay-on-exception wrapper would mask a fast path that
    always throws (results stay correct via scalar, silently slow) —
    pin that the fast implementations handle normal corpus pages
    without falling back."""

    def test_precatorios_fast_path_direct(self):
        from crawler_tjce_ray.dsr.decode import _decode_precatorios_columns_fast

        cols, last = _decode_precatorios_columns_fast(_page(50), 0, 2024)
        assert last == len(cols["ordem"]) == 50
        # sum-wrapped quirk shape and nonzero starting order
        cols, last = _decode_precatorios_columns_fast(
            _page(25, sum_wrapped=True), 1000, 2024
        )
        assert last == 1025 and len(cols["ordem"]) == 25

    @pytest.mark.skipif(not os.path.isdir(REF), reason="reference absent")
    def test_fast_paths_direct_on_reference_fixtures(self):
        from crawler_tjce_ray.dsr.decode import (
            _decode_editais_columns_fast,
            _decode_precatorios_columns_fast,
        )
        from crawler_tjce_ray.stages.extract import ExtractPagamentos

        with open(os.path.join(REF, "examples", "response.json")) as f:
            cols, last = _decode_precatorios_columns_fast(json.load(f), 0, 2026)
        assert last == 500
        with open(os.path.join(REF, "examples", "response_edital.json")) as f:
            assert len(_decode_editais_columns_fast(json.load(f))["ordem"]) == 158
        with open(os.path.join(REF, "examples", "response_pagamentos.json")) as f:
            resp = json.load(f)
        ex = ExtractPagamentos(2026)
        assert len(ex.decode_page(copy.deepcopy(resp))) == 499
        assert_extract_equiv(ex, resp, PAGAMENTOS_URL)

    def test_positional_fast_paths_direct(self):
        from crawler_tjce_ray.dsr.decode import _decode_editais_columns_fast
        from crawler_tjce_ray.stages.extract import ExtractPagamentos

        cols = _decode_editais_columns_fast(_aux_page("editais", 40))
        assert len(cols["ordem"]) == 40
        # synth emits rows_per_page data rows after the schema-only row
        ex = ExtractPagamentos(2024)
        out = ex.extract_parsed([(PAGAMENTOS_URL, _aux_page("pagamentos", 40))])
        assert out.num_rows == 40 and ex.pages_failed == 0


class TestWaveTable:
    """``extract_parsed`` converts a wave's pages of one kind into one
    typed table, one ``pa.array`` per column; when that conversion
    raises, it converts the pages one by one, so a bad page fails
    alone."""

    def _wave(self, bad_at=None):
        urls = [PAGAMENTOS_URL.replace("page/0", f"page/{i}") for i in range(4)]
        docs = [_aux_page("pagamentos", 10, i) for i in range(4)]
        if bad_at is not None:
            # an exhausted C row: its "-" defaults land in the int
            # column exercicio, which decodes and fails the conversion
            dm0 = docs[bad_at]["results"][0]["result"]["data"]["dsr"]["DS"][0]["PH"][0]["DM0"]
            dm0[2]["R"], dm0[2]["C"] = 0, [1]
        return list(zip(urls, docs))

    def _per_page(self, pages):
        import pyarrow as pa

        from crawler_tjce_ray.stages.extract import ExtractPagamentos

        ex = ExtractPagamentos(2024)
        tables = [ex.extract_parsed([(u, copy.deepcopy(d))]) for u, d in pages]
        return pa.concat_tables(t for t in tables if t.num_rows), ex.pages_failed

    @pytest.mark.parametrize("bad_at", [None, 0, 2])
    def test_one_table_per_wave(self, bad_at):
        from crawler_tjce_ray.stages.extract import ExtractPagamentos

        pages = self._wave(bad_at)
        want, failed = self._per_page(pages)
        assert failed == (bad_at is not None)
        ex = ExtractPagamentos(2024)
        convert = ex._table
        calls = []
        ex._table = lambda cols, urls: calls.append(len(urls)) or convert(cols, urls)
        got = ex.extract_parsed([(u, copy.deepcopy(d)) for u, d in pages])
        assert ex.pages_failed == failed
        assert got.equals(want)
        assert got.num_rows == 10 * (4 - failed)
        # the wave's one conversion, then (on a failure) one per page
        assert calls == [40] + ([10] * 4 if failed else [])


class TestVectorKernelSweeps:
    """Dense numeric sweeps pinning the vectorized cell kernels to
    their scalar spec functions (beyond what page-level fuzz hits)."""

    def test_epoch_vector_path_matches_from_epoch(self):
        from crawler_tjce_ray.dsr.decode import _EPOCH_US_MAX
        from crawler_tjce_ray.functions.dates import _from_epoch

        rng = np.random.default_rng(0)
        vs = np.concatenate([
            rng.integers(10**11 + 1, 3 * 10**14, size=20000),
            np.arange(10**11 + 1, 10**11 + 1000),
            np.arange(3 * 10**14 - 1000, 3 * 10**14),
            np.array([253402300799999, 253402300800000]),  # year-9999 edge
        ])
        s = vs / 1000.0
        whole = np.trunc(s)
        us = whole.astype(np.int64) * 1_000_000 + np.rint(
            (s - whole) * 1e6
        ).astype(np.int64)
        ok = us <= _EPOCH_US_MAX
        dts = iter(us[ok].astype("datetime64[us]").tolist())
        for v, o in zip(vs, ok):
            if not o:
                with pytest.raises((ValueError, OverflowError, OSError)):
                    _from_epoch(v / 1000.0)
                continue
            assert next(dts) == _from_epoch(v / 1000.0), v

    def test_decimal_cents_path_matches_str_decimal(self):
        from decimal import Decimal

        rng = np.random.default_rng(1)
        vals = []
        for mag in (1, 100, 1e4, 1e8, 1e11):
            vals += list(np.round(rng.uniform(-mag, mag, 8000), 2))
            vals += list(np.round(rng.uniform(-mag, mag, 4000), 1))
            vals += list(np.trunc(rng.uniform(-mag, mag, 2000)))
        vals += [0.0, 5.0, -5.0, 0.1, 0.25]
        checked = 0
        for v in vals:
            v = float(v)
            if not (np.isfinite(v) and abs(v) < 2**53) or (
                v == 0.0 and np.signbit(v)
            ):
                continue
            if v == np.round(v, 1):
                got = Decimal(int(np.round(v * 10.0))).scaleb(-1)
            elif v == np.round(v, 2):
                got = Decimal(int(np.round(v * 100.0))).scaleb(-2)
            else:
                continue
            want = Decimal(str(v))
            assert got == want and got.as_tuple() == want.as_tuple(), v
            checked += 1
        assert checked > 50000

    def test_scaleb_guard_near_2_53(self):
        """Review regression: magnitudes in (2**46, 2**53) must NOT
        take the scaleb fast path — fv*10/fv*100 rounds away from the
        true integer there (9007199254740990.0 reproduced a silent
        last-digit corruption)."""
        from crawler_tjce_ray.dsr.decode import _build_money_fvd
        from crawler_tjce_ray.dsr.decode import _clean_decimal_fast
        from crawler_tjce_ray.dsr.decode import _format_str_cell

        bad = ["9007199254740990", "9007199254740990.4",
               "70368744177665.5", "140737488355328.2"]
        ok = ["12345.67", "0.1", "70368744177663.9"]  # < 2**46
        fvd, done = _build_money_fvd(bad + ok, "Decimal")
        for i, s in enumerate(bad + ok):
            want = _clean_decimal_fast(_format_str_cell(s, "Decimal"))
            if done[i]:
                got = fvd[i]
                assert got == want and got.as_tuple() == want.as_tuple(), (
                    s, got, want
                )
        # the known-bad magnitudes must have been left to the scalar
        # path (done=False) or produced the exact spec value
        for i in range(len(bad)):
            if done[i]:
                want = _clean_decimal_fast(_format_str_cell(bad[i], "Decimal"))
                assert fvd[i].as_tuple() == want.as_tuple()


class TestMemoKeyTypeSensitivity:
    """Review regression: 1 == 1.0 == True hash-equal, but the
    formatters are type-sensitive — memo keys must carry entry types
    or value-equal ValueDicts cross-contaminate across pages."""

    def test_precatorios_fvd_memo_no_cross_type_contamination(self):
        memo = {}
        def page(dict_entries):
            names = specs.PRECATORIO_SELECT_NAMES_PLAIN
            return {"results": [{"result": {"data": {
                "descriptor": {"Select": [
                    {"Kind": 1, "Value": f"G{i}", "Name": nm}
                    for i, nm in enumerate(names)
                ]},
                "dsr": {"DS": [{
                    "ValueDicts": {"D2": dict_entries},
                    "PH": [{"DM0": [
                        {"S": [{"N": "G0", "T": 4}, {"N": "G1", "T": 4},
                               {"N": "G2", "T": 1, "DN": "D2"},
                               {"N": "G3", "T": 4}, {"N": "G4", "T": 4},
                               {"N": "G5", "T": 4}, {"N": "G6", "T": 4},
                               {"N": "G7", "T": 4}, {"N": "G8", "T": 4},
                               {"N": "G9", "T": 4}],
                         "C": ["p1", 2020, 0, "x", 1717171717171,
                               "t", 1, "s", "c", "9.99"]},
                    ]}],
                }]},
            }}}]}
        # page 1 seeds the memo with the FLOAT entry; page 2's INT
        # entry must not resolve through it
        r1f, _ = decode_precatorios_columns(page([1.0]), 0, 2024, memo=memo)
        r2i, _ = decode_precatorios_columns(page([1]), 0, 2024, memo=memo)
        s1f, _ = decode_precatorios_page(page([1.0]), 0, 2024)
        s2i, _ = decode_precatorios_page(page([1]), 0, 2024)
        for f in specs.PRECATORIO_CSV_FIELDS:
            assert list(r1f[f]) == [r[f] for r in s1f], f
            assert list(r2i[f]) == [r[f] for r in s2i], f

    def test_positional_fvd_memo_no_cross_type_contamination(self):
        from crawler_tjce_ray.stages.extract import ExtractPagamentos

        def page(entry):
            n = len(specs.PAGAMENTO_FIELDS)
            s = [{"N": f"G{i}", "T": 4} for i in range(n)]
            # column 2 (a str-typed field) dictionary-encoded
            s[2] = {"N": "G2", "T": 1, "DN": "D2"}
            base = {"S": s, "C": [0] * n}
            delta = {"R": 0, "C": [0] * n}
            return {"results": [{"result": {"data": {
                "descriptor": {"Select": []},
                "dsr": {"DS": [{
                    "ValueDicts": {"D2": [entry]},
                    "PH": [{"DM0": [{"S": s}, base, delta]}],
                }]},
            }}}]}
        for e1, e2 in [(1.0, 1), (True, 1), (1, 1.0)]:
            ex = ExtractPagamentos(2024)  # one extractor across both pages
            assert_extract_equiv(ex, page(e1), PAGAMENTOS_URL)
            assert_extract_equiv(ex, page(e2), PAGAMENTOS_URL)
            assert ex.pages_failed == 0

    def test_editais_fvd_memo_no_cross_type_contamination(self):
        from crawler_tjce_ray.dsr.decode import (
            decode_editais_columns, decode_editais_page,
        )

        memo = {}
        def page(entry):
            n = len(specs.EDITAL_FIELDS)
            s = [{"N": f"G{i}", "T": 4} for i in range(n)]
            # natureza (a str-typed field) dictionary-encoded
            s[2] = {"N": "G2", "T": 1, "DN": "D1"}
            base = {"S": s, "C": [1, 2020, 0, "x", "p", "s", 1.5]}
            delta = {"R": 0, "C": [0] * n}
            return {"results": [{"result": {"data": {
                "descriptor": {"Select": []},
                "dsr": {"DS": [{
                    "ValueDicts": {"D1": [entry]},
                    "PH": [{"DM0": [base, delta]}],
                }]},
            }}}]}
        for e1, e2 in [(1.0, 1), (True, 1), (1, 1.0)]:
            memo.clear()
            m1 = decode_editais_columns(page(e1), memo=memo)
            m2 = decode_editais_columns(page(e2), memo=memo)
            s1 = decode_editais_page(page(e1))
            s2 = decode_editais_page(page(e2))
            for f in specs.EDITAL_CSV_FIELDS:
                assert list(m1[f]) == [r.get(f) for r in s1], (e1, f)
                assert list(m2[f]) == [r.get(f) for r in s2], (e1, e2, f)


class TestDecodeSwitch:
    """At a kind's ``columnar_min_rows`` N the extract stage switches
    from the scalar spec decoder (N − 1 rows) to the columnar plan (N
    rows); both sides of the switch give the scalar decoder's table."""

    @pytest.mark.parametrize("kind", ["precatorios", "editais"])
    def test_extract_parsed_matches_scalar_at_the_switch(self, kind):
        from crawler_tjce_ray.stages.extract import (
            ExtractEditais, ExtractPrecatorios,
        )

        ex = {"precatorios": ExtractPrecatorios,
              "editais": ExtractEditais}[kind](2024)
        columnar = ex.decode_columns
        calls = []
        ex.decode_columns = lambda resp: calls.append(1) or columnar(resp)
        n = ex.columnar_min_rows
        plan = synth.build_page_plan(n_entities=4, total_pages=80, seed=3)
        pages = [p for p in plan if p.kind == kind][:3]
        for rows, route in ((n - 1, 0), (n, 1)):
            for p in pages:
                doc = json.loads(synth.generate_page(p, rows, 3)["html"])
                before = len(calls)
                assert_extract_equiv(ex, doc, p.url)
                assert len(calls) - before == route, (rows, p.url)
        assert ex.pages_failed == 0
