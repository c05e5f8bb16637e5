"""Property-based tests (hypothesis) for the scalar kernel library —
the vectorized-kernel ↔ scalar-equivalence hedge SURVEY §7.5 calls for."""

from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from crawler_tjce_ray.functions.numeric import (
    clean_decimal, format_currency_brl, normalize_decimal_separators,
)
from crawler_tjce_ray.functions.text import (
    digits_only, slugify, unslugify, zero_pad_processo,
)

# money values with exactly 2 decimal places, up to a billion
money = st.integers(min_value=0, max_value=10**11).map(
    lambda cents: Decimal(cents) / 100
)


class TestCurrencyRoundTrip:
    @given(money)
    @settings(max_examples=300)
    def test_brl_format_then_clean_is_identity(self, x):
        """R$ 1.234,56 display → clean_decimal recovers the exact value
        (the pt-BR separator disambiguation heuristic must never
        misread its own output)."""
        assert clean_decimal(format_currency_brl(float(x))) == x

    @given(money)
    @settings(max_examples=200)
    def test_us_format_reference_semantics(self, x):
        """US-format parsing follows the REFERENCE's branch table
        (models/models.py:176-220) exactly, including its quirk: a
        single comma + single dot with the dot last (1,000.00 …
        999,999.99) matches no branch, fails Decimal(), and maps to
        0.0.  Values without a thousands comma, and values with ≥2
        commas, parse exactly."""
        s = f"{x:,.2f}"
        n_commas = s.count(",")
        if n_commas == 1:
            assert clean_decimal(s) == Decimal("0.0")
        else:
            assert clean_decimal(s) == x

    @given(money)
    @settings(max_examples=200)
    def test_normalize_separators_canonical(self, x):
        ptbr = format_currency_brl(float(x)).replace("R$ ", "")
        norm = normalize_decimal_separators(ptbr)
        assert Decimal(norm) == x


class TestSlug:
    @given(st.text(max_size=60))
    @settings(max_examples=300)
    def test_idempotent_and_charset(self, s):
        slug = slugify(s)
        assert slugify(slug) == slug
        assert all(c.islower() or c.isdigit() or c == "-" for c in slug)

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz ", min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_unslugify_round_trip_plain_words(self, s):
        """For plain lowercase words, slug→unslug recovers the
        uppercased phrase (the reference's entity name convention)."""
        words = s.split()
        if not words:
            return
        phrase = " ".join(words)
        assert unslugify(slugify(phrase)) == phrase.upper()


class TestDigitsPad:
    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_digits_only_subset(self, s):
        """Reference parity (models/models.py:330-339): digits in
        order, with the no-digits case mapping to the "-" blank."""
        out = digits_only(s)
        expect = "".join(c for c in s if c.isdigit())
        if s.strip() == "" or expect == "":
            assert out == "-"
        else:
            assert out == expect

    @given(st.integers(min_value=0, max_value=10**15))
    @settings(max_examples=200)
    def test_zero_pad_numeric(self, n):
        """Only NUMERIC values pad to 20 digits (crawler.py:114-117);
        strings pass through stripped."""
        out = zero_pad_processo(n)
        assert len(out) == 20 and out.endswith(str(n)) and int(out) == n
        assert zero_pad_processo(f" {n} ") == str(n)


class TestMinHashEstimate:
    @given(
        st.lists(st.sampled_from("abcdefgh"), min_size=10, max_size=60),
        st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=50, deadline=None)
    def test_signature_agreement_tracks_jaccard(self, tokens, n_edits):
        """MinHash signature agreement is an unbiased Jaccard
        estimator: |estimate − truth| small at 128 perms (tolerance
        5σ ≈ 0.22)."""
        from crawler_tjce_ray.pipelines.dedup import (
            gram_hashes, minhash_signature, ngram_set,
        )

        a = tokens
        b = list(tokens)
        for k in range(min(n_edits, len(b))):
            b[k] = "Z"
        ga, gb = ngram_set(a), ngram_set(b)
        inter = len(ga & gb)
        true_j = inter / (len(ga) + len(gb) - inter)
        sa = minhash_signature(gram_hashes(ga))
        sb = minhash_signature(gram_hashes(gb))
        est = float((sa == sb).mean())
        assert abs(est - true_j) <= 0.25


class TestDateKernels:
    @given(st.integers(min_value=100_000_000_001, max_value=4_000_000_000_000))
    @settings(max_examples=200)
    def test_epoch_millis_round_trip(self, ms):
        """Millis in the reference's accepted window render as the UTC
        datetime string; parsing that string back (clean_data_cadastro)
        recovers the instant."""
        import datetime as dt

        from crawler_tjce_ray.functions.dates import (
            clean_data_cadastro, format_date_value,
        )

        s = format_date_value(str(ms))
        expect = dt.datetime.fromtimestamp(ms / 1000.0, dt.timezone.utc).replace(tzinfo=None)
        assert s == str(expect)
        parsed = clean_data_cadastro(s)
        assert parsed is not None
        assert abs((parsed - expect).total_seconds()) < 1e-3

    @given(st.integers(min_value=2, max_value=79_999))
    @settings(max_examples=200)
    def test_excel_serial_days(self, days):
        """Whole Excel serial days render as %Y-%m-%d from the
        1899-12-30 base (the reference's Excel-date strategy)."""
        import datetime as dt

        from crawler_tjce_ray.functions.dates import format_date_value

        s = format_date_value(str(days))
        expect = dt.datetime(1899, 12, 30) + dt.timedelta(days=days)
        assert s == expect.strftime("%Y-%m-%d")

    @given(st.floats(min_value=80_000, max_value=1e11, exclude_min=True))
    @settings(max_examples=100)
    def test_dead_window_returns_empty(self, x):
        """The (80000, 1e11] numeric window matches NO strategy — the
        reference's unsatisfiable epoch-seconds guard (QUIRK) means
        these all render empty."""
        from crawler_tjce_ray.functions.dates import format_date_value

        assert format_date_value(str(x)) == ""


class TestMoneyFvdProperty:
    """The vectorized ValueDict money finalizer must agree with the
    scalar spec chain on ARBITRARY strings: wherever it claims an
    entry done, the value must be digit-exact; undone entries are the
    scalar path's job by construction."""

    money_str = st.one_of(
        st.integers(0, 10**13).map(lambda c: f"{Decimal(c) / 100:,.2f}"),
        st.integers(0, 10**13).map(
            lambda c: f"R$ {Decimal(c) / 100:,.2f}".replace(
                ",", "@").replace(".", ",").replace("@", ".")
        ),
        st.integers(-10**14, 10**14).map(str),
        st.floats(allow_nan=False, allow_infinity=False,
                  min_value=-1e15, max_value=1e15).map(str),
        st.text(alphabet="0123456789.,-R$ eE", max_size=24),
        st.sampled_from(["", "-", "none", "None", " NaN ", "inf",
                         "1_000", "+5", ".5", "5."]),
    )

    @given(st.lists(money_str, min_size=1, max_size=12))
    @settings(max_examples=400, deadline=None)
    def test_done_entries_match_scalar_chain(self, vd):
        from crawler_tjce_ray.dsr.decode import (
            _build_money_fvd, _clean_decimal_fast, _format_str_cell,
        )

        fvd, done = _build_money_fvd(vd, "Decimal")
        for i, dv in enumerate(vd):
            if not done[i]:
                continue
            want = _clean_decimal_fast(_format_str_cell(dv, "Decimal"))
            got = fvd[i]
            assert got == want and got.as_tuple() == want.as_tuple(), (
                dv, got, want
            )


# ---------------------------------------------------------------------------
# vectorized shingle kernel ↔ naive reference (functions/shingles.py)
# ---------------------------------------------------------------------------

words = st.lists(
    st.text(alphabet="abcx", min_size=0, max_size=3), min_size=0, max_size=14
).map(" ".join)


@given(st.lists(words, min_size=0, max_size=6), st.integers(2, 5))
@settings(max_examples=150, deadline=None)
def test_shingle_occurrences_match_naive(texts, n):
    import pandas as pd

    from crawler_tjce_ray.functions.shingles import shingle_occurrences

    occ = shingle_occurrences(pd.Series(texts, dtype=object), n)
    got = occ.groupby(["row", "k1", "k2"]).size().to_dict()

    # naive reference: every n-word window per text, hashed one at a time
    exp: dict = {}
    for row, t in enumerate(texts):
        ws = t.split(" ")
        for i in range(len(ws) - (n - 1)):
            g = " ".join(ws[i:i + n])
            k1 = int(pd.util.hash_array(
                __import__("numpy").array([g], object),
                hash_key="tjce-shingle-k1!", categorize=False,
            ).view("int64")[0])
            k2 = int(pd.util.hash_array(
                __import__("numpy").array([g], object),
                hash_key="tjce-shingle-k2!", categorize=False,
            ).view("int64")[0])
            key = (row, k1, k2)
            exp[key] = exp.get(key, 0) + 1
    assert got == exp
    # the gram exchanges key on k1 alone: a gram's bucket is k1's low bits
    if len(occ):
        import pyarrow as pa

        from crawler_tjce_ray.pipelines.exchange import kb_arrow

        kb = kb_arrow(pa.array(occ["k1"]), 64).to_numpy()
        assert (kb == (occ["k1"] & 63).to_numpy()).all()


# ---------------------------------------------------------------------------
# round-4 kernels: tokenizer, exchange sizing, batch signatures
# ---------------------------------------------------------------------------

_texty = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd", "Po", "Zs"),
        whitelist_characters="\n\t -_.,!",
    ),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_texty, max_size=12))
def test_tokens_flat_equals_findall(texts):
    """RE2 complement-split tokenization ≡ findall(WORD_RE) on
    arbitrary text, including unicode and empty rows."""
    import pandas as pd

    from crawler_tjce_ray.pipelines.textops import tokens_flat
    from crawler_tjce_ray.pipelines.webtext import WORD_RE

    df = pd.DataFrame({"text": pd.Series(texts, dtype=object)})
    idx, w = tokens_flat(df["text"])
    got = list(zip(idx.tolist(), w.tolist()))
    exp = []
    for i, t in enumerate(texts):
        import re

        import pyarrow as pa
        import pyarrow.compute as pc

        # case-fold with Arrow's utf8_lower: it agrees with DuckDB's
        # lower() (the oracle contract) where Python's str.lower()
        # diverges (e.g. 'İ' → 'i' in utf8proc vs 'i̇' in Python)
        low = pc.utf8_lower(pa.array([t], type=pa.string()))[0].as_py()
        for m in re.findall(WORD_RE, low):
            exp.append((i, m))
    assert got == exp


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.none(), _texty), max_size=10))
def test_tokens_flat_input_polymorphism(texts):
    """The pa.Array / ChunkedArray / large_string fast paths return
    exactly what the pandas-Series path returns (nulls included) —
    the pyarrow-batch stages must not change a single token."""
    import pandas as pd
    import pyarrow as pa

    from crawler_tjce_ray.pipelines.textops import tokens_flat

    ref_idx, ref_w = tokens_flat(pd.Series(texts, dtype=object))
    cut = len(texts) // 2
    for arr in (
        pa.array(texts, pa.string()),
        pa.array(texts, pa.large_string()),
        pa.chunked_array([
            pa.array(texts[:cut], pa.string()),
            pa.array(texts[cut:], pa.string()),
        ]),
    ):
        idx, w = tokens_flat(arr)
        assert idx.tolist() == ref_idx.tolist()
        assert w.tolist() == ref_w.tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 50))
def test_buckets_for_bytes_pow2_and_monotone(b):
    from crawler_tjce_ray.pipelines.exchange import (
        MAX_BUCKETS, blocks_for_bytes, buckets_for_bytes, read_cap,
    )

    n = buckets_for_bytes(b)
    assert 1 <= n <= MAX_BUCKETS
    assert n & (n - 1) == 0  # power of two
    assert n >= blocks_for_bytes(b, read_cap())  # a bucket per block
    assert buckets_for_bytes(b * 2) >= n  # monotone in input size


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 50),
       st.integers(min_value=1, max_value=64))
def test_blocks_for_bytes_bounded_and_monotone(b, cap):
    from crawler_tjce_ray.pipelines.exchange import blocks_for_bytes

    n = blocks_for_bytes(b, cap)
    assert 1 <= n <= cap
    assert blocks_for_bytes(b * 2 + 1, cap) >= n  # monotone in size
    assert blocks_for_bytes(None, cap) == cap


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
             max_size=30),
    max_size=8,
))
def test_batch_signatures_equal_per_doc(gram_lists):
    """Batch minhash/simhash kernels ≡ their per-doc forms on random
    gram-hash arrays (duplicates and empties included)."""
    import numpy as np

    from crawler_tjce_ray.pipelines.dedup import (
        batch_minhash_signatures, batch_simhash64, minhash_signature,
        simhash64,
    )

    gls = [np.array(g, dtype=np.uint64) for g in gram_lists]
    mh = batch_minhash_signatures(gls)
    sh = batch_simhash64(gls)
    for i, g in enumerate(gls):
        np.testing.assert_array_equal(mh[i], minhash_signature(g))
        assert sh[i] == simhash64(g)
