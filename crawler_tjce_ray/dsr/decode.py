"""DSR page decoders — faithful reimplementation of the reference
normalizers, one function per record type.

The reference code is the conformance spec, including its quirks; each
quirk is marked ``QUIRK`` with the reference file:line.  These are
per-page pure functions; the Ray stage maps them over batches of pages
(pages are self-contained: row 0 is always a full base row, so no
cross-batch state is needed — SURVEY.md §2.2-M2).
"""

from __future__ import annotations

import re
from datetime import datetime
from decimal import Decimal

import numpy as np

from crawler_tjce_ray.dsr import specs
from crawler_tjce_ray.functions.dates import (
    _from_epoch,
    clean_data_cadastro,
    validate_ano_orcamento,
)
from crawler_tjce_ray.functions.format import finalize_precatorio, format_value
from crawler_tjce_ray.functions.numeric import clean_decimal
from crawler_tjce_ray.functions.text import (
    clean_optional_string,
    clean_processo,
    decode_unicode_escapes,
    is_precatorio_number,
)

# QUIRK (crawler/crawler.py:1251-1265): the reference writes the
# aggregate-unwrapping regex as r"^[A-Za-z_0-9]+\\(([^)]+)\\)$" — the
# doubled backslashes inside a raw string make it match a literal
# backslash, so it NEVER matches real "Sum(table.col)" names.  Those
# fall through to split(".")[-1], producing "col)" with a trailing
# paren, which fails the api-name lookup; Sum(...)-wrapped columns are
# therefore never resolved from data and keep their defaults.  This is
# load-bearing for output parity and is reproduced exactly.
_DEAD_AGG_RE = re.compile(r"^[A-Za-z_0-9]+\\(([^)]+)\\)$")


def get_base_field_name(api_name: str) -> str:
    """Parity: ``_get_base_field_name`` (crawler/crawler.py:1251-1265)."""
    match = _DEAD_AGG_RE.match(api_name)
    if match:
        content = match.group(1)
        if "." in content:
            return content.split(".")[-1]
        return content
    if "." in api_name:
        return api_name.split(".")[-1]
    return api_name


def navigate_envelope(resp_json: dict) -> dict | None:
    """Envelope navigation → ``{selects, value_dicts, rows, rt, ic}``.

    Returns ``None`` for structurally empty pages (missing data/dsr/
    DS/PH/DM0, or the ``DM0 == [{}]`` empty-page marker).
    Parity: crawler/crawler.py:712-786.
    """
    if not resp_json or not isinstance(resp_json, dict):
        return None
    try:
        data = resp_json.get("results", [{}])[0].get("result", {}).get("data", {})
    except (IndexError, AttributeError):
        return None
    if not data:
        return None
    dsr = data.get("dsr")
    if not dsr:
        return None
    ds_list = dsr.get("DS", [])
    if not ds_list:
        return None
    ds = ds_list[0]
    ph_list = ds.get("PH", [])
    if not ph_list:
        return None
    rows = ph_list[0].get("DM0")
    if rows is None:
        return None
    if isinstance(rows, list) and len(rows) == 1 and not rows[0]:
        rows = []  # empty page marker DM0=[{}]
    return {
        "selects": data.get("descriptor", {}).get("Select", []),
        "value_dicts": ds.get("ValueDicts", {}),
        "rows": rows if isinstance(rows, list) else [],
        "rt": ds.get("RT"),
        "ic": ds.get("IC"),
    }


def extract_restart_tokens(resp_json: dict):
    """Pull ``RT`` (the pagination cursor) out of a page, or ``None``.

    Parity: crawler/crawler.py:628-652.
    """
    try:
        return resp_json["results"][0]["result"]["data"]["dsr"]["DS"][0].get("RT")
    except (KeyError, IndexError, TypeError):
        return None


# ---------------------------------------------------------------------------
# precatórios — config-driven decode (crawler/crawler.py:687-1106)
# ---------------------------------------------------------------------------

# page-invariant: formatted field defaults, computed once at import
# (format_value is pure; rebuilding this dict per page was hot-path waste)
_PRECATORIO_DEFAULTS = {
    f: format_value(attrs.get("default"), attrs.get("type", "str"))
    for f, attrs in specs.PRECATORIO_FIELD_MAPPING.items()
}


def decode_precatorios_page(
    resp_json: dict,
    starting_order_number: int = 0,
    current_year: int | None = None,
) -> tuple[list[dict], int]:
    """One page → finalized precatório rows + the last order number.

    Semantics reproduced exactly (all from crawler/crawler.py:687-1106):

    * row defaults are pre-formatted per field config;
    * base row: positional C↔S↔descriptor alignment, dictionary decode
      with OOB→default, unicode-unescape then typed formatting;
    * delta rows: ``R`` bit j set ⇒ inherit col j, clear ⇒ consume the
      next sparse ``C`` element; missing ``R`` ⇒ inherit everything;
    * QUIRK: columns whose descriptor name fails the api-name lookup
      (all ``Sum(...)`` columns, see ``get_base_field_name``) are
      skipped *before* the bit test, so they never consume a ``C``
      element — later columns read shifted values;
    * QUIRK: base rows unicode-unescape resolved values, delta rows do
      not (crawler/crawler.py:885-893 vs 984-1034);
    * rows failing model validation are dropped; surviving rows get a
      sequential global ``ordem`` (crawler/crawler.py:1056-1057).
    """
    page = navigate_envelope(resp_json)
    order = starting_order_number
    if page is None or not page["rows"]:
        return [], order
    selects = page["selects"]
    if not selects:
        return [], order
    value_dicts = page["value_dicts"]

    # Pre-resolve column index -> csv config (same for every row).
    col_cfg: list[dict | None] = []
    for sel in selects:
        base = get_base_field_name(sel.get("Name") or "")
        col_cfg.append(specs.API_TO_CSV.get(base))

    defaults = _PRECATORIO_DEFAULTS

    out: list[dict] = []
    s_schema = None
    last_row: dict = {}
    for i, raw in enumerate(page["rows"]):
        row = dict(defaults)
        c_values = raw.get("C", [])
        if i == 0:
            s_schema = raw.get("S")
            if not s_schema or not isinstance(s_schema, list):
                break
            if len(c_values) != len(s_schema):
                last_row = {}
                continue
            for col_idx, schema_item in enumerate(s_schema):
                if col_idx >= len(c_values) or col_idx >= len(selects):
                    continue
                cfg = col_cfg[col_idx]
                if not cfg:
                    continue
                raw_value = c_values[col_idx]
                dict_name = schema_item.get("DN")
                val = None
                resolved = False
                if dict_name:
                    try:
                        idx = int(raw_value)
                        vd = value_dicts.get(dict_name)
                        if isinstance(vd, list) and 0 <= idx < len(vd):
                            val = vd[idx]
                            resolved = True
                    except (ValueError, TypeError):
                        pass
                else:
                    val = raw_value
                    resolved = True
                if resolved:
                    decoded = decode_unicode_escapes(str(val)) if val is not None else None
                    row[cfg["csv_field"]] = format_value(decoded, cfg["type"])
            last_row = row.copy()
        else:
            if not s_schema:
                break
            if not last_row:
                continue
            rulifier = raw.get("R")
            if rulifier is None:
                row = last_row.copy()
            else:
                c_idx = 0
                row = last_row.copy()
                for col_idx, schema_item in enumerate(s_schema):
                    if col_idx >= len(selects):
                        continue
                    cfg = col_cfg[col_idx]
                    if not cfg:
                        continue  # QUIRK: skipped before the bit test — no C consume
                    field = cfg["csv_field"]
                    ftype = cfg["type"]
                    if not ((rulifier >> col_idx) & 1):
                        if c_idx >= len(c_values):
                            row[field] = last_row.get(field, format_value(cfg.get("default"), ftype))
                            continue  # no consume
                        raw_value = c_values[c_idx]
                        if isinstance(raw_value, str):
                            row[field] = format_value(raw_value, ftype)
                        elif isinstance(raw_value, (int, float)):
                            dict_name = schema_item.get("DN")
                            if dict_name:
                                vd = value_dicts.get(dict_name)
                                if (
                                    vd is not None
                                    and isinstance(raw_value, int)
                                    and 0 <= raw_value < len(vd)
                                ):
                                    row[field] = format_value(vd[raw_value], ftype)
                                else:
                                    row[field] = last_row.get(field, cfg.get("default"))
                            else:
                                row[field] = format_value(str(raw_value), ftype)
                        else:
                            row[field] = last_row.get(field, cfg.get("default"))
                        c_idx += 1
            last_row = row.copy()

        final = finalize_precatorio(row, current_year)
        if final is not None:
            order += 1
            final["ordem"] = order
            out.append(final)
    return out, order


# ---------------------------------------------------------------------------
# precatórios — vectorized columnar decode (same semantics, NumPy R-mask)
# ---------------------------------------------------------------------------

_INHERIT = object()  # column-cell sentinel: "copy the previous row's value"

# last epoch-microsecond fromtimestamp can represent (datetime.max,
# UTC): the vectorized date path must refuse exactly where the scalar
# path's OverflowError fallback begins
_EPOCH_US_MAX = (
    (datetime(9999, 12, 31, 23, 59, 59, 999999) - datetime(1970, 1, 1)).days
    * 86_400_000_000
    + ((datetime(9999, 12, 31, 23, 59, 59, 999999) - datetime(1970, 1, 1)).seconds)
    * 1_000_000
    + (datetime(9999, 12, 31, 23, 59, 59, 999999) - datetime(1970, 1, 1)).microseconds
)

# clean_processo fast path: a value made only of [0-9A-Za-z.-] keeps
# every character through the keep-alnum scan and strips to itself.
_PROC_FAST_RE = re.compile(r"^[0-9A-Za-z.\-]+$")
# clean_decimal fast path: plain US-decimal with <=2 decimals hits no
# separator heuristic branch and parses as Decimal(cleaned) directly.
_DEC_FAST_RE = re.compile(r"^-?\d+(?:\.\d{1,2})?$")

def _fin_ordem(v):
    """The ordem branch of finalize_precatorio (value only; the <0
    validity test happens on the result)."""
    try:
        return int(float(v or 0))
    except (TypeError, ValueError):
        return 0


def _field_finalizers(current_year: int | None) -> dict:
    """Per-field finalize_precatorio kernels (models/models.py:25-228).

    The columnar plan applies these AT THE CELL level (then forward-
    fills the finalized values): finalize-then-ffill equals
    ffill-then-finalize because every cleaner is a pure per-value
    function — and explicit cells are fewer than rows."""
    year_fn = (
        validate_ano_orcamento
        if current_year is None
        else (lambda v: validate_ano_orcamento(v, current_year))
    )
    return {
        "ordem": _fin_ordem,
        "processo": _clean_processo_fast,
        "comarca": clean_optional_string,
        "ano_orcamento": year_fn,
        "natureza": clean_optional_string,
        "data_cadastro": clean_data_cadastro,
        "tipo_classificacao": clean_optional_string,
        "valor_original": _clean_decimal_fast,
        "valor_atual": _clean_decimal_fast,
        "situacao": clean_optional_string,
    }


def _clean_processo_fast(v):
    if type(v) is str and _PROC_FAST_RE.match(v):
        return v
    return clean_processo(v)


def _clean_decimal_fast(v):
    if type(v) is str and _DEC_FAST_RE.match(v):
        return Decimal(v)
    return clean_decimal(v)


def _format_str_cell(v, ftype):
    """``format_value(v, ftype)`` for str *v* with the non-numeric
    branches inlined (processo/str types are a strip after the
    empty/none guard; numeric/date delegate)."""
    if ftype in ("int", "float", "Decimal") or ftype == "date":
        return format_value(v, ftype)
    s = v.strip()
    if not s or v.lower() == "none":
        return "-"
    return s


def _finalize_numeric_cell(v, ftype, fin):
    """Fused format+finalize for int/float wire cells, with exact fast
    paths for the common shapes (plain ints within float precision;
    floats round-trip through ``str``).

    NOTE: Decimal/float cells must finalize from the STRING form —
    clean_decimal(float) skips the separator heuristics clean_decimal
    (str) applies (e.g. "0.125" → 125 via the trailing-3-digit quirk).
    The date fast path returns the datetime directly: str(dt) →
    fromisoformat is an identity round trip and clean_data_cadastro
    passes datetimes through."""
    t = type(v)
    if ftype == "int":
        if t is int and -(2**53) < v < 2**53:
            # finalizers treat the int and its str(v) form identically
            return fin(v)
    elif ftype in ("float", "Decimal"):
        if t is float:
            return fin(str(v))
        if t is int and -(2**53) < v < 2**53:
            return fin(str(float(v)))
    elif ftype == "date":
        if t is int and 100000000000 < v < 300000000000000:
            try:
                return _from_epoch(v / 1000.0)
            except (ValueError, OverflowError, OSError):
                # epoch-ms past year 9999: the slow path reproduces the
                # scalar outcome ("" -> None) exactly
                pass
    return fin(format_value(str(v), ftype))


def _build_money_fvd(vd, ftype):
    """Bulk-finalize a ValueDict whose entries are money strings —
    the seed-page hot path (valor dictionaries are page-unique, so no
    memo ever hits and every entry pays the scalar chain
    ``format_numeric_value → _clean_decimal_fast``).

    Vectorized with pyarrow.compute string kernels (pandas object
    ``.str`` ops are per-element Python loops — measured SLOWER than
    the scalar chain).  Exact parity: string entries that (a) pass
    ``format_value``'s blank/none guard handling, (b) normalize to a
    plain ``-?\\d+(\\.\\d+)?`` decimal, and (c) whose CPython
    ``float()`` parse (the spec's parser — run per entry, C-speed)
    lands on the digits-exact scaleb fast path, finalize in bulk;
    everything else is left to the scalar loop.

    Returns ``(fvd, done)``; ``done[i]`` False means entry *i* still
    needs the scalar spec chain.
    """
    import pyarrow as pa
    import pyarrow.compute as _pc

    n = len(vd)
    fvd = np.empty(n, dtype=object)
    done = np.zeros(n, dtype=bool)
    if n == 0:
        return fvd, done
    is_str = np.fromiter((type(x) is str for x in vd), dtype=bool, count=n)
    if not is_str.any():
        return fvd, done
    idx = np.nonzero(is_str)[0]
    arr = pa.array([vd[i] for i in idx], pa.string())
    # format_value's empty/none guard → "0" → Decimal("0")
    blank = _pc.or_(
        _pc.equal(_pc.utf8_trim_whitespace(arr), ""),
        _pc.equal(_pc.utf8_lower(arr), "none"),
    ).to_numpy(zero_copy_only=False)
    if blank.any():
        zero = _clean_decimal_fast("0")
        fvd[idx[blank]] = zero
        done[idx[blank]] = True
    # normalize_decimal_separators, vectorized (the swap rule
    # "rfind('.') < rfind(',')" ⟺ no '.' after the LAST ',')
    t = _pc.utf8_trim_whitespace(_pc.replace_substring(arr, "R$", ""))
    hasc = _pc.match_substring(t, ",")
    hasd = _pc.match_substring(t, ".")
    swap = _pc.and_(_pc.and_(hasc, hasd),
                    _pc.match_substring_regex(t, r",[^.]*$"))
    swapped = _pc.replace_substring(
        _pc.replace_substring(t, ".", ""), ",", "."
    )
    lone = _pc.and_(hasc, _pc.invert(hasd))
    t = _pc.if_else(swap, swapped,
                    _pc.if_else(lone, _pc.replace_substring(t, ",", "."), t))
    safe = _pc.and_(
        _pc.match_substring_regex(t, r"^-?\d+(\.\d+)?$"),
        _pc.invert(pa.array(blank)),
    ).to_numpy(zero_copy_only=False)
    if safe.any():
        sub = t.filter(pa.array(safe)).to_pylist()
        # CPython float() per entry (C strtod — the spec's own parser;
        # vectorized parsers can differ in the last ulp)
        fv = np.fromiter((float(x) for x in sub), dtype=np.float64,
                         count=len(sub))
        pos = idx[safe]
        # 2**46, NOT 2**53: the scaleb path multiplies by 10/100, and
        # beyond 2**46 the float product can round to a neighbor of the
        # true integer (ulp(100·v) ≥ 1 while 100·ε can exceed 1/2),
        # silently corrupting the last digit — confirmed at
        # 9007199254740990 (review finding); larger values take the
        # scalar spec chain instead
        okf = (
            np.isfinite(fv)
            & (np.abs(fv) < 2**46)
            & ~((fv == 0.0) & np.signbit(fv))
        )
        d1 = okf & (fv == np.round(fv, 1))
        d2 = okf & ~d1 & (fv == np.round(fv, 2))
        if d1.any():
            tens = np.round(fv[d1] * 10.0).astype(np.int64)
            out = np.empty(len(tens), dtype=object)
            out[:] = [Decimal(int(c)).scaleb(-1) for c in tens]
            fvd[pos[d1]] = out
            done[pos[d1]] = True
        if d2.any():
            cents = np.round(fv[d2] * 100.0).astype(np.int64)
            out = np.empty(len(cents), dtype=object)
            out[:] = [Decimal(int(c)).scaleb(-2) for c in cents]
            fvd[pos[d2]] = out
            done[pos[d2]] = True
    return fvd, done


def decode_precatorios_columns(
    resp_json: dict,
    starting_order_number: int = 0,
    current_year: int | None = None,
    memo: dict | None = None,
) -> tuple[dict[str, list], int]:
    """Vectorized twin of :func:`decode_precatorios_page` returning
    columns instead of row dicts: ``({field -> values}, last_order)``.

    The scalar decoder is the spec: ANY exception inside the
    vectorized plan (including finalize-cleaner exceptions on cells of
    rows the scalar would have dropped before cleaning them) falls
    back to a scalar replay of the page, which either produces the
    spec rows or raises the spec exception.  Good pages never pay for
    this; see tests/test_decode_columnar.py for the pinned parity.

    ``memo`` (optional) is a CROSS-PAGE finalized-string cache
    ``{csv_field: {resolved_str: finalized}}`` owned by the caller
    (one per extract actor, built once in ``__init__``): dictionary
    values (comarca/situacao/natureza names…) repeat heavily across
    pages of a crawl, and every finalizer here is a pure function of
    the resolved string, so sharing hits across pages is semantics-
    free.  The per-page decode stays correct with ``memo=None``.
    """
    try:
        return _decode_precatorios_columns_fast(
            resp_json, starting_order_number, current_year, memo
        )
    except Exception:
        out_rows, order = decode_precatorios_page(
            resp_json, starting_order_number, current_year
        )
        return (
            {f: [r[f] for r in out_rows] for f in specs.PRECATORIO_CSV_FIELDS},
            order,
        )


def _decode_precatorios_columns_fast(
    resp_json: dict,
    starting_order_number: int = 0,
    current_year: int | None = None,
    memo: dict | None = None,
) -> tuple[dict[str, list], int]:
    """The vectorized plan (see decode_precatorios_columns).

    Same semantics, different execution plan (SURVEY §1.2's batch
    design; the reference's row loop is crawler/crawler.py:957-1046):

    * the base row runs the scalar path (one row);
    * delta rows build a NumPy inherit-bitmask matrix ``B[i,j]`` from
      ``R``, compute each cleared bit's sparse-``C`` position with an
      exclusive prefix sum, and gather raw values with one fancy
      index per column;
    * only *explicit* cells (those that consumed a ``C`` element and
      resolved) pay per-cell formatting — dictionary columns memoize
      by dictionary index, numeric/date cells use exact fast paths;
    * inheritance is a per-column forward-fill seeded by the base row;
    * model validation (finalize_precatorio) is FUSED into the cell
      formatting — finalize-then-ffill equals ffill-then-finalize for
      pure per-value cleaners, and explicit cells are fewer than rows.

    Equivalence with the scalar decoder (including every QUIRK) is
    pinned by tests/test_decode_columnar.py; pages the fast path
    cannot represent (duplicate csv-field mappings, R beyond int64)
    fall back to the scalar decoder wholesale.
    """
    page = navigate_envelope(resp_json)
    order = starting_order_number
    empty: dict[str, list] = {f: [] for f in specs.PRECATORIO_CSV_FIELDS}
    if page is None or not page["rows"]:
        return empty, order
    selects = page["selects"]
    if not selects:
        return empty, order
    value_dicts = page["value_dicts"]
    rows = page["rows"]

    col_cfg: list[dict | None] = []
    for sel in selects:
        base = get_base_field_name(sel.get("Name") or "")
        col_cfg.append(specs.API_TO_CSV.get(base))

    # --- base row: scalar path (identical to decode_precatorios_page) ---
    first = rows[0]
    s_schema = first.get("S")
    if not s_schema or not isinstance(s_schema, list):
        return empty, order
    c_values0 = first.get("C", [])
    base_row = dict(_PRECATORIO_DEFAULTS)
    base_ok = len(c_values0) == len(s_schema)
    if base_ok:
        for col_idx, schema_item in enumerate(s_schema):
            if col_idx >= len(c_values0) or col_idx >= len(selects):
                continue
            cfg = col_cfg[col_idx]
            if not cfg:
                continue
            raw_value = c_values0[col_idx]
            dict_name = schema_item.get("DN")
            val = None
            resolved = False
            if dict_name:
                try:
                    idx = int(raw_value)
                    vd = value_dicts.get(dict_name)
                    if isinstance(vd, list) and 0 <= idx < len(vd):
                        val = vd[idx]
                        resolved = True
                except (ValueError, TypeError):
                    pass
            else:
                val = raw_value
                resolved = True
            if resolved:
                decoded = decode_unicode_escapes(str(val)) if val is not None else None
                base_row[cfg["csv_field"]] = format_value(decoded, cfg["type"])
    else:
        # base-row C/S length mismatch: the scalar path clears
        # last_row, which silences every delta row -> empty page
        return empty, order

    # configured columns in schema-index order
    cfg_cols = [
        j
        for j in range(len(s_schema))
        if j < len(selects) and col_cfg[j] is not None
    ]
    fields = [col_cfg[j]["csv_field"] for j in cfg_cols]
    if len(set(fields)) != len(fields) or len(s_schema) > 62:
        # shapes the vectorized plan cannot represent — take the
        # scalar path for the whole page
        out_rows, order = decode_precatorios_page(
            resp_json, starting_order_number, current_year
        )
        cols = {
            f: [r[f] for r in out_rows] for f in specs.PRECATORIO_CSV_FIELDS
        }
        return cols, order

    m = len(rows) - 1
    fins = _field_finalizers(current_year)
    # full FINALIZED columns (index 0 = base row), csv_field keyed
    field_cols: dict[str, np.ndarray] = {}
    for f in _PRECATORIO_DEFAULTS:
        col = np.empty(m + 1, dtype=object)
        col[:] = _INHERIT
        col[0] = fins[f](base_row[f])
        field_cols[f] = col

    if m:
        r_list = [r.get("R") for r in rows[1:]]
        # scalar parity for malformed R: a non-int R raises in the
        # scalar path (page-level failure) — raise the same way here
        # rather than letting np.fromiter silently coerce floats
        for r in r_list:
            if r is not None and not isinstance(r, int):
                raise TypeError(f"R must be int, got {type(r).__name__}")
        # None => inherit everything; -1 has every bit set in int64.
        # Arbitrary-precision R overflows int64 here and the wrapper
        # replays the page through the scalar decoder.
        R = np.fromiter(
            (-1 if r is None else r for r in r_list), dtype=np.int64, count=m
        )
        c_lists = [r.get("C", []) for r in rows[1:]]
        clens = np.fromiter((len(c) for c in c_lists), dtype=np.int64, count=m)
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(clens, out=offsets[1:])
        flat = np.empty(int(offsets[-1]), dtype=object)
        pos = 0
        for c in c_lists:
            ln = len(c)
            flat[pos : pos + ln] = c
            pos += ln

        jarr = np.array(cfg_cols, dtype=np.int64)
        inherit_bits = ((R[:, None] >> jarr[None, :]) & 1).astype(bool)
        consume = ~inherit_bits
        cpos = np.cumsum(consume, axis=1) - consume  # exclusive prefix sum
        explicit = consume & (cpos < clens[:, None])

        _MISS = _INHERIT  # cache-miss sentinel (never a finalized value)
        for k, j in enumerate(cfg_cols):
            cfg = col_cfg[j]
            field = cfg["csv_field"]
            ftype = cfg["type"]
            fin = fins[field]
            dict_name = s_schema[j].get("DN")
            vd = value_dicts.get(dict_name) if dict_name else None
            rows_k = np.nonzero(explicit[:, k])[0]
            if not len(rows_k):
                continue
            vals = flat[offsets[rows_k] + cpos[rows_k, k]]
            out_col = field_cols[field]
            cache: dict = {}
            # cross-page memo for this field (pure string finalizers)
            gmemo = memo.setdefault(field, {}) if memo is not None else None
            if dict_name:
                vd_len = len(vd) if vd is not None else -1
                # finalize the WHOLE dictionary once (memoized across
                # pages): int-index cells — the overwhelming majority —
                # then resolve with one fancy-index gather instead of a
                # per-cell Python loop.  Entries whose finalizer raises
                # get the _MISS sentinel; a cell referencing one takes
                # the per-cell path below and raises exactly like the
                # scalar decoder (→ page replay).
                fvd = has_miss = None
                fkey = fvd_cache = None
                if memo is not None and vd is not None:
                    try:  # whole-dict memo: the key carries each
                        # entry's TYPE — 1 == 1.0 == True hash-equal
                        # but format differently, so a value-only
                        # tuple key would silently cross-contaminate
                        fkey = (field, tuple((type(x), x) for x in vd))
                        fvd_cache = memo.setdefault("__fvd__", {})
                        hit = fvd_cache.get(fkey)
                        if hit is not None:
                            fvd, has_miss = hit
                    except TypeError:  # unhashable dict entry
                        fkey = None
                if fvd is None:
                    has_miss = False
                    pre_done = None
                    if (
                        fin is _clean_decimal_fast
                        and ftype in ("float", "Decimal")
                        and vd_len > 0
                    ):
                        fvd, pre_done = _build_money_fvd(vd, ftype)
                    else:
                        fvd = np.empty(max(vd_len, 0), dtype=object)
                    for di in range(max(vd_len, 0)):
                        if pre_done is not None and pre_done[di]:
                            continue
                        dv = vd[di]
                        if gmemo is not None and type(dv) is str:
                            f = gmemo.get(dv, _MISS)
                            if f is _MISS:
                                try:
                                    f = gmemo[dv] = fin(
                                        _format_str_cell(dv, ftype)
                                    )
                                except Exception:
                                    f = _MISS
                                    has_miss = True
                            fvd[di] = f
                        else:
                            try:
                                fvd[di] = fin(
                                    _format_str_cell(dv, ftype)
                                    if type(dv) is str
                                    else format_value(dv, ftype)
                                )
                            except Exception:
                                fvd[di] = _MISS
                                has_miss = True
                    if fkey is not None:
                        # each entry retains a whole ValueDict (tuple
                        # key + finalized array, ~KBs) — bound by
                        # ENTRY count here, not the extractor's string
                        # cap, or page-unique dicts grow unbounded
                        if len(fvd_cache) >= 512:
                            fvd_cache.clear()
                        fvd_cache[fkey] = (fvd, has_miss)
                is_idx = np.fromiter(
                    (type(v) is int and 0 <= v < vd_len for v in vals),
                    dtype=bool, count=len(vals),
                )
                if is_idx.any():
                    gathered = fvd[vals[is_idx].astype(np.int64)]
                    if has_miss:
                        ok = np.fromiter(
                            (g is not _MISS for g in gathered),
                            dtype=bool, count=len(gathered),
                        )
                        out_col[rows_k[is_idx][ok] + 1] = gathered[ok]
                        rem = ~is_idx
                        rem[np.nonzero(is_idx)[0][~ok]] = True
                    else:
                        out_col[rows_k[is_idx] + 1] = gathered
                        rem = ~is_idx
                else:
                    rem = np.ones(len(vals), dtype=bool)
                for n_idx in np.nonzero(rem)[0]:
                    i, v = rows_k[n_idx], vals[n_idx]
                    if isinstance(v, str):
                        f = cache.get(v, _MISS)
                        if f is _MISS:
                            if gmemo is not None:
                                f = gmemo.get(v, _MISS)
                                if f is _MISS:
                                    f = gmemo[v] = fin(_format_str_cell(v, ftype))
                            else:
                                f = fin(_format_str_cell(v, ftype))
                            cache[v] = f
                        out_col[i + 1] = f
                    elif isinstance(v, (int, float)):
                        # dict decode: int index in range, else inherit
                        # (bools reach here: True ≡ index 1, as scalar)
                        if isinstance(v, int) and 0 <= v < vd_len:
                            dv = vd[v]
                            out_col[i + 1] = fin(
                                _format_str_cell(dv, ftype)
                                if type(dv) is str
                                else format_value(dv, ftype)
                            )
                    # other types: inherit
            elif ftype == "date":
                # epoch-ms int cells vectorized: exact replication of
                # _from_epoch's fromtimestamp (modf + round-half-even
                # to microseconds — np.rint ties-to-even matches
                # CPython round()); everything else per-cell
                is_i = np.fromiter(
                    (type(v) is int for v in vals), dtype=bool, count=len(vals)
                )
                done = np.zeros(len(vals), dtype=bool)
                if is_i.any():
                    iv = vals[is_i].astype(np.int64)  # >int64 -> page replay
                    rng = (iv > 100000000000) & (iv < 300000000000000)
                    if rng.any():
                        s = iv[rng] / 1000.0
                        whole = np.trunc(s)
                        us = whole.astype(np.int64) * 1_000_000 + np.rint(
                            (s - whole) * 1e6
                        ).astype(np.int64)
                        ok = us <= _EPOCH_US_MAX  # year 9999 cap, as
                        # fromtimestamp raises past datetime.max
                        if ok.any():
                            dts = us[ok].astype("datetime64[us]").tolist()
                            arr = np.empty(len(dts), dtype=object)
                            arr[:] = dts
                            tgt = rows_k[is_i][rng][ok]
                            out_col[tgt + 1] = arr
                            sel = np.nonzero(is_i)[0][rng][ok]
                            done[sel] = True
                for n_idx in np.nonzero(~done)[0]:
                    i, v = rows_k[n_idx], vals[n_idx]
                    if isinstance(v, str):
                        f = cache.get(v, _MISS)
                        if f is _MISS:
                            f = cache[v] = fin(_format_str_cell(v, ftype))
                        out_col[i + 1] = f
                    elif isinstance(v, (int, float)):
                        out_col[i + 1] = _finalize_numeric_cell(v, ftype, fin)
            elif ftype == "int":
                # int wire cells vectorized: ordem's int(float(v)) is
                # the identity within float precision; ano_orcamento
                # passes plain years straight through — only cells
                # outside the identity ranges pay the scalar kernel
                is_i = np.fromiter(
                    (type(v) is int for v in vals), dtype=bool, count=len(vals)
                )
                done = np.zeros(len(vals), dtype=bool)
                if is_i.any():
                    iv = vals[is_i].astype(np.int64)
                    if field == "ordem":
                        idy = (iv > -(2**53)) & (iv < 2**53)
                    else:  # validate_ano_orcamento plain-year band
                        yr = (
                            current_year
                            if current_year is not None
                            else datetime.now().year
                        )
                        idy = (iv >= 1900) & (iv <= yr + 5)
                    if idy.any():
                        tgt = rows_k[is_i][idy]
                        out_col[tgt + 1] = vals[is_i][idy]
                        sel = np.nonzero(is_i)[0][idy]
                        done[sel] = True
                for n_idx in np.nonzero(~done)[0]:
                    i, v = rows_k[n_idx], vals[n_idx]
                    if isinstance(v, str):
                        f = cache.get(v, _MISS)
                        if f is _MISS:
                            f = cache[v] = fin(_format_str_cell(v, ftype))
                        out_col[i + 1] = f
                    elif isinstance(v, (int, float)):
                        out_col[i + 1] = _finalize_numeric_cell(v, ftype, fin)
            else:
                done = np.zeros(len(vals), dtype=bool)
                if ftype in ("float", "Decimal") and fin is _clean_decimal_fast:
                    # decimal cells vectorized: a float (or exact int)
                    # whose shortest repr has ≤2 decimals goes through
                    # _clean_decimal_fast as Decimal(str(v)) — exponent
                    # -1 when v == round(v, 1) (float str always shows
                    # one decimal), else -2.  v == np.round(v, k) is
                    # precisely "v is the nearest double to a k-decimal
                    # value", so Decimal(int(v·10^k)).scaleb(-k)
                    # reproduces Decimal(str(v)) digits-exactly.
                    is_num = np.fromiter(
                        (type(v) is float or type(v) is int for v in vals),
                        dtype=bool, count=len(vals),
                    )
                    if is_num.any():
                        fv = vals[is_num].astype(np.float64)
                        safe = (
                            np.isfinite(fv)
                            & (np.abs(fv) < 2**46)
                            & ~((fv == 0.0) & np.signbit(fv))
                        )
                        d1 = safe & (fv == np.round(fv, 1))
                        d2 = safe & ~d1 & (fv == np.round(fv, 2))
                        src = np.nonzero(is_num)[0]
                        if d1.any():
                            tgt = rows_k[is_num][d1]
                            tens = np.round(fv[d1] * 10.0).astype(np.int64)
                            dec = np.empty(len(tens), dtype=object)
                            dec[:] = [Decimal(int(c)).scaleb(-1) for c in tens]
                            out_col[tgt + 1] = dec
                            done[src[d1]] = True
                        if d2.any():
                            tgt = rows_k[is_num][d2]
                            cents = np.round(fv[d2] * 100.0).astype(np.int64)
                            dec = np.empty(len(cents), dtype=object)
                            dec[:] = [Decimal(int(c)).scaleb(-2) for c in cents]
                            out_col[tgt + 1] = dec
                            done[src[d2]] = True
                for n_idx in np.nonzero(~done)[0]:
                    i, v = rows_k[n_idx], vals[n_idx]
                    if isinstance(v, str):
                        f = cache.get(v, _MISS)
                        if f is _MISS:
                            if gmemo is not None:
                                f = gmemo.get(v, _MISS)
                                if f is _MISS:
                                    f = gmemo[v] = fin(_format_str_cell(v, ftype))
                            else:
                                f = fin(_format_str_cell(v, ftype))
                            cache[v] = f
                        out_col[i + 1] = f
                    elif isinstance(v, (int, float)):
                        out_col[i + 1] = _finalize_numeric_cell(v, ftype, fin)
                    # other types: inherit

        # forward-fill every column (row 0 is always explicit)
        _ffill_columns(field_cols)

    # --- row validity (the only row-level part of finalize_precatorio:
    # empty processo drops the row; negative decoded ordem drops it) ---
    proc_col = field_cols["processo"]
    ordem_col = field_cols["ordem"]
    valid = np.fromiter(
        (p is not None and o >= 0 for p, o in zip(proc_col, ordem_col)),
        dtype=bool,
        count=m + 1,
    )
    keep = np.nonzero(valid)[0]
    n_out = len(keep)

    out: dict[str, list] = {
        f: field_cols[f][keep].tolist()
        for f in specs.PRECATORIO_CSV_FIELDS
        if f != "ordem"
    }
    out["ordem"] = list(range(order + 1, order + n_out + 1))
    order += n_out
    return out, order


# ---------------------------------------------------------------------------
# editais — positional decode (crawler/edital_crawler.py:416-634)
# ---------------------------------------------------------------------------

def _format_positional_value(value, field_type: str):
    """Shared formatter of the edital/pagamento decoders.

    Parity: ``_format_edital_value`` (crawler/edital_crawler.py:645-688)
    and its byte-identical clone ``_format_pagamento_value``
    (crawler/pagamentos_crawler.py:620-663).
    """
    if value is None:
        return 0 if field_type in ("int", "float", "Decimal") else "-"
    if isinstance(value, str) and not value.strip():
        return 0 if field_type in ("int", "float", "Decimal") else "-"
    try:
        if field_type == "int":
            if isinstance(value, str):
                value = value.strip()
                if not value or value == "-":
                    return 0
            return int(float(value))
        if field_type == "float":
            if isinstance(value, str):
                value = value.strip()
                if not value or value == "-":
                    return 0.0
            return float(value)
        if field_type == "Decimal":
            if isinstance(value, str):
                value = value.strip()
                if not value or value == "-":
                    return Decimal("0.0")
            return Decimal(str(value))
        if isinstance(value, str):
            return value.strip()
        return str(value).strip()
    except (ValueError, TypeError, ArithmeticError):
        return 0 if field_type in ("int", "float", "Decimal") else "-"


def _decode_dict_or_direct(raw_value, dict_name, value_dicts, field_type, check_precatorio):
    """Dictionary-index vs direct-value disambiguation for positional decoders.

    ``check_precatorio`` adds the edital guard: a direct string that
    matches the process-number pattern bypasses the dictionary
    (crawler/edital_crawler.py:520-543).
    """
    if dict_name and dict_name in value_dicts:
        if check_precatorio and is_precatorio_number(str(raw_value)):
            return _format_positional_value(raw_value, field_type)
        try:
            idx = int(raw_value)
            if 0 <= idx < len(value_dicts[dict_name]):
                return _format_positional_value(value_dicts[dict_name][idx], field_type)
            return _format_positional_value("-", field_type)
        except (ValueError, TypeError):
            return _format_positional_value("-", field_type)
    return _format_positional_value(raw_value, field_type)


def decode_editais_page(resp_json: dict, prior_rows: list[dict] | None = None) -> list[dict]:
    """One edital page → typed rows (appended to ``prior_rows`` copy).

    Delta rows inherit from the *previous emitted output row*, which
    crosses page boundaries in the reference (the decoder reads
    ``normalized_rows[-1]``, crawler/edital_crawler.py:553-556) — so
    multi-page decode must pass the accumulated rows in.  Final
    ordering/sorting is the caller's job (the reference sorts by
    ``ordem`` ascending at the end, crawler/edital_crawler.py:630-631).
    """
    out: list[dict] = list(prior_rows or [])
    start_len = len(out)
    page = navigate_envelope(resp_json)
    if page is None or not page["rows"]:
        return out[start_len:]
    value_dicts = page["value_dicts"]
    data_rows = page["rows"]
    first = data_rows[0]
    if not isinstance(first, dict) or "S" not in first or "C" not in first:
        return out[start_len:]
    schema_list = first.get("S", [])
    if not schema_list or not first.get("C"):
        return out[start_len:]
    mapping = specs.EDITAL_FIELDS[: len(schema_list)]

    for i, raw in enumerate(data_rows):
        row: dict = {}
        for name, ftype, _ in mapping:
            row[name] = 0 if ftype in ("int", "float", "Decimal") else "-"
        c_values = raw.get("C", [])
        if i == 0:
            if len(c_values) != len(mapping):
                continue
            for col_idx, (name, ftype, dict_name) in enumerate(mapping):
                if col_idx >= len(c_values):
                    continue
                row[name] = _decode_dict_or_direct(
                    c_values[col_idx], dict_name, value_dicts, ftype, check_precatorio=True
                )
        else:
            rulifier = raw.get("R", 0)
            prev = out[-1] if out else {}
            row = dict(prev)
            c_idx = 0
            for col_idx, (name, ftype, dict_name) in enumerate(mapping):
                if not (rulifier & (1 << col_idx)):
                    if c_idx < len(c_values):
                        row[name] = _decode_dict_or_direct(
                            c_values[c_idx], dict_name, value_dicts, ftype, check_precatorio=True
                        )
                    else:
                        row[name] = "-"
                    c_idx += 1
        # post-processing (crawler/edital_crawler.py:604-618)
        if row.get("data_cadastro") == "-":
            row["data_cadastro"] = ""
        if row.get("valor") == 0:
            row["valor"] = Decimal("0.0")
        if row.get("ordem") == 0:
            row["ordem"] = len(out) + 1
        out.append(row)
    return out[start_len:]


# ---------------------------------------------------------------------------
# pagamentos — positional decode, row 0 is schema-only
# (crawler/pagamentos_crawler.py:418-618)
# ---------------------------------------------------------------------------

def decode_pagamentos_page(
    resp_json: dict,
    starting_order_number: int = 0,
    prior_rows: list[dict] | None = None,
) -> list[dict]:
    """One pagamento page → typed rows.

    QUIRK: the reference treats DM0 row 0 as schema-only and decodes
    rows 1..n as deltas (crawler/pagamentos_crawler.py:525-527) — the
    base row's values are never emitted.  The first delta row inherits
    from defaults (or from the previous page's last output row).
    ``ordem`` = ``starting_order_number + position`` across pages.
    """
    out: list[dict] = list(prior_rows or [])
    start_len = len(out)
    page = navigate_envelope(resp_json)
    if page is None or not page["rows"]:
        return out[start_len:]
    value_dicts = page["value_dicts"]
    data_rows = page["rows"]
    first = data_rows[0]
    if not isinstance(first, dict) or "S" not in first:
        return out[start_len:]
    schema_list = first.get("S", [])
    if not schema_list:
        return out[start_len:]
    mapping = specs.PAGAMENTO_FIELDS[: len(schema_list)]

    for _, raw in enumerate(data_rows[1:], 1):
        row: dict = {}
        for name, ftype, _ in mapping:
            row[name] = 0 if ftype in ("int", "float", "Decimal") else "-"
        c_values = raw.get("C", [])
        rulifier = raw.get("R", 0)
        if out:
            row = dict(out[-1])
        c_idx = 0
        for col_idx, (name, ftype, dict_name) in enumerate(mapping):
            if not (rulifier & (1 << col_idx)):
                if c_idx < len(c_values):
                    row[name] = _decode_dict_or_direct(
                        c_values[c_idx], dict_name, value_dicts, ftype, check_precatorio=False
                    )
                else:
                    row[name] = "-"
                c_idx += 1
        # post-processing (crawler/pagamentos_crawler.py:585-607)
        if row.get("data_protocolo") == "-":
            row["data_protocolo"] = ""
        if row.get("data_pagamento") == "-":
            row["data_pagamento"] = ""
        if row.get("cpf_cnpj") == "-":
            row["cpf_cnpj"] = ""
        for f in (
            "valor_bruto",
            "previdencia",
            "irrf",
            "honorarios",
            "valor_bruto_contratual",
            "rra",
            "valor_liquido",
        ):
            if row.get(f) == 0:
                row[f] = Decimal("0.0")
        row["ordem"] = starting_order_number + len(out)
        out.append(row)
    return out[start_len:]


# ---------------------------------------------------------------------------
# editais — vectorized columnar decode (NumPy R-mask twin of
# decode_editais_page, which is the spec)
# ---------------------------------------------------------------------------


def _positional_delta_cells(rows, n_cols):
    """Delta-row geometry of the editais columnar plan: the
    inherit bitmask (missing R = 0 = everything cleared), the cleared
    bits' sparse-``C`` positions, and the flattened ``C`` values.

    Unlike precatórios, EVERY cleared bit is explicit (an exhausted
    ``C`` yields a literal "-" rather than inheritance) and the
    consume counter always advances."""
    m = len(rows)
    for r in rows:
        rl = r.get("R", 0)
        if not isinstance(rl, int):
            # scalar parity: non-int R raises in `rulifier & (1<<j)`
            raise TypeError(f"R must be int, got {type(rl).__name__}")
    R = np.fromiter((r.get("R", 0) for r in rows), dtype=np.int64, count=m)
    c_lists = [r.get("C", []) for r in rows]
    clens = np.fromiter((len(c) for c in c_lists), dtype=np.int64, count=m)
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(clens, out=offsets[1:])
    flat = np.empty(int(offsets[-1]), dtype=object)
    pos = 0
    for c in c_lists:
        ln = len(c)
        flat[pos : pos + ln] = c
        pos += ln
    jarr = np.arange(n_cols, dtype=np.int64)
    inherit = ((R[:, None] >> jarr[None, :]) & 1).astype(bool)
    cleared = ~inherit
    cpos = np.cumsum(cleared, axis=1) - cleared
    in_c = cleared & (cpos < clens[:, None])
    exhausted = cleared & ~ (cpos < clens[:, None])
    return flat, offsets, cpos, in_c, exhausted


def _fill_positional_column(
    out_col, rows_k, vals, exhausted_rows, dn, value_dicts, ftype,
    memo: dict | None = None,
) -> None:
    """Explicit-cell writer of the editais columnar plan.

    Vectorized paths (the scalar ``_decode_dict_or_direct`` chain is
    the spec; the precatório guard only ever fires on *str* cells —
    ``str(int)``/``str(float)`` cannot match the NNNNNNN-DD.… pattern
    — so int/float cells are guard-free):

    * dictionary columns: the whole ValueDict pre-formats ONCE
      (``_format_positional_value`` is total — no exceptions), with an
      extra out-of-range slot holding the formatted ``"-"``; int and
      float cells (``int(raw)`` truncates floats, as scalar) resolve
      with one clipped fancy-index gather.  The formatted dict is
      memoized across pages keyed on its full content.
    * direct numeric columns: identity / truncate / cents-exact
      Decimal bulk conversions per type mask.

    Everything else (strings, bools, None, unhashables) keeps the
    per-cell spec path with the per-page (type, value) cache."""
    n = len(vals)
    done = np.zeros(n, dtype=bool)
    tcode = np.fromiter(
        (1 if type(v) is int else 2 if type(v) is float else 0 for v in vals),
        dtype=np.uint8, count=n,
    )
    is_int = tcode == 1
    is_flt = tcode == 2
    has_dict = bool(dn) and dn in value_dicts
    if has_dict:
        vd = value_dicts[dn]
        vd_len = len(vd)
        fvd = fkey = fvd_cache = None
        if memo is not None:
            try:
                # type-qualified entries: 1 == 1.0 == True hash-equal
                # but _format_positional_value is type-sensitive
                fkey = (ftype, tuple((type(x), x) for x in vd))
                fvd_cache = memo.setdefault("__pos_fvd__", {})
                fvd = fvd_cache.get(fkey)
            except TypeError:  # unhashable dict entry
                fkey = None
        if fvd is None:
            fvd = np.empty(vd_len + 1, dtype=object)
            for di in range(vd_len):
                fvd[di] = _format_positional_value(vd[di], ftype)
            fvd[vd_len] = _format_positional_value("-", ftype)
            if fkey is not None:
                # bound by entry count — each holds a full ValueDict
                if len(fvd_cache) >= 512:
                    fvd_cache.clear()
                fvd_cache[fkey] = fvd
        num = is_int | is_flt
        if num.any():
            # int(raw): floats truncate toward zero; overflow/NaN
            # raises -> page replays through the scalar spec
            iv = vals[num].astype(np.float64)
            safe = np.isfinite(iv) & (np.abs(iv) < 2**53)
            idx = np.clip(iv[safe].astype(np.int64), -1, vd_len)
            idx[idx < 0] = vd_len  # negative index -> formatted "-"
            src = np.nonzero(num)[0][safe]
            out_col[rows_k[src] + 1] = fvd[idx]
            done[src] = True
    else:
        num = is_int | is_flt
        if num.any() and ftype in ("int", "float", "Decimal"):
            iv = vals[num].astype(np.float64)
            safe = np.isfinite(iv) & (np.abs(iv) < 2**53)
            src = np.nonzero(num)[0][safe]
            if ftype == "int":
                conv = iv[safe].astype(np.int64)
                arr = np.empty(len(conv), dtype=object)
                arr[:] = conv.tolist()
                out_col[rows_k[src] + 1] = arr
                done[src] = True
            elif ftype == "float":
                arr = np.empty(len(src), dtype=object)
                arr[:] = iv[safe].tolist()
                out_col[rows_k[src] + 1] = arr
                done[src] = True
            else:  # Decimal: Decimal(str(v)) digit-exact
                fv = iv[safe]
                int_src = is_int[num][safe]
                neg_zero = (fv == 0.0) & np.signbit(fv)
                # 2**46 cap on the ×10/×100 scaleb paths: past it the
                # float product can round away from the true integer
                # (see _build_money_fvd); bigger floats go per-cell
                small = np.abs(fv) < 2**46
                d1 = ~int_src & ~neg_zero & small & (fv == np.round(fv, 1))
                d2 = (
                    ~int_src & ~neg_zero & small & ~d1
                    & (fv == np.round(fv, 2))
                )
                if int_src.any():
                    ints = vals[num][safe][int_src]
                    arr = np.empty(len(ints), dtype=object)
                    arr[:] = [Decimal(int(x)) for x in ints]
                    out_col[rows_k[src[int_src]] + 1] = arr
                    done[src[int_src]] = True
                if d1.any():
                    tens = np.round(fv[d1] * 10.0).astype(np.int64)
                    arr = np.empty(len(tens), dtype=object)
                    arr[:] = [Decimal(int(c)).scaleb(-1) for c in tens]
                    out_col[rows_k[src[d1]] + 1] = arr
                    done[src[d1]] = True
                if d2.any():
                    cents = np.round(fv[d2] * 100.0).astype(np.int64)
                    arr = np.empty(len(cents), dtype=object)
                    arr[:] = [Decimal(int(c)).scaleb(-2) for c in cents]
                    out_col[rows_k[src[d2]] + 1] = arr
                    done[src[d2]] = True
    cache: dict = {}
    for n_idx in np.nonzero(~done)[0]:
        i, v = rows_k[n_idx], vals[n_idx]
        key = (type(v), v) if isinstance(v, (str, int, float, bool, type(None))) else None
        if key is None:  # unhashable cell: no memo
            out_col[i + 1] = _decode_dict_or_direct(
                v, dn, value_dicts, ftype, check_precatorio=True
            )
            continue
        f = cache.get(key, _INHERIT)
        if f is _INHERIT:
            f = cache[key] = _decode_dict_or_direct(
                v, dn, value_dicts, ftype, check_precatorio=True
            )
        out_col[i + 1] = f
    for i in exhausted_rows:
        out_col[i + 1] = "-"


def _ffill_columns(cols: dict[str, np.ndarray]) -> None:
    """In-place forward-fill of ``_INHERIT`` cells (row 0 explicit)."""
    n = len(next(iter(cols.values())))
    idx = np.arange(n)
    for f, col in cols.items():
        exp = col != _INHERIT
        if exp.all():
            continue
        src = np.where(exp, idx, 0)
        np.maximum.accumulate(src, out=src)
        cols[f] = col[src]


def decode_editais_columns(
    resp_json: dict, memo: dict | None = None
) -> dict[str, list]:
    """Vectorized twin of :func:`decode_editais_page` (page-local,
    ``prior_rows=None``) returning ``{field -> values}``.  Any internal
    exception replays the scalar spec decoder.  ``memo`` is the
    caller-owned cross-page formatted-ValueDict cache (see
    :func:`_fill_positional_column`)."""
    try:
        return _decode_editais_columns_fast(resp_json, memo)
    except Exception:
        rows = decode_editais_page(resp_json)
        return {f: [r.get(f) for r in rows] for f in specs.EDITAL_CSV_FIELDS}


def _decode_editais_columns_fast(
    resp_json: dict, memo: dict | None = None
) -> dict[str, list]:
    empty: dict[str, list] = {f: [] for f in specs.EDITAL_CSV_FIELDS}
    page = navigate_envelope(resp_json)
    if page is None or not page["rows"]:
        return empty
    value_dicts = page["value_dicts"]
    data_rows = page["rows"]
    first = data_rows[0]
    if not isinstance(first, dict) or "S" not in first or "C" not in first:
        return empty
    schema_list = first.get("S", [])
    if not schema_list or not first.get("C"):
        return empty
    mapping = specs.EDITAL_FIELDS[: len(schema_list)]
    n_cols = len(mapping)
    if len(first.get("C", [])) != n_cols:
        # skipped base row: deltas then inherit from an EMPTY dict
        # (missing keys) in the scalar path — replay it instead
        rows = decode_editais_page(resp_json)
        return {f: [r.get(f) for r in rows] for f in specs.EDITAL_CSV_FIELDS}

    n = len(data_rows)
    cols: dict[str, np.ndarray] = {}
    for name, _, _ in mapping:
        col = np.empty(n, dtype=object)
        col[:] = _INHERIT
        cols[name] = col

    # base row: all cells explicit, then the row-level post-processing
    c0 = first.get("C", [])
    for col_idx, (name, ftype, dn) in enumerate(mapping):
        cols[name][0] = _decode_dict_or_direct(
            c0[col_idx], dn, value_dicts, ftype, check_precatorio=True
        )

    if n > 1:
        flat, offsets, cpos, in_c, exhausted = _positional_delta_cells(
            data_rows[1:], n_cols
        )
        for k, (name, ftype, dn) in enumerate(mapping):
            rows_k = np.nonzero(in_c[:, k])[0]
            _fill_positional_column(
                cols[name], rows_k, flat[offsets[rows_k] + cpos[rows_k, k]],
                np.nonzero(exhausted[:, k])[0], dn, value_dicts, ftype,
                memo=memo,
            )

    # row-level post-processing (crawler/edital_crawler.py:604-618),
    # applied to EXPLICIT cells only — inherited cells come from an
    # already-post-processed previous row, and every rule is either
    # idempotent or (ordem) can never re-trigger on an inherited value
    if "data_cadastro" in cols:
        dc = cols["data_cadastro"]
        for i in range(n):
            if dc[i] == "-":
                dc[i] = ""
    if "valor" in cols:
        va = cols["valor"]
        for i in range(n):
            v = va[i]
            if v is not _INHERIT and v == 0:
                va[i] = Decimal("0.0")
    if "ordem" in cols:
        od = cols["ordem"]
        for i in range(n):
            v = od[i]
            if v is not _INHERIT and v == 0:
                od[i] = i + 1  # len(out) + 1 at append time

    _ffill_columns(cols)
    return {
        f: (cols[f].tolist() if f in cols else [None] * n)
        for f in specs.EDITAL_CSV_FIELDS
    }


# ---------------------------------------------------------------------------
# entity list (schemas/entity_mapping_crawler.py:123-160)
# ---------------------------------------------------------------------------

def decode_entities_page(resp_json: dict) -> list[str]:
    """Entity-name distinct-values page → list of decoded names.

    Values come either as ``DM0[i].G0`` or as ``C[0]``; surrounding
    quotes are stripped, ``\\u00XX`` escapes fixed, and the exact
    placeholder ``"--- selecione"`` (case-insensitive) dropped — note
    the longer ``"--- Selecione a Entidade"`` placeholder does NOT
    match and is kept, mirroring the reference's golden output.
    """
    entities: list[str] = []
    try:
        result_data = resp_json["results"][0]["result"]["data"]
    except (KeyError, IndexError, TypeError):
        return []
    dsr = result_data.get("dsr", {})
    for ds_item in dsr.get("DS", []):
        for ph_item in ds_item.get("PH", []):
            for dm0_item in ph_item.get("DM0", []):
                value = dm0_item.get("G0")
                if value is None and dm0_item.get("C"):
                    value = dm0_item["C"][0]
                if value:
                    s = str(value).strip()
                    if s and s.lower() != "--- selecione":
                        entities.append(decode_unicode_escapes(s.strip("'")))
    return entities
