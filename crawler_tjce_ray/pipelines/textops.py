"""Text-analysis operators over the ``documents`` table — the
training-data-pipeline side of the engine (language-ID, quality
scoring, token counting, fingerprinting).

Every stage is a stateless ``map_batches`` over zero-copy Arrow (or
pandas where the kernel needs it); per-doc work is vectorized
pyarrow.compute / numpy — no Python loop over rows in the hot path
except the per-row hash digests (C-implemented hashlib, O(bytes)).

Scale notes: most queries are embarrassingly parallel per-document
maps with a final small sort.  The vocabulary-keyed ones —
``hapax_rate_by_source`` (on the token digest half ``k1``),
``top_terms_per_lang`` and ``vocab_overlap_sources`` (on the token)
— run ONE ``exchange.shuffle`` each, with the per-batch partial as
the combine: the vocabulary grows with the corpus (Heaps' law), so a
groupby on the token itself would not scale.  The small-key-space
rollups — ``lang_id_confusion``'s |langs|² cells, the per-lang and
per-source profiles — are ``exchange.aggregate`` calls, and
``pack_sequences_sharded`` is a true per-shard group.  At 100 TB each
stage streams block by block; nothing materializes the corpus.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from crawler_tjce_ray.pipelines import exchange
from crawler_tjce_ray.pipelines.relational import _nb_rows

# Both pyarrow.compute and DuckDB use RE2 — identical match semantics
# keeps the Ray result byte-identical to the oracle.
WS_TOKEN_RE = r"\S+"
BPE_TOKEN_RE = r"[a-z]+|[0-9]+|[^a-z0-9\s]"

# Tiny function-word lists for the n-gram/stopword language heuristic
# (reference analog: the pt-BR-vs-US disambiguation heuristics of
# crawler/crawler.py:119-139 — dispatch on surface statistics).
LANG_STOPWORDS = {
    "en": ["the", "and", "of", "a", "in", "to", "is", "for", "with", "on"],
    "es": ["el", "la", "de", "que", "y", "los", "del", "las", "por", "una"],
    "fr": ["le", "la", "les", "des", "et", "une", "du", "dans", "est", "pour"],
    "de": ["der", "die", "und", "das", "von", "den", "mit", "ist", "ein", "im"],
}
EN_STOPWORDS = set(LANG_STOPWORDS["en"])


def _read_docs(sf_dir: str, columns):
    """Pruned, block-split read of the documents table — format-
    agnostic (parquet, JSONL or CSV; see ``sources/docs.py``), so
    every registry query runs unchanged over the interchange formats
    crawl dumps actually arrive in."""
    from crawler_tjce_ray.sources.docs import read_documents

    return read_documents(sf_dir, columns)


def tokens_flat(texts) -> tuple:
    """(row_index, word) int64/object arrays for the ``[a-z0-9]+``
    tokens of each text, in row-then-position order — ONE Arrow
    ``utf8_lower`` + RE2 complement split over the whole input
    (equivalent to per-row ``findall``; equality pinned in
    tests/test_webtext.py).  The shared tokenizer under every
    corpus-touching word kernel (token counts, n-grams, BM25, BPE,
    CMS/heavy-hitter sketches)."""
    if isinstance(texts, pa.ChunkedArray):
        # zero-copy fast path for pyarrow-format batches: the pandas
        # path below would materialize every text as a Python str
        # first (the batch-format conversion IS the cost)
        arr = texts.combine_chunks()
    elif isinstance(texts, pa.Array):
        arr = texts
    else:
        arr = pa.array(pd.Series(texts).astype(object), type=pa.string())
    if not pa.types.is_string(arr.type):
        arr = pc.cast(arr, pa.string())
    parts = pc.split_pattern_regex(pc.utf8_lower(arr), "[^a-z0-9]+")
    lens = pc.list_value_length(parts).fill_null(0).to_numpy(
        zero_copy_only=False)
    flat = pc.list_flatten(parts)
    idx = np.repeat(np.arange(len(arr), dtype=np.int64), lens)
    keep = pc.not_equal(flat, pa.scalar("")).to_numpy(zero_copy_only=False)
    return idx[keep], flat.to_pandas().to_numpy(dtype=object)[keep]


# ---------------------------------------------------------------------------
# token counting (whitespace + BPE-ish regex)
# ---------------------------------------------------------------------------

def q_token_count(sf_dir: str):
    """Token counting: whitespace tokens and a BPE-ish regex token
    count per document.  Pure vectorized RE2 kernels
    (``pc.count_substring_regex``) — zero-copy Arrow in, Arrow out."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def counts(t: pa.Table) -> pa.Table:
        text = t["text"]
        return pa.table({
            "doc_id": t["doc_id"],
            "n_ws_tokens": pc.cast(
                pc.count_substring_regex(text, WS_TOKEN_RE), pa.int64()
            ),
            "n_re_tokens": pc.cast(
                pc.count_substring_regex(pc.utf8_lower(text), BPE_TOKEN_RE),
                pa.int64(),
            ),
        })

    out = ds.map_batches(counts, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_TOKEN_COUNT = r"""
SELECT doc_id,
       CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_ws_tokens,
       CAST(length(regexp_extract_all(lower(text), '[a-z]+|[0-9]+|[^a-z0-9\s]'))
            AS BIGINT) AS n_re_tokens
FROM documents ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# quality scoring
# ---------------------------------------------------------------------------

def quality_frame(df: pd.DataFrame) -> pd.DataFrame:
    """Per-doc quality stats + keep/drop flag for a (doc_id, text)
    batch — shared by ``q_text_quality`` and the composed
    ``curation_pipeline``.  All ratios are exact IEEE divisions of
    integer counts, so the doubles are bit-identical to the DuckDB
    oracle (no rounding needed)."""
    # All counts are Arrow kernels over the whole batch (no per-doc
    # Python).  Literal-space token count = separator count + 1 — the
    # exact string_split(text,' ') length, empty-token and ''-doc
    # cases included; whitespace is the RE2 ASCII \s class, the SAME
    # class the oracle's regexp_replace('\s','g') uses (the old
    # Python \s also matched unicode whitespace — a latent oracle
    # divergence on exotic corpora, gone now).
    arr = pa.array(df["text"].astype(object), type=pa.string())
    n_chars = pc.utf8_length(arr).to_numpy(zero_copy_only=False)
    n_tokens = pc.add(pc.count_substring(arr, " "),
                      pa.scalar(1)).to_numpy(zero_copy_only=False)
    n_alpha = n_chars - pc.count_substring_regex(arr, r"\s").to_numpy(
        zero_copy_only=False)
    parts = pc.split_pattern(arr, " ")
    lens = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(parts)
    hits = pc.is_in(flat, value_set=pa.array(
        sorted(EN_STOPWORDS), pa.string())).to_numpy(zero_copy_only=False)
    stop_hits = np.zeros(len(df), np.int64)
    np.add.at(stop_hits,
              np.repeat(np.arange(len(df), dtype=np.int64), lens),
              hits.astype(np.int64))
    out = pd.DataFrame({
        "doc_id": df["doc_id"],
        "n_chars": n_chars.astype("int64"),
        "n_tokens": n_tokens.astype("int64"),
        "mean_token_len": n_alpha / n_tokens,
        "stopword_ratio": stop_hits / n_tokens,
    })
    out["quality_ok"] = (
        (out["n_tokens"] >= 20) & (out["stopword_ratio"] >= 0.02)
    ).astype("int64")
    return out


def q_text_quality(sf_dir: str):
    """Quality scoring: length / mean-token-length / stopword-ratio
    per document plus a keep/drop flag (kernel: ``quality_frame``)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    out = ds.map_batches(quality_frame, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


_EN_SQL_LIST = ",".join(f"'{w}'" for w in LANG_STOPWORDS["en"])

SQL_TEXT_QUALITY = rf"""
WITH t AS (
  SELECT doc_id,
         CAST(length(text) AS BIGINT) AS n_chars,
         CAST(length(string_split(text,' ')) AS BIGINT) AS n_tokens,
         CAST(length(regexp_replace(text,'\s','','g')) AS BIGINT) AS n_alpha,
         CAST(length(list_filter(string_split(text,' '),
              x -> x IN ({_EN_SQL_LIST}))) AS BIGINT) AS stop_hits
  FROM documents)
SELECT doc_id, n_chars, n_tokens,
       CAST(n_alpha AS DOUBLE)/n_tokens AS mean_token_len,
       CAST(stop_hits AS DOUBLE)/n_tokens AS stopword_ratio,
       CAST(n_tokens >= 20 AND CAST(stop_hits AS DOUBLE)/n_tokens >= 0.02
            AS BIGINT) AS quality_ok
FROM t ORDER BY doc_id
"""




def q_text_ttr(sf_dir: str):
    """Type-token ratio per document — the lexical-diversity signal
    curation stacks use beside the stopword/length heuristics (a
    near-zero TTR is generated/looping text; ``repetition_stats``
    looks at n-gram repeats, this at vocabulary width).  Stateless
    vectorized map over (doc_id, text); ttr = n_types / n_tokens is a
    ratio of exact ints, rounded to 6 dp."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def ttr(df: pd.DataFrame) -> pd.DataFrame:
        arr = pa.array(df["text"].astype(object), type=pa.string())
        n_tok = pc.add(pc.count_substring(arr, " "),
                       pa.scalar(1)).to_numpy(zero_copy_only=False)
        # distinct tokens per doc: one hash-dedup over the exploded
        # (row, token) pairs instead of a Python set per doc
        parts = pc.split_pattern(arr, " ")
        lens = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
        idx = np.repeat(np.arange(len(df), dtype=np.int64), lens)
        d = pd.DataFrame({
            "i": idx, "w": pc.list_flatten(parts).to_pandas().to_numpy()
        }).drop_duplicates()
        n_typ = np.zeros(len(df), np.int64)
        cnt = d.groupby("i").size()
        n_typ[cnt.index.to_numpy()] = cnt.to_numpy(np.int64)
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "n_tokens": n_tok.astype(np.int64),
            "n_types": n_typ,
            "ttr": np.round(
                n_typ / np.maximum(n_tok, 1).astype(np.float64), 6
            ),
        })

    out = ds.map_batches(ttr, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_TEXT_TTR = """
WITH t AS (
  SELECT doc_id,
         CAST(length(string_split(text, ' ')) AS BIGINT) AS n_tokens,
         CAST(length(list_distinct(string_split(text, ' '))) AS BIGINT)
           AS n_types
  FROM documents)
SELECT doc_id, n_tokens, n_types,
       ROUND(CAST(n_types AS DOUBLE) / greatest(n_tokens, 1), 6) AS ttr
FROM t ORDER BY doc_id
"""




def q_hapax_rate_by_source(sf_dir: str):
    """Hapax legomenon rate per source: each source's vocabulary size
    and the fraction of it appearing exactly ONCE in that source —
    the lexical-richness / synthetic-text tell (generated corpora run
    hapax-poor, scraped natural text hapax-rich).

    Per-batch vectorized (token, source) count partials hash tokens to
    the two int64 shingle keys (``shingles.shingle_keys``; strings
    never ride the shuffle) → ONE ``exchange.shuffle`` on ``k1`` (a
    token's every partial lands in one bucket, so the global
    count-==-1 test is exact in-bucket) → additive per-(bucket,
    source) vocab/hapax counters; the driver folds O(buckets ×
    sources) rows."""
    from crawler_tjce_ray.functions.shingles import shingle_keys

    nb = _nb_rows(sf_dir, 'documents')  # row-carrying exchange
    ds = _read_docs(sf_dir, ["source", "text"])

    def key_rows(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        g = pa.table({
            "tok": pc.list_flatten(toks),
            "source": pc.take(t["source"], pc.list_parent_indices(toks)),
        }).group_by(["tok", "source"], use_threads=False) \
            .aggregate([("tok", "count")])
        k1, k2 = shingle_keys(g["tok"].to_numpy(zero_copy_only=False))
        return pa.table({"k1": k1, "k2": k2, "source": g["source"],
                         "c": g["tok_count"]})

    def fold_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["k1", "k2", "source"], as_index=False)["c"].sum()
        s["hapax"] = (s["c"] == 1).astype("int64")
        return s.groupby("source", as_index=False).agg(
            vocab=("c", "size"), hapax=("hapax", "sum"))

    parts = exchange.shuffle(ds, "k1", nb, fold_bucket, combine=key_rows) \
        .to_pandas().groupby("source", as_index=False)[["vocab", "hapax"]].sum()
    out = pd.DataFrame({
        "source": parts["source"].astype(object),
        "vocab_size": parts["vocab"].astype("int64"),
        "hapax_count": parts["hapax"].astype("int64"),
        "hapax_rate": (parts["hapax"].to_numpy(np.float64)
                       / parts["vocab"].to_numpy(np.float64)).round(6),
    })
    return out.sort_values("source").reset_index(drop=True)


SQL_HAPAX_RATE = """
WITH tk AS (
  SELECT source, unnest(string_split(text, ' ')) AS tok FROM documents
), c AS (
  SELECT source, tok, COUNT(*) AS n FROM tk GROUP BY 1, 2
)
SELECT source, CAST(COUNT(*) AS BIGINT) AS vocab_size,
       CAST(COUNT(*) FILTER (n = 1) AS BIGINT) AS hapax_count,
       ROUND(CAST(COUNT(*) FILTER (n = 1) AS DOUBLE) / COUNT(*), 6)
         AS hapax_rate
FROM c GROUP BY source ORDER BY source
"""




def q_lang_purity_by_source(sf_dir: str):
    """Label-noise audit: per source, its MAJORITY language (ties to
    the lexicographically smallest — pinned on both engines), the
    share of docs carrying it, and the total — the "is this source's
    lang metadata trustworthy" check run before lang-filtered
    training mixes.  ``exchange.aggregate`` folds the contingency
    counts (|sources| × |langs| rows, independent of corpus size);
    purity is a ratio of exact ints rounded to 6 dp."""
    cells = exchange.aggregate(_read_docs(sf_dir, ["source", "lang"]),
                               ["source", "lang"], {"n": ("source", "count_all")})
    cells = cells.sort_values(["source", "n", "lang"],
                              ascending=[True, False, True],
                              kind="mergesort")
    top = cells.drop_duplicates("source")
    tot = cells.groupby("source", as_index=False)["n"].sum() \
        .rename(columns={"n": "n_docs"})
    out = top.merge(tot, on="source")
    return pd.DataFrame({
        "source": out["source"].astype(object),
        "majority_lang": out["lang"].astype(object),
        "n_docs": out["n_docs"].astype("int64"),
        "purity": (out["n"].to_numpy(np.float64)
                   / out["n_docs"].to_numpy(np.float64)).round(6),
    }).sort_values("source").reset_index(drop=True)


SQL_LANG_PURITY_BY_SOURCE = """
WITH c AS (
  SELECT source, lang, COUNT(*) AS n FROM documents GROUP BY 1, 2
), r AS (
  SELECT source, lang, n,
         row_number() OVER (PARTITION BY source
                            ORDER BY n DESC, lang) AS rk,
         SUM(n) OVER (PARTITION BY source) AS n_docs
  FROM c
)
SELECT source, lang AS majority_lang,
       CAST(n_docs AS BIGINT) AS n_docs,
       ROUND(CAST(n AS DOUBLE) / n_docs, 6) AS purity
FROM r WHERE rk = 1 ORDER BY source
"""


def q_char_class_profile(sf_dir: str):
    """Character-class profile per language: fractions of letters,
    digits, whitespace and other — the orthography sanity panel
    (digit-heavy "en" is probably tables, letter-less "zh" is
    mislabeled).  Zero-copy Arrow RE2 counts per batch, summed per
    lang by ``exchange.aggregate`` → driver ratios of exact ints,
    rounded to 6 dp."""
    def counts(t: pa.Table) -> pa.Table:
        txt = t["text"]
        return pa.table({
            "lang": t["lang"],
            "n_chars": pc.cast(pc.utf8_length(txt), pa.int64()),
            "letters": pc.cast(pc.count_substring_regex(
                txt, r"[\p{L}]"), pa.int64()),
            "digits": pc.cast(pc.count_substring_regex(
                txt, r"[0-9]"), pa.int64()),
            "spaces": pc.cast(pc.count_substring_regex(
                txt, r"\s"), pa.int64()),
        })

    p = exchange.aggregate(
        _read_docs(sf_dir, ["lang", "text"]), "lang",
        {c: (c, "sum") for c in ("n_chars", "letters", "digits", "spaces")},
        counts)
    nc = p["n_chars"].to_numpy(np.float64)
    other = (p["n_chars"] - p["letters"] - p["digits"] - p["spaces"]) \
        .to_numpy(np.float64)
    return pd.DataFrame({
        "lang": p["lang"].astype(object),
        "n_chars": p["n_chars"].astype("int64"),
        "letter_frac": (p["letters"].to_numpy(np.float64) / nc).round(6),
        "digit_frac": (p["digits"].to_numpy(np.float64) / nc).round(6),
        "space_frac": (p["spaces"].to_numpy(np.float64) / nc).round(6),
        "other_frac": (other / nc).round(6),
    })


SQL_CHAR_CLASS_PROFILE = r"""
WITH c AS (
  SELECT lang,
         CAST(length(text) AS BIGINT) AS n_chars,
         CAST(length(regexp_replace(text, '[^\p{L}]', '', 'g'))
              AS BIGINT) AS letters,
         CAST(length(regexp_replace(text, '[^0-9]', '', 'g'))
              AS BIGINT) AS digits,
         CAST(length(text) - length(regexp_replace(text, '\s', '', 'g'))
              AS BIGINT) AS spaces
  FROM documents
)
SELECT lang, CAST(SUM(n_chars) AS BIGINT) AS n_chars,
       ROUND(CAST(SUM(letters) AS DOUBLE) / SUM(n_chars), 6)
         AS letter_frac,
       ROUND(CAST(SUM(digits) AS DOUBLE) / SUM(n_chars), 6) AS digit_frac,
       ROUND(CAST(SUM(spaces) AS DOUBLE) / SUM(n_chars), 6) AS space_frac,
       ROUND(CAST(SUM(n_chars - letters - digits - spaces) AS DOUBLE)
             / SUM(n_chars), 6) AS other_frac
FROM c GROUP BY lang ORDER BY lang
"""


# ---------------------------------------------------------------------------
# language identification (stopword-vote heuristic) + confusion matrix
# ---------------------------------------------------------------------------

def q_lang_id_confusion(sf_dir: str):
    """Language-ID by stopword vote (n-gram heuristic family), then a
    confusion matrix against the labeled ``lang`` column.  The per-doc
    predict runs in ``exchange.aggregate``'s map; the key space is
    |langs|², so only O(blocks × |langs|²) partial rows reach the
    driver and no all-to-all runs."""
    order = ["en", "es", "fr", "de"]  # deterministic tie-break priority
    stop_arrs = {k: pa.array(LANG_STOPWORDS[k]) for k in order}

    def predict(t: pa.Table) -> pa.Table:
        # Vectorized stopword vote: one token explode, one is_in pass per
        # language, hits-per-doc via bincount on the explode's parent
        # indices.  Split on a literal space = the oracle convention.
        lists = pc.split_pattern(pc.cast(t["text"], pa.large_string()), " ")
        lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) else lists
        toks = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
        n = len(t)
        # hits[j, i] = stopword count of lang order[j] in doc i
        hits = np.stack([
            np.bincount(
                parents[pc.is_in(toks, value_set=stop_arrs[k])
                        .to_numpy(zero_copy_only=False)],
                minlength=n,
            )
            for k in order
        ])
        # argmax returns the FIRST max → ties resolve in `order` priority,
        # exactly the oracle's >= CASE chain; zero hits everywhere → unk.
        best = hits.argmax(axis=0)
        pred = np.array(order, dtype=object)[best]
        pred[hits.max(axis=0) == 0] = "unk"
        return pa.table({"lang": t["lang"], "lang_pred": pa.array(pred, pa.string())})

    return exchange.aggregate(_read_docs(sf_dir, ["text", "lang"]),
                              ["lang", "lang_pred"],
                              {"n": ("lang_pred", "count_all")}, predict)


def _hits_sql(lang: str) -> str:
    words = ",".join(f"'{w}'" for w in LANG_STOPWORDS[lang])
    return (
        f"length(list_filter(string_split(text,' '), x -> x IN ({words})))"
        f" AS h_{lang}"
    )


SQL_LANG_ID_CONFUSION = f"""
WITH h AS (
  SELECT lang, {_hits_sql('en')}, {_hits_sql('es')}, {_hits_sql('fr')},
         {_hits_sql('de')}
  FROM documents),
p AS (
  SELECT lang,
         CASE
           WHEN h_en >= h_es AND h_en >= h_fr AND h_en >= h_de AND h_en > 0
             THEN 'en'
           WHEN h_es >= h_fr AND h_es >= h_de AND h_es > 0 THEN 'es'
           WHEN h_fr >= h_de AND h_fr > 0 THEN 'fr'
           WHEN h_de > 0 THEN 'de'
           ELSE 'unk'
         END AS lang_pred
  FROM h)
SELECT lang, lang_pred, COUNT(*) AS n FROM p
GROUP BY lang, lang_pred ORDER BY lang, lang_pred
"""


# ---------------------------------------------------------------------------
# document fingerprinting
# ---------------------------------------------------------------------------

def normalize_text_series(s: pd.Series) -> pd.Series:
    """lower → trim → collapse whitespace (the dedup/fingerprint
    canonical form; analog of the reference's slugify normalization,
    schemas/entity_mapping.py:7-28).

    ``strip(" ")``, not ``strip()``: the oracle chain is DuckDB
    ``regexp_replace(lower(trim(text)), '\\s+', ' ', 'g')`` and
    ``trim`` strips SPACES only — a bare Python strip() also removes
    leading/trailing tabs/newlines where the oracle turns them into a
    boundary space, silently diverging on e.g. ``'a\\n'`` ('a' vs
    'a ')."""
    return (
        s.str.lower().str.strip(" ").str.replace(r"\s+", " ", regex=True)
    )


def q_doc_fingerprint(sf_dir: str):
    """Exact document fingerprint: md5 of the normalized text.  The
    digest loop is C-level hashlib over the normalized bytes."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        norm = normalize_text_series(df["text"])
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "fp": [hashlib.md5(x.encode()).hexdigest() for x in norm],
        })

    out = ds.map_batches(fp, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_DOC_FINGERPRINT = r"""
SELECT doc_id, md5(regexp_replace(lower(trim(text)), '\s+', ' ', 'g')) AS fp
FROM documents ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# winnowing fingerprint (rolling-hash; Schleimer et al. 2003) — non-SQL
# ---------------------------------------------------------------------------

_WINNOW_K = 5  # k-gram size (tokens)
_WINNOW_W = 4  # window size
_HASH_P = np.uint64(1099511628211)  # FNV-ish multiplier


def token_hashes(tokens: list[str]) -> np.ndarray:
    """Deterministic 64-bit token hashes (FNV-1a), vectorization-ready."""
    out = np.empty(len(tokens), dtype=np.uint64)
    for i, tok in enumerate(tokens):
        h = np.uint64(14695981039346656037)
        for b in tok.encode():
            h = np.uint64((int(h) ^ b) * 1099511628211 % (1 << 64))
        out[i] = h
    return out


def winnow_doc(tokens: list[str]) -> np.ndarray:
    """Winnowing: rolling polynomial hash over k-grams, min per sliding
    window, de-duplicated positions — the classic local fingerprint."""
    th = token_hashes(tokens)
    n = len(th)
    if n < _WINNOW_K:
        return np.unique(th) if n else np.empty(0, dtype=np.uint64)
    # polynomial rolling hash of k-grams, fully vectorized
    powers = np.array(
        [int(_HASH_P) ** i % (1 << 64) for i in range(_WINNOW_K)][::-1],
        dtype=np.uint64,
    )
    m = n - _WINNOW_K + 1
    idx = np.arange(m)[:, None] + np.arange(_WINNOW_K)[None, :]
    grams = (th[idx] * powers[None, :]).sum(axis=1, dtype=np.uint64)
    if m <= _WINNOW_W:
        return np.unique(grams[[int(np.argmin(grams))]])
    widx = np.arange(m - _WINNOW_W + 1)[:, None] + np.arange(_WINNOW_W)[None, :]
    windows = grams[widx]
    picks = widx[np.arange(len(widx)), windows.argmin(axis=1)]
    return np.unique(grams[np.unique(picks)])


def q_winnow_fingerprint(sf_dir: str):
    """Winnowing fingerprints per doc: count + xor-fold of the selected
    hashes (stable summary the driver can hash).  Non-SQL (rolling-hash
    windows aren't DuckDB-expressible) → rows-only check; kernel
    correctness is pinned by tests/test_textops.py."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            sel = winnow_doc(text.split())
            fold = np.uint64(0)
            for h in sel:
                fold ^= h
            rows.append((doc_id, len(sel), int(fold % np.uint64(1 << 63))))
        return pd.DataFrame(
            rows, columns=["doc_id", "n_fingerprints", "fp_fold"]
        ).astype({"n_fingerprints": "int64", "fp_fold": "int64"})

    out = ds.map_batches(fp, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# BM25 relevance scoring (Okapi) — the retrieval-scoring stage of a
# training-data pipeline (quality-by-relevance filtering, dataset
# curation against a query set)
# ---------------------------------------------------------------------------

BM25_TERMS = ["hash", "join", "stream", "vector"]
BM25_K1 = 1.2
BM25_B = 0.75


def bm25_scored_ds(sf_dir: str):
    """The streaming BM25 scorer as a Dataset of (doc_id, bm25) —
    shared by the full-ranking query and the RRF fusion's top-k
    partial path (which must never materialize the corpus).

    Distributed shape (two streaming passes, nothing materializes the
    corpus):

    1. *stats pass* — each batch emits ONE partial row (n_docs,
       total_len, df per query term); the driver sums the small
       partials and derives idf/avg_len constants;
    2. *score pass* — constants broadcast in the closure; each batch
       computes its rows' scores vectorized (token explode +
       term-membership groupby, no per-row Python).

    Tokens split on a LITERAL space (the repo-wide oracle convention);
    score rounded to 6 dp in both engines (log is the one libm-bound
    op; rounding removes last-ulp divergence)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    terms = BM25_TERMS

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        lens = toks.str.len()
        row = {"n_docs": len(df), "total_len": int(lens.sum())}
        for t in terms:
            row[f"df_{t}"] = int(toks.apply(lambda x, _t=t: _t in x).sum())
        return pd.DataFrame([row])

    parts = ds.map_batches(stats, batch_format="pandas").to_pandas().sum()
    n_docs = int(parts["n_docs"])
    avg_len = parts["total_len"] / n_docs
    idf = {
        t: np.log(1.0 + (n_docs - parts[f"df_{t}"] + 0.5) / (parts[f"df_{t}"] + 0.5))
        for t in terms
    }

    def score(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        lens = toks.str.len().to_numpy(dtype=np.float64)
        ex = toks.explode()
        hit = ex[ex.isin(terms)]
        # tf matrix: rows = original index, cols = term
        tf = (
            hit.groupby([hit.index, hit]).size().unstack(fill_value=0)
            .reindex(index=df.index, columns=terms, fill_value=0)
            .to_numpy(dtype=np.float64)
        )
        denom = tf + BM25_K1 * (1 - BM25_B + BM25_B * lens[:, None] / avg_len)
        w = np.array([idf[t] for t in terms])
        s = (w[None, :] * tf * (BM25_K1 + 1) / denom).sum(axis=1)
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "bm25": np.round(s, 6),
        })

    return ds.map_batches(score, batch_format="pandas")


def q_bm25_score(sf_dir: str):
    """Okapi BM25 of every document against a fixed query-term set
    (see ``bm25_scored_ds`` for the two-pass distributed shape)."""
    out = bm25_scored_ds(sf_dir).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


_BM25_TERMS_SQL = ", ".join(f"'{t}'" for t in BM25_TERMS)
# the BM25 oracles' token, corpus-stats and term-frequency CTEs (the
# document-frequency CTE follows) and their per-doc score; the rrf
# oracle nests the score one level deeper
_SQL_BM25_TF = f"""WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), stats AS (
  SELECT COUNT(*) AS n_docs, AVG(length(ws)) AS avg_len FROM toks
), tf AS (
  SELECT t.doc_id, q.term,
         length(list_filter(t.ws, x -> x = q.term)) AS tf,
         length(t.ws) AS dl
  FROM toks t CROSS JOIN (SELECT unnest([{_BM25_TERMS_SQL}]) AS term) q
), df AS ("""
_SQL_BM25_SUM = f"""SELECT tf.doc_id,
       ROUND(SUM(
         ln(1.0 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
         * tf.tf * ({BM25_K1} + 1)
         / (tf.tf + {BM25_K1} * (1 - {BM25_B} + {BM25_B} * tf.dl / s.avg_len))
       ), 6) AS bm25
FROM tf JOIN df USING (term) CROSS JOIN stats s
GROUP BY tf.doc_id"""


SQL_BM25_SCORE = f"""
{_SQL_BM25_TF}
  SELECT term, SUM(CASE WHEN tf > 0 THEN 1 ELSE 0 END) AS df FROM tf GROUP BY term
)
{_SQL_BM25_SUM} ORDER BY tf.doc_id
"""


# ---------------------------------------------------------------------------
# training-sequence preparation: fixed-size chunking and sequence packing
# ---------------------------------------------------------------------------

CHUNK_SIZE = 64
CHUNK_STRIDE = 48  # = size - overlap(16)
PACK_CAPACITY = 256


def q_doc_chunks(sf_dir: str):
    """Fixed-size token chunking with overlap (the context-window
    splitter of a training pipeline): chunks of ``CHUNK_SIZE`` tokens
    every ``CHUNK_STRIDE`` tokens, last chunk ragged.

    Embarrassingly parallel per-doc map — chunk starts are pure
    arithmetic on the token count, so the op streams block by block
    and the output is one row per (doc, chunk)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def chunks(df: pd.DataFrame) -> pd.DataFrame:
        ids, cidx, texts, ns = [], [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = text.split(" ")
            n = len(toks)
            for i, s in enumerate(range(0, max(1, n), CHUNK_STRIDE)):
                if s >= n:
                    break
                piece = toks[s : s + CHUNK_SIZE]
                ids.append(doc_id)
                cidx.append(i)
                texts.append(" ".join(piece))
                ns.append(len(piece))
        return pd.DataFrame({
            "doc_id": pd.Series(ids, dtype="int64"),
            "chunk_idx": pd.Series(cidx, dtype="int64"),
            "n_tokens": pd.Series(ns, dtype="int64"),
            "chunk_text": pd.Series(texts, dtype="object"),
        })

    out = ds.map_batches(chunks, batch_format="pandas").to_pandas()
    return out.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)


SQL_DOC_CHUNKS = f"""
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
)
SELECT doc_id,
       CAST(i AS BIGINT) AS chunk_idx,
       CAST(least({CHUNK_SIZE}, length(ws) - i*{CHUNK_STRIDE}) AS BIGINT)
         AS n_tokens,
       array_to_string(ws[i*{CHUNK_STRIDE}+1 : i*{CHUNK_STRIDE}+{CHUNK_SIZE}], ' ')
         AS chunk_text
FROM toks,
     LATERAL (SELECT unnest(generate_series(
         0, CAST(floor((greatest(length(ws),1)-1)/{CHUNK_STRIDE}) AS INT))) AS i)
WHERE i*{CHUNK_STRIDE} < length(ws)
ORDER BY doc_id, chunk_idx
"""


def _doc_lens(df: pd.DataFrame) -> pd.Series:
    """Per-doc token count clipped to the packing capacity (the
    truncation rule shared by the global and sharded packers)."""
    return (
        df["text"].str.split(" ").str.len()
        .clip(upper=PACK_CAPACITY).astype("int64")
    )


def _greedy_pack(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sequential greedy fold: lengths (in order) → (seq, offset).
    A doc that does not fit starts the next sequence."""
    seq = np.empty(len(lengths), dtype=np.int64)
    off = np.empty(len(lengths), dtype=np.int64)
    cur_seq, cur_off = 0, 0
    for i, ln in enumerate(lengths):
        if cur_off + ln > PACK_CAPACITY and cur_off > 0:
            cur_seq += 1
            cur_off = 0
        seq[i] = cur_seq
        off[i] = cur_off
        cur_off += ln
    return seq, off


def q_pack_sequences(sf_dir: str):
    """Greedy sequence packing (§2.9 streaming-shaped): concatenate
    docs in doc_id order into training sequences of ``PACK_CAPACITY``
    tokens; a doc that does not fit starts the next sequence; docs
    longer than the capacity are truncated to it.

    Distributed shape: token counts are computed per batch (the only
    pass over text); the packing fold itself is sequential by
    definition and runs on the driver over the per-doc LENGTH vector
    only (8 bytes/doc — never the text).  At corpus scale the same
    fold runs per deterministic shard with shard-prefixed sequence
    ids; the global form here is what the SQL oracle (a recursive-CTE
    scan) can express."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def lens(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "len": _doc_lens(df),
        })

    d = (
        ds.map_batches(lens, batch_format="pandas")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    seq, off = _greedy_pack(d["len"].to_numpy())
    return pd.DataFrame({
        "doc_id": d["doc_id"],
        "seq_id": seq,
        "offset": off,
        "n_tokens": d["len"],
    })


def q_pack_sequences_sharded(sf_dir: str, n_shards: int = 16):
    """The corpus-scale form of ``q_pack_sequences``: the greedy fold
    runs independently per deterministic ``doc_id % n_shards`` shard
    (coarse groups, vectorized length pass), and sequence ids are
    shard-prefixed (``shard << 40 | local``) so no cross-shard
    coordination exists at any point.  The shard is a true per-key
    group — the fold is sequential over ONE shard's docs — so it
    stays on ``groupby("shard").map_groups`` rather than
    ``exchange.shuffle``, whose buckets mix keys (like
    ``dedup_embedding_nn``'s label blocks).  Fully deterministic, so
    it carries its own oracle: a per-shard recursive-CTE scan
    (PARTITION the row numbers by shard, recurse within the shard)
    reproduces the shard-local greedy folds exactly."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def lens(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        return pd.DataFrame({
            "doc_id": ids,
            "shard": ids % n_shards,
            "len": _doc_lens(df),
        })

    def pack_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id").reset_index(drop=True)
        shard = int(g["shard"].iloc[0])
        seq, off = _greedy_pack(g["len"].to_numpy())
        return pd.DataFrame({
            "doc_id": g["doc_id"],
            "seq_id": (np.int64(shard) << 40) | seq,
            "offset": off,
            "n_tokens": g["len"],
        })

    out = (
        ds.map_batches(lens, batch_format="pandas")
        .groupby("shard")
        .map_groups(pack_shard, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_PACK_SEQUENCES = f"""
WITH RECURSIVE d AS (
  SELECT doc_id,
         least(CAST(length(string_split(text, ' ')) AS BIGINT),
               {PACK_CAPACITY}) AS len,
         row_number() OVER (ORDER BY doc_id) AS rn
  FROM documents
), pack(rn, doc_id, seq_id, off, len) AS (
  SELECT rn, doc_id, CAST(0 AS BIGINT), CAST(0 AS BIGINT), len
  FROM d WHERE rn = 1
  UNION ALL
  SELECT d.rn, d.doc_id,
         CASE WHEN p.off + p.len + d.len <= {PACK_CAPACITY}
              THEN p.seq_id ELSE p.seq_id + 1 END,
         CASE WHEN p.off + p.len + d.len <= {PACK_CAPACITY}
              THEN p.off + p.len ELSE CAST(0 AS BIGINT) END,
         d.len
  FROM pack p JOIN d ON d.rn = p.rn + 1
)
SELECT doc_id, seq_id, off AS "offset", len AS n_tokens
FROM pack ORDER BY doc_id
"""


PACK_SHARDS = 16

SQL_PACK_SEQUENCES_SHARDED = f"""
WITH RECURSIVE d AS (
  SELECT doc_id, doc_id % {PACK_SHARDS} AS shard,
         least(CAST(length(string_split(text, ' ')) AS BIGINT),
               {PACK_CAPACITY}) AS len,
         row_number() OVER (PARTITION BY doc_id % {PACK_SHARDS}
                            ORDER BY doc_id) AS rn
  FROM documents
), pack(shard, rn, doc_id, local_seq, off, len) AS (
  SELECT shard, rn, doc_id, CAST(0 AS BIGINT), CAST(0 AS BIGINT), len
  FROM d WHERE rn = 1
  UNION ALL
  SELECT d.shard, d.rn, d.doc_id,
         CASE WHEN p.off + p.len + d.len <= {PACK_CAPACITY}
              THEN p.local_seq ELSE p.local_seq + 1 END,
         CASE WHEN p.off + p.len + d.len <= {PACK_CAPACITY}
              THEN p.off + p.len ELSE CAST(0 AS BIGINT) END,
         d.len
  FROM pack p JOIN d ON d.shard = p.shard AND d.rn = p.rn + 1
)
SELECT doc_id, shard * 1099511627776 + local_seq AS seq_id,
       off AS "offset", len AS n_tokens
FROM pack ORDER BY doc_id
"""


TOP_TERMS_K = 3


def q_top_terms_per_lang(sf_dir: str):
    """Grouped top-k vocabulary: the k most frequent tokens per
    language with a deterministic (count DESC, token ASC) tie-break —
    the corpus-inspection query a curation run starts from.  Per-block
    partial counts keyed (lang, token) shrink the shuffle to the
    block's DISTINCT vocabulary (not its token stream); ONE
    ``exchange.shuffle`` on the token sums the partials in-bucket and
    each bucket emits its per-lang top-k partial, so the driver merges
    ≤ buckets·|langs|·k rows no matter the corpus size.

    Why a token-hash exchange and not a groupby on the token: the key
    space is the vocabulary, which grows with the corpus (Heaps' law:
    10⁷–10⁸ distinct tokens at 100 TB), and Ray 2.49's sort-based
    groupby/aggregate degenerates on high-cardinality keys (68 s at
    116k keys measured — the part_cooccurrence finding).  A token
    lands in exactly one bucket for any fan-out, so in-bucket sums
    and top-k partials are globally exact; the fan-out is sized from
    input bytes, since the partials carry token strings."""
    nb = _nb_rows(sf_dir, 'documents')  # token strings ride
    ds = _read_docs(sf_dir, ["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        # tokenize the whole batch once (zero-copy Arrow), then count
        # per (lang, token)
        idx, w = tokens_flat(t.column("text"))
        lang = t.column("lang").to_numpy(zero_copy_only=False)
        c = pd.DataFrame({"lang": lang.astype(object)[idx], "token": w}) \
            .groupby(["lang", "token"], as_index=False).size()
        return pa.Table.from_pandas(c.rename(columns={"size": "c"}),
                                    preserve_index=False)

    def sum_topk_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["lang", "token"], as_index=False)["c"].sum()
        return s.sort_values(["lang", "c", "token"],
                             ascending=[True, False, True],
                             kind="mergesort").groupby("lang").head(TOP_TERMS_K)

    # a (lang, token)'s whole count lives in one token bucket, so the
    # global per-lang top-k is inside the union of the bucket-local
    # per-lang top-k partials; the driver merges ≤ nb·|langs|·k rows
    parts = exchange.to_pandas(
        exchange.shuffle(ds, "token", nb, sum_topk_in_bucket, combine=partial),
        lang=object, token=object, c="int64")
    top = parts.sort_values(["lang", "c", "token"],
                            ascending=[True, False, True],
                            kind="mergesort").groupby("lang").head(TOP_TERMS_K)
    return pd.DataFrame({
        "lang": top["lang"],
        "token": top["token"],
        "cnt": top["c"].astype("int64"),
        "rk": top.groupby("lang").cumcount().astype("int64") + 1,
    }).reset_index(drop=True)


SQL_TOP_TERMS_PER_LANG = """
WITH t AS (
  SELECT lang,
         unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token
  FROM documents
), c AS (
  SELECT lang, token, CAST(count(*) AS BIGINT) AS cnt
  FROM t GROUP BY 1, 2
), r AS (
  SELECT lang, token, cnt,
         CAST(row_number() OVER (
           PARTITION BY lang ORDER BY cnt DESC, token
         ) AS BIGINT) AS rk
  FROM c
)
SELECT lang, token, cnt, rk FROM r WHERE rk <= 3 ORDER BY lang, rk
"""


def q_vocab_overlap_sources(sf_dir: str):
    """Pairwise vocabulary Jaccard across sources — the corpus-mixture
    diagnostic ("how much does src A's vocabulary overlap src B's?")
    that guides dedup thresholds and mixture weights.

    Scale shape: per-block DISTINCT (source, token) partials → ONE
    ``exchange.shuffle`` on the token (a token-hash exchange, not a
    groupby on the token: the key space is the vocabulary, which
    grows with the corpus — see ``q_top_terms_per_lang``) → in-bucket
    exact dedup + per-source vocab-size and per-pair common-token
    partials → the driver merges ≤ buckets·|sources|² rows.  The
    corpus text never rides a shuffle."""
    import itertools

    nb = _nb_rows(sf_dir, 'documents')  # token strings ride
    ds = _read_docs(sf_dir, ["source", "text"])

    def distinct_partial(t: pa.Table) -> pa.Table:
        # one whole-batch tokenize, then distinct (source, token) pairs
        idx, w = tokens_flat(t.column("text"))
        srcs = t.column("source").to_numpy(zero_copy_only=False)
        out = pd.DataFrame({
            "source": srcs.astype(object)[idx], "token": w,
        })
        # null-source docs never enter the overlap matrix (the old
        # per-source pandas groupby dropped NaN keys; bucket_stats
        # sorts source labels and cannot order None against str)
        out = out.loc[out["source"].notna()]
        return pa.Table.from_pandas(out.drop_duplicates(ignore_index=True),
                                    preserve_index=False)

    def bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
        """Exact per-bucket partials from the globally-deduped
        (source, token) set this bucket owns: per-source vocab sizes
        (rows with ``source_b == ""``) and per-pair common-token
        counts — |S|²/2 vectorized isin probes, S = #sources."""
        d = g.drop_duplicates(["source", "token"])
        srcs = sorted(d["source"].unique())
        tok_by_src = {
            s: pd.Index(d.loc[d["source"] == s, "token"]) for s in srcs
        }
        a_col, b_col, n_col = [], [], []
        for s in srcs:
            a_col.append(s); b_col.append(""); n_col.append(len(tok_by_src[s]))
        for a, b in itertools.combinations(srcs, 2):
            a_col.append(a); b_col.append(b)
            n_col.append(int(tok_by_src[a].isin(tok_by_src[b]).sum()))
        return pd.DataFrame({
            "source_a": pd.Series(a_col, dtype="string"),
            "source_b": pd.Series(b_col, dtype="string"),
            "n": pd.Series(n_col, dtype="int64"),
        })

    # a token's rows all land in one bucket, so in-bucket dedup is
    # globally exact and the driver merges ≤ nb·|S|² partial rows
    parts = exchange.to_pandas(
        exchange.shuffle(ds, "token", nb, bucket_stats,
                         combine=distinct_partial),
        source_a=object, source_b=object, n="int64")
    agg = parts.groupby(["source_a", "source_b"], as_index=False)["n"].sum()
    vsizes = (
        agg[agg["source_b"] == ""].set_index("source_a")["n"]
    )
    out = agg[(agg["source_b"] != "") & (agg["n"] > 0)].rename(
        columns={"n": "n_common"}
    ).copy()
    va = out["source_a"].map(vsizes).to_numpy("int64")
    vb = out["source_b"].map(vsizes).to_numpy("int64")
    inter = out["n_common"].to_numpy("int64")
    out["n_common"] = inter
    out["jaccard"] = inter / (va + vb - inter)
    out["source_a"] = out["source_a"].astype(object)
    out["source_b"] = out["source_b"].astype(object)
    return (
        out[["source_a", "source_b", "n_common", "jaccard"]]
        .sort_values(["source_a", "source_b"])
        .reset_index(drop=True)
    )


SQL_VOCAB_OVERLAP_SOURCES = """
WITH toks AS (
  SELECT source,
         unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token
  FROM documents
), st AS (
  SELECT DISTINCT source, token FROM toks
), v AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS n FROM st GROUP BY 1
), p AS (
  SELECT a.source AS source_a, b.source AS source_b,
         CAST(COUNT(*) AS BIGINT) AS n_common
  FROM st a JOIN st b ON a.token = b.token AND a.source < b.source
  GROUP BY 1, 2
)
SELECT p.source_a, p.source_b, p.n_common,
       CAST(p.n_common AS DOUBLE) / (va.n + vb.n - p.n_common) AS jaccard
FROM p
JOIN v va ON va.source = p.source_a
JOIN v vb ON vb.source = p.source_b
ORDER BY 1, 2
"""


def q_lang_entropy_by_source(sf_dir: str):
    """Corpus-mix diagnostics: Shannon entropy (bits) of the language
    distribution inside each source — the "is this source monolingual
    or mixed" probe a curation pipeline runs before sampling weights.
    ``exchange.aggregate`` folds the (source, lang) counts; the key
    space is |sources|×|langs| (data-independent and tiny)."""
    parts = exchange.aggregate(_read_docs(sf_dir, ["source", "lang"]),
                               ["source", "lang"], {"n": ("lang", "count_all")})
    tot = parts.groupby("source")["n"].transform("sum")
    p = parts["n"] / tot
    parts["plogp"] = p * np.log2(p)
    out = parts.groupby("source").agg(
        n_docs=("n", "sum"), n_langs=("lang", "count"),
        plogp=("plogp", "sum"),
    ).reset_index()
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_langs"] = out["n_langs"].astype("int64")
    # -Σ p·log2 p, negated after the sum as the oracle does: a
    # one-language source is -0.0, not 0.0
    out["lang_entropy_bits"] = np.round(-out.pop("plogp"), 6)
    return out


SQL_LANG_ENTROPY_BY_SOURCE = """
WITH c AS (
  SELECT source, lang, CAST(COUNT(*) AS DOUBLE) AS n
  FROM documents GROUP BY 1, 2),
t AS (SELECT source, SUM(n) AS tot FROM c GROUP BY 1)
SELECT c.source, CAST(SUM(c.n) AS BIGINT) AS n_docs,
       CAST(COUNT(*) AS BIGINT) AS n_langs,
       round(-SUM((c.n / t.tot) * log2(c.n / t.tot)), 6)
         AS lang_entropy_bits
FROM c JOIN t USING (source) GROUP BY c.source ORDER BY c.source
"""


TRI_TOP_K = 20


def q_char_trigram_topk(sf_dir: str):
    """Per-language top-20 character trigrams — the feature table a
    fastText-style language-ID model trains on.  The per-batch kernel
    is fully vectorized: each batch's texts concatenate once, decode to
    a UTF-32 codepoint array, and all trigrams fall out of three
    shifted views packed into one int64 key (3 × 21 bits covers the
    whole codepoint range); windows straddling a document boundary are
    masked by position, not by a sentinel value, so NUL-containing text
    cannot corrupt counts.  Trigram partials merge per (lang, key) —
    the key space is alphabet-bounded, not corpus-bounded — and the
    packed-int ascending tie-break equals the oracle's string ordering
    because UTF-8 byte order preserves codepoint order."""
    ds = _read_docs(sf_dir, ["lang", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for lang, g in df.groupby("lang", sort=False):
            texts = g["text"].tolist()
            joined = "".join(texts)
            if len(joined) < 3:
                continue
            cp = np.frombuffer(
                joined.encode("utf-32-le"), dtype=np.uint32
            ).astype(np.int64)
            a, b, c = cp[:-2], cp[1:-1], cp[2:]
            packed = (a << np.int64(42)) | (b << np.int64(21)) | c
            # mask windows that cross a document boundary
            lens = np.fromiter((len(t) for t in texts), dtype=np.int64,
                               count=len(texts))
            starts = np.cumsum(lens)[:-1]
            valid = np.ones(len(packed), dtype=bool)
            for off in (1, 2):
                idx = starts - off
                valid[idx[(idx >= 0) & (idx < len(packed))]] = False
            u, cnt = np.unique(packed[valid], return_counts=True)
            outs.append(pd.DataFrame({
                "lang": lang, "tri_key": u, "n": cnt.astype(np.int64),
            }))
        if not outs:
            return pd.DataFrame({
                "lang": pd.Series([], dtype="object"),
                "tri_key": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
            })
        return pd.concat(outs, ignore_index=True)

    parts = exchange.to_pandas(
        ds.map_batches(partial, batch_format="pandas"),
        lang=object, tri_key="int64", n="int64",
    ).groupby(["lang", "tri_key"], as_index=False)["n"].sum()
    parts = parts.sort_values(["lang", "n", "tri_key"],
                              ascending=[True, False, True],
                              kind="mergesort")
    top = parts.groupby("lang", sort=False).head(TRI_TOP_K)
    key = top["tri_key"].to_numpy(np.int64)
    tri = [
        chr((k >> 42) & 0x1FFFFF) + chr((k >> 21) & 0x1FFFFF)
        + chr(k & 0x1FFFFF)
        for k in key
    ]
    return pd.DataFrame({
        "lang": top["lang"].astype("object").to_numpy(),
        "tri": tri,
        "n": top["n"].astype("int64").to_numpy(),
    }).reset_index(drop=True)


SQL_CHAR_TRIGRAM_TOPK = f"""
WITH idx AS (
  SELECT lang, text,
         unnest(range(1, greatest(length(text) - 1, 1))) AS i
  FROM documents),
tri AS (SELECT lang, substr(text, CAST(i AS INT), 3) AS tri FROM idx),
c AS (SELECT lang, tri, CAST(COUNT(*) AS BIGINT) AS n FROM tri GROUP BY 1, 2)
SELECT lang, tri, n FROM (
  SELECT lang, tri, n,
         row_number() OVER (PARTITION BY lang ORDER BY n DESC, tri) AS rk
  FROM c) WHERE rk <= {TRI_TOP_K}
ORDER BY lang, n DESC, tri
"""


def token_counts(ds) -> pd.DataFrame:
    """Whole-corpus (tok, n) counts of the space-split ``text`` of
    ``ds``, n descending then tok: each batch's one Arrow pass (split →
    flatten → group count; the pandas explode+value_counts version
    built Python string objects) emits its own counts, and the driver
    sums the small partials — the token stream never shuffles."""

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(t["text"], " "))
        g = pa.table({"tok": toks}).group_by("tok").aggregate([
            ("tok", "count"),
        ])
        return pa.table({
            "tok": g["tok"], "n": pc.cast(g["tok_count"], pa.int64()),
        })

    g = ds.map_batches(partial, batch_format="pyarrow").to_pandas() \
        .groupby("tok", as_index=False)["n"].sum()
    g["n"] = g["n"].astype("int64")
    return g.sort_values(["n", "tok"], ascending=[False, True],
                         kind="mergesort")


def q_zipf_slope(sf_dir: str):
    """Corpus health check: the Zipf exponent — the slope of
    log-frequency on log-rank over the whole-corpus unigram table
    (natural text sits near −1; boilerplate-heavy or deduplicated-away
    corpora drift).  Token counts come from the same per-batch Arrow
    combiner as ``token_histogram``; the rank/regression finish is
    O(vocabulary) on the driver (at web scale the vocabulary merge
    rides the existing token-bucket shuffle of ``unigram_logprob``
    before this finish)."""
    g = token_counts(_read_docs(sf_dir, ["text"]))
    n = g["n"].to_numpy(np.float64)
    rank = np.arange(1, len(g) + 1, dtype=np.float64)
    x, y = np.log(rank), np.log(n)
    xc, yc = x - x.mean(), y - y.mean()
    slope = float((xc * yc).sum() / (xc * xc).sum())
    return pd.DataFrame({
        "n_types": pd.Series([len(g)], dtype="int64"),
        "zipf_slope": [round(slope, 6)],
    })


SQL_ZIPF_SLOPE = """
WITH f AS (
  SELECT tok, CAST(COUNT(*) AS DOUBLE) AS n
  FROM (SELECT unnest(string_split(text, ' ')) AS tok FROM documents) t
  GROUP BY tok),
r AS (SELECT n, row_number() OVER (ORDER BY n DESC, tok) AS rank FROM f)
SELECT CAST(COUNT(*) AS BIGINT) AS n_types,
       round(regr_slope(ln(n), ln(rank)), 6) AS zipf_slope
FROM r
"""


QUERIES = {
    "token_count": q_token_count,
    "vocab_overlap_sources": q_vocab_overlap_sources,
    "doc_chunks": q_doc_chunks,
    "pack_sequences": q_pack_sequences,
    "pack_sequences_sharded": q_pack_sequences_sharded,
    "text_quality": q_text_quality,
    "text_ttr": q_text_ttr,
    "hapax_rate_by_source": q_hapax_rate_by_source,
    "lang_purity_by_source": q_lang_purity_by_source,
    "char_class_profile": q_char_class_profile,
    "lang_id_confusion": q_lang_id_confusion,
    "doc_fingerprint": q_doc_fingerprint,
    "winnow_fingerprint": q_winnow_fingerprint,
    "bm25_score": q_bm25_score,
    "top_terms_per_lang": q_top_terms_per_lang,
    "lang_entropy_by_source": q_lang_entropy_by_source,
    "char_trigram_topk": q_char_trigram_topk,
    "zipf_slope": q_zipf_slope,
}

ORACLE_SQL = {
    "token_count": SQL_TOKEN_COUNT,
    "doc_chunks": SQL_DOC_CHUNKS,
    "pack_sequences": SQL_PACK_SEQUENCES,
    "pack_sequences_sharded": SQL_PACK_SEQUENCES_SHARDED,
    "text_quality": SQL_TEXT_QUALITY,
    "text_ttr": SQL_TEXT_TTR,
    "hapax_rate_by_source": SQL_HAPAX_RATE,
    "lang_purity_by_source": SQL_LANG_PURITY_BY_SOURCE,
    "char_class_profile": SQL_CHAR_CLASS_PROFILE,
    "lang_id_confusion": SQL_LANG_ID_CONFUSION,
    "doc_fingerprint": SQL_DOC_FINGERPRINT,
    "bm25_score": SQL_BM25_SCORE,
    "top_terms_per_lang": SQL_TOP_TERMS_PER_LANG,
    "vocab_overlap_sources": SQL_VOCAB_OVERLAP_SOURCES,
    "lang_entropy_by_source": SQL_LANG_ENTROPY_BY_SOURCE,
    "char_trigram_topk": SQL_CHAR_TRIGRAM_TOPK,
    "zipf_slope": SQL_ZIPF_SLOPE,
}
