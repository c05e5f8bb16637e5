"""Web-corpus curation operators over the ``documents`` table — the
filter/scrub stages a webtext training-data pipeline runs between
crawl and tokenization: PII scrubbing, Gopher-style repetition
filters, benchmark decontamination, and percentile-based quality
cuts.

Same discipline as ``textops``: every stage is a stateless
``map_batches`` over Arrow/pandas batches with vectorized kernels
(RE2 via pyarrow.compute, pandas explode/groupby — no Python loop
over rows); cross-doc state (the benchmark n-gram set, the n_chars
histogram) is either broadcast once via ``ray.put`` or reduced by
``exchange.aggregate``.  At 100 TB every query here streams block by
block; the only driver-side state is O(distinct n-grams of the
benchmark set) and O(distinct n_chars values).

Cross-doc keys that grow with the corpus go through
``exchange.shuffle``, with the per-batch partial as its combine: the
word bigrams of ``bigram_logprob`` (and its distinct-word count) on
the word ``w1``, ``curation_pipeline``'s dedup winners on the text
digest's uint64 prefix, and the distinct word-8-gram keys of
``ngram_novelty`` and ``vocab_growth`` (one ``_doc_shingle_keys``
partial) on the digest half ``k1``.  ``sample_to_budget`` is the one
true per-key group (one budget per source) and stays on
``groupby("source").map_groups``.  The unigram-LM scorers share one
vocabulary partial (``_vocab``) and one broadcast scorer
(``_doc_means``).  Every driver read of partials that can all be
empty — a corpus with no word has no token, gram or bigram — goes
through ``exchange.to_pandas`` with its declared columns.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from crawler_tjce_ray.pipelines import exchange
from crawler_tjce_ray.pipelines.relational import _nb_rows
from crawler_tjce_ray.pipelines.textops import _read_docs

# ---------------------------------------------------------------------------
# PII redaction (email / IPv4 / phone)
# ---------------------------------------------------------------------------

# Both pyarrow.compute and DuckDB run RE2, so counts and replacements
# are byte-identical between the Ray pipeline and the oracle.
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PHONE_RE = r"\+?\d{3}[-. ]\d{3,4}[-. ]\d{4}"


def q_pii_redact(sf_dir: str):
    """PII scrub: count and redact emails, IPv4 addresses and
    phone-shaped numbers per document.  Counts are taken on the
    original text; replacements apply in a fixed order
    (email → ip → phone) so the oracle's nested ``regexp_replace``
    chain produces the same bytes."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def scrub(t: pa.Table) -> pa.Table:
        text = t["text"]
        clean = pc.replace_substring_regex(text, EMAIL_RE, "<EMAIL>")
        clean = pc.replace_substring_regex(clean, IPV4_RE, "<IP>")
        clean = pc.replace_substring_regex(clean, PHONE_RE, "<PHONE>")
        return pa.table({
            "doc_id": t["doc_id"],
            "n_emails": pc.cast(pc.count_substring_regex(text, EMAIL_RE), pa.int64()),
            "n_ipv4": pc.cast(pc.count_substring_regex(text, IPV4_RE), pa.int64()),
            "n_phones": pc.cast(pc.count_substring_regex(text, PHONE_RE), pa.int64()),
            "clean_text": clean,
        })

    out = ds.map_batches(scrub, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_PII_REDACT = rf"""
SELECT doc_id,
       CAST(length(regexp_extract_all(text, '{EMAIL_RE}')) AS BIGINT) AS n_emails,
       CAST(length(regexp_extract_all(text, '{IPV4_RE}')) AS BIGINT) AS n_ipv4,
       CAST(length(regexp_extract_all(text, '{PHONE_RE}')) AS BIGINT) AS n_phones,
       regexp_replace(
         regexp_replace(
           regexp_replace(text, '{EMAIL_RE}', '<EMAIL>', 'g'),
           '{IPV4_RE}', '<IP>', 'g'),
         '{PHONE_RE}', '<PHONE>', 'g') AS clean_text
FROM documents ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Gopher/C4-style repetition statistics
# ---------------------------------------------------------------------------

def q_repetition_stats(sf_dir: str):
    """Repetition filter inputs (Gopher §A1.1 analog): per document,
    the fraction of lines that are duplicates of an earlier line and
    the fraction of characters sitting inside duplicated lines.

    Vectorized per batch: split → ``explode`` → one
    ``groupby(doc_id, line)`` — never a Python loop over rows.  All
    ratios are IEEE divisions of exact integer counts."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        ex = pd.DataFrame({
            "doc_id": df["doc_id"],
            "line": df["text"].str.split("\n"),
        }).explode("line", ignore_index=True)
        ex["len"] = ex["line"].str.len().astype("int64")
        g = ex.groupby(["doc_id", "line"], as_index=False, sort=False).agg(
            c=("len", "size"), len=("len", "first")
        )
        g["cl"] = g["c"] * g["len"]
        g["dup_cl"] = np.where(g["c"] > 1, g["cl"], 0)
        a = g.groupby("doc_id", as_index=False).agg(
            n_lines=("c", "sum"),
            n_distinct=("c", "size"),
            dup_chars=("dup_cl", "sum"),
            tot_chars=("cl", "sum"),
        )
        return pd.DataFrame({
            "doc_id": a["doc_id"],
            "n_lines": a["n_lines"].astype("int64"),
            "dup_line_frac": 1.0 - a["n_distinct"].to_numpy(np.float64)
            / a["n_lines"].to_numpy(np.float64),
            "dup_char_frac": np.where(
                a["tot_chars"] > 0,
                a["dup_chars"].to_numpy(np.float64)
                / np.maximum(a["tot_chars"].to_numpy(np.float64), 1.0),
                0.0,
            ),
        })

    out = ds.map_batches(stats, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_REPETITION_STATS = """
WITH l AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS line FROM documents
), g AS (
  SELECT doc_id, line, COUNT(*) AS c, length(line) AS len
  FROM l GROUP BY doc_id, line
), a AS (
  SELECT doc_id,
         CAST(SUM(c) AS BIGINT) AS n_lines,
         CAST(COUNT(*) AS BIGINT) AS n_distinct,
         SUM(CASE WHEN c > 1 THEN c * len ELSE 0 END) AS dup_chars,
         SUM(c * len) AS tot_chars
  FROM g GROUP BY doc_id
)
SELECT doc_id, n_lines,
       1.0 - CAST(n_distinct AS DOUBLE) / n_lines AS dup_line_frac,
       CASE WHEN tot_chars = 0 THEN 0.0
            ELSE CAST(dup_chars AS DOUBLE) / tot_chars END AS dup_char_frac
FROM a ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# top word-bigram character fraction (Gopher §A1.1)
# ---------------------------------------------------------------------------

WORD_RE = r"[a-z0-9]+"


def _explode_words(b) -> pd.DataFrame:
    """(doc_id, word) rows in document order, per-doc order preserved
    so groupby().shift() forms n-grams.  Tokenization is zero-copy
    Arrow RE2 — one ``utf8_lower`` + ``split_pattern_regex`` on the
    complement class (equivalent to findall(WORD_RE); equality pinned
    in tests) over the whole batch, then a numpy repeat for doc ids —
    ~2× the pandas findall/explode path with no per-row Python regex.
    This helper sits under most corpus-touching text kernels (token
    counts, n-grams, BM25/TF-IDF, inverted index), so it IS the text
    hot path.

    Accepts a pandas batch OR a pyarrow Table; stages should pass
    ``batch_format="pyarrow"`` so the text column reaches the Arrow
    tokenizer without ever materializing Python str objects (the
    batch-format conversion itself was the dominant per-batch cost)."""
    from crawler_tjce_ray.pipelines.textops import tokens_flat

    if isinstance(b, pa.Table):
        idx, w = tokens_flat(b.column("text"))
        doc = b.column("doc_id").to_numpy(zero_copy_only=False)
        return pd.DataFrame({"doc_id": doc.astype(np.int64)[idx], "w": w})
    idx, w = tokens_flat(b["text"])
    return pd.DataFrame({"doc_id": b["doc_id"].to_numpy(np.int64)[idx],
                         "w": w})


def _doc_base(b) -> pd.DataFrame:
    """One-column ``doc_id`` frame from a pandas or pyarrow batch —
    the merge base for per-doc score stages."""
    if isinstance(b, pa.Table):
        return pd.DataFrame({
            "doc_id": b.column("doc_id").to_numpy(
                zero_copy_only=False).astype("int64"),
        })
    return b[["doc_id"]].copy()


def q_top_bigram_frac(sf_dir: str):
    """Fraction of a document's word-characters covered by its most
    frequent word bigram (ties broken by lexicographic bigram).  Docs
    with fewer than two words are excluded (no bigram exists).

    N-grams are formed by ``groupby(doc_id).shift(-1)`` on the
    exploded word table — vectorized, and safe because each input row
    is one whole document (a doc never spans batches)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def top_bigram(t: pa.Table) -> pd.DataFrame:
        ex = _explode_words(t)
        if ex.empty:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "top_bigram": pd.Series([], dtype="object"),
                "top_bigram_frac": pd.Series([], dtype="float64"),
            })
        ex["wlen"] = ex["w"].str.len().astype("int64")
        tot = ex.groupby("doc_id", as_index=False).agg(total=("wlen", "sum"))
        ex["nxt"] = ex.groupby("doc_id")["w"].shift(-1)
        bi = ex.dropna(subset=["nxt"]).copy()
        bi["bg"] = bi["w"] + " " + bi["nxt"]
        bi["bl"] = bi["wlen"] + bi["nxt"].str.len().astype("int64")
        cnt = bi.groupby(["doc_id", "bg"], as_index=False).agg(
            c=("bl", "size"), bl=("bl", "first")
        )
        top = (
            cnt.sort_values(["doc_id", "c", "bg"], ascending=[True, False, True],
                            kind="mergesort")
            .drop_duplicates("doc_id")
            .merge(tot, on="doc_id")
        )
        return pd.DataFrame({
            "doc_id": top["doc_id"],
            "top_bigram": top["bg"],
            "top_bigram_frac": (top["c"] * top["bl"]).to_numpy(np.float64)
            / top["total"].to_numpy(np.float64),
        })

    out = exchange.to_pandas(
        ds.map_batches(top_bigram, batch_format="pyarrow"),
        doc_id="int64", top_bigram=object, top_bigram_frac="float64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_TOP_BIGRAM = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{WORD_RE}') AS ws FROM documents
), pos AS (
  SELECT doc_id, ws, unnest(range(1, len(ws))) AS i FROM w WHERE len(ws) >= 2
), b AS (
  SELECT doc_id, ws[i] || ' ' || ws[i + 1] AS bg,
         length(ws[i]) + length(ws[i + 1]) AS bl
  FROM pos
), c AS (
  SELECT doc_id, bg, COUNT(*) AS c, MIN(bl) AS bl FROM b GROUP BY doc_id, bg
), ranked AS (
  SELECT doc_id, bg, c, bl,
         row_number() OVER (PARTITION BY doc_id ORDER BY c DESC, bg) AS rn
  FROM c
), tot AS (
  SELECT doc_id, SUM(length(x)) AS total
  FROM (SELECT doc_id, unnest(ws) AS x FROM w) GROUP BY doc_id
)
SELECT ranked.doc_id, bg AS top_bigram,
       CAST(c * bl AS DOUBLE) / total AS top_bigram_frac
FROM ranked JOIN tot ON ranked.doc_id = tot.doc_id
WHERE rn = 1 ORDER BY ranked.doc_id
"""


# ---------------------------------------------------------------------------
# benchmark decontamination (n-gram overlap)
# ---------------------------------------------------------------------------

DECON_N = 5  # words per contamination shingle
DECON_MOD = 97  # doc_id % DECON_MOD == 0 → benchmark member


def _doc_ngrams(b, n: int) -> pd.DataFrame:
    """Distinct word n-grams per doc as (doc_id, ng) rows — exploded
    words + (n-1) groupby shifts, all vectorized.  Takes a pandas or
    pyarrow batch (``_explode_words`` is polymorphic)."""
    ex = _explode_words(b)
    if ex.empty:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "ng": pd.Series([], dtype="object")})
    ng = ex["w"].copy()
    grp = ex.groupby("doc_id")["w"]
    for k in range(1, n):
        ng = ng + " " + grp.shift(-k)
    out = pd.DataFrame({"doc_id": ex["doc_id"], "ng": ng}).dropna(subset=["ng"])
    return out.drop_duplicates(["doc_id", "ng"])


def _bench_gram_partial(t: pa.Table) -> pa.Table:
    """Per-batch distinct 5-grams of the benchmark slice
    (``doc_id % DECON_MOD == 0``) — shared by ``decontaminate`` and
    ``curation_pipeline`` so both agree on the benchmark set.  An Arrow
    table with a typed ``string`` column, so Ray sizes an empty one."""
    doc = t.column("doc_id").to_numpy(zero_copy_only=False)
    part = t.filter(pa.array(doc % DECON_MOD == 0))
    grams = _doc_ngrams(part, DECON_N)["ng"].drop_duplicates()
    return pa.table({"ng": pa.array(grams.to_numpy(object), pa.string())})


def _collect_bench_grams(ds) -> set:
    """Reduce the benchmark slice's distinct 5-grams from per-batch
    partials (eval sets are tiny next to the corpus)."""
    return set(exchange.to_pandas(
        ds.map_batches(_bench_gram_partial, batch_format="pyarrow"),
        ng="string")["ng"])


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag corpus documents sharing any
    word 5-gram with the held-out benchmark slice
    (``doc_id % 97 == 0`` — a deterministic stand-in for an eval set).

    Two streaming passes: (1) the benchmark slice's distinct 5-grams
    are reduced from per-batch partials and broadcast once via
    ``ray.put`` (eval sets are tiny next to the corpus); (2) each
    batch counts its docs' distinct 5-grams hitting that set.  The
    corpus itself never shuffles."""
    import ray

    ds = _read_docs(sf_dir, ["doc_id", "text"])
    bench_ref = ray.put(_collect_bench_grams(ds))

    def hits(t: pa.Table) -> pd.DataFrame:
        bset = ray.get(bench_ref)
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)
        tgt = t.filter(pa.array(doc % DECON_MOD != 0))
        grams = _doc_ngrams(tgt, DECON_N)
        if grams.empty:
            shared = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                   "n_shared": pd.Series([], dtype="int64")})
        else:
            grams["hit"] = grams["ng"].isin(bset)
            shared = grams.groupby("doc_id", as_index=False).agg(
                n_shared=("hit", "sum")
            )
        out = _doc_base(tgt).merge(shared, on="doc_id", how="left")
        out["n_shared"] = out["n_shared"].fillna(0).astype("int64")
        out["contaminated"] = (out["n_shared"] > 0).astype("int64")
        return out

    out = ds.map_batches(hits, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# the distinct word 5-grams ``g`` of every document and the benchmark
# slice's set ``bench``: the CTEs both decontamination oracles share
_SQL_BENCH_GRAMS = rf"""w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{WORD_RE}') AS ws FROM documents
), pos AS (
  SELECT doc_id, ws, unnest(range(1, len(ws) - {DECON_N - 2})) AS i
  FROM w WHERE len(ws) >= {DECON_N}
), g AS (
  SELECT DISTINCT doc_id,
         ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' || ws[i+3] || ' ' || ws[i+4] AS ng
  FROM pos
), bench AS (
  SELECT DISTINCT ng FROM g WHERE doc_id % {DECON_MOD} = 0
)"""

SQL_DECONTAMINATE = f"""
WITH {_SQL_BENCH_GRAMS}, hits AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_shared
  FROM g JOIN bench USING (ng)
  WHERE doc_id % {DECON_MOD} <> 0 GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(h.n_shared, 0) AS n_shared,
       CAST(COALESCE(h.n_shared, 0) > 0 AS BIGINT) AS contaminated
FROM (SELECT doc_id FROM documents WHERE doc_id % {DECON_MOD} <> 0) d
LEFT JOIN hits h ON d.doc_id = h.doc_id
ORDER BY d.doc_id
"""


# ---------------------------------------------------------------------------
# percentile-based quality cut
# ---------------------------------------------------------------------------

QUANTILE_Q = 0.10


def _quantile_disc(counts: pd.DataFrame, q: float) -> int:
    """DuckDB ``quantile_disc`` over a (value, n) histogram: the value
    at 1-based rank ``ceil(q * n_total)`` of the sorted multiset."""
    counts = counts.sort_values("value").reset_index(drop=True)
    total = int(counts["n"].sum())
    rank = max(1, math.ceil(q * total))
    cum = counts["n"].cumsum()
    return int(counts.loc[(cum >= rank).idxmax(), "value"])


def q_quantile_filter(sf_dir: str):
    """Percentile quality cut: drop documents below the corpus p10 of
    ``n_chars``, report survivors per language.  The exact discrete
    quantile is computed from a value-count histogram
    (``exchange.aggregate`` over the *integer* n_chars column —
    O(distinct lengths) driver state, never a global sort), then the
    threshold filters a second ``exchange.aggregate`` pass."""
    ds = _read_docs(sf_dir, ["lang", "n_chars"])
    hist = exchange.aggregate(ds, "n_chars", {"n": ("n_chars", "count")}) \
        .rename(columns={"n_chars": "value"})
    # an empty corpus has no threshold: no row survives, as in SQL
    p10 = _quantile_disc(hist, QUANTILE_Q) if len(hist) else None
    out = exchange.aggregate(
        ds, "lang", {"n_kept": ("lang", "count_all")},
        lambda t: t.filter(pc.greater_equal(t["n_chars"], p10)))
    out["p10"] = np.int64(p10 or 0)
    return out


SQL_QUANTILE_FILTER = f"""
WITH thr AS (SELECT quantile_disc(n_chars, {QUANTILE_Q}) AS p10 FROM documents)
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_kept, CAST(p10 AS BIGINT) AS p10
FROM documents, thr WHERE n_chars >= p10
GROUP BY lang, p10 ORDER BY lang
"""


# ---------------------------------------------------------------------------
# C4-style line filter (boilerplate removal)
# ---------------------------------------------------------------------------

LINE_MIN_WORDS = 3


def q_line_filter(sf_dir: str):
    """C4-style boilerplate scrub: drop lines with fewer than
    ``LINE_MIN_WORDS`` words, reassemble the surviving lines in
    original order.  Docs left with zero lines are dropped.

    Per batch: split → ``explode`` (line index via groupby-cumcount)
    → one vectorized regex count per line → filter → ``groupby`` +
    join.  Stateless per doc; the corpus streams."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def scrub(df: pd.DataFrame) -> pd.DataFrame:
        ex = pd.DataFrame({
            "doc_id": df["doc_id"],
            "line": df["text"].str.split("\n"),
        }).explode("line", ignore_index=True)
        ex["i"] = ex.groupby("doc_id").cumcount()
        # RE2 word count per line (≡ str.count(WORD_RE): non-greedy
        # runs of [a-z0-9] are non-overlapping in both engines)
        nwords = pc.count_substring_regex(
            pc.utf8_lower(pa.array(ex["line"].astype(object),
                                   type=pa.string())), WORD_RE
        ).to_numpy(zero_copy_only=False)
        kept = ex.loc[nwords >= LINE_MIN_WORDS]
        if kept.empty:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "n_kept_lines": pd.Series([], dtype="int64"),
                "clean_text": pd.Series([], dtype="string"),
            })
        g = kept.sort_values(["doc_id", "i"]).groupby("doc_id")
        out = pd.DataFrame({
            "n_kept_lines": g["line"].size().astype("int64"),
            "clean_text": g["line"].agg("\n".join).astype("string"),
        }).reset_index()
        return out[["doc_id", "n_kept_lines", "clean_text"]]

    out = exchange.to_pandas(
        ds.map_batches(scrub, batch_format="pandas"),
        doc_id="int64", n_kept_lines="int64", clean_text=object)
    # final frame in numpy-object string form: the driver's value hash
    # is dtype-sensitive and the DuckDB oracle lands as object
    out["clean_text"] = out["clean_text"].astype(object)
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_LINE_FILTER = rf"""
WITH s AS (
  SELECT doc_id, string_split(text, chr(10)) AS ls FROM documents
), l AS (
  SELECT doc_id, ls, unnest(range(1, len(ls) + 1)) AS i FROM s
), kept AS (
  SELECT doc_id, i, ls[i] AS line FROM l
  WHERE length(regexp_extract_all(lower(ls[i]), '{WORD_RE}')) >= {LINE_MIN_WORDS}
)
SELECT doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_kept_lines,
       string_agg(line, chr(10) ORDER BY i) AS clean_text
FROM kept GROUP BY doc_id ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# per-source token share (mixture accounting)
# ---------------------------------------------------------------------------

def q_source_token_share(sf_dir: str):
    """Training-mixture accounting: whitespace tokens per source and
    each source's share of the corpus — the input to mixture
    reweighting.  ``exchange.aggregate`` folds (source, n_docs,
    n_tokens); the share divides by the driver-side total (tiny)."""
    def tokens(t: pa.Table) -> pa.Table:
        return pa.table({"source": t["source"], "tok": pc.cast(
            pc.count_substring_regex(t["text"], r"\S+"), pa.int64())})

    out = exchange.aggregate(
        _read_docs(sf_dir, ["source", "text"]), "source",
        {"n_docs": ("tok", "count_all"), "n_tokens": ("tok", "sum")}, tokens)
    total = float(out["n_tokens"].sum())
    out["token_share"] = out["n_tokens"].to_numpy(np.float64) / total
    return out


SQL_SOURCE_TOKEN_SHARE = r"""
WITH d AS (
  SELECT source,
         CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS tok
  FROM documents
), g AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
         CAST(SUM(tok) AS BIGINT) AS n_tokens
  FROM d GROUP BY source
)
SELECT source, n_docs, n_tokens,
       CAST(n_tokens AS DOUBLE) / (SELECT SUM(n_tokens) FROM g) AS token_share
FROM g ORDER BY source
"""


# ---------------------------------------------------------------------------
# unigram-LM scoring (perplexity-style quality signal)
# ---------------------------------------------------------------------------

def _vocab(ds, target_mod: int = 0) -> pd.DataFrame:
    """The corpus vocabulary as (w, n) token counts — plus ``nt``, the
    count inside the ``doc_id % target_mod == 0`` slice, when
    ``target_mod`` is set — reduced on the driver from per-batch
    partials (driver state O(vocab)).  Shared by every unigram-LM
    scorer."""

    def counts(t: pa.Table) -> pd.DataFrame:
        ex = _explode_words(t)
        ex["n"] = np.int64(1)
        if target_mod:
            ex["nt"] = (ex["doc_id"] % target_mod == 0).astype("int64")
        g = ex.drop(columns="doc_id").groupby("w", as_index=False).sum()
        return g.astype({"w": "string"})

    cols = {"w": "string", "n": "int64"} | ({"nt": "int64"} if target_mod else {})
    return exchange.to_pandas(
        ds.map_batches(counts, batch_format="pyarrow"), **cols
    ).groupby("w", as_index=False).sum()


def _unigram_table(ds) -> dict:
    """ln P(w) under the corpus's own add-one-smoothed unigram LM, for
    every word of its vocabulary."""
    vocab = _vocab(ds)
    logp = np.log((vocab["n"].to_numpy(np.float64) + 1.0)
                  / (int(vocab["n"].sum()) + len(vocab)))
    return dict(zip(vocab["w"], logp))


def _doc_means(ds, table: dict, name: str, keep=()):
    """Per document of ``ds``: ``doc_id``, the ``keep`` columns,
    ``n_tokens`` and ``name`` — the mean of ``table[w]`` over its
    tokens, 0.0 for a doc with none.  ``table`` is broadcast once via
    ``ray.put``; each batch scores its own docs vectorized, so values
    never shuffle."""
    import ray

    table_ref = ray.put(table)

    def score(t: pa.Table) -> pd.DataFrame:
        ex = _explode_words(t)
        ex["v"] = ex["w"].map(ray.get(table_ref)).astype("float64")
        g = ex.groupby("doc_id", as_index=False).agg(
            n_tokens=("v", "size"), s=("v", "sum"))
        out = _doc_base(t)
        for c in keep:
            out[c] = t.column(c).to_numpy(zero_copy_only=False)
        out = out.merge(g, on="doc_id", how="left")
        n = out["n_tokens"].fillna(0).astype("int64")
        out["n_tokens"] = n
        out[name] = np.where(n > 0, out.pop("s") / n, 0.0)
        return out

    return ds.map_batches(score, batch_format="pyarrow")


def q_unigram_logprob(sf_dir: str):
    """Unigram language-model score per document: mean ln P(token)
    under the corpus's own unigram distribution (add-one smoothed) —
    the cheap stand-in for model-based perplexity filtering.

    Two streaming passes, same shape as BM25: (1) per-batch token
    count partials reduce to the global vocabulary (``_vocab``, driver
    state O(vocab)); (2) the log-prob table broadcasts once and each
    batch computes its docs' mean scores vectorized (``_doc_means``).
    Tokens sum in document order on both engines (ordered token
    stream), so only the usual float tail differs (within the
    checker's 1e-6)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    out = _doc_means(ds, _unigram_table(ds), "mean_logprob").to_pandas()
    # round 9: per-doc token-logprob summation order differs between
    # engines; the driver's value hash is strict
    out["mean_logprob"] = np.round(out["mean_logprob"], 9)
    return out.sort_values("doc_id").reset_index(drop=True)


# every token, the vocabulary counts and the LM constants: the CTEs
# both unigram-LM oracles share
_SQL_UNIGRAM_LM = f"""toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '{WORD_RE}')) AS w
  FROM documents
), vocab AS (
  SELECT w, COUNT(*) AS n FROM toks GROUP BY w
), consts AS (
  SELECT SUM(n) AS total, COUNT(*) AS vsize FROM vocab
)"""

SQL_UNIGRAM_LOGPROB = f"""
WITH {_SQL_UNIGRAM_LM}, scored AS (
  SELECT t.doc_id, ln((v.n + 1.0) / (c.total + c.vsize)) AS lp
  FROM toks t JOIN vocab v USING (w), consts c
)
SELECT d.doc_id,
       CAST(COALESCE(s.n_tokens, 0) AS BIGINT) AS n_tokens,
       ROUND(COALESCE(s.mean_lp, 0.0), 9) AS mean_logprob
FROM documents d
LEFT JOIN (
  SELECT doc_id, COUNT(*) AS n_tokens, AVG(lp) AS mean_lp
  FROM scored GROUP BY doc_id
) s ON d.doc_id = s.doc_id
ORDER BY d.doc_id
"""


PPLX_EPS = 1e-9  # threshold-comparison slack, see q_perplexity_buckets


def q_perplexity_buckets(sf_dir: str):
    """CCNet-style head/middle/tail buckets (Wenzek et al. 2020): per
    language, split documents into terciles of unigram LM score and
    report each bucket's size and mean score — the partition a
    curation run uses to keep "head", subsample "middle", drop "tail".

    Scale shape: the unigram scoring is ``q_unigram_logprob``'s two
    streaming passes (O(vocab) driver LM, broadcast once); the
    tercile THRESHOLDS are exact per-lang ``quantile_disc(1/3, 2/3)``
    picks from the shared simultaneous-quickselect engine
    (``sketches._grouped_quantile_select`` — no value shuffle, driver
    state O(langs × 256)); bucketing + (lang, bucket) count/sum
    partials are one more streaming pass.  Nothing materializes the
    corpus.

    Thresholds are compared with ``lp <= t + 1e-9`` on BOTH engines:
    the threshold is a data value, so the slack only matters when two
    distinct document means sit within 1e-9 — it absorbs the cross-
    engine float-tail divergence of the two mean computations without
    changing any real bucket boundary."""
    from crawler_tjce_ray.pipelines.sketches import _grouped_quantile_select

    ds = _read_docs(sf_dir, ["doc_id", "lang", "text"])
    scored = _doc_means(ds, _unigram_table(ds), "mean_logprob",
                        keep=("lang",)).materialize()
    t33 = _grouped_quantile_select(
        sf_dir, 1.0 / 3, ds=scored, group_col="lang", value_col="mean_logprob"
    )
    t67 = _grouped_quantile_select(
        sf_dir, 2.0 / 3, ds=scored, group_col="lang", value_col="mean_logprob"
    )

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        lp = df["mean_logprob"].to_numpy(np.float64)
        lo = df["lang"].map(t33).to_numpy(np.float64)
        hi = df["lang"].map(t67).to_numpy(np.float64)
        b = np.where(lp <= lo + PPLX_EPS, "tail",
                     np.where(lp <= hi + PPLX_EPS, "middle", "head"))
        t = pd.DataFrame({"lang": df["lang"], "bucket": b, "lp": lp})
        g = t.groupby(["lang", "bucket"], as_index=False).agg(
            n_docs=("lp", "size"), sum_lp=("lp", "sum")
        )
        g["n_docs"] = g["n_docs"].astype("int64")
        return g

    parts = scored.map_batches(bucket, batch_format="pandas").to_pandas()
    out = parts.groupby(["lang", "bucket"], as_index=False).agg(
        n_docs=("n_docs", "sum"), sum_lp=("sum_lp", "sum")
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    # round 9: per-bucket float means (summed in different orders on
    # the two engines) — the driver's value hash is strict
    out["mean_logprob"] = np.round(out["sum_lp"] / out["n_docs"], 9)
    return (
        out[["lang", "bucket", "n_docs", "mean_logprob"]]
        .sort_values(["lang", "bucket"])
        .reset_index(drop=True)
    )


SQL_PERPLEXITY_BUCKETS = f"""
WITH {_SQL_UNIGRAM_LM}, lp AS (
  SELECT t.doc_id, ln((v.n + 1.0) / (c.total + c.vsize)) AS lp
  FROM toks t JOIN vocab v USING (w), consts c
), scored AS (
  SELECT d.doc_id, d.lang,
         COALESCE(s.sum_lp / s.n_tokens, 0.0) AS mean_logprob
  FROM documents d
  LEFT JOIN (
    SELECT doc_id, COUNT(*) AS n_tokens, SUM(lp) AS sum_lp
    FROM lp GROUP BY doc_id
  ) s ON d.doc_id = s.doc_id
), q AS (
  SELECT lang,
         quantile_disc(mean_logprob, 1.0/3) AS t33,
         quantile_disc(mean_logprob, 2.0/3) AS t67
  FROM scored GROUP BY lang
), b AS (
  SELECT s.lang,
         CASE WHEN s.mean_logprob <= q.t33 + {PPLX_EPS} THEN 'tail'
              WHEN s.mean_logprob <= q.t67 + {PPLX_EPS} THEN 'middle'
              ELSE 'head' END AS bucket,
         s.mean_logprob
  FROM scored s JOIN q ON q.lang = s.lang
)
SELECT lang, bucket, CAST(COUNT(*) AS BIGINT) AS n_docs,
       ROUND(SUM(mean_logprob) / COUNT(*), 9) AS mean_logprob
FROM b GROUP BY 1, 2 ORDER BY 1, 2
"""


DSIR_MOD = 7


def q_importance_weights(sf_dir: str):
    """DSIR-style importance weights (Xie et al. 2023, "Data Selection
    for Language Models via Importance Resampling"): score every
    document by the mean log-likelihood ratio of its tokens under a
    target-domain unigram LM vs the source LM.  The target set is the
    deterministic ``doc_id % 7 == 0`` slice (the same benchmark-proxy
    device as ``decontaminate``); both LMs share the full-corpus
    vocabulary and add-one smoothing, so every token has both
    probabilities.  Downstream mixture assembly resamples source docs
    by this weight — the weights table IS the operator's output, so
    selection stays a trivial post-step (`sample_to_budget` family).

    Scale shape is the ``q_unigram_logprob`` recipe: one streaming
    pass reduces per-batch ``(token, n_target, n_source)`` partials to
    the O(vocab) LM (the only driver state), the ratio table
    broadcasts once via ``ray.put``, and a second streaming pass
    scores each batch vectorized.  Values never shuffle.

    ``mean_logratio`` rounds to 9 dp on BOTH engines: per-doc means
    of identical LM terms agree only to ~1e-15 relative (summation
    order differs), and the driver's value hash is STRICT — the
    running_total red row proved tolerance lives in the parity test
    only, not in the driver.  Rounding can itself straddle a decimal
    boundary, but at 9 dp the window is ~1e-15/1e-9 per value —
    vanishing next to a guaranteed ulp mismatch."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    vocab = _vocab(ds, DSIR_MOD)
    nt = vocab["nt"].to_numpy(np.int64)
    ns = vocab["n"].to_numpy(np.int64) - nt
    tott, tots, vsize = int(nt.sum()), int(ns.sum()), len(vocab)
    lr = (np.log((nt + 1.0) / (tott + vsize))
          - np.log((ns + 1.0) / (tots + vsize)))
    out = _doc_means(ds, dict(zip(vocab["w"], lr)), "mean_logratio").to_pandas()
    out["is_target"] = (out["doc_id"] % DSIR_MOD == 0).astype("int64")
    out["mean_logratio"] = np.round(out["mean_logratio"], 9)
    return out[["doc_id", "is_target", "n_tokens", "mean_logratio"]] \
        .sort_values("doc_id").reset_index(drop=True)


SQL_IMPORTANCE_WEIGHTS = rf"""
WITH toks AS (
  SELECT doc_id, doc_id % {DSIR_MOD} = 0 AS is_t,
         unnest(regexp_extract_all(lower(text), '{WORD_RE}')) AS w
  FROM documents
), vocab AS (
  SELECT w,
         SUM(CASE WHEN is_t THEN 1 ELSE 0 END) AS nt,
         SUM(CASE WHEN is_t THEN 0 ELSE 1 END) AS ns
  FROM toks GROUP BY w
), consts AS (
  SELECT SUM(nt) AS tott, SUM(ns) AS tots, COUNT(*) AS vsize FROM vocab
), scored AS (
  SELECT t.doc_id,
         ln((v.nt + 1.0) / (c.tott + c.vsize))
         - ln((v.ns + 1.0) / (c.tots + c.vsize)) AS lr
  FROM toks t JOIN vocab v USING (w), consts c
)
SELECT d.doc_id,
       CAST(d.doc_id % {DSIR_MOD} = 0 AS BIGINT) AS is_target,
       CAST(COALESCE(s.n_tokens, 0) AS BIGINT) AS n_tokens,
       ROUND(COALESCE(s.mean_lr, 0.0), 9) AS mean_logratio
FROM documents d
LEFT JOIN (
  SELECT doc_id, COUNT(*) AS n_tokens, AVG(lr) AS mean_lr
  FROM scored GROUP BY doc_id
) s ON d.doc_id = s.doc_id
ORDER BY d.doc_id
"""


def _bigram_counts(t: pa.Table, by_doc: bool = False) -> pa.Table:
    """Per-batch word-bigram counts ``c`` per (w1, w2) — per (doc_id,
    w1, w2) when ``by_doc`` — over adjacent words of one document: the
    combine under every w1-keyed bigram exchange, so raw word streams
    never shuffle."""
    ex = _explode_words(t)
    same = (ex["doc_id"].shift(-1) == ex["doc_id"]).to_numpy()
    b = pd.DataFrame({"doc_id": ex["doc_id"][same], "w1": ex["w"][same],
                      "w2": ex["w"].shift(-1)[same]})
    keys = ["doc_id", "w1", "w2"] if by_doc else ["w1", "w2"]
    c = b.groupby(keys, as_index=False).size().rename(columns={"size": "c"})
    return pa.Table.from_pandas(c.astype({"c": "int64"}), preserve_index=False)


def q_bigram_logprob(sf_dir: str):
    """Bigram language-model score per document: mean
    ln P(w2 | w1) with add-one smoothing — the step up from
    ``q_unigram_logprob`` toward model-based perplexity filtering.

    Scale design: unlike the unigram scorer (whose O(vocab) table can
    broadcast), the bigram table is O(vocab²) and must NEVER land on
    the driver.  Instead the model is built and consumed inside ONE
    ``exchange.shuffle`` on ``w1`` (``_bigram_counts`` per doc is the
    combine): every (doc, w1, w2, c) row of a given w1 lands in one
    bucket, so c12, the c1 marginal, AND each doc's score
    contributions c·ln((c12+1)/(c1+V)) all finalize in-bucket — the
    only things that cross back are per-(bucket, doc) partial sums,
    output-sized.  V (corpus distinct-word count) reduces from
    per-bucket distinct counts of a first shuffle on the word (driver
    state: one int per bucket)."""
    nb = _nb_rows(sf_dir, 'documents')  # row-carrying exchange
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    # pass 1: V from per-batch distinct words, counted per word bucket
    def distinct_words(t: pa.Table) -> pa.Table:
        return pa.table({"w": pa.array(pd.unique(_explode_words(t)["w"]),
                                       pa.string())})

    vparts = exchange.shuffle(
        ds, "w", nb, lambda g: pd.DataFrame({"nv": [g["w"].nunique()]}),
        combine=distinct_words)
    vsize = int(exchange.to_pandas(vparts, nv="int64")["nv"].sum())

    # in-bucket: counts are final (bucket key depends on w1 only), so
    # the model row and the score join never leave the bucket
    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        c12 = g.groupby(["w1", "w2"])["c"].transform("sum").to_numpy(np.float64)
        c1 = g.groupby("w1")["c"].transform("sum").to_numpy(np.float64)
        lp = g["c"].to_numpy(np.float64) * np.log((c12 + 1.0) / (c1 + vsize))
        part = pd.DataFrame({"doc_id": g["doc_id"], "n": g["c"], "lp": lp})
        return part.groupby("doc_id", as_index=False).agg(
            n=("n", "sum"), lp=("lp", "sum")
        )

    parts = exchange.to_pandas(
        exchange.shuffle(ds, "w1", nb, score_bucket,
                         combine=lambda t: _bigram_counts(t, by_doc=True)),
        doc_id="int64", n="int64", lp="float64",
    ).groupby("doc_id", as_index=False).sum()
    ids = ds.select_columns(["doc_id"]).to_pandas()
    out = ids.merge(parts, on="doc_id", how="left")
    out["n_bigrams"] = out["n"].fillna(0).astype("int64")
    # round 9: cross-bucket partial-sum order differs from the
    # oracle's single-pass sum; the driver's value hash is strict
    out["mean_logprob"] = np.round(np.where(
        out["n_bigrams"] > 0, out["lp"] / out["n_bigrams"], 0.0
    ), 9)
    out = out[["doc_id", "n_bigrams", "mean_logprob"]]
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_BIGRAM_LOGPROB = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{WORD_RE}') AS ws
  FROM documents
), v AS (
  SELECT COUNT(DISTINCT t.w) AS vsize
  FROM (SELECT unnest(ws) AS w FROM w) t
), pos AS (
  SELECT doc_id, ws, unnest(range(1, len(ws))) AS i FROM w WHERE len(ws) >= 2
), b AS (
  SELECT doc_id, ws[i] AS w1, ws[i + 1] AS w2 FROM pos
), c AS (
  SELECT w1, w2, COUNT(*) AS c12 FROM b GROUP BY w1, w2
), d AS (
  SELECT w1, w2, c12, SUM(c12) OVER (PARTITION BY w1) AS c1 FROM c
), scored AS (
  SELECT b.doc_id, ln((d.c12 + 1.0) / (d.c1 + v.vsize)) AS lp
  FROM b JOIN d USING (w1, w2) CROSS JOIN v
), agg AS (
  SELECT doc_id, COUNT(*) AS n_bigrams, SUM(lp) AS sum_lp
  FROM scored GROUP BY doc_id
)
SELECT w.doc_id,
       CAST(COALESCE(agg.n_bigrams, 0) AS BIGINT) AS n_bigrams,
       ROUND(COALESCE(agg.sum_lp / agg.n_bigrams, 0.0), 9) AS mean_logprob
FROM w LEFT JOIN agg USING (doc_id) ORDER BY w.doc_id
"""


TOKEN_BUDGET_PER_SOURCE = 1000
_BUDGET_SALT = "budget:"


def q_sample_to_budget(sf_dir: str):
    """Training-mixture assembly: a deterministic per-source document
    sample capped at ``TOKEN_BUDGET_PER_SOURCE`` whitespace tokens —
    every source contributes its md5-ordered prefix until the budget
    is spent, so the same corpus always yields the same mix on any
    cluster size.

    One streaming pass computes (doc, source, n_tokens, md5 key) rows
    (token counts are zero-copy RE2, the key is the ``hash_split``
    md5 discipline); the ONLY shuffle is the source groupby, and each
    group's selection is one vectorized sort + cumsum.  The source is
    a true per-key group — the budget cut is a running sum over ONE
    source's docs in key order — so it stays on
    ``groupby("source").map_groups`` rather than ``exchange.shuffle``,
    whose buckets mix keys (like ``dedup_embedding_nn``'s label
    blocks).  At corpus scale the per-source scan uses the
    ``epoch_shuffle`` recipe instead (uniform md5 range buckets +
    prefix-sum offsets) — the budget cut is then a per-bucket filter
    against the broadcast running totals; the semantics here are
    identical."""
    ds = _read_docs(sf_dir, ["doc_id", "text", "source"])
    md5 = hashlib.md5

    def keyed_counts(t: pa.Table) -> pa.Table:
        n = pc.cast(pc.count_substring_regex(t["text"], r"\S+"), pa.int64())
        keys = [
            md5((_BUDGET_SALT + str(int(d))).encode()).hexdigest()
            for d in t["doc_id"].to_pylist()
        ]
        return pa.table({
            "doc_id": t["doc_id"],
            "source": t["source"],
            "n_tokens": n,
            "k": pa.array(keys, pa.string()),
        })

    def take_budget(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["k", "doc_id"], kind="mergesort").reset_index(drop=True)
        cum = g["n_tokens"].to_numpy(np.int64).cumsum()
        keep = cum <= TOKEN_BUDGET_PER_SOURCE
        out = g.loc[keep, ["doc_id", "source", "n_tokens"]].copy()
        out["cum_tokens"] = cum[keep]
        return out

    out = (
        ds.map_batches(keyed_counts, batch_format="pyarrow")
        .groupby("source")
        .map_groups(take_budget, batch_format="pandas")
        .to_pandas()
        .astype({"doc_id": "int64", "n_tokens": "int64", "cum_tokens": "int64"})
    )
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_SAMPLE_TO_BUDGET = rf"""
WITH d AS (
  SELECT doc_id, source,
         CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens,
         md5('{_BUDGET_SALT}' || CAST(doc_id AS VARCHAR)) AS k
  FROM documents
), c AS (
  SELECT doc_id, source, n_tokens,
         SUM(n_tokens) OVER (PARTITION BY source ORDER BY k, doc_id
                             ROWS UNBOUNDED PRECEDING) AS cum_tokens
  FROM d
)
SELECT doc_id, source, n_tokens, CAST(cum_tokens AS BIGINT) AS cum_tokens
FROM c WHERE cum_tokens <= {TOKEN_BUDGET_PER_SOURCE} ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# per-group discrete quantile (median doc length per language)
# ---------------------------------------------------------------------------

def q_lang_median_chars(sf_dir: str):
    """Group-wise exact median: per-language ``quantile_disc(0.5)`` of
    doc length, computed from the (lang, n_chars) counts
    ``exchange.aggregate`` folds — driver state is O(langs × distinct
    lengths), the corpus never shuffles or sorts."""
    hist = exchange.aggregate(_read_docs(sf_dir, ["lang", "n_chars"]),
                              ["lang", "n_chars"], {"n": ("n_chars", "count")})
    med = {lang: _quantile_disc(g.rename(columns={"n_chars": "value"}), 0.5)
           for lang, g in hist.groupby("lang")}
    return pd.DataFrame({"lang": pd.Series(list(med), dtype=object),
                         "median_chars": pd.Series(list(med.values()),
                                                   dtype="int64")})


SQL_LANG_MEDIAN_CHARS = """
SELECT lang, CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS median_chars
FROM documents GROUP BY lang ORDER BY lang
"""


# ---------------------------------------------------------------------------
# character entropy (low-entropy gibberish / boilerplate signal)
# ---------------------------------------------------------------------------

def q_char_entropy(sf_dir: str):
    """Shannon entropy (base 2) of each document's character
    distribution — the classic low-entropy boilerplate/gibberish
    filter signal.  Per doc: one ``encode('utf-32-le')`` +
    ``np.unique`` over the codepoint array (C-speed per doc, only the
    O(docs-per-batch) outer loop is Python — the hashlib-digest
    precedent)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def entropy(df: pd.DataFrame) -> pd.DataFrame:
        vals = np.empty(len(df), dtype=np.float64)
        for i, s in enumerate(df["text"].to_numpy()):
            if not s:
                vals[i] = 0.0
                continue
            cp = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
            _, counts = np.unique(cp, return_counts=True)
            p = counts / counts.sum()
            vals[i] = float(-(p * np.log2(p)).sum())
        # round 9: the summation ORDER differs between engines (numpy
        # vs DuckDB group order), so raw doubles disagree in the last
        # ulp — the driver's value hash is strict (the running_total
        # lesson), tolerance lives in the parity test only
        return pd.DataFrame({
            "doc_id": df["doc_id"], "char_entropy": np.round(vals, 9)
        })

    out = ds.map_batches(entropy, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_CHAR_ENTROPY = """
SELECT doc_id, ROUND(entropy(c), 9) AS char_entropy
FROM (SELECT doc_id, unnest(string_split(text, '')) AS c FROM documents)
GROUP BY doc_id ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# TF-IDF keyword extraction
# ---------------------------------------------------------------------------

TFIDF_TOPK = 3


def q_tfidf_keywords(sf_dir: str):
    """Top-``TFIDF_TOPK`` keywords per document by TF-IDF
    (tf × ln(N/df)) — keyword extraction for corpus diagnostics and
    topic labeling.  Same two-pass shape as ``unigram_logprob``:
    (1) per-batch distinct-(doc, word) partials reduce to the global
    document-frequency table (driver state O(vocab)); (2) the idf
    table broadcasts once and each batch ranks its own docs' terms
    vectorized (sort + ``groupby.head``) — docs never shuffle.
    Ranking uses the 6-decimal-rounded score with a lexicographic
    tie-break so both engines pick identical terms."""
    import ray

    from crawler_tjce_ray.sources.docs import documents_row_count

    n_docs = documents_row_count(sf_dir)
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def df_partial(t: pa.Table) -> pd.DataFrame:
        ex = _explode_words(t).drop_duplicates(["doc_id", "w"])
        if ex.empty:
            return pd.DataFrame({"w": pd.Series([], dtype="string"),
                                 "c": pd.Series([], dtype="int64")})
        g = ex.groupby("w", as_index=False).size()
        return pd.DataFrame({"w": g["w"].astype("string"),
                             "c": g["size"].astype("int64")})

    dfc = exchange.to_pandas(
        ds.map_batches(df_partial, batch_format="pyarrow"), w="string", c="int64"
    ).groupby("w")["c"].sum()
    idf = dict(zip(dfc.index, np.log(float(n_docs) / dfc.to_numpy(np.float64))))
    idf_ref = ray.put(idf)

    def topk(t: pa.Table) -> pd.DataFrame:
        tbl = ray.get(idf_ref)
        ex = _explode_words(t)
        if ex.empty:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "rank": pd.Series([], dtype="int64"),
                "term": pd.Series([], dtype="string"),
                "score": pd.Series([], dtype="float64"),
            })
        tf = ex.groupby(["doc_id", "w"], as_index=False).size()
        tf["score"] = np.round(
            tf["size"].to_numpy(np.float64) * tf["w"].map(tbl).to_numpy(np.float64),
            6,
        )
        tf = tf.sort_values(
            ["doc_id", "score", "w"], ascending=[True, False, True],
            kind="mergesort",
        )
        top = tf.groupby("doc_id", sort=False).head(TFIDF_TOPK).copy()
        top["rank"] = top.groupby("doc_id", sort=False).cumcount() + 1
        return pd.DataFrame({
            "doc_id": top["doc_id"].astype("int64"),
            "rank": top["rank"].astype("int64"),
            "term": top["w"].astype("string"),
            "score": top["score"].astype("float64"),
        })

    out = exchange.to_pandas(
        ds.map_batches(topk, batch_format="pyarrow"),
        doc_id="int64", rank="int64", term=object, score="float64")
    out["term"] = out["term"].astype(str)
    return out.sort_values(["doc_id", "rank"]).reset_index(drop=True)


SQL_TFIDF_KEYWORDS = rf"""
WITH w AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '{WORD_RE}')) AS w
  FROM documents
), tf AS (
  SELECT doc_id, w, CAST(COUNT(*) AS BIGINT) AS c FROM w GROUP BY doc_id, w
), df AS (
  SELECT w, COUNT(DISTINCT doc_id) AS dfc FROM w GROUP BY w
), s AS (
  SELECT tf.doc_id, tf.w,
         round(tf.c * ln((SELECT CAST(COUNT(*) AS DOUBLE) FROM documents) / df.dfc), 6) AS score
  FROM tf JOIN df USING (w)
), r AS (
  SELECT doc_id, w, score,
         ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY score DESC, w) AS rn
  FROM s
)
SELECT doc_id, CAST(rn AS BIGINT) AS rank, w AS term, score
FROM r WHERE rn <= {TFIDF_TOPK} ORDER BY doc_id, rank
"""


# ---------------------------------------------------------------------------
# composed end-to-end curation pipeline
# ---------------------------------------------------------------------------

def q_curation_pipeline(sf_dir: str):
    """The composed webtext curation flagship — what a user actually
    runs between crawl and tokenization, as ONE Ray pipeline:

        quality filter → benchmark decontamination → exact dedup
        → per-language token accounting

    reusing the individually-oracle-checked kernels (``quality_frame``,
    ``_doc_ngrams``/bench broadcast, md5-of-normalized-text dedup,
    BPE-ish RE2 token count).  Structure:

    1. one tiny pass over the benchmark slice (``doc_id % 97 == 0``)
       reduces its distinct 5-grams from partials → ``ray.put`` once;
    2. the combine of ONE ``exchange.shuffle`` FUSES quality scoring,
       contamination check and the per-batch dedup combiner — text
       never leaves the map stage; each batch emits only
       ``(dkey, dp, doc_id, lang, n_re_tokens)`` for its batch-local
       winners, ``dp`` being the digest's first 8 bytes as a uint64;
    3. the shuffle on ``dp`` (every copy of a text shares its digest,
       so lands in one bucket) picks global winners (min doc_id per
       dkey) and pre-aggregates per language INSIDE the bucket, so the
       driver reduce sees O(buckets × langs) rows.

    Shuffle volume is O(surviving docs × ~50 bytes) — proportional to
    the corpus row count but never its text — and every stage
    streams.  Output: per-language doc and token counts of the final
    curated corpus (exact; DuckDB-oracle-checked end-to-end)."""
    nb = _nb_rows(sf_dir, 'documents')  # row-carrying exchange
    import ray

    from crawler_tjce_ray.pipelines.textops import (
        BPE_TOKEN_RE, normalize_text_series, quality_frame,
    )

    ds = _read_docs(sf_dir, ["doc_id", "text", "lang"])
    bench_ref = ray.put(_collect_bench_grams(ds))

    def survivors(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        q = quality_frame(df)
        keep = (q["quality_ok"].to_numpy() == 1) & (
            df["doc_id"].to_numpy() % DECON_MOD != 0
        )
        sub = df.loc[keep]
        if len(sub):
            grams = _doc_ngrams(sub, DECON_N)
            bset = ray.get(bench_ref)
            if len(grams):
                bad = set(grams.loc[grams["ng"].isin(bset), "doc_id"])
                sub = sub.loc[~sub["doc_id"].isin(bad)]
        norm = normalize_text_series(sub["text"])
        digests = [hashlib.md5(x.encode()).digest() for x in norm]
        n_re = pc.cast(
            pc.count_substring_regex(
                pc.utf8_lower(pa.array(sub["text"], pa.string())), BPE_TOKEN_RE
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        out = pd.DataFrame({
            "dp": pd.Series([int.from_bytes(d[:8], "big") for d in digests],
                            dtype="uint64"),
            "dkey": pd.Series([d.hex() for d in digests], dtype="string"),
            "doc_id": pd.Series(
                sub["doc_id"].to_numpy(dtype=np.int64), dtype="int64"
            ),
            "lang": sub["lang"].astype("string").reset_index(drop=True),
            "n_re_tokens": pd.Series(n_re, dtype="int64"),
        })
        # batch-local combiner: only batch winners enter the shuffle
        out = out.sort_values("doc_id", kind="mergesort").drop_duplicates("dkey")
        return pa.Table.from_pandas(out, preserve_index=False)

    def bucket_agg(g: pd.DataFrame) -> pd.DataFrame:
        w = g.sort_values("doc_id", kind="mergesort").drop_duplicates("dkey")
        return w.groupby("lang", as_index=False).agg(
            n_docs=("doc_id", "size"), n_tokens=("n_re_tokens", "sum")
        )

    parts = exchange.to_pandas(
        exchange.shuffle(ds, "dp", nb, bucket_agg, combine=survivors),
        lang=object, n_docs="int64", n_tokens="int64")
    out = parts.groupby("lang", as_index=False).agg(
        n_docs=("n_docs", "sum"), n_tokens=("n_tokens", "sum")
    )
    out["lang"] = out["lang"].astype(str)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_tokens"] = out["n_tokens"].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def _sql_curation() -> str:
    from crawler_tjce_ray.pipelines.textops import _EN_SQL_LIST

    return rf"""
WITH t AS (
  SELECT doc_id, lang, text,
         CAST(length(string_split(text,' ')) AS BIGINT) AS n_tok_sp,
         CAST(length(list_filter(string_split(text,' '),
              x -> x IN ({_EN_SQL_LIST}))) AS BIGINT) AS stop_hits,
         CAST(length(regexp_extract_all(lower(text),
              '[a-z]+|[0-9]+|[^a-z0-9\s]')) AS BIGINT) AS n_re_tokens,
         md5(regexp_replace(lower(trim(text)), '\s+', ' ', 'g')) AS dkey
  FROM documents
), q AS (
  SELECT * FROM t
  WHERE n_tok_sp >= 20
    AND CAST(stop_hits AS DOUBLE)/n_tok_sp >= 0.02
    AND doc_id % {DECON_MOD} <> 0
), {_SQL_BENCH_GRAMS}, contaminated AS (
  SELECT DISTINCT doc_id FROM g JOIN bench USING (ng)
  WHERE doc_id % {DECON_MOD} <> 0
), surv AS (
  SELECT * FROM q WHERE doc_id NOT IN (SELECT doc_id FROM contaminated)
), winners AS (
  SELECT MIN(doc_id) AS doc_id FROM surv GROUP BY dkey
)
SELECT s.lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(s.n_re_tokens) AS BIGINT) AS n_tokens
FROM surv s JOIN winners USING (doc_id)
GROUP BY s.lang ORDER BY s.lang
"""


# ---------------------------------------------------------------------------
# Gopher quality rules (Rae et al. 2021 §A1.1) — document-level signals
# ---------------------------------------------------------------------------

# Every threshold test is integer arithmetic on exact counts so the
# keep bit can never diverge from the oracle on a float boundary.
GOPHER_MIN_WORDS = 50
GOPHER_MAX_WORDS = 100_000
GOPHER_STOPWORDS = ("the", "and", "of", "a", "in", "to", "is")
GOPHER_MIN_STOP_KINDS = 2
_BULLET_RE = r"(?m)^[-*] "
_ELLIPSIS_RE = r"(?m)\.\.\.$"
_ALPHA_WORD_RE = r"[0-9]*[a-z][a-z0-9]*"


def q_gopher_rules(sf_dir: str):
    """Gopher-style quality filter: per document, the §A1.1 signals
    (word count, mean word length, symbol-to-word ratio, bullet /
    ellipsis line fractions, alphabetic-word fraction, distinct
    stopword kinds) and the integer-exact keep decision:

      50 <= n_words <= 100000, 3 <= mean word length <= 10,
      symbols/words < 0.1, bullet lines < 90%, ellipsis lines < 30%,
      alphabetic words >= 80%, >= 2 distinct stopwords.

    One zero-copy Arrow pass: every signal is a pyarrow.compute RE2
    count over the batch, the keep bit is pure int64 arithmetic
    (``10*symbols < n_words`` instead of ``symbols/n_words < 0.1``),
    so the stage streams at 100 TB with no driver state at all.
    Reference analog: the validator/cleaner M6 family
    (crawler/crawler.py row-sanity checks), generalized to the
    published Gopher rules."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        text = t["text"]
        low = pc.utf8_lower(text)
        i64 = pa.int64()

        def rcount(arr, pat):
            return pc.cast(pc.count_substring_regex(arr, pat), i64)

        n_words = rcount(low, WORD_RE)
        alnum_chars = rcount(low, r"[a-z0-9]")
        alpha_words = rcount(low, _ALPHA_WORD_RE)
        n_lines = pc.add(pc.cast(pc.count_substring(text, "\n"), i64), 1)
        bullet_lines = rcount(text, _BULLET_RE)
        ellipsis_lines = rcount(text, _ELLIPSIS_RE)
        symbols = pc.add(
            pc.cast(pc.count_substring(text, "#"), i64),
            pc.cast(pc.count_substring(text, "..."), i64),
        )
        stop_kinds = None
        for w in GOPHER_STOPWORDS:
            hit = pc.cast(pc.match_substring_regex(low, rf"\b{w}\b"), i64)
            stop_kinds = hit if stop_kinds is None else pc.add(stop_kinds, hit)

        def frac(num, den):
            return pc.if_else(
                pc.equal(den, 0),
                pa.scalar(0.0),
                pc.divide(pc.cast(num, pa.float64()), pc.cast(den, pa.float64())),
            )

        keep = pc.and_(pc.greater_equal(n_words, GOPHER_MIN_WORDS),
                       pc.less_equal(n_words, GOPHER_MAX_WORDS))
        keep = pc.and_(keep, pc.less_equal(pc.multiply(n_words, 3), alnum_chars))
        keep = pc.and_(keep, pc.less_equal(alnum_chars, pc.multiply(n_words, 10)))
        keep = pc.and_(keep, pc.less(pc.multiply(symbols, 10), n_words))
        keep = pc.and_(keep, pc.less(pc.multiply(bullet_lines, 10),
                                     pc.multiply(n_lines, 9)))
        keep = pc.and_(keep, pc.less(pc.multiply(ellipsis_lines, 10),
                                     pc.multiply(n_lines, 3)))
        keep = pc.and_(keep, pc.greater_equal(pc.multiply(alpha_words, 5),
                                              pc.multiply(n_words, 4)))
        keep = pc.and_(keep, pc.greater_equal(stop_kinds, GOPHER_MIN_STOP_KINDS))

        return pa.table({
            "doc_id": t["doc_id"],
            "n_words": n_words,
            "n_lines": n_lines,
            "mean_word_len": frac(alnum_chars, n_words),
            "bullet_frac": frac(bullet_lines, n_lines),
            "ellipsis_frac": frac(ellipsis_lines, n_lines),
            "alpha_word_frac": frac(alpha_words, n_words),
            "n_stop_kinds": stop_kinds,
            "keep": pc.cast(keep, i64),
        })

    out = ds.map_batches(stats, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


_SQL_STOP_KINDS = " + ".join(
    rf"CASE WHEN regexp_matches(lower(text), '\b{w}\b') THEN 1 ELSE 0 END"
    for w in GOPHER_STOPWORDS
)

SQL_GOPHER_RULES = rf"""
WITH s AS (
  SELECT doc_id,
         CAST(length(regexp_extract_all(lower(text), '{WORD_RE}')) AS BIGINT) AS n_words,
         CAST(length(regexp_extract_all(lower(text), '[a-z0-9]')) AS BIGINT) AS alnum_chars,
         CAST(length(regexp_extract_all(lower(text), '{_ALPHA_WORD_RE}')) AS BIGINT) AS alpha_words,
         CAST(length(string_split(text, chr(10))) AS BIGINT) AS n_lines,
         CAST(length(regexp_extract_all(text, '{_BULLET_RE}')) AS BIGINT) AS bullet_lines,
         CAST(length(regexp_extract_all(text, '{_ELLIPSIS_RE}')) AS BIGINT) AS ellipsis_lines,
         CAST(length(text) - length(replace(text, '#', ''))
              + (length(text) - length(replace(text, '...', ''))) / 3 AS BIGINT) AS symbols,
         CAST({_SQL_STOP_KINDS} AS BIGINT) AS stop_kinds
  FROM documents
)
SELECT doc_id, n_words, n_lines,
       CASE WHEN n_words = 0 THEN 0.0
            ELSE CAST(alnum_chars AS DOUBLE) / n_words END AS mean_word_len,
       CAST(bullet_lines AS DOUBLE) / n_lines AS bullet_frac,
       CAST(ellipsis_lines AS DOUBLE) / n_lines AS ellipsis_frac,
       CASE WHEN n_words = 0 THEN 0.0
            ELSE CAST(alpha_words AS DOUBLE) / n_words END AS alpha_word_frac,
       stop_kinds AS n_stop_kinds,
       CAST(n_words >= {GOPHER_MIN_WORDS} AND n_words <= {GOPHER_MAX_WORDS}
            AND 3 * n_words <= alnum_chars AND alnum_chars <= 10 * n_words
            AND 10 * symbols < n_words
            AND 10 * bullet_lines < 9 * n_lines
            AND 10 * ellipsis_lines < 3 * n_lines
            AND 5 * alpha_words >= 4 * n_words
            AND stop_kinds >= {GOPHER_MIN_STOP_KINDS} AS BIGINT) AS keep
FROM s ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# C4 document/line filters (Raffel et al. 2020 §2.2)
# ---------------------------------------------------------------------------

C4_LINE_MIN_WORDS = 3
C4_MIN_LINES = 3
_C4_TERMINAL_RE = r'[.!?"]$'


def q_c4_filters(sf_dir: str):
    """C4-style cleaning signals + decision (Raffel et al. §2.2): a
    document is dropped outright if it contains boilerplate markers
    (``lorem ipsum`` or a ``{``); lines survive only if they end in
    terminal punctuation, have >= 3 words and don't mention
    javascript; the document is kept if >= 3 lines survive.  Output
    is one row PER INPUT DOC — the signals (n_lines, n_kept_lines)
    and the keep bit for every document, with the reassembled
    ``clean_text`` only for keepers — so the query stays informative
    on corpora where the filter is very aggressive.

    Arrow end-to-end in one batch pass: line explode via
    ``split_pattern`` + ``list_parent_indices`` (zero-copy, no pandas
    object churn), per-line RE2 predicates, reassembly via Arrow
    ``group_by`` list aggregation + ``binary_join``, stitched back to
    the doc table with an in-batch Arrow left join.  Each document
    lives in one row so the explode never crosses a batch boundary —
    the stage is embarrassingly parallel and streams at any scale."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def clean(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        i64 = pa.int64()
        low_doc = pc.utf8_lower(t["text"])
        doc_ok = pc.and_(
            pc.invert(pc.match_substring(low_doc, "lorem ipsum")),
            pc.invert(pc.match_substring(t["text"], "{")),
        )
        lines = pc.split_pattern(t["text"], "\n")
        n_lines = pc.cast(pc.list_value_length(lines), i64)
        flat = pc.list_flatten(lines)
        doc_ids = pc.take(t["doc_id"], pc.list_parent_indices(lines))
        low = pc.utf8_lower(flat)
        line_ok = pc.and_(
            pc.and_(
                pc.match_substring_regex(flat, _C4_TERMINAL_RE),
                pc.greater_equal(
                    pc.cast(pc.count_substring_regex(low, WORD_RE), i64),
                    C4_LINE_MIN_WORDS,
                ),
            ),
            pc.invert(pc.match_substring(low, "javascript")),
        )
        kept = pa.table({"doc_id": doc_ids, "line": flat}).filter(line_ok)
        docs = pa.table({"doc_id": t["doc_id"], "n_lines": n_lines,
                         "doc_ok": doc_ok})
        if kept.num_rows:
            # group_by list-agg accumulates in scan order, i.e. the
            # original line order (each doc is one input row)
            g = kept.group_by("doc_id").aggregate([("line", "list")])
            g = pa.table({
                "doc_id": g["doc_id"],
                "n_kept_lines": pc.cast(pc.list_value_length(g["line_list"]), i64),
                "ct": pc.binary_join(g["line_list"], "\n"),
            })
            j = docs.join(g, keys="doc_id", join_type="left outer")
        else:
            j = docs.append_column("n_kept_lines", pa.nulls(docs.num_rows, i64))
            j = j.append_column("ct", pa.nulls(docs.num_rows, pa.string()))
        n_kept = pc.fill_null(j["n_kept_lines"], 0)
        keep = pc.and_(j["doc_ok"],
                       pc.greater_equal(n_kept, C4_MIN_LINES))
        return pa.table({
            "doc_id": j["doc_id"],
            "n_lines": j["n_lines"],
            "n_kept_lines": n_kept,
            "keep": pc.cast(keep, i64),
            "clean_text": pc.if_else(keep, j["ct"], pa.scalar(None, pa.string())),
        })

    out = ds.map_batches(clean, batch_format="pyarrow").to_pandas()
    out["clean_text"] = out["clean_text"].astype(object)
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_C4_FILTERS = (
    """
WITH d AS (
  SELECT doc_id, string_split(text, chr(10)) AS ls,
         (NOT contains(lower(text), 'lorem ipsum')
          AND NOT contains(text, chr(123))) AS doc_ok
  FROM documents
), l AS (
  SELECT doc_id, ls, unnest(range(1, len(ls) + 1)) AS i FROM d
), kept AS (
  SELECT doc_id, i, ls[i] AS line FROM l
  WHERE regexp_matches(ls[i], '"""
    + _C4_TERMINAL_RE
    + rf"""')
    AND length(regexp_extract_all(lower(ls[i]), '{WORD_RE}')) >= {C4_LINE_MIN_WORDS}
    AND NOT contains(lower(ls[i]), 'javascript')
), g AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_kept,
         string_agg(line, chr(10) ORDER BY i) AS ct
  FROM kept GROUP BY doc_id
)
SELECT d.doc_id,
       CAST(len(d.ls) AS BIGINT) AS n_lines,
       COALESCE(g.n_kept, 0) AS n_kept_lines,
       CAST(d.doc_ok AND COALESCE(g.n_kept, 0) >= {C4_MIN_LINES} AS BIGINT) AS keep,
       CASE WHEN d.doc_ok AND COALESCE(g.n_kept, 0) >= {C4_MIN_LINES}
            THEN g.ct END AS clean_text
FROM d LEFT JOIN g USING (doc_id) ORDER BY d.doc_id
"""
)

# ---------------------------------------------------------------------------
# n-gram novelty scoring (curation: how much of each doc is first-seen)
# ---------------------------------------------------------------------------

_NOV_GRAM = 8


def _doc_shingle_keys(t: pa.Table) -> pa.Table:
    """Distinct (k1, k2, doc_id) rows — a document's distinct word-8-
    gram keys (``shingle_occurrences``) — for one batch: docs are
    row-atomic, so batch-local dedup is globally exact per doc.  The
    combine under both first-occurrence exchanges, keyed on ``k1``."""
    from crawler_tjce_ray.functions.shingles import shingle_occurrences

    occ = shingle_occurrences(t["text"].to_pandas(), _NOV_GRAM) \
        .drop_duplicates(["row", "k1", "k2"])
    doc = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({"k1": occ["k1"].to_numpy(np.int64),
                     "k2": occ["k2"].to_numpy(np.int64),
                     "doc_id": doc[occ["row"].to_numpy()]})


def q_ngram_novelty(sf_dir: str):
    """Novelty score per document: the fraction of its distinct word-
    8-gram shingles whose GLOBAL first occurrence (min doc_id over the
    corpus) is this document — the "how much of this page is new text"
    signal curation pipelines use to down-weight boilerplate-heavy and
    scraped-again content (complement of the Lee-et-al. dedup view:
    there the repeated gram is removed, here it scores the doc).

    One streaming pass over text, zero driver text state: per-doc
    distinct (gram key, doc_id) rows (``_doc_shingle_keys``) ride ONE
    ``exchange.shuffle`` on the digest half ``k1`` (a gram's every
    occurrence lands in one bucket), and each bucket emits additive
    per-doc (n_grams, n_first) partials: every (doc, gram) row counts
    once in one bucket, and counts as first where the doc is its
    gram's min doc_id — what returns is bounded by #docs, never by
    gram volume.

    novelty = n_first / n_grams (exact integers; ratio deterministic),
    rounded to 6 dp like every libm-adjacent repo ratio."""
    nb = _nb_rows(sf_dir, 'documents')  # gram-volume exchange
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def doc_counts(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby(["k1", "k2"])["doc_id"].transform("min")
        return pd.DataFrame({
            "doc_id": g["doc_id"], "n_grams": np.int64(1),
            "n_first": (first == g["doc_id"]).astype("int64"),
        }).groupby("doc_id", as_index=False).sum()

    out = exchange.to_pandas(
        exchange.shuffle(ds, "k1", nb, doc_counts, combine=_doc_shingle_keys),
        doc_id="int64", n_grams="int64", n_first="int64",
    ).groupby("doc_id", as_index=False).sum()
    out["novelty"] = (
        out["n_first"].to_numpy(np.float64)
        / out["n_grams"].to_numpy(np.float64)
    ).round(6)
    return out.sort_values("doc_id").reset_index(drop=True)


# every word-8-gram occurrence ``g`` (space-split words, as the
# engine's shingles): the CTEs both first-occurrence oracles share
_SQL_GRAMS8 = """w AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), g AS (
  SELECT doc_id, array_to_string(ws[i:i+7], ' ') AS gram
  FROM (SELECT doc_id, ws, unnest(range(1, greatest(len(ws) - 6, 1))) AS i
        FROM w)
)"""

SQL_NGRAM_NOVELTY = f"""
WITH {_SQL_GRAMS8}, dg AS (
  SELECT DISTINCT doc_id, gram FROM g
), f AS (
  SELECT gram, MIN(doc_id) AS first_doc FROM dg GROUP BY gram
)
SELECT dg.doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams,
       CAST(COUNT(*) FILTER (f.first_doc = dg.doc_id) AS BIGINT) AS n_first,
       ROUND(CAST(COUNT(*) FILTER (f.first_doc = dg.doc_id) AS DOUBLE)
             / COUNT(*), 6) AS novelty
FROM dg JOIN f USING (gram)
GROUP BY dg.doc_id HAVING COUNT(*) > 0 ORDER BY dg.doc_id
"""



def q_vocab_growth(sf_dir: str):
    """Heaps-law curve: cumulative distinct word-8-gram vocabulary at
    ten doc_id cutoffs (deciles of the max id) — "how fast does new
    text stop being new", the saturation diagnostic behind corpus-
    size planning.  Reuses the ``ngram_novelty`` exchange: each
    gram's global FIRST doc_id is decided in its ``k1`` bucket, and a
    bucket emits one additive 10-bin histogram of first-ids binned by
    the broadcast cutoffs — the driver folds buckets × 10 ints and
    takes one cumulative sum."""
    from crawler_tjce_ray.sources.docs import documents_max_doc_id

    mx = documents_max_doc_id(sf_dir)
    cuts = np.array([int(np.ceil((i / 10.0) * mx)) for i in range(1, 11)],
                    dtype=np.int64)

    nb = _nb_rows(sf_dir, 'documents')  # gram-volume exchange
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def hist_bucket(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby(["k1", "k2"])["doc_id"].min().to_numpy(np.int64)
        # bin i counts grams first seen at doc_id <= cuts[i] but
        # > cuts[i-1]; searchsorted(left) gives the first cutoff >= fd
        idx = np.searchsorted(cuts, first, side="left")
        counts = np.bincount(idx, minlength=10)[:10]
        return pd.DataFrame({
            "bin": np.arange(10, dtype=np.int64),
            "n_new": counts.astype(np.int64),
        })

    parts = exchange.to_pandas(
        exchange.shuffle(ds, "k1", nb, hist_bucket, combine=_doc_shingle_keys),
        bin="int64", n_new="int64",
    ).groupby("bin", as_index=False)["n_new"].sum()
    full = np.zeros(10, dtype=np.int64)
    full[parts["bin"].to_numpy()] = parts["n_new"].to_numpy(np.int64)
    return pd.DataFrame({
        "decile": np.arange(1, 11, dtype=np.int64),
        "doc_cutoff": cuts,
        "vocab_size": np.cumsum(full).astype("int64"),
    })


SQL_VOCAB_GROWTH = f"""
WITH {_SQL_GRAMS8}, f AS (
  SELECT gram, MIN(doc_id) AS fd FROM g GROUP BY gram
), m AS (
  SELECT MAX(doc_id) AS mx FROM documents
), d AS (
  SELECT unnest(range(1, 11)) AS decile
)
SELECT CAST(d.decile AS BIGINT) AS decile,
       CAST(CEIL((d.decile / 10.0) * m.mx) AS BIGINT) AS doc_cutoff,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM f
        WHERE f.fd <= CEIL((d.decile / 10.0) * m.mx)) AS vocab_size
FROM d CROSS JOIN m ORDER BY decile
"""


QUERIES = {
    "gopher_rules": q_gopher_rules,
    "c4_filters": q_c4_filters,
    "pii_redact": q_pii_redact,
    "lang_median_chars": q_lang_median_chars,
    "char_entropy": q_char_entropy,
    "unigram_logprob": q_unigram_logprob,
    "perplexity_buckets": q_perplexity_buckets,
    "importance_weights": q_importance_weights,
    "bigram_logprob": q_bigram_logprob,
    "sample_to_budget": q_sample_to_budget,
    "line_filter": q_line_filter,
    "source_token_share": q_source_token_share,
    "repetition_stats": q_repetition_stats,
    "top_bigram_frac": q_top_bigram_frac,
    "decontaminate": q_decontaminate,
    "quantile_filter": q_quantile_filter,
    "curation_pipeline": q_curation_pipeline,
    "tfidf_keywords": q_tfidf_keywords,
    "ngram_novelty": q_ngram_novelty,
    "vocab_growth": q_vocab_growth,
}

ORACLE_SQL = {
    "gopher_rules": SQL_GOPHER_RULES,
    "c4_filters": SQL_C4_FILTERS,
    "pii_redact": SQL_PII_REDACT,
    "lang_median_chars": SQL_LANG_MEDIAN_CHARS,
    "char_entropy": SQL_CHAR_ENTROPY,
    "unigram_logprob": SQL_UNIGRAM_LOGPROB,
    "perplexity_buckets": SQL_PERPLEXITY_BUCKETS,
    "importance_weights": SQL_IMPORTANCE_WEIGHTS,
    "bigram_logprob": SQL_BIGRAM_LOGPROB,
    "sample_to_budget": SQL_SAMPLE_TO_BUDGET,
    "line_filter": SQL_LINE_FILTER,
    "source_token_share": SQL_SOURCE_TOKEN_SHARE,
    "repetition_stats": SQL_REPETITION_STATS,
    "top_bigram_frac": SQL_TOP_BIGRAM,
    "decontaminate": SQL_DECONTAMINATE,
    "quantile_filter": SQL_QUANTILE_FILTER,
    "curation_pipeline": _sql_curation(),
    "tfidf_keywords": SQL_TFIDF_KEYWORDS,
    "ngram_novelty": SQL_NGRAM_NOVELTY,
    "vocab_growth": SQL_VOCAB_GROWTH,
}
