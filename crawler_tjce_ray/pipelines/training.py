"""Training-set assembly operators — the stages that sit between a
curated corpus and the training loop: the deterministic epoch shuffle,
exact repeated-n-gram duplication detection (the substring-dedup
signal of "Deduplicating Training Data Makes Language Models Better",
Lee et al. 2022), bigram LM counts, and day-over-day user retention.

Same discipline as the rest of the engine: vectorized map_batches
kernels, per-batch partials before any shuffle, coarse hash buckets
(never per-key dispatch) for the one shuffle each query needs, and
driver state bounded by O(result) or O(#buckets) — never O(corpus).

Scale notes per query are on the function docstrings; the common
theme is that every all-to-all exchange here is one
``exchange.shuffle``: (a) the uniform md5 range buckets of the epoch
shuffle (the range bucket ``sb`` is its own shuffle key, so bucket
order stays key order), (b) the window-digest and user-id shuffles,
each carrying fixed-width keys rather than text, with the per-batch
partial (``_doc_window_pairs``, ``_day_users``) as the combine, and
(c) the word-keyed bigram shuffles of ``bigram_lm`` and
``bigram_pmi_topk``, which share webtext's ``_bigram_counts`` partial.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from crawler_tjce_ray.pipelines import exchange
from crawler_tjce_ray.pipelines.relational import _nb_rows, _read
from crawler_tjce_ray.pipelines.textops import _read_docs
from crawler_tjce_ray.pipelines.webtext import (
    WORD_RE, _bigram_counts, _explode_words,
)

# ---------------------------------------------------------------------------
# deterministic epoch shuffle
# ---------------------------------------------------------------------------

EPOCH_SALT = "epoch7:"  # new salt per epoch => independent permutation


def _md5_hex(vals: pd.Series, salt: str) -> list[str]:
    """Full md5 hex digest per value (C-implemented hashlib; the
    int→str conversion is one vectorized pass — the q_hash_split
    recipe).  md5 is pinned because the DuckDB oracle computes the
    identical digest."""
    md5 = hashlib.md5
    strs = vals.astype("int64").astype(str).to_numpy()
    return [md5((salt + s).encode()).hexdigest() for s in strs]


def q_epoch_shuffle(sf_dir: str):
    """Deterministic global training-order shuffle: every document
    gets position ``pos`` in epoch order, where the order is the md5
    of (salt, doc_id) — reproducible across runs, machines and
    cluster sizes, and a fresh independent permutation per epoch salt.

    Distributed recipe (NOT ``ds.sort`` and NOT ``random_shuffle``,
    which are full materializing sorts): md5 keys are uniform, so the
    key's first bytes range-partition the corpus into ``nb`` equal
    buckets whose key order equals the bucket order.  ONE
    ``exchange.shuffle`` on the range bucket ``sb`` (below ``nb``, so
    its own bucket) sorts each bucket and numbers its rows ``lpos``
    independently; a document's position is then its rank in
    (``sb``, ``lpos``) order, a merge of sorted runs the driver reads
    anyway.  The shuffle carries (doc_id, 32-byte key) rows only — at
    100 TB the payload columns are re-attached later by doc_id, they
    never ride the shuffle."""
    ds = _read_docs(sf_dir, ["doc_id"])
    # uniform RANGE buckets (prefix order == bucket order), 256 floor,
    # widening with the corpus so one bucket's (doc_id, key) rows stay
    # task-sized; nb ≤ 65536, so two hex bytes scale the whole range
    nb = max(256, _nb_rows(sf_dir, "documents"))

    def keyed(t: pa.Table) -> pa.Table:
        skey = _md5_hex(t["doc_id"].to_pandas(), EPOCH_SALT)
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "skey": pa.array(skey, pa.string()),
            # first two hex bytes scaled to nb uniform range buckets;
            # fixed-width hex prefix order == numeric order, so bucket
            # order == key order at any nb (nb=256 → first byte)
            "sb": pa.array([int(k[:4], 16) * nb // 65536 for k in skey],
                           pa.int64()),
        })

    def enumerate_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["skey", "doc_id"], kind="mergesort").reset_index(drop=True)
        return pd.DataFrame({
            "sb": g["sb"],
            "lpos": np.arange(len(g), dtype=np.int64),
            "doc_id": g["doc_id"],
            "skey": g["skey"],
        })

    out = exchange.shuffle(ds, "sb", nb, enumerate_bucket, combine=keyed) \
        .to_pandas().sort_values(["sb", "lpos"]).reset_index(drop=True)
    return pd.DataFrame({
        "pos": np.arange(len(out), dtype=np.int64),
        "doc_id": out["doc_id"].astype("int64"),
        "skey": out["skey"],
    })


SQL_EPOCH_SHUFFLE = f"""
SELECT CAST(row_number() OVER (
         ORDER BY md5('{EPOCH_SALT}' || CAST(doc_id AS VARCHAR)), doc_id
       ) AS BIGINT) - 1 AS pos,
       doc_id,
       md5('{EPOCH_SALT}' || CAST(doc_id AS VARCHAR)) AS skey
FROM documents ORDER BY pos
"""


# ---------------------------------------------------------------------------
# exact repeated-n-gram duplication detection (substring-dedup signal)
# ---------------------------------------------------------------------------

DUP_N = 8  # words per window — the cross-doc duplication unit


def _doc_window_pairs(b) -> pd.DataFrame:
    """Distinct (doc_id, hash(window)) pairs for every DUP_N-word
    window of every document in the batch.  Windows are formed with
    plain frame-level shifts (vectorized); a window is valid iff the
    row DUP_N-1 ahead still belongs to the same doc, so no window
    crosses a document boundary.  Dedup happens here, doc-locally —
    the pairs stay globally distinct however Ray re-blocks them.
    The window digest is one vectorized process-stable siphash pass
    (8-byte keys on the gram exchange instead of 32-char md5 hex;
    collisions are the same 64-bit exposure the dedup gram digests
    carry, documented there), kept as its int64 view: the shuffle's
    integer rule takes the same low bits as the uint64 digest's."""
    ex = _explode_words(b)
    ng = ex["w"]
    for k in range(1, DUP_N):
        ng = ng + " " + ex["w"].shift(-k)
    valid = (ex["doc_id"].shift(-(DUP_N - 1)) == ex["doc_id"]).to_numpy()
    pairs = pd.DataFrame({"doc_id": ex["doc_id"], "ng": ng})[valid] \
        .drop_duplicates(["doc_id", "ng"])
    gkey = pd.util.hash_array(pairs["ng"].to_numpy(object))  # uint64
    return pd.DataFrame({"doc_id": pairs["doc_id"].to_numpy(np.int64),
                         "gkey": gkey.view(np.int64)})


def q_dup_ngram_docs(sf_dir: str):
    """Per document: how many of its distinct 8-word windows also
    appear in at least one OTHER document (exact match) — the
    repeated-substring signal Lee et al. cut training data on.  Docs
    with fewer than 8 words have no window and are excluded.

    Recipe: the combine of ONE ``exchange.shuffle`` on the window
    digest builds distinct (doc_id, hash(window)) pairs
    (``_doc_window_pairs``); in each bucket a gram's global doc-count
    decides sharedness, and the bucket emits additive per-doc
    (n_grams, n_shared) partials — pairs are globally distinct, so
    every (doc, window) counts once in one bucket.  The shuffle
    carries 8-byte digests, never window text; driver state is
    O(#docs) — the result itself.  At 100 TB the result would stream
    to parquet instead of the driver; the structure is unchanged."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    nb = _nb_rows(sf_dir, "documents")  # digest rows ride the exchange

    def doc_counts(g: pd.DataFrame) -> pd.DataFrame:
        # pairs are globally distinct per (doc, gram): size == #docs
        c = g.groupby("gkey")["doc_id"].transform("size")
        return pd.DataFrame({
            "doc_id": g["doc_id"], "n_grams": np.int64(1),
            "n_shared": (c >= 2).astype("int64"),
        }).groupby("doc_id", as_index=False).sum()

    def pairs(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(_doc_window_pairs(t), preserve_index=False)

    out = exchange.to_pandas(
        exchange.shuffle(ds, "gkey", nb, doc_counts, combine=pairs),
        doc_id="int64", n_grams="int64", n_shared="int64",
    ).groupby("doc_id", as_index=False).sum()
    out["shared_frac"] = out["n_shared"].to_numpy(np.float64) / out[
        "n_grams"
    ].to_numpy(np.float64)
    out["is_dup"] = (out["n_shared"] * 2 >= out["n_grams"]).astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_DUP_NGRAM_DOCS = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{WORD_RE}') AS ws FROM documents
), pos AS (
  SELECT doc_id, ws, unnest(range(1, len(ws) - {DUP_N - 2})) AS i
  FROM w WHERE len(ws) >= {DUP_N}
), g AS (
  SELECT DISTINCT doc_id,
         ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' || ws[i+3] || ' ' ||
         ws[i+4] || ' ' || ws[i+5] || ' ' || ws[i+6] || ' ' || ws[i+7] AS ng
  FROM pos
), cnt AS (
  SELECT ng, COUNT(*) AS c FROM g GROUP BY ng
), per AS (
  SELECT g.doc_id, COUNT(*) AS n_grams,
         SUM(CASE WHEN c >= 2 THEN 1 ELSE 0 END) AS n_shared
  FROM g JOIN cnt USING (ng) GROUP BY g.doc_id
)
SELECT doc_id,
       CAST(n_grams AS BIGINT) AS n_grams,
       CAST(n_shared AS BIGINT) AS n_shared,
       CAST(n_shared AS DOUBLE) / n_grams AS shared_frac,
       CAST(CASE WHEN n_shared * 2 >= n_grams THEN 1 ELSE 0 END AS BIGINT) AS is_dup
FROM per ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# bigram LM counts (conditional probabilities)
# ---------------------------------------------------------------------------

BIGRAM_TOPK = 20


def q_bigram_lm(sf_dir: str):
    """Corpus bigram language-model head: the {BIGRAM_TOPK} most
    frequent word bigrams with their count, the left-word bigram
    count and the conditional probability P(w2 | w1) = c12 / c1
    (denominator = w1's occurrences as a bigram left word, so the
    table is a proper conditional distribution).

    Recipe: per-batch partial bigram counts (``webtext._bigram_counts``,
    the combine — raw word streams never shuffle) → ONE
    ``exchange.shuffle`` on the word ``w1``, so every row of a given w1
    lands in one bucket and both c12 and the c1 marginal finalize
    in-bucket → per-bucket top-k, driver merge of ≤ buckets·k
    candidates.  Global top-k is safe because each bucket's counts
    are final (bucket key depends on w1 only)."""
    nb = _nb_rows(sf_dir, 'documents')  # row-carrying exchange
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def bucket_final(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["w1", "w2"], as_index=False).agg(c12=("c", "sum"))
        s["c1"] = s.groupby("w1")["c12"].transform("sum")
        return s.sort_values(["c12", "w1", "w2"],
                             ascending=[False, True, True],
                             kind="mergesort").head(BIGRAM_TOPK)

    cand = exchange.to_pandas(
        exchange.shuffle(ds, "w1", nb, bucket_final, combine=_bigram_counts),
        w1=object, w2=object, c12="int64", c1="int64")
    top = cand.sort_values(["c12", "w1", "w2"], ascending=[False, True, True],
                           kind="mergesort").head(BIGRAM_TOPK).reset_index(drop=True)
    return pd.DataFrame({
        "w1": top["w1"],
        "w2": top["w2"],
        "c12": top["c12"].astype("int64"),
        "c1": top["c1"].astype("int64"),
        "cond_p": top["c12"].to_numpy(np.float64) / top["c1"].to_numpy(np.float64),
    })


# the bigrams ``b`` of the word lists ``w`` and their counts ``c``:
# the CTEs both bigram oracles share
_SQL_BIGRAMS = """pos AS (
  SELECT doc_id, ws, unnest(range(1, len(ws))) AS i FROM w WHERE len(ws) >= 2
), b AS (
  SELECT ws[i] AS w1, ws[i + 1] AS w2 FROM pos
), c AS (
  SELECT w1, w2, COUNT(*) AS c12 FROM b GROUP BY w1, w2
)"""

SQL_BIGRAM_LM = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{WORD_RE}') AS ws FROM documents
), {_SQL_BIGRAMS}, d AS (
  SELECT w1, w2, c12, SUM(c12) OVER (PARTITION BY w1) AS c1 FROM c
)
SELECT w1, w2, CAST(c12 AS BIGINT) AS c12, CAST(c1 AS BIGINT) AS c1,
       CAST(c12 AS DOUBLE) / c1 AS cond_p
FROM d ORDER BY c12 DESC, w1, w2 LIMIT {BIGRAM_TOPK}
"""


# ---------------------------------------------------------------------------
# day-over-day retention
# ---------------------------------------------------------------------------

def _day_users(t: pa.Table) -> pa.Table:
    """Distinct (day, user_id) pairs of an events batch, ``day`` the
    event time floored to midnight: the combine under both user-bucket
    exchanges — at most one pair per user-day leaves a batch."""
    return pa.table({
        "day": pc.floor_temporal(t["ts"], unit="day"),
        "user_id": pc.cast(t["user_id"], pa.int64()),
    }).group_by(["day", "user_id"], use_threads=False).aggregate([])


def q_retention(sf_dir: str):
    """Cohort retention over the events stream: for every calendar
    day, how many distinct users were active, how many of those were
    also active the NEXT day, and the retention rate.

    Recipe: per-batch distinct (day, user) pairs (``_day_users``, the
    combine — event rows never shuffle) → ONE ``exchange.shuffle`` on
    user_id so each user's day history is complete in its bucket →
    vectorized next-day detection (sort + groupby-shift) emitting
    per-day additive partials → driver sum over O(#days × buckets)
    rows."""
    nb = _nb_rows(sf_dir, 'events')  # row-carrying exchange
    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def bucket_kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["day", "user_id"]).sort_values(
            ["user_id", "day"], kind="mergesort"
        )
        nxt = g.groupby("user_id")["day"].shift(-1)
        retained = ((nxt - g["day"]).dt.days == 1).to_numpy()
        act = g.groupby("day", as_index=False).agg(n_active=("user_id", "size"))
        ret = (
            g.loc[retained]
            .groupby("day", as_index=False)
            .agg(n_retained=("user_id", "size"))
        )
        m = act.merge(ret, on="day", how="left")
        m["n_retained"] = m["n_retained"].fillna(0).astype("int64")
        return m

    parts = exchange.shuffle(ds, "user_id", nb, bucket_kernel,
                             combine=_day_users).to_pandas()
    out = parts.groupby("day", as_index=False).agg(
        n_active=("n_active", "sum"), n_retained=("n_retained", "sum")
    )
    return pd.DataFrame({
        "day": out["day"].dt.strftime("%Y-%m-%d"),
        "n_active": out["n_active"].astype("int64"),
        "n_retained": out["n_retained"].astype("int64"),
        "retention": out["n_retained"].to_numpy(np.float64)
        / out["n_active"].to_numpy(np.float64),
    }).sort_values("day").reset_index(drop=True)


SQL_RETENTION = """
WITH du AS (
  SELECT DISTINCT CAST(ts AS DATE) AS d, user_id FROM events
)
SELECT strftime(a.d, '%Y-%m-%d') AS day,
       CAST(COUNT(*) AS BIGINT) AS n_active,
       CAST(COUNT(b.user_id) AS BIGINT) AS n_retained,
       CAST(COUNT(b.user_id) AS DOUBLE) / COUNT(*) AS retention
FROM du a LEFT JOIN du b ON a.user_id = b.user_id AND b.d = a.d + 1
GROUP BY a.d ORDER BY day
"""


ROLLING_WINDOW_DAYS = 7


def q_rolling_unique_users(sf_dir: str):
    """Exact trailing-7-day unique users per day — the rolling
    CARDINALITY window.  Unlike a rolling SUM this does not decompose
    over daily partials (uniques don't add), and the naive day×window
    self-join explodes at scale.

    Interval trick: a user contributes to day d iff they were active
    in [d−6, d], i.e. the user's coverage is the union of [a, a+6]
    over their active days a.  So: per-batch distinct (day, user)
    pairs (``_day_users``, the combine) → ONE ``exchange.shuffle`` on
    user_id where each user's sorted active days merge into coverage
    intervals VECTORIZED (gap > 6 starts a new interval) → each
    interval emits two diff rows (+1 at start, −1 past end), and each
    bucket marks its active days (``seen``) → additive per-day
    partials → O(#days) driver cumsum, read at the days some bucket
    marked.  Raw events never shuffle; nothing is ever user × day
    sized."""
    nb = _nb_rows(sf_dir, 'events')  # row-carrying exchange
    ds = _read(sf_dir, "events", ["ts", "user_id"])
    w = ROLLING_WINDOW_DAYS

    def diff_partial(g: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "day": g["day"].values.astype("datetime64[D]").astype(np.int64),
            "user_id": g["user_id"],
        }).drop_duplicates().sort_values(["user_id", "day"], kind="mergesort") \
            .reset_index(drop=True)
        prev = g.groupby("user_id", sort=False)["day"].shift()
        new_iv = (prev.isna() | (g["day"] - prev > w - 1)).to_numpy()
        seg = np.cumsum(new_iv)
        iv = pd.DataFrame({"seg": seg, "day": g["day"]}).groupby(
            "seg", as_index=False
        ).agg(s=("day", "min"), e=("day", "max"))
        days = g["day"].unique()
        one, none = np.ones(len(iv), np.int64), np.zeros(len(iv), np.int64)
        diff = pd.DataFrame({
            "day": np.concatenate([iv["s"], iv["e"] + w, days]),
            "delta": np.concatenate([one, -one, np.zeros(len(days), np.int64)]),
            "seen": np.concatenate([none, none, np.ones(len(days), np.int64)]),
        })
        return diff.groupby("day", as_index=False)[["delta", "seen"]].sum()

    diffs = exchange.shuffle(ds, "user_id", nb, diff_partial,
                             combine=_day_users).to_pandas() \
        .groupby("day", as_index=False)[["delta", "seen"]].sum()
    days = np.sort(diffs.loc[diffs["seen"] > 0, "day"].to_numpy(np.int64))
    # cumsum over the contiguous range, then select observed days
    lo, hi = int(diffs["day"].min()), int(diffs["day"].max())
    delta = np.zeros(hi - lo + 1, np.int64)
    delta[diffs["day"].to_numpy(np.int64) - lo] = diffs["delta"].to_numpy(np.int64)
    cov = np.cumsum(delta)
    return pd.DataFrame({
        "day": pd.to_datetime(days, unit="D").strftime("%Y-%m-%d"),
        "uniq7": cov[days - lo].astype("int64"),
    })


SQL_ROLLING_UNIQUE_USERS = f"""
WITH du AS (
  SELECT DISTINCT CAST(ts AS DATE) AS d, user_id FROM events
), days AS (SELECT DISTINCT d FROM du)
SELECT strftime(days.d, '%Y-%m-%d') AS day,
       CAST(COUNT(DISTINCT du.user_id) AS BIGINT) AS uniq7
FROM days JOIN du
  ON du.d BETWEEN days.d - {ROLLING_WINDOW_DAYS - 1} AND days.d
GROUP BY days.d ORDER BY day
"""



PMI_MIN_COUNT = 5
PMI_TOPK = 20


def q_bigram_pmi_topk(sf_dir: str):
    """Collocation mining: the {PMI_TOPK} adjacent word pairs with the
    highest pointwise mutual information among pairs seen at least
    {PMI_MIN_COUNT} times — the "new york"/"machine learning" detector
    (raw bigram frequency ranks stopword pairs; PMI ranks surprise).

    Three bounded pieces: (1) the ``bigram_lm`` w1-bucket exchange
    finalizes exact c12 counts and the min-count filter prunes the
    pair space (driver candidate state is bounded by vocab² AFTER the
    count cut — at web scale raise PMI_MIN_COUNT, same machinery);
    (2) one streaming unigram pass returns counts ONLY for the
    broadcast candidate words plus the additive token/bigram totals;
    (3) PMI = ln((c12/T)/((u1/N)·(u2/N))) evaluated with the same
    expression tree as the oracle, rounded to 6 dp, ranked (pmi desc,
    w1, w2) so rank boundaries never diverge."""
    nb = _nb_rows(sf_dir, 'documents')  # row-carrying exchange
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def bucket_final(g: pd.DataFrame) -> pd.DataFrame:
        sm = g.groupby(["w1", "w2"], as_index=False).agg(c12=("c", "sum"))
        return sm.loc[sm["c12"] >= PMI_MIN_COUNT]

    pairs = exchange.to_pandas(
        exchange.shuffle(ds, "w1", nb, bucket_final, combine=_bigram_counts),
        w1=object, w2=object, c12="int64")
    cand = set(pairs["w1"]) | set(pairs["w2"])

    def unigram_partial(t: pa.Table) -> pd.DataFrame:
        ex = _explode_words(t)
        n_tok = len(ex)
        # adjacent-pair total: tokens minus one per doc with >=1 token
        docs = ex["doc_id"].nunique() if n_tok else 0
        hits = ex.loc[ex["w"].isin(cand)].groupby("w", as_index=False) \
            .size().rename(columns={"size": "c"})
        hits = hits.rename(columns={"w": "word"})
        # sentinel keys outside WORD_RE's [a-z0-9]+ alphabet (a NUL
        # prefix gets truncated by the Arrow-backed groupby hashtable,
        # silently merging the two totals)
        totals = pd.DataFrame({
            "word": ["#N", "#T"],
            "c": [n_tok, max(n_tok - docs, 0)],
        })
        out = pd.concat([hits, totals])
        out["c"] = out["c"].astype("int64")
        out["word"] = out["word"].astype(object)
        return out

    uni = (
        ds.map_batches(unigram_partial, batch_format="pyarrow")
        .to_pandas().groupby("word", as_index=False)["c"].sum()
    )
    umap = dict(zip(uni["word"], uni["c"].astype("int64")))
    n_total = float(umap.pop("#N"))
    t_total = float(umap.pop("#T"))

    c12 = pairs["c12"].to_numpy(np.float64)
    u1 = pairs["w1"].map(umap).to_numpy(np.int64).astype(np.float64)
    u2 = pairs["w2"].map(umap).to_numpy(np.int64).astype(np.float64)
    pairs = pairs.assign(pmi=np.round(
        np.log((c12 / t_total) / ((u1 / n_total) * (u2 / n_total))), 6))
    top = pairs.sort_values(["pmi", "w1", "w2"],
                            ascending=[False, True, True],
                            kind="mergesort").head(PMI_TOPK)
    return pd.DataFrame({
        "w1": top["w1"].astype(object),
        "w2": top["w2"].astype(object),
        "c12": top["c12"].astype("int64"),
        "pmi": top["pmi"].astype("float64"),
    }).reset_index(drop=True)


SQL_BIGRAM_PMI_TOPK = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{WORD_RE}') AS ws
  FROM documents
), tok AS (
  SELECT unnest(ws) AS t FROM w
), u AS (
  SELECT t, COUNT(*) AS c FROM tok GROUP BY t
), nn AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM tok
), {_SQL_BIGRAMS}, tt AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS t FROM b
)
SELECT c.w1, c.w2, CAST(c.c12 AS BIGINT) AS c12,
       ROUND(LN((c.c12 / tt.t) / ((u1.c / nn.n) * (u2.c / nn.n))), 6) AS pmi
FROM c JOIN u u1 ON c.w1 = u1.t JOIN u u2 ON c.w2 = u2.t
CROSS JOIN nn CROSS JOIN tt
WHERE c.c12 >= {PMI_MIN_COUNT}
ORDER BY pmi DESC, c.w1, c.w2 LIMIT {PMI_TOPK}
"""

QUERIES = {
    "epoch_shuffle": q_epoch_shuffle,
    "dup_ngram_docs": q_dup_ngram_docs,
    "bigram_lm": q_bigram_lm,
    "bigram_pmi_topk": q_bigram_pmi_topk,
    "retention": q_retention,
    "rolling_unique_users": q_rolling_unique_users,
}

ORACLE_SQL = {
    "epoch_shuffle": SQL_EPOCH_SHUFFLE,
    "dup_ngram_docs": SQL_DUP_NGRAM_DOCS,
    "bigram_lm": SQL_BIGRAM_LM,
    "bigram_pmi_topk": SQL_BIGRAM_PMI_TOPK,
    "retention": SQL_RETENTION,
    "rolling_unique_users": SQL_ROLLING_UNIQUE_USERS,
}
