"""Vectorized word-shingle key extraction — the shared kernel behind
the cross-source overlap matrix, n-gram novelty scoring and the
Heaps-law vocabulary curve.

The naive form loops Python-side over documents and calls md5 once
per gram — ~1M hash calls at sf0.1 and the textbook hot-path
anti-pattern at 100 TB.  Here the whole batch flattens once, gram
windows come from shifted slices of the flat word array (a window is
valid iff its first and last word share a row), the window strings
concatenate as numpy object-array ops, and gram identity is TWO
independently-keyed 64-bit siphashes (``pd.util.hash_array`` with
fixed 16-byte keys — deterministic across processes, unlike Python's
salted ``hash``).  128 identity bits keep accidental gram collisions
out of reach (~2⁻⁶⁴ per pair even at 10¹² distinct grams); the hashes
are engine-internal only — every DuckDB oracle compares raw gram
strings, so the scheme never has to match SQL.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_K1 = "tjce-shingle-k1!"  # 16 bytes, pinned (cross-process identity)
_K2 = "tjce-shingle-k2!"


def shingle_keys(grams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two int64 identity halves ``(k1, k2)`` of each string in
    ``grams`` (an object array): two fixed-key siphashes, vectorized."""
    return tuple(
        pd.util.hash_array(grams, hash_key=k, categorize=False).view(np.int64)
        for k in (_K1, _K2))


def shingle_occurrences(texts: pd.Series, n: int = 8) -> pd.DataFrame:
    """Every n-word window of every text, vectorized: returns one row
    per OCCURRENCE with columns ``row`` (position of the text inside
    the input batch) and ``k1``/``k2`` (the two int64 identity halves,
    ``shingle_keys``).  A gram-volume exchange keys on ``k1``:
    ``exchange.shuffle``'s integer rule puts every occurrence of a gram
    in one bucket at any fan-out.  Texts shorter than n words
    contribute nothing.  Callers aggregate: distinct-per-doc, counts
    per (gram, attribute), etc."""
    toks = texts.str.split(" ")
    lens = toks.str.len().to_numpy(np.int64)
    total = int(lens.sum())
    empty = pd.DataFrame({c: pd.Series([], dtype="int64")
                          for c in ("row", "k1", "k2")})
    if total < n:
        return empty
    flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
    row = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    # a window starting at i is valid iff word i+n-1 exists and lives
    # in the same row — one vectorized compare over the shifted rows
    ok = row[: total - n + 1] == row[n - 1:]
    starts = np.flatnonzero(ok)
    if not len(starts):
        return empty
    gram = flat[starts].copy()
    for k in range(1, n):
        gram = gram + " "
        gram = gram + flat[starts + k]
    k1, k2 = shingle_keys(gram)
    return pd.DataFrame({"row": row[starts], "k1": k1, "k2": k2})
