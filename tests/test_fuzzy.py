"""Unit tests for the deletion-neighborhood fuzzy-join internals:
the vectorized levenshtein<=1 verifiers against a reference DP, and
the blocking property (no true pair escapes the key shuffle)."""

import itertools
import random

import numpy as np
import pandas as pd

from crawler_tjce_ray.pipelines.fuzzy import (
    _deletion_keys,
    _lev_le1_scalar,
    _pairs_in_key_bucket,
    _verify_pairs,
)


def _lev(a: str, b: str) -> int:
    """Reference Wagner-Fischer DP."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _rand_names(rng, n, alphabet="ab01", lo=0, hi=7):
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))
            for _ in range(n)]


def test_scalar_verifier_matches_dp():
    rng = random.Random(7)
    names = _rand_names(rng, 120)
    for a, b in itertools.islice(itertools.combinations(names, 2), 4000):
        assert _lev_le1_scalar(a, b) == (_lev(a, b) <= 1), (a, b)


def test_vectorized_verifier_matches_dp():
    rng = random.Random(11)
    names = sorted(set(_rand_names(rng, 80, lo=1, hi=6)))
    pairs = [(a, b) for a, b in itertools.combinations(names, 2)
             if abs(len(a) - len(b)) <= 1]
    df = pd.DataFrame({"name_a": [p[0] for p in pairs],
                       "name_b": [p[1] for p in pairs]})
    got = _verify_pairs(df)
    want = {(a, b) for a, b in pairs if _lev(a, b) == 1}
    assert set(zip(got["name_a"], got["name_b"])) == want
    assert (got["dist"] == 1).all()


def test_vectorized_verifier_non_ascii_fallback():
    df = pd.DataFrame({
        "name_a": ["héllo", "héllo", "naïve"],
        "name_b": ["hállo", "héllos", "naive"],
    })
    got = set(zip(_verify_pairs(df)["name_a"], _verify_pairs(df)["name_b"]))
    assert got == {("héllo", "hállo"), ("héllo", "héllos"), ("naïve", "naive")}


def test_blocking_never_loses_a_true_pair():
    """Every levenshtein<=1 pair must share a deletion key: candidates
    recovered from the key buckets ⊇ the true pair set."""
    rng = random.Random(13)
    names = sorted(set(_rand_names(rng, 60, lo=1, hi=5)))
    p = _pairs_in_key_bucket(_deletion_keys(pd.DataFrame({"name": names})))
    cands = set(zip(p["name_a"], p["name_b"]))
    for a, b in itertools.combinations(names, 2):
        if _lev(a, b) <= 1:
            assert (a, b) in cands, (a, b)


def test_deletion_keys_shape():
    keys = _deletion_keys(pd.DataFrame({"name": ["ab"]}))
    assert set(zip(keys["key"], keys["name"])) == {
        ("ab", "ab"), ("b", "ab"), ("a", "ab"),
    }
    empty = _deletion_keys(pd.DataFrame({"name": pd.Series([], dtype=object)}))
    assert len(empty) == 0 and list(empty.columns) == ["key", "name"]
