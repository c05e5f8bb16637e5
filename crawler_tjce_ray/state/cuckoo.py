"""A bounded-memory, serializable cuckoo filter (numpy).

The URL-seen set of the frontier (north rule): approximate membership
with a bounded false-positive rate, O(1) insert/lookup, and — unlike a
Bloom filter — support for a dense load factor with 4-slot buckets.
Layout: ``2^log2_buckets`` buckets × 4 slots of uint16 fingerprints
(0 = empty).  Standard partial-key cuckoo hashing (Fan et al., 2014,
"Cuckoo Filter: Practically Better Than Bloom", CoNEXT):
``i2 = i1 XOR hash(fingerprint)``.

Determinism: eviction slot choice cycles with the kick counter (no
RNG), so identical insert sequences produce identical filter bytes —
required for the resume-identical checkpoint contract.

Keys are 64-bit integers (the first 8 bytes of ``sha1(canonical_url)``,
see ``state.frontier.url_sha1_64``).
"""

from __future__ import annotations

import numpy as np

_EMPTY = 0
_SLOTS = 4
_MAX_KICKS = 500
# serialized header: int64 (log2_buckets, count)
_HEADER_BYTES = 16
# Knuth multiplicative constant for fingerprint→bucket mixing
_FP_MIX = np.uint64(0x9E3779B97F4A7C15)


class CuckooFilter:
    def __init__(self, log2_buckets: int = 16):
        self.log2_buckets = log2_buckets
        self.n_buckets = 1 << log2_buckets
        self.mask = np.uint64(self.n_buckets - 1)
        self.table = np.zeros((self.n_buckets, _SLOTS), dtype=np.uint16)
        self.count = 0

    # -- hashing --------------------------------------------------------
    def _fingerprint(self, keys: np.ndarray) -> np.ndarray:
        fp = ((keys >> np.uint64(48)) ^ (keys >> np.uint64(32)) ^ keys).astype(np.uint16)
        # fingerprint 0 is the empty marker — remap to 1
        fp[fp == _EMPTY] = 1
        return fp

    def _index1(self, keys: np.ndarray) -> np.ndarray:
        return (keys & self.mask).astype(np.int64)

    def _alt_index(self, idx: np.ndarray, fp: np.ndarray) -> np.ndarray:
        mixed = (fp.astype(np.uint64) * _FP_MIX) & self.mask
        return (idx.astype(np.uint64) ^ mixed).astype(np.int64)

    # -- vectorized membership -----------------------------------------
    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership test: bool array per key."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        fp = self._fingerprint(keys)
        i1 = self._index1(keys)
        i2 = self._alt_index(i1, fp)
        b1 = self.table[i1]  # (n, SLOTS)
        b2 = self.table[i2]
        f = fp[:, None]
        return ((b1 == f).any(axis=1)) | ((b2 == f).any(axis=1))

    # -- insert ---------------------------------------------------------
    def add(self, keys: np.ndarray) -> int:
        """Insert keys (idempotent-ish: skips keys already present).
        Returns the number of newly inserted keys.  Raises
        ``RuntimeError`` when the filter is too full (caller sizes
        shards so this never happens in practice; checkpointed shard
        counts are fixed up front — resharding = rebuild)."""
        keys = np.asarray(keys, dtype=np.uint64)
        inserted = 0
        present = self.contains(keys)
        for k, p in zip(keys, present):
            if p:
                continue
            self._insert_one(np.uint64(k))  # increments count itself
            inserted += 1
        return inserted

    def _insert_one(self, key: np.uint64) -> None:
        fp = int(self._fingerprint(np.array([key], dtype=np.uint64))[0])
        i1 = int(self._index1(np.array([key], dtype=np.uint64))[0])
        i2 = int(self._alt_index(np.array([i1]), np.array([fp], dtype=np.uint16))[0])
        for idx in (i1, i2):
            row = self.table[idx]
            empty = np.where(row == _EMPTY)[0]
            if empty.size:
                row[empty[0]] = fp
                self.count += 1
                return
        # evict deterministically
        idx = i1
        cur = np.uint16(fp)
        for kick in range(_MAX_KICKS):
            slot = kick % _SLOTS
            cur, self.table[idx, slot] = self.table[idx, slot], cur
            idx = int(self._alt_index(np.array([idx]), np.array([cur], dtype=np.uint16))[0])
            row = self.table[idx]
            empty = np.where(row == _EMPTY)[0]
            if empty.size:
                row[empty[0]] = cur
                self.count += 1
                return
        # OVERFLOW CONTRACT: the partially-applied eviction chain drops
        # one fingerprint, so the shard is no longer trustworthy — the
        # caller must treat this as fatal and restore the shard from
        # its last checkpoint (run_crawl does: the wave fails before
        # its checkpoint is written, and resume reloads wave k-1).
        raise RuntimeError(
            f"cuckoo filter over capacity (count={self.count}, buckets={self.n_buckets})"
        )

    def check_and_add(self, keys: np.ndarray) -> np.ndarray:
        """The seen-set primitive: per key, True if it was ALREADY seen;
        unseen keys are inserted.  Duplicate keys within one call: the
        first occurrence reports unseen, the rest seen."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        seen = self.contains(keys)  # one vectorized probe for the batch
        out = seen.copy()
        # within-batch duplicates: only the first occurrence is "unseen"
        _, first_idx = np.unique(keys, return_index=True)
        first_mask = np.zeros(len(keys), dtype=bool)
        first_mask[first_idx] = True
        out |= ~first_mask
        for k in keys[first_mask & ~seen]:
            self._insert_one(np.uint64(k))  # increments count itself
        return out

    # -- delete ---------------------------------------------------------
    def remove(self, keys: np.ndarray) -> int:
        """Cuckoo deletion: clear one matching fingerprint slot from
        either candidate bucket per key.  Used when a selected URL was
        marked seen but ultimately NOT fetched (politeness denial) so
        it can re-enter the frontier.  Returns keys actually removed."""
        keys = np.asarray(keys, dtype=np.uint64)
        removed = 0
        for k in keys:
            arr = np.array([k], dtype=np.uint64)
            fp = np.uint16(self._fingerprint(arr)[0])
            i1 = int(self._index1(arr)[0])
            i2 = int(self._alt_index(np.array([i1]), np.array([fp], dtype=np.uint16))[0])
            for idx in (i1, i2):
                row = self.table[idx]
                hit = np.where(row == fp)[0]
                if hit.size:
                    row[hit[0]] = _EMPTY
                    removed += 1
                    self.count -= 1
                    break
        return removed

    # -- checkpoint -----------------------------------------------------
    @staticmethod
    def blob_size(log2_buckets: int) -> int:
        """Bytes of ``to_bytes`` for a filter of ``2^log2_buckets``."""
        return _HEADER_BYTES + (1 << log2_buckets) * _SLOTS * 2

    @staticmethod
    def blob_header(blob: bytes) -> tuple[int, int]:
        """``(log2_buckets, count)`` of a ``to_bytes`` blob."""
        log2_buckets, count = np.frombuffer(blob[:_HEADER_BYTES], dtype=np.int64)
        return int(log2_buckets), int(count)

    def to_bytes(self) -> bytes:
        header = np.array([self.log2_buckets, self.count], dtype=np.int64).tobytes()
        return header + self.table.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CuckooFilter":
        log2_buckets, count = cls.blob_header(blob)
        f = cls(log2_buckets)
        f.count = count
        f.table = np.frombuffer(blob[_HEADER_BYTES:], dtype=np.uint16).reshape(f.n_buckets, _SLOTS).copy()
        return f
