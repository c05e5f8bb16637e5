"""Sharded URL-seen set: cuckoo-filter shards hosted in the fetch actors.

A shared mutable index is the one piece the Dataset API cannot
express (SURVEY.md §7.4), so the shards live in long-lived Ray actors
— the crawl's fetch pool, whose url-hash-partitioned actors already
run for the whole crawl.  Shard ``s`` is a plain ``CuckooFilter`` on
``hosts[s % len(hosts)]`` (the Mercator layout: the URL-seen test runs
at the node that owns the URL's partition), so the seen set costs no
processes of its own.  Everything talks to the shards in *batched,
vectorized* calls: one call per host actor per operation, carrying
``{shard_id: keys}``.  Shard count is fixed at creation and does not
depend on the host count (resharding = rebuild); every shard
serializes to bytes for the per-partition checkpoint.

Scale path: shard count ≈ cluster cores; each shard holds
``2^log2_buckets × 4`` 16-bit fingerprints (a 2^26-bucket shard ≈
512 MiB ≈ 2.7e8 urls at 0.95 load → 64 shards cover 1.7e10 urls).
"""

from __future__ import annotations

import numpy as np
import ray


class ShardedSeenSet:
    """Driver-side handle over K seen-set shards spread over the host
    actors (any actor exposing the ``seen_*`` methods of
    ``stages.fetch.FetchActor``).  The hosts' owner (``FetchPool``)
    owns their processes; this handle never kills them."""

    def __init__(self, n_shards: int, log2_buckets: int, hosts: list):
        self.n_shards = n_shards
        self.hosts = list(hosts)
        # blocking: actor start-up is paid (and start-up errors surface)
        # here, before the first wave, not inside the wave's seen check
        ray.get([
            h.seen_init.remote(ids, log2_buckets)
            for h, ids in self._host_shards().items()
        ])

    def _host_shards(self) -> dict:
        """host actor → its shard ids (shard s on hosts[s % n_hosts])."""
        n = len(self.hosts)
        return {h: list(range(i, self.n_shards, n))
                for i, h in enumerate(self.hosts[:self.n_shards])}

    def _route(self, keys: np.ndarray) -> np.ndarray:
        # route on HIGH bits: the cuckoo primary bucket is key & mask
        # (low bits), so low-bit routing would fix those bits per shard
        # and collapse usable i1 buckets to 1/n_shards (measured: shard
        # overflow at ~0.72 load instead of ~0.97)
        return ((keys >> np.uint64(32)) % np.uint64(self.n_shards)).astype(np.int64)

    def _scatter(self, keys: np.ndarray) -> dict:
        """host actor → {shard_id: row indices into ``keys``}, for the
        non-empty shards only."""
        shard = self._route(keys)
        out: dict = {}
        for s in range(self.n_shards):
            idx = np.nonzero(shard == s)[0]
            if idx.size:
                out.setdefault(self.hosts[s % len(self.hosts)], {})[s] = idx
        return out

    def check_and_add(self, keys: np.ndarray) -> np.ndarray:
        """True per key ⇔ already seen; unseen keys become seen.
        One batched call per host actor, issued in parallel."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(keys), dtype=bool)
        if keys.size == 0:
            return out
        parts = self._scatter(keys)
        masks = ray.get([
            h.seen_check_and_add.remote({s: keys[i] for s, i in rows.items()})
            for h, rows in parts.items()
        ])
        for rows, by_shard in zip(parts.values(), masks):
            for s, mask in by_shard.items():
                out[rows[s]] = mask
        return out

    def remove(self, keys: np.ndarray) -> int:
        """Un-see keys (politeness-denied urls re-entering the
        frontier); same shard routing as check_and_add."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return 0
        return sum(ray.get([
            h.seen_remove.remote({s: keys[i] for s, i in rows.items()})
            for h, rows in self._scatter(keys).items()
        ]))

    def _gather(self, method: str) -> list:
        """Call ``method`` on every host and return its per-shard
        values as a list in shard order."""
        merged: dict = {}
        for part in ray.get([
            getattr(h, method).remote() for h in self._host_shards()
        ]):
            merged.update(part)
        return [merged[s] for s in range(self.n_shards)]

    def counts(self) -> list[int]:
        return self._gather("seen_counts")

    def checkpoint(self) -> list[bytes]:
        return self._gather("seen_to_bytes")

    def restore(self, blobs: list[bytes]) -> None:
        assert len(blobs) == self.n_shards, "shard count is fixed at creation"
        ray.get([
            h.seen_load_bytes.remote({s: blobs[s] for s in ids})
            for h, ids in self._host_shards().items()
        ])
