"""Sharded URL-seen set: cuckoo-filter shards hosted in the fetch pool.

A shared mutable index is the one piece the Dataset API cannot
express (SURVEY.md §7.4), so the shards live in long-lived members of
the crawl's fetch pool, whose url-hash-partitioned members (the
driver, then Ray actors) already run for the whole crawl.  Shard
``s`` is a plain ``CuckooFilter`` on ``hosts[s % len(hosts)]`` (the
Mercator layout: the URL-seen test runs at the node that owns the
URL's partition), so the seen set costs no processes of its own.
Everything talks to the shards in *batched, vectorized* calls: one
call per host member per operation, carrying
``{shard_id: keys}``.  Shard count is fixed at creation and does not
depend on the host count (resharding = rebuild).  The shards start
with their hosts, and when the fetch pool grows, ``rehost`` moves each
shard whose host changed, as bytes.

Checkpoint = key log + snapshot by size.  A shard's bytes are a
deterministic function of the keys it was sent (no RNG in the cuckoo
insert), so the driver logs, per wave, the keys it sent to
``check_and_add`` and then to ``remove``: ``take_log`` serializes them
(8 B per key after a fixed header), a checkpoint holds one such
segment per wave it commits, and ``replay`` applies them in order on a
restore.  A full snapshot (``checkpoint``, every shard's bytes pulled
from the hosts) is only due once the log since the last one reaches a
snapshot's size (``snapshot_due``), so checkpoint bytes grow with the
keys seen, not with filter capacity × waves.  The driver also keeps
the key count (``count``), so no wave needs a round trip to read it.

Scale path: shard count ≈ cluster cores; each shard holds
``2^log2_buckets × 4`` 16-bit fingerprints (a 2^26-bucket shard ≈
512 MiB ≈ 2.7e8 urls at 0.95 load → 64 shards cover 1.7e10 urls).
"""

from __future__ import annotations

import numpy as np

from crawler_tjce_ray.stages.fetch import gather
from crawler_tjce_ray.state.cuckoo import CuckooFilter

# key-log header: int64 (n_shards, log2_buckets, n_checked, n_removed)
_LOG_HEADER = 32


class ShardedSeenSet:
    """Driver-side handle over K seen-set shards spread over the host
    members (a Ray actor or a ``stages.fetch.DriverMember`` exposing
    the ``seen_*`` methods of ``stages.fetch.FetchActor``; replies are
    read with ``stages.fetch.gather``), placed by ``rehost``.  The
    hosts' owner (``FetchPool``) owns their processes; this handle
    never kills them."""

    def __init__(self, n_shards: int, log2_buckets: int):
        self.n_shards = n_shards
        self.log2_buckets = log2_buckets
        self.hosts: list = []  # none until the first rehost
        self.count = 0        # keys held over all shards
        self.log_bytes = 0    # key-log bytes taken since the last snapshot
        # keys sent since the last take_log, in call order: one
        # check_and_add, then removes (the order replay applies them)
        self._checked: np.ndarray | None = None
        self._removed: list[np.ndarray] = []

    def rehost(self, hosts: list) -> None:
        """Move to ``hosts`` (the grown pool: the current hosts, then
        new ones), blocking: with no hosts yet, every shard starts
        empty on its host; otherwise each shard whose host
        ``s % len(hosts)`` changed goes over as its bytes.  ``count``
        and ``log_bytes`` are untouched, so ``seen_total`` and the
        snapshot schedule do not change."""
        n_old, n_new = len(self.hosts), len(hosts)
        old, self.hosts = self.hosts, list(hosts)
        if not n_old:
            gather([h.seen_init.remote(ids, self.log2_buckets)
                    for h, ids in self._host_shards().items()])
            return
        sources: dict = {}  # old host → the shards it hands over
        for s in range(self.n_shards):
            if s % n_old != s % n_new:
                sources.setdefault(old[s % n_old], []).append(s)
        targets: dict = {}  # new host → {shard: bytes} it takes over
        for part in gather([h.seen_to_bytes.remote(ids) for h, ids in sources.items()]):
            for s, blob in part.items():
                targets.setdefault(self.hosts[s % n_new], {})[s] = blob
        gather([h.seen_load_bytes.remote(targets.get(h, {}), sources.get(h, []))
                for h in dict.fromkeys([*sources, *targets])])

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
        # a shard probes a whole batch before inserting any of it, so
        # two batches do not replay as one: one check_and_add per log
        if self._checked is not None or self._removed:
            raise RuntimeError("one check_and_add per key log: take_log first")
        out = np.zeros(len(keys), dtype=bool)
        if keys.size:
            parts = self._scatter(keys)
            masks = gather([
                h.seen_check_and_add.remote({s: keys[i] for s, i in rows.items()})
                for h, rows in parts.items()
            ])
            for rows, by_shard in zip(parts.values(), masks):
                for s, mask in by_shard.items():
                    out[rows[s]] = mask
        self._checked = keys
        self.count += int((~out).sum())
        return out

    def remove(self, keys: np.ndarray) -> int:
        """Un-see keys (politeness-denied urls re-entering the
        frontier); same shard routing as check_and_add."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return 0
        removed = sum(gather([
            h.seen_remove.remote({s: keys[i] for s, i in rows.items()})
            for h, rows in self._scatter(keys).items()
        ]))
        self._removed.append(keys)
        self.count -= removed
        return removed

    # -- checkpoint -----------------------------------------------------
    def snapshot_due(self) -> bool:
        """The key log since the last snapshot has reached one
        snapshot's bytes: replaying it would cost more than reading
        a snapshot."""
        return self.log_bytes >= self.n_shards * CuckooFilter.blob_size(self.log2_buckets)

    def take_log(self) -> bytes:
        """The keys sent since the last call, serialized, and reset:
        the fixed header, the checked keys, then the removed keys."""
        checked = self._checked if self._checked is not None else np.empty(0, np.uint64)
        removed = np.concatenate(self._removed) if self._removed else np.empty(0, np.uint64)
        self._checked, self._removed = None, []
        header = np.array([self.n_shards, self.log2_buckets,
                           len(checked), len(removed)], dtype=np.int64)
        log = header.tobytes() + checked.tobytes() + removed.tobytes()
        self.log_bytes += len(log)
        return log

    def replay(self, log: bytes) -> None:
        """Apply ``take_log`` outputs, one after another in ``log`` (a
        group commit's waves): each one's checked keys through
        check_and_add, then its removed keys through remove."""
        at = 0
        while at < len(log):
            header = log[at:at + _LOG_HEADER]
            if len(header) < _LOG_HEADER:
                raise ValueError(f"seen log segment at byte {at} has a "
                                 f"{len(header)}-byte header")
            n_shards, log2_buckets, n_checked, n_removed = (
                int(v) for v in np.frombuffer(header, dtype=np.int64))
            if (n_shards, log2_buckets) != (self.n_shards, self.log2_buckets):
                raise ValueError(
                    f"seen log of {n_shards} shards × 2^{log2_buckets} buckets "
                    f"replayed onto {self.n_shards} × 2^{self.log2_buckets}")
            end = at + _LOG_HEADER + 8 * (n_checked + n_removed)
            if n_checked < 0 or n_removed < 0 or end > len(log):
                raise ValueError(
                    f"seen log segment at byte {at} holds "
                    f"{(len(log) - at - _LOG_HEADER) // 8} keys, header says "
                    f"{n_checked} + {n_removed}")
            keys = np.frombuffer(log[at + _LOG_HEADER:end], dtype=np.uint64)
            self.check_and_add(keys[:n_checked])
            self.remove(keys[n_checked:])
            self.take_log()  # the same log again: it counts toward log_bytes
            at = end

    def checkpoint(self) -> list[bytes]:
        """Every shard's bytes in shard order (a snapshot); the key log
        restarts from here."""
        merged: dict = {}
        for part in gather([h.seen_to_bytes.remote() for h in self._host_shards()]):
            merged.update(part)
        self.log_bytes = 0
        return [merged[s] for s in range(self.n_shards)]

    def restore(self, blobs: list[bytes]) -> None:
        if len(blobs) != self.n_shards:
            raise ValueError(f"{len(blobs)} shard blobs for {self.n_shards} shards")
        headers = [CuckooFilter.blob_header(b) for b in blobs]
        if any(log2 != self.log2_buckets for log2, _ in headers):
            raise ValueError(f"shard blobs are not 2^{self.log2_buckets} buckets")
        gather([
            h.seen_load_bytes.remote({s: blobs[s] for s in ids})
            for h, ids in self._host_shards().items()
        ])
        self.count = sum(count for _, count in headers)
        self.log_bytes = 0
