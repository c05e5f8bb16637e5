"""The wave-synchronous frontier crawl (SURVEY.md §7.1, the north rule
architecture):

    seeds → frontier ──per wave──►
      select (priority sort + per-host politeness cap + wave cap)
      → URL-seen filter (cuckoo shards hosted in the fetch actors,
        check-and-add)
      → fetch (actor pool: page-store lookup + robots + token bucket)
      → parse (stateless DSR extract) → records/<kind>/wave=k parquet
      → outlinks → frontier ∪ new urls
      → checkpoint (frontier, seen key log + cuckoo shard snapshot
        by size, lineage, metrics)

Determinism contract: crawl order is defined by the frontier sort key
(priority=depth, next_fetch_wave, url) — a total order — never by
fetch completion; a killed run resumed from wave k reproduces waves
k+1.. byte-identically (tested).  The seen set resumes from its newest
shard snapshot at or before wave k plus a replay of the later waves'
key logs (``stages.seen``); a snapshot is written when the logs since
the last one reach a snapshot's bytes, and at the crawl's last
checkpoint.

Scale notes: the per-wave working set is bounded by ``wave_size``.
Below ``distributed_select_threshold`` pending urls the frontier is a
driver pandas frame; above it the frontier is a Dataset end-to-end —
selection (sort + groupby(host).map_groups(head) + limit), outlink
membership (streaming semi-join probe) and the checkpoint write all
run distributed, the frontier re-enters each wave from the
checkpoint's Parquet, and the driver holds only wave-sized frames and
counters.  The two modes are semantically identical (pinned by
tests/test_frontier_distributed.py) and a crawl migrates between them
as the frontier grows or drains.  Records and page-store IO are
always distributed.
"""

from __future__ import annotations

import glob
import json
import os
import re
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

try:
    from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
except ImportError:  # pragma: no cover
    # aiohttp is absent here, so this import always fails — and Ray's
    # write_parquet re-attempts it per call, which under concurrent
    # writes raises a plain ImportError (failed-module retry) that Ray
    # does not catch (it only catches ModuleNotFoundError).  Install a
    # stub with a sentinel class so the check is deterministic and
    # thread-safe; isinstance against the sentinel is always False.
    import sys as _sys
    import types as _types

    _stub = _types.ModuleType("fsspec.implementations.http")

    class _NoHTTPFileSystem:
        pass

    _stub.HTTPFileSystem = _NoHTTPFileSystem
    _sys.modules["fsspec.implementations.http"] = _stub

from crawler_tjce_ray.stages.fetch import (
    DEFAULT_STORE_BUCKETS,
    FetchPool,
    build_page_store,
)
from crawler_tjce_ray.stages.seen import ShardedSeenSet
from crawler_tjce_ray.state.frontier import (
    FRONTIER_COLUMNS,
    assert_frontier_unique,
    canonicalize_url,
    make_frontier_rows,
    select_wave,
    select_wave_distributed,
)


def _keys_present(frontier_ds, keys: np.ndarray) -> np.ndarray:
    """Which of ``keys`` already exist in the pending frontier — the
    Dataset-mode analog of the driver's ``isin(set(frontier.url))``
    membership check.  One streaming semi-join pass: the (wave-sized)
    probe keys broadcast once via ``ray.put``; each frontier batch
    returns only its hits, so the driver sees at most ``len(keys)``
    rows back regardless of frontier size."""
    if len(keys) == 0:
        return np.empty(0, dtype=np.uint64)
    keys_ref = ray.put(np.unique(keys.astype(np.uint64)))

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(keys_ref)
        v = df["url_key"].to_numpy(dtype=np.uint64)
        return pd.DataFrame({"url_key": v[np.isin(v, ks)]})

    hits = frontier_ds.map_batches(probe, batch_format="pandas").to_pandas()
    if hits.empty or "url_key" not in hits.columns:
        # an all-empty result drops its schema on to_pandas
        return np.empty(0, dtype=np.uint64)
    return hits["url_key"].to_numpy(dtype=np.uint64)

@dataclass
class CrawlConfig:
    wave_size: int = 256
    per_host_budget: int = 8          # politeness: fetches per host per wave
    max_waves: int = 100              # O7 crawl depth cap (reference max_pages)
    # URL-seen shards, hosted in the fetch actors (shard s on actor
    # s % n_fetch); the count, not the actor count, fixes the checkpoint
    n_seen_shards: int = 4
    log2_buckets: int = 16
    store_buckets: int = DEFAULT_STORE_BUCKETS
    fetch_concurrency: int = 4
    fetch_batch_size: int = 64
    current_year: int = 2026
    extract_records: bool = True
    # pending-url count above which the frontier lives as a Dataset
    # (Parquet-backed between waves, Dataset selection/membership/
    # checkpoint) instead of driver pandas; equivalence of the two
    # paths is pinned by tests
    distributed_select_threshold: int = 500_000
    # in-actor per-host token-bucket grants per wave (defense-in-depth
    # behind the wave-selection budget; denied urls are un-seen and
    # requeued, never lost).  The default never denies because the
    # authoritative budget is per_host_budget at selection time.
    actor_token_rate: int = 10**9
    # T1 retry policy: extra attempts per transient store-read failure
    fetch_max_retries: int = 3
    # T6 robots-cache TTL in waves (None = cache forever)
    robots_ttl_waves: int | None = None


@dataclass
class CrawlResult:
    workdir: str
    waves_run: int
    trace: pd.DataFrame               # (wave, order_in_wave, url, status, seed)
    metrics: list[dict] = field(default_factory=list)
    actor_stats: dict = field(default_factory=dict)  # merged pool counters (T8)

    @property
    def records_dir(self) -> str:
        return os.path.join(self.workdir, "records")


def default_seeds() -> list[str]:
    """The corpus entry points: the entity list + the two global chains
    (the reference's three crawl entry points, main.py routes)."""
    from crawler_tjce_ray.dsr.synth import DOMINANT_HOST

    return [
        f"https://{DOMINANT_HOST}/powerbi/entities/page/0",
        f"https://{DOMINANT_HOST}/powerbi/editais/page/0",
        f"https://{DOMINANT_HOST}/powerbi/pagamentos/page/0",
    ]


def _ckpt_dir(workdir: str, wave: int) -> str:
    return os.path.join(workdir, "ckpt", f"wave_{wave:05d}")


def _completed_waves(workdir: str) -> list[int]:
    """Sorted waves whose checkpoint is complete (``_SUCCESS`` in a
    ``wave_<n>`` dir).  Strict name match: a crash between writing
    _SUCCESS into the tmp dir and the atomic rename leaves
    'wave_NNNNN.tmp' behind — it must be ignored, not crash every
    future resume."""
    base = os.path.join(workdir, "ckpt")
    if not os.path.isdir(base):
        return []
    waves = []
    for name in os.listdir(base):
        m = re.fullmatch(r"wave_(\d+)", name)
        if m and os.path.exists(os.path.join(base, name, "_SUCCESS")):
            waves.append(int(m.group(1)))
    return sorted(waves)


def _drop_record_waves(records_dir: str, start_wave: int) -> None:
    """Delete ``records/<kind>/wave=k`` directories for k >= start_wave
    (resume hygiene: those waves will be re-run and re-written)."""
    if not os.path.isdir(records_dir):
        return
    for kind in os.listdir(records_dir):
        kind_dir = os.path.join(records_dir, kind)
        if not os.path.isdir(kind_dir):
            continue
        for name in os.listdir(kind_dir):
            if name.startswith("wave=") and name[5:].isdigit():
                if int(name[5:]) >= start_wave:
                    shutil.rmtree(os.path.join(kind_dir, name), ignore_errors=True)


_FRONTIER_DIRNAME = "frontier_parquet"
_SEEN_LOG = "seen_log.bin"


def _shard_path(d: str, i: int) -> str:
    return os.path.join(d, f"seen_shard_{i}.bin")


def _parquet_dir_rows(d: str) -> int:
    """Row count of a parquet directory from file metadata only — the
    per-wave pending-count read never touches row data."""
    import pyarrow.parquet as pq

    return sum(
        pq.ParquetFile(p).metadata.num_rows
        for p in glob.glob(os.path.join(d, "*.parquet"))
    )


def _write_checkpoint(workdir: str, wave: int, frontier,
                      seen: ShardedSeenSet, lineage: pd.DataFrame,
                      metrics: dict, last: bool = False,
                      prev_t_ckpt: float | None = None) -> int:
    """Atomic per-wave checkpoint: tmp dir + rename, _SUCCESS marker.

    ``frontier`` is either the driver pandas frame (small-frontier
    mode, single ``frontier.parquet``) or a ``ray.data.Dataset``
    (large-frontier mode: a distributed ``frontier_parquet/`` write —
    the frontier never materializes on the driver).  Returns the
    pending-row count and records it as ``metrics['frontier_pending']``
    so the Dataset path needs no extra counting pass.

    The seen set goes in as the wave's key log; the full
    ``seen_shard_<i>.bin`` snapshot is added only when due by size, or
    when this is the crawl's last checkpoint (``last``: the wave cap
    is reached, or no url is pending).  ``metrics.json`` also carries
    the previous wave's ``t_ckpt`` as ``prev_t_ckpt`` (a wave's own is
    known only once its checkpoint is written)."""
    final = _ckpt_dir(workdir, wave)
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    if isinstance(frontier, pd.DataFrame):
        frontier.reset_index(drop=True).to_parquet(
            os.path.join(tmp, "frontier.parquet")
        )
        pending = int(len(frontier))
    else:
        fdir = os.path.join(tmp, _FRONTIER_DIRNAME)
        frontier.write_parquet(fdir)
        pending = _parquet_dir_rows(fdir)
    metrics["frontier_pending"] = pending
    with open(os.path.join(tmp, _SEEN_LOG), "wb") as f:
        f.write(seen.take_log())
    if last or pending == 0 or seen.snapshot_due():
        for i, blob in enumerate(seen.checkpoint()):
            with open(_shard_path(tmp, i), "wb") as f:
                f.write(blob)
    lineage.to_parquet(os.path.join(tmp, "lineage.parquet"))
    with open(os.path.join(tmp, "metrics.json"), "w") as f:
        json.dump({**metrics, "prev_t_ckpt": prev_t_ckpt}, f)
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write("ok\n")
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    return pending


def _load_checkpoint(workdir: str, wave: int, seen: ShardedSeenSet,
                     threshold: int):
    """Restore (frontier, pending) from a wave checkpoint.  A frontier
    saved by the Dataset path comes back as a Dataset when still above
    the threshold, else collapses to the driver frame.  The seen set
    is the newest shard snapshot at or before ``wave`` (else fresh
    shards) plus each later completed wave's key log, replayed in
    wave order."""
    d = _ckpt_dir(workdir, wave)
    single = os.path.join(d, "frontier.parquet")
    if os.path.exists(single):
        frontier = pd.read_parquet(single)
        pending = len(frontier)
    else:
        fdir = os.path.join(d, _FRONTIER_DIRNAME)
        pending = _parquet_dir_rows(fdir)
        if pending > threshold:
            import ray.data as rd

            frontier = rd.read_parquet(fdir)
        else:
            frontier = pd.read_parquet(fdir) if pending else make_frontier_rows([])
            if pending:
                frontier["url_key"] = frontier["url_key"].astype("uint64")
    waves = [w for w in _completed_waves(workdir) if w <= wave]
    snaps = [w for w in waves
             if os.path.exists(_shard_path(_ckpt_dir(workdir, w), 0))]
    if snaps:
        snap = _ckpt_dir(workdir, snaps[-1])
        blobs = []
        for i in range(len(glob.glob(os.path.join(snap, "seen_shard_*.bin")))):
            with open(_shard_path(snap, i), "rb") as f:
                blobs.append(f.read())
        seen.restore(blobs)
    for w in waves:
        if not snaps or w > snaps[-1]:
            with open(os.path.join(_ckpt_dir(workdir, w), _SEEN_LOG), "rb") as f:
                seen.replay(f.read())
    return frontier, pending


def _flatten_outlinks(t: pa.Table) -> pa.Table:
    """Fetched wave table → outlink rows (out_url, seed, depth).

    Links come from the page's embedded hyperlink list plus the
    restart-token chain (T2: the RT cursor implies the next page of
    the chain; the generator embeds it as a link too, so this is the
    union).  Link *discovery* happens inside the fetch actors
    (distributed, page already in memory); this is just the vectorized
    list-flatten of that column."""
    links = t["links"].combine_chunks()
    if isinstance(links, pa.ChunkedArray):  # zero-chunk edge
        links = pa.concat_arrays(links.chunks or [pa.array([], pa.list_(pa.string()))])
    lengths = pa.compute.fill_null(pa.compute.list_value_length(links), 0)
    parents = np.repeat(np.arange(t.num_rows), np.asarray(lengths))
    idx = pa.array(parents)
    return pa.table({
        "out_url": links.flatten(),
        "seed": t["seed"].take(idx),
        "depth": pa.compute.add(t["depth"].take(idx), 1).cast(pa.int32()),
    })


def run_crawl(
    pages_path: str,
    workdir: str,
    seeds: list[str] | None = None,
    config: CrawlConfig | None = None,
    resume: bool = False,
    store_dir: str | None = None,
) -> CrawlResult:
    """Run (or resume) the wave crawl over a pages corpus.

    ``store_dir``: reuse a prebuilt page store (idempotent layout keyed
    by corpus; lets repeated runs/benchmarks skip the partition pass).
    """
    cfg = config or CrawlConfig()
    seeds = seeds if seeds is not None else default_seeds()
    os.makedirs(workdir, exist_ok=True)
    store_dir = build_page_store(
        pages_path, store_dir or os.path.join(workdir, "store"),
        cfg.store_buckets,
    )

    # cap the long-lived fetch pool so per-wave tasks (Dataset
    # conversions, checkpoint IO) always have worker slots — actors
    # holding every core deadlock task scheduling on small clusters
    cluster_cpus = int(ray.cluster_resources().get("CPU", 4))
    n_fetch = max(1, min(cfg.fetch_concurrency, cluster_cpus - 2))
    # record extraction is FUSED into the fetch actors (operator
    # fusion): the page body is parsed where it was fetched, so html
    # never crosses the object store and the pool's cores do the
    # parse work instead of idling behind a separate task fan-out
    pool = FetchPool(
        store_dir, cfg.store_buckets, n_fetch,
        records_dir=os.path.join(workdir, "records") if cfg.extract_records else None,
        current_year=cfg.current_year,
        per_host_rate=cfg.actor_token_rate,
        max_retries=cfg.fetch_max_retries,
        robots_ttl_waves=cfg.robots_ttl_waves,
    )
    try:
        seen = ShardedSeenSet(cfg.n_seen_shards, cfg.log2_buckets, pool.actors)
        start_wave = 0
        if resume:
            done = _completed_waves(workdir)
            if done:
                latest = done[-1]
                frontier, pending = _load_checkpoint(
                    workdir, latest, seen, cfg.distributed_select_threshold
                )
                start_wave = latest + 1
                # a crash between record writes and the wave checkpoint
                # leaves partial records for waves >= start_wave; the
                # re-run may use a different actor count and therefore a
                # different part layout, so stale parts would survive and
                # duplicate that wave's records — wipe them first
                _drop_record_waves(os.path.join(workdir, "records"), start_wave)
            else:
                resume = False
        if not resume:
            shutil.rmtree(os.path.join(workdir, "ckpt"), ignore_errors=True)
            shutil.rmtree(os.path.join(workdir, "records"), ignore_errors=True)
            frontier = make_frontier_rows(seeds, priority=0, wave=0, depth=0, seed="root")
            pending = len(frontier)

        import ray.data as rd

        metrics_all: list[dict] = []
        prev_t_ckpt = None
        wave = start_wave
        for wave in range(start_wave, cfg.max_waves):
            if pending == 0:
                break
            distributed = pending > cfg.distributed_select_threshold
            if distributed:
                # large-frontier route: the frontier lives as a Dataset the
                # whole wave — selection, membership checks and the
                # checkpoint write all run as Dataset ops, and the frontier
                # re-enters the next wave from the checkpoint's Parquet.
                # The driver holds only wave-sized frames and counters.
                if isinstance(frontier, pd.DataFrame):
                    # entering Dataset mode: the distributed defer filters
                    # by url_key membership, so duplicate keys would
                    # silently drop rows — assert the invariant once at the
                    # boundary (Dataset-mode updates keep it by
                    # construction: outlink adds anti-join pending keys)
                    assert_frontier_unique(frontier)
                    frontier = rd.from_pandas(frontier.reset_index(drop=True))
                selected, deferred = select_wave_distributed(
                    frontier, wave, cfg.wave_size, cfg.per_host_budget
                )
                if selected.empty:
                    # eligible set empty: the defer pass is a no-op — keep
                    # the untouched (shallow) plan and try the next wave
                    continue
                frontier = deferred
            else:
                if not isinstance(frontier, pd.DataFrame):
                    # shrunk below the threshold: collapse to driver pandas
                    frontier = frontier.to_pandas()
                    if frontier.empty:
                        # an empty Dataset drops its schema — restore the
                        # canonical frontier columns for concat/sort
                        frontier = make_frontier_rows([])
                    else:
                        frontier["url_key"] = frontier["url_key"].astype("uint64")
                selected, frontier = select_wave(
                    frontier, wave, cfg.wave_size, cfg.per_host_budget
                )
                if selected.empty:
                    # nothing eligible this wave but future work remains
                    if (frontier["next_fetch_wave"] > wave).all() and not frontier.empty:
                        continue
                    break

            t_mark = time.perf_counter()
            phase_t: dict[str, float] = {}

            def _lap(name: str) -> None:
                nonlocal t_mark
                now = time.perf_counter()
                phase_t[name] = round(now - t_mark, 4)
                t_mark = now

            seen_mask = seen.check_and_add(selected["url_key"].to_numpy(dtype=np.uint64))
            selected = selected.assign(status=np.where(seen_mask, "dup", "pending"))
            todo = selected[~seen_mask].reset_index(drop=True)
            _lap("t_seen")

            fetched_df = pd.DataFrame()
            outlinks = pd.DataFrame(columns=["out_url", "seed", "depth"])
            adds: list[pd.DataFrame] = []  # Dataset-mode wave-sized additions
            if not todo.empty:
                # fetch+parse run fused inside the actor pool (records are
                # written there, before the actors reply, so the wave's
                # records are durable before its checkpoint); the returned
                # table carries only url/status/links — never html
                fetched_tbl = pool.fetch(todo, wave)  # bounded by wave_size
                _lap("t_fetch")

                # outlinks were discovered inside the fetch actors (the
                # page body never comes back to the driver for re-parsing);
                # here we only flatten the small list column — vectorized
                outlinks = _flatten_outlinks(fetched_tbl).to_pandas()
                _lap("t_extract")
                fetched_df = fetched_tbl.select(["url", "status"]).to_pandas()

                # politeness-denied urls must NOT be lost: they were marked
                # seen before the fetch, so un-see them and requeue for the
                # next wave (the lineage still records this wave's denial)
                denied = set(
                    fetched_df.loc[fetched_df["status"] == "budget_denied", "url"]
                )
                if denied:
                    requeue = todo[todo["url"].isin(denied)]
                    seen.remove(requeue["url_key"].to_numpy(dtype=np.uint64))
                    requeue = requeue[FRONTIER_COLUMNS].copy()
                    requeue["next_fetch_wave"] = np.int32(wave + 1)
                    if distributed:
                        # just-selected urls cannot still be pending: defer
                        # dropped them, so the requeue needs no anti-join
                        adds.append(requeue)
                    else:
                        frontier = pd.concat([frontier, requeue], ignore_index=True)

            # merge fetch statuses into the wave lineage
            lineage = selected[["url", "seed", "status"]].copy()
            if not fetched_df.empty:
                smap = dict(zip(fetched_df["url"], fetched_df["status"]))
                lineage["status"] = [
                    smap.get(u, s) for u, s in zip(lineage["url"], lineage["status"])
                ]
            lineage.insert(0, "wave", wave)
            lineage.insert(1, "order_in_wave", np.arange(len(lineage)))

            # frontier update: add new outlinks (drop urls already pending).
            # Dedup survivor is chosen by a DETERMINISTIC sort key
            # (out_url, depth, seed) — not arrival order, which would vary
            # with the fetch-pool actor count across environments and break
            # the byte-identical resume contract.  Vectorized throughout
            # (columns, never Python row loops).
            if not outlinks.empty:
                dedup = outlinks.copy()
                # canonicalize BEFORE dedup/membership: raw link variants
                # ('…/x' vs '…/x/') would otherwise pass the frontier
                # check and become duplicate canonical rows
                dedup["out_url"] = dedup["out_url"].map(canonicalize_url)
                dedup = (
                    dedup.sort_values(["out_url", "depth", "seed"], kind="mergesort")
                    .drop_duplicates("out_url")
                )
                if distributed:
                    # anti-join against this wave's requeues locally, then
                    # against the pending Dataset via one streaming
                    # semi-join probe (the driver never sees the frontier)
                    requeued_urls = set(pd.concat(adds)["url"]) if adds else set()
                    dedup = dedup[~dedup["out_url"].isin(requeued_urls)]
                    if len(dedup):
                        add = make_frontier_rows(
                            dedup["out_url"].tolist(), priority=0,
                            wave=wave + 1, depth=0, seed="",
                        )
                        add["seed"] = dedup["seed"].to_numpy()
                        add["depth"] = dedup["depth"].to_numpy(dtype=np.int32)
                        add["priority"] = add["depth"]  # BFS: shallower first
                        present = _keys_present(
                            frontier, add["url_key"].to_numpy(dtype=np.uint64)
                        )
                        if len(present):
                            add = add[~add["url_key"].isin(present)]
                        if len(add):
                            adds.append(add)
                else:
                    dedup = dedup[~dedup["out_url"].isin(set(frontier["url"]))]
                    if len(dedup):
                        add = make_frontier_rows(
                            dedup["out_url"].tolist(), priority=0,
                            wave=wave + 1, depth=0, seed="",
                        )
                        add["seed"] = dedup["seed"].to_numpy()
                        add["depth"] = dedup["depth"].to_numpy(dtype=np.int32)
                        add["priority"] = add["depth"]  # BFS: shallower first
                        frontier = pd.concat([frontier, add], ignore_index=True)
            # requeue, lineage merge and outlink canonicalize/dedup/
            # concat, timed before the checkpoint so metrics.json has it
            _lap("t_frontier")

            wave_metrics = {
                "wave": wave,
                "selected": int(len(selected)),
                "dup": int(seen_mask.sum()),
                "fetched_ok": int((fetched_df["status"] == "ok").sum()) if not fetched_df.empty else 0,
                "outlinks": int(len(outlinks)),
                "seen_total": seen.count,
                **phase_t,
            }
            # _write_checkpoint counts the frontier during the write and
            # injects metrics['frontier_pending'] — no extra counting pass
            new_frontier = frontier
            if adds:  # Dataset mode only
                small = pd.concat(adds, ignore_index=True)[FRONTIER_COLUMNS]
                new_frontier = frontier.union(rd.from_pandas(small))
            pending = _write_checkpoint(
                workdir, wave, new_frontier, seen, lineage, wave_metrics,
                last=wave + 1 >= cfg.max_waves, prev_t_ckpt=prev_t_ckpt,
            )
            if distributed:
                # re-enter the next wave from the checkpoint Parquet: the
                # per-wave plan stays (read → select) instead of an
                # ever-growing defer/union lineage
                fdir = os.path.join(_ckpt_dir(workdir, wave), _FRONTIER_DIRNAME)
                frontier = rd.read_parquet(fdir) if pending else make_frontier_rows([])
            wave_metrics["t_ckpt"] = prev_t_ckpt = round(time.perf_counter() - t_mark, 4)
            metrics_all.append(wave_metrics)

        actor_stats = pool.stats()
    finally:
        # the pool owns every crawl actor process, seen shards
        # included: none outlives the crawl, even when a wave raises
        # (e.g. a cuckoo overflow out of the seen check)
        pool.shutdown()

    # assemble the full trace from the per-wave lineage checkpoints
    parts = [pd.read_parquet(os.path.join(_ckpt_dir(workdir, w), "lineage.parquet"))
             for w in _completed_waves(workdir)]
    trace = pd.concat(parts, ignore_index=True) if parts else pd.DataFrame(
        columns=["wave", "order_in_wave", "url", "seed", "status"]
    )
    waves_run = (metrics_all[-1]["wave"] + 1) if metrics_all else start_wave
    return CrawlResult(workdir=workdir, waves_run=waves_run, trace=trace,
                       metrics=metrics_all, actor_stats=actor_stats)
