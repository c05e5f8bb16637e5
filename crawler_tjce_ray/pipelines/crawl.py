"""The wave-synchronous frontier crawl (SURVEY.md §7.1, the north rule
architecture):

    seeds → frontier ──per wave──►
      select (priority sort + per-host politeness cap + wave cap)
      → URL-seen filter (cuckoo shards hosted in the fetch pool's
        members, check-and-add)
      → fetch (member pool, grown on demand: page-store lookup + robots
        + token bucket; member 0 is the driver, members 1… are Ray
        actors, so a pool of n members starts n−1 actors)
      → parse (stateless DSR extract) → records/<kind>/wave=k parquet
      → outlinks → frontier ∪ new urls
      → checkpoint (group commit: the waves since the last commit,
        once they have selected ``wave_size`` urls or the crawl ends —
        frontier, seen key logs + cuckoo shard snapshot by size,
        lineage, metrics)

Determinism contract: crawl order is defined by the frontier sort key
(priority=depth, next_fetch_wave, url) — a total order — never by
fetch completion; a killed run resumed from its last commit, at wave
k, reproduces waves k+1.. byte-identically (tested), the waves it ran
after that commit included.  The seen set resumes from its newest
shard snapshot at or before wave k plus a replay of the later commits'
key logs (``stages.seen``); a snapshot is written when the logs since
the last one reach a snapshot's bytes, and at the crawl's last
commit.

Scale notes: the per-wave working set is bounded by ``wave_size``.
Below ``distributed_select_threshold`` pending urls the frontier is a
driver Arrow table (``FRONTIER_SCHEMA``), and every step from select
to checkpoint runs on Arrow and NumPy; above it the frontier is a
Dataset end-to-end — selection (``select_wave`` per block, then once
on the driver over the blocks' picks), outlink membership (streaming
semi-join probe) and the checkpoint write all run distributed, the
frontier re-enters each wave from the checkpoint's Parquet, and the
driver holds only wave-sized tables and counters.  The two modes share
one selection kernel and pick the same waves (pinned by
tests/test_frontier_distributed.py); a crawl migrates between them as
the frontier grows or drains.  Records and page-store IO are
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
import pyarrow.compute as pc
import pyarrow.parquet as pq
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
    FRONTIER_SCHEMA,
    as_frontier,
    assert_frontier_unique,
    canonicalize_url,
    make_frontier_rows,
    select_wave,
    select_wave_distributed,
    with_next_fetch_wave,
)

_LINEAGE_SCHEMA = pa.schema([
    ("wave", pa.int64()), ("order_in_wave", pa.int64()),
    ("url", pa.string()), ("seed", pa.string()), ("status", pa.string()),
])


def _keys_present(frontier_ds, keys: np.ndarray) -> np.ndarray:
    """Which of ``keys`` already exist in the pending frontier — the
    Dataset-mode analog of the driver's ``is_in(frontier["url"])``
    membership check.  One streaming semi-join pass: the (wave-sized)
    probe keys broadcast once via ``ray.put``; each frontier batch
    returns only its hits, so the driver sees at most ``len(keys)``
    rows back regardless of frontier size."""
    keys_ref = ray.put(keys)

    def probe(t: pa.Table) -> pa.Table:
        v = t["url_key"].to_numpy()
        return pa.table({"url_key": v[np.isin(v, ray.get(keys_ref))]})

    hits = frontier_ds.map_batches(probe, batch_format="pyarrow").iter_batches(
        batch_size=None, batch_format="pyarrow")
    return np.concatenate([np.empty(0, np.uint64)]
                          + [t["url_key"].to_numpy() for t in hits if t.num_rows])


@dataclass
class CrawlConfig:
    wave_size: int = 256
    per_host_budget: int = 8          # politeness: fetches per host per wave
    max_waves: int = 100              # O7 crawl depth cap (reference max_pages)
    # URL-seen shards, hosted in the fetch pool's members (shard s on
    # live member s % n_live); the count, not the member count, fixes
    # the checkpoint
    n_seen_shards: int = 4
    log2_buckets: int = 16
    store_buckets: int = DEFAULT_STORE_BUCKETS
    # the fetch pool's maximum member count (capped at cluster CPUs -
    # 2); the pool runs one member per fetch_batch_size urls of the
    # largest wave so far.  Member 0 is the driver and each other
    # member a Ray actor, so small politeness-capped waves run on the
    # driver alone and start no actor
    fetch_concurrency: int = 4
    fetch_batch_size: int = 64
    current_year: int = 2026
    extract_records: bool = True
    # pending-url count above which the frontier lives as a Dataset
    # (Parquet-backed between waves, Dataset selection/membership/
    # checkpoint) instead of the driver Arrow table; equivalence of the two
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

    def __post_init__(self):
        # a zero budget or wave size selects nothing from an eligible
        # frontier, and the crawl would idle through every wave
        if self.wave_size < 1 or self.per_host_budget < 1:
            raise ValueError("wave_size and per_host_budget must be >= 1")
        # the pool-growth rule divides by fetch_batch_size, and a pool
        # or seen set needs at least one actor and one shard
        if min(self.fetch_batch_size, self.fetch_concurrency, self.n_seen_shards) < 1:
            raise ValueError(
                "fetch_batch_size, fetch_concurrency and n_seen_shards must be >= 1")


@dataclass
class CrawlResult:
    workdir: str
    waves_run: int
    trace: pd.DataFrame               # (wave, order_in_wave, url, status, seed)
    metrics: list[dict] = field(default_factory=list)
    actor_stats: dict = field(default_factory=dict)  # merged pool counters (T8)
    t_pool_stop: float = 0.0          # seconds to kill the fetch pool

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


def _read_metrics(workdir: str, wave: int) -> list[dict]:
    """The per-wave metrics dicts of the commit named by ``wave`` (a
    one-wave checkpoint of an earlier release holds a single dict)."""
    with open(os.path.join(_ckpt_dir(workdir, wave), "metrics.json")) as f:
        metrics = json.load(f)
    return metrics if isinstance(metrics, list) else [metrics]


def _parquet_dir_rows(d: str) -> int:
    """Row count of a parquet directory from file metadata only — the
    per-wave pending-count read never touches row data."""
    return sum(
        pq.ParquetFile(p).metadata.num_rows
        for p in glob.glob(os.path.join(d, "*.parquet"))
    )


@dataclass
class _Span:
    """The waves run since the last commit (group commit): their
    lineage, metrics and seen key logs wait here, with the frontier
    after the latest of them, until ``_write_checkpoint`` commits them
    as one checkpoint."""
    wave_size: int                    # commit once this many urls are selected
    wave: int = -1                    # the latest wave held
    frontier: object = None           # the frontier after that wave
    selected: int = 0
    lineages: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    logs: list = field(default_factory=list)


def _write_checkpoint(workdir: str, wave: int, frontier,
                      seen: ShardedSeenSet, lineage: pa.Table,
                      metrics: dict, last: bool = False,
                      prev_t_ckpt: float | None = None,
                      span: _Span | None = None) -> int:
    """Hold one finished wave in ``span`` and commit the span when due.

    The wave's lineage, its metrics (with the previous wave's
    ``t_ckpt`` as ``prev_t_ckpt``: a wave's own is known only once
    this call returns) and its seen key log (``seen.take_log()``) join
    the span.  The span commits, as one checkpoint named by this wave,
    when the urls selected since the last commit reach its
    ``wave_size``, when this is the crawl's last wave (``last``: the
    wave cap is reached; or no url is pending), or when ``frontier`` is
    a ``ray.data.Dataset`` (large-frontier mode: the next wave re-enters
    from the commit's ``frontier_parquet/``).  With no ``span`` the
    wave commits alone.  A crash between commits loses the held waves,
    and a resume re-runs them: at most one full wave's selections.

    Returns the pending-row count and records it as
    ``metrics['frontier_pending']`` (the Dataset path counts it during
    the write, with no extra pass)."""
    if span is None:
        span = _Span(wave_size=0)  # commit this wave alone
    if isinstance(frontier, pa.Table):
        metrics["frontier_pending"] = frontier.num_rows
    span.wave, span.frontier = wave, frontier
    span.selected += lineage.num_rows
    span.lineages.append(lineage)
    span.logs.append(seen.take_log())
    span.metrics.append({**metrics, "prev_t_ckpt": prev_t_ckpt})
    if (isinstance(frontier, pa.Table) and not last and frontier.num_rows
            and span.selected < span.wave_size):
        return frontier.num_rows
    metrics["frontier_pending"] = pending = _commit(workdir, span, seen, last)
    return pending


def _commit(workdir: str, span: _Span, seen: ShardedSeenSet, last: bool) -> int:
    """Write the span's waves as one atomic checkpoint (tmp dir +
    rename, ``_SUCCESS`` marker) named by its latest wave, then empty
    the span; returns the pending-row count.

    The frontier is either the driver Arrow table (small-frontier
    mode, single ``frontier.parquet``) or a ``ray.data.Dataset``
    (large-frontier mode: a distributed ``frontier_parquet/`` write —
    the frontier never materializes on the driver).
    ``lineage.parquet`` holds every wave of the span, ``metrics.json``
    one dict per wave and ``seen_log.bin`` the waves' key logs in wave
    order.  The full ``seen_shard_<i>.bin`` snapshot is added only when
    due by size, or at the crawl's last commit (``last``, or no url
    pending)."""
    final = _ckpt_dir(workdir, span.wave)
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    if isinstance(span.frontier, pa.Table):
        pq.write_table(span.frontier, os.path.join(tmp, "frontier.parquet"))
        pending = span.frontier.num_rows
    else:
        fdir = os.path.join(tmp, _FRONTIER_DIRNAME)
        span.frontier.write_parquet(fdir)
        pending = span.metrics[-1]["frontier_pending"] = _parquet_dir_rows(fdir)
    with open(os.path.join(tmp, _SEEN_LOG), "wb") as f:
        f.write(b"".join(span.logs))
    if last or pending == 0 or seen.snapshot_due():
        for i, blob in enumerate(seen.checkpoint()):
            with open(_shard_path(tmp, i), "wb") as f:
                f.write(blob)
    pq.write_table(pa.concat_tables(span.lineages), os.path.join(tmp, "lineage.parquet"))
    with open(os.path.join(tmp, "metrics.json"), "w") as f:
        json.dump(span.metrics, f)
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write("ok\n")
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    span.frontier, span.selected = None, 0
    span.lineages, span.metrics, span.logs = [], [], []
    return pending


def _load_checkpoint(workdir: str, wave: int, seen: ShardedSeenSet,
                     threshold: int):
    """Restore (frontier, pending) from the commit named by ``wave``.  A frontier
    saved by the Dataset path comes back as a Dataset when still above
    the threshold, else collapses to the driver table; a driver-mode
    ``frontier.parquet`` always comes back as the driver table (the
    next wave moves it to a Dataset if it has grown past the
    threshold).  Either layout, pandas-written ones included, is cast
    to ``FRONTIER_SCHEMA``.  The seen set is the newest shard snapshot
    at or before ``wave`` (else fresh shards) plus the key logs of each
    later commit, replayed in wave order."""
    d = _ckpt_dir(workdir, wave)
    single = os.path.join(d, "frontier.parquet")
    if os.path.exists(single):
        frontier = as_frontier([pq.read_table(single)])
        pending = frontier.num_rows
    else:
        fdir = os.path.join(d, _FRONTIER_DIRNAME)
        pending = _parquet_dir_rows(fdir)
        if pending > threshold:
            import ray.data as rd

            frontier = rd.read_parquet(fdir)
        else:
            frontier = as_frontier(
                pq.read_table(p) for p in sorted(glob.glob(os.path.join(fdir, "*.parquet"))))
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
    union).  Link *discovery* happens inside the fetch members
    (distributed, page already in memory); this is just the vectorized
    list-flatten of that column."""
    links = t["links"].combine_chunks()
    if isinstance(links, pa.ChunkedArray):  # zero-chunk edge
        links = pa.concat_arrays(links.chunks or [pa.array([], pa.list_(pa.string()))])
    lengths = pc.fill_null(pc.list_value_length(links), 0)
    parents = np.repeat(np.arange(t.num_rows), np.asarray(lengths))
    idx = pa.array(parents)
    return pa.table({
        "out_url": links.flatten(),
        "seed": t["seed"].take(idx),
        "depth": pc.add(t["depth"].take(idx), 1).cast(pa.int32()),
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

    def pool_size(selected_rows: int) -> int:
        # members a wave asks for: one per fetch_batch_size urls (the
        # pool caps it at n_fetch and never shrinks), a rule of the row
        # count and config alone, so the pool-size history is
        # deterministic
        return -(-selected_rows // cfg.fetch_batch_size)

    # per-wave phase times (metrics.json): each lap closes the phase
    # that began at the previous one; t_wave spans from the end of the
    # previous wave's checkpoint call (or the pool start) to the end of
    # this wave's
    t_mark = t_wave = time.perf_counter()
    phase_t: dict[str, float] = {}

    def _lap(name: str) -> None:
        nonlocal t_mark
        now = time.perf_counter()
        # adds up: a resumed run's first wave may grow the pool twice
        phase_t[name] = round(phase_t.get(name, 0.0) + now - t_mark, 4)
        t_mark = now

    # record extraction is FUSED into the fetch members (operator
    # fusion): the page body is parsed where it was fetched, so html
    # never crosses the object store and the pool's cores do the
    # parse work instead of idling behind a separate task fan-out.
    # Neither the pool nor the seen shards start a member here: the
    # first wave starts every member it asks for at once
    pool = FetchPool(
        store_dir, cfg.store_buckets, n_fetch,
        records_dir=os.path.join(workdir, "records") if cfg.extract_records else None,
        current_year=cfg.current_year,
        per_host_rate=cfg.actor_token_rate,
        max_retries=cfg.fetch_max_retries,
        robots_ttl_waves=cfg.robots_ttl_waves,
    )
    seen = ShardedSeenSet(cfg.n_seen_shards, cfg.log2_buckets)
    try:
        done = _completed_waves(workdir) if resume else []
        if done:
            # a resume restarts the pool at the size the cut crawl had
            # reached, so the pool-size history is the uninterrupted one;
            # reported as the resumed run's first wave's t_pool_grow
            pool.grow(max(pool_size(m["selected"])
                          for w in done for m in _read_metrics(workdir, w)))
            seen.rehost(pool.actors)
            _lap("t_pool_grow")
        start_wave = 0
        if done:
            latest = done[-1]
            frontier, pending = _load_checkpoint(
                workdir, latest, seen, cfg.distributed_select_threshold
            )
            start_wave = latest + 1
            # a crash after the last commit leaves the records of the
            # waves it held, and partial ones of the wave it cut, for
            # waves >= start_wave; the
            # re-run may use a different actor count and therefore a
            # different part layout, so stale parts would survive and
            # duplicate that wave's records — wipe them first
            _drop_record_waves(os.path.join(workdir, "records"), start_wave)
        else:
            shutil.rmtree(os.path.join(workdir, "ckpt"), ignore_errors=True)
            shutil.rmtree(os.path.join(workdir, "records"), ignore_errors=True)
            # there from the start, though the first commit may be waves away
            os.makedirs(os.path.join(workdir, "ckpt"))
            frontier = make_frontier_rows(seeds, priority=0, wave=0, depth=0, seed="root")
            pending = frontier.num_rows

        import ray.data as rd

        metrics_all: list[dict] = []
        lineages: list[pa.Table] = []  # this run's waves, for the trace
        prev_t_ckpt = None
        # group commit: small waves share one checkpoint per wave_size
        # selected urls, so a crash redoes at most a full wave's work
        span = _Span(cfg.wave_size)
        for wave in range(start_wave, cfg.max_waves):
            if pending == 0:
                break
            t_mark = time.perf_counter()
            distributed = pending > cfg.distributed_select_threshold
            if distributed:
                # large-frontier route: the frontier lives as a Dataset the
                # whole wave — selection, membership checks and the
                # checkpoint write all run as Dataset ops, and the frontier
                # re-enters the next wave from the checkpoint's Parquet.
                # The driver holds only wave-sized tables and counters.
                if isinstance(frontier, pa.Table):
                    # entering Dataset mode: the distributed defer filters
                    # by url_key membership, so duplicate keys would
                    # silently drop rows — assert the invariant once at the
                    # boundary (Dataset-mode updates keep it by
                    # construction: outlink adds anti-join pending keys)
                    assert_frontier_unique(frontier)
                    frontier = rd.from_arrow(frontier)
                selected, deferred = select_wave_distributed(
                    frontier, wave, cfg.wave_size, cfg.per_host_budget
                )
                if selected.num_rows == 0:
                    # eligible set empty: the defer pass is a no-op — keep
                    # the untouched (shallow) plan and try the next wave
                    continue
                frontier = deferred
            else:
                if not isinstance(frontier, pa.Table):
                    # shrunk below the threshold: collapse to the driver table
                    frontier = as_frontier(frontier.iter_batches(
                        batch_size=None, batch_format="pyarrow"))
                selected, frontier = select_wave(
                    frontier, wave, cfg.wave_size, cfg.per_host_budget
                )
                if selected.num_rows == 0:
                    # nothing eligible yet (CrawlConfig rejects a budget or
                    # wave size that selects nothing): pending > 0, so
                    # every row waits for a later wave
                    continue
            _lap("t_select")

            # start the members this wave asks for (blocking; the first
            # wave starts the pool) and start or move the seen shards
            # whose host changed
            if pool.grow(pool_size(selected.num_rows)):
                seen.rehost(pool.actors)
                _lap("t_pool_grow")

            seen_mask = seen.check_and_add(selected["url_key"].to_numpy())
            todo = selected.filter(pa.array(~seen_mask))
            status = pa.array(np.where(seen_mask, "dup", "pending"))
            _lap("t_seen")

            n_outlinks = 0
            requeued = pa.array([], pa.string())
            adds: list[pa.Table] = []  # Dataset-mode wave-sized additions
            if todo.num_rows:
                # fetch+parse run fused inside the pool (records are
                # written there, before the members reply, so the wave's
                # records are durable before its checkpoint); the returned
                # table carries only url/status/links — never html
                fetched = pool.fetch(todo, wave)  # bounded by wave_size
                _lap("t_fetch")

                # outlinks were discovered inside the fetch members (the
                # page body never comes back to the driver for re-parsing);
                # here we only flatten the small list column — vectorized
                outlinks = _flatten_outlinks(fetched)
                n_outlinks = outlinks.num_rows
                _lap("t_extract")

                # merge fetch statuses into the wave lineage
                at = pc.index_in(selected["url"], value_set=fetched["url"])
                status = pc.coalesce(fetched["status"].take(at), status)

                # politeness-denied urls must NOT be lost: they were marked
                # seen before the fetch, so un-see them and requeue for the
                # next wave (the lineage still records this wave's denial)
                denied = pc.equal(fetched["status"], "budget_denied")
                if pc.any(denied).as_py():
                    requeue = todo.filter(pc.is_in(
                        todo["url"], value_set=fetched.filter(denied)["url"]))
                    seen.remove(requeue["url_key"].to_numpy())
                    requeue = with_next_fetch_wave(requeue, wave + 1)
                    requeued = requeue["url"]
                    if distributed:
                        # just-selected urls cannot still be pending: defer
                        # dropped them, so the requeue needs no anti-join
                        adds.append(requeue)
                    else:
                        frontier = pa.concat_tables([frontier, requeue])

                # frontier update: add new outlinks (drop urls already
                # pending).  Dedup survivor is chosen by a DETERMINISTIC
                # sort key (out_url, depth, seed) — not arrival order, which
                # would vary with the fetch-pool actor count across
                # environments and break the byte-identical resume contract.
                if n_outlinks:
                    # canonicalize BEFORE dedup/membership: raw link variants
                    # ('…/x' vs '…/x/') would otherwise pass the frontier
                    # check and become duplicate canonical rows
                    canon = [canonicalize_url(u) for u in outlinks["out_url"].to_pylist()]
                    outlinks = outlinks.set_column(0, "out_url", pa.array(canon, pa.string()))
                    outlinks = outlinks.take(pc.sort_indices(outlinks, [
                        ("out_url", "ascending"), ("depth", "ascending"),
                        ("seed", "ascending")]))
                    urls = outlinks["out_url"]
                    first = np.r_[True, pc.not_equal(urls[1:], urls[:-1]).to_numpy()]
                    # Dataset mode anti-joins this wave's requeues here and
                    # the pending Dataset below, by one streaming semi-join
                    # probe (the driver never sees the frontier)
                    pending_urls = requeued if distributed else frontier["url"]
                    new = outlinks.filter(first & ~pc.is_in(
                        urls, value_set=pending_urls).to_numpy())
                    add = make_frontier_rows(
                        new["out_url"].to_pylist(), priority=new["depth"],  # BFS
                        wave=wave + 1, depth=new["depth"], seed=new["seed"],
                    )
                    if distributed and add.num_rows:
                        keys = add["url_key"].to_numpy()
                        adds.append(add.filter(~np.isin(keys, _keys_present(frontier, keys))))
                    elif not distributed:
                        frontier = pa.concat_tables([frontier, add])
            n = selected.num_rows
            lineage = pa.table({
                "wave": np.full(n, wave, np.int64),
                "order_in_wave": np.arange(n, dtype=np.int64),
                "url": selected["url"], "seed": selected["seed"], "status": status,
            }, schema=_LINEAGE_SCHEMA)
            # requeue, lineage merge and outlink canonicalize/dedup/
            # concat, timed before the checkpoint so metrics.json has it
            _lap("t_frontier")

            wave_metrics = {
                "wave": wave,
                "selected": n,
                "dup": int(seen_mask.sum()),
                "fetched_ok": pc.sum(pc.equal(status, "ok")).as_py() or 0,
                "outlinks": n_outlinks,
                "seen_total": seen.count,
                "fetch_actors": len(pool.actors),
                **phase_t,
            }
            phase_t.clear()
            # _write_checkpoint counts the frontier during the write and
            # injects metrics['frontier_pending'] — no extra counting pass
            new_frontier = frontier
            if adds:  # Dataset mode only
                new_frontier = frontier.union(rd.from_arrow(pa.concat_tables(adds)))
            pending = _write_checkpoint(
                workdir, wave, new_frontier, seen, lineage, wave_metrics,
                last=wave + 1 >= cfg.max_waves, prev_t_ckpt=prev_t_ckpt,
                span=span,
            )
            if distributed:
                # re-enter the next wave from the checkpoint Parquet: the
                # per-wave plan stays (read → select) instead of an
                # ever-growing defer/union lineage
                fdir = os.path.join(_ckpt_dir(workdir, wave), _FRONTIER_DIRNAME)
                frontier = rd.read_parquet(fdir) if pending else FRONTIER_SCHEMA.empty_table()
            now = time.perf_counter()
            wave_metrics["t_ckpt"] = prev_t_ckpt = round(now - t_mark, 4)
            wave_metrics["t_wave"] = round(now - t_wave, 4)
            t_wave = now
            metrics_all.append(wave_metrics)
            lineages.append(lineage)
        if span.lineages:
            # the wave cap ended the loop on waves that selected
            # nothing, with earlier waves still held: they are the last
            _commit(workdir, span, seen, last=True)

        actor_stats = pool.stats()
    finally:
        # the pool owns every crawl actor process, seen shards
        # included: none outlives the crawl, even when a wave raises
        # (e.g. a cuckoo overflow out of the seen check)
        t_stop = time.perf_counter()
        pool.shutdown()
        t_pool_stop = round(time.perf_counter() - t_stop, 4)

    # the trace: waves of an earlier run (a resume) from the lineage of
    # each commit, then this run's waves from memory
    earlier = [
        pq.read_table(os.path.join(_ckpt_dir(workdir, w), "lineage.parquet"))
        .select(_LINEAGE_SCHEMA.names).cast(_LINEAGE_SCHEMA)
        for w in _completed_waves(workdir) if w < start_wave
    ]
    trace = pa.concat_tables([_LINEAGE_SCHEMA.empty_table(), *earlier, *lineages]).to_pandas()
    waves_run = (metrics_all[-1]["wave"] + 1) if metrics_all else start_wave
    return CrawlResult(workdir=workdir, waves_run=waves_run, trace=trace,
                       metrics=metrics_all, actor_stats=actor_stats,
                       t_pool_stop=t_pool_stop)
