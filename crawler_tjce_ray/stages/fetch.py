"""Fetch stage: actor pool resolving page content with politeness.

The reference's fetch is an HTTP POST with a persistent session,
retries and rate limits (T1/T7, crawler/crawler.py:252-301); in this
sandbox the network is simulated by a hash-bucketed Parquet *page
store* lookup.  What is real and load-bearing:

* the actor-pool shape (``FetchPool``: long-lived ``FetchActor``
  members, url-hash routed, started on demand up to a maximum like
  Ray Data's autoscaling ``ActorPoolStrategy(min_size, max_size)``)
  with per-member state: store handles, robots cache, token buckets —
  constructed once in ``__init__``.  Member 0 runs in the driver
  process and members 1… are Ray actors, so a pool of n members
  starts n−1 worker processes and a crawl of small waves starts none;
* the per-host politeness token bucket (virtual time: one wave = one
  refill period) — the authoritative budget is enforced at wave
  selection (host affinity there is total); the in-actor bucket is a
  defense-in-depth recheck exactly like the reference's flask-limiter
  on top of its own sequential loop;
* the robots gate with per-host caching (T6 analog).
"""

from __future__ import annotations

import functools
import json
import os
from types import SimpleNamespace

# orjson fast path with stdlib-exact fallback for big-int/NaN bodies
# (orjson silently floats >64-bit ints and rejects NaN/Infinity)
from crawler_tjce_ray.functions.jsonio import loads_exact as json_loads

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from crawler_tjce_ray.state.cuckoo import CuckooFilter
from crawler_tjce_ray.state.frontier import url_sha1_64

DEFAULT_STORE_BUCKETS = 32


def build_page_store(pages_path: str, store_dir: str, n_buckets: int = DEFAULT_STORE_BUCKETS):
    """One-time layout pass: pages parquet → ``store_dir/bucket=K/``
    hash-partitioned by url key, so a fetch wave touches only the
    buckets its urls hash to (O(wave) IO instead of a full corpus scan
    per wave).  This mirrors partitioning a crawl's page cache by url
    hash; at real scale the store is the network itself."""
    import ray.data as rd

    def add_bucket(t: pa.Table) -> pa.Table:
        keys = np.array([url_sha1_64(u) % n_buckets for u in t["url"].to_pylist()], dtype=np.int64)
        return t.append_column("bucket", pa.array(keys, pa.int64()))

    marker = os.path.join(store_dir, "_SUCCESS")
    src_key = os.path.abspath(pages_path)
    if os.path.exists(marker):
        # idempotence is keyed on the SOURCE corpus, not just the
        # marker: a workdir reused with a different --corpus must
        # rebuild, not silently serve the old corpus's pages
        with open(marker) as f:
            if f.read().strip() == src_key:
                return store_dir
        import shutil

        shutil.rmtree(store_dir, ignore_errors=True)
    # ONE file per bucket: write_parquet(partition_cols) would emit a
    # fragment per (input block × bucket) — hundreds of tiny files per
    # bucket dir, which makes every actor's bucket load metadata-bound.
    # A groupby(bucket) task writes each bucket as a single part.
    def write_bucket(g, _dir=store_dir):
        import pandas as pd
        import pyarrow.parquet as _pq

        b = int(g["bucket"].iloc[0])
        d = os.path.join(_dir, f"bucket={b}")
        os.makedirs(d, exist_ok=True)
        _pq.write_table(
            pa.Table.from_pandas(g[["url", "html"]], preserve_index=False),
            os.path.join(d, "part-0.parquet"),
        )
        return pd.DataFrame({"bucket": [b], "rows": [len(g)]})

    (
        rd.read_parquet(pages_path, columns=["url", "html"])
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(write_bucket, batch_format="pandas")
        .materialize()
    )
    with open(marker, "w") as f:
        f.write(src_key + "\n")
    return store_dir


class RobotsCache:
    """Per-host robots rules with caching and wave-based TTL
    (reference T6: SimpleCache with CACHE_DEFAULT_TIMEOUT seconds,
    config.py:35-40 — virtual time here is waves, one wave ≈ one
    refill period).  The sandbox rule set is deterministic: any path
    containing ``/private/`` is disallowed.

    ``ttl_waves=None`` caches forever; with a TTL, an entry fetched at
    wave w is served through wave ``w + ttl_waves - 1`` and refetched
    after."""

    def __init__(self, ttl_waves: int | None = None):
        self.ttl_waves = ttl_waves
        self._cache: dict[str, tuple[list[str], int]] = {}
        self.hits = 0
        self.misses = 0
        self.expired = 0

    def _rules_for(self, host: str, wave: int = 0) -> list[str]:
        entry = self._cache.get(host)
        if entry is not None:
            rules, fetched_wave = entry
            if self.ttl_waves is None or wave - fetched_wave < self.ttl_waves:
                self.hits += 1
                return rules
            self.expired += 1
        self.misses += 1
        rules = ["/private/"]
        self._cache[host] = (rules, wave)
        return rules

    def allowed(self, host: str, url: str, wave: int = 0) -> bool:
        return not any(frag in url for frag in self._rules_for(host, wave))


class TokenBucket:
    """Per-host virtual-time token bucket: ``rate`` grants per wave,
    carry-over capped at ``burst``.

    Scope caveat: the bucket lives PER FETCH ACTOR while a host's urls
    hash-scatter across the pool, so a finite rate admits up to
    n_actors × rate per host per wave.  This is acceptable because the
    bucket is defense-in-depth only — the authoritative per-host
    budget is enforced at wave selection (``select_wave``), where host
    grouping is total.  A cluster-global bucket would need a shared
    budget actor (one RPC per host per wave, not per url)."""

    def __init__(self, rate: int, burst: int | None = None):
        self.rate = rate
        self.burst = burst if burst is not None else rate
        self.tokens: dict[str, float] = {}
        self.wave: dict[str, int] = {}

    def grant(self, host: str, wave: int) -> bool:
        last = self.wave.get(host)
        tok = self.tokens.get(host, float(self.burst))
        if last is None or wave > last:
            tok = min(self.burst, tok + self.rate * (wave - (last if last is not None else wave - 1)))
        if tok >= 1.0:
            self.tokens[host] = tok - 1.0
            self.wave[host] = wave
            return True
        self.tokens[host] = tok
        self.wave[host] = wave
        return False


class PageStoreTransport:
    """Default transport: the bucketed parquet page store IS the
    network in this sandbox.  Owns the bucket LRU cache and the
    bounded-retry read (reference T1 analog) that used to live on
    ``FetchActor``; ``_read_table`` stays the fault-injection point
    for the retry tests."""

    def __init__(self, store_dir: str, n_buckets: int,
                 max_cached_buckets: int = 8, max_retries: int = 3,
                 retry_backoff: float = 0.05):
        self.store_dir = store_dir
        self.n_buckets = n_buckets
        self.bucket_cache: dict[int, dict[str, bytes]] = {}
        self.bucket_lru: list[int] = []
        self.max_cached_buckets = max_cached_buckets
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self._read_table = pq.read_table
        self.fetch_retries = 0
        self.bucket_loads = 0

    def _read_with_retry(self, path: str) -> pa.Table:
        """Bounded-retry store read (T1): transient IO errors back off
        deterministically and recover; persistent errors re-raise after
        ``max_retries`` extra attempts."""
        import time

        attempt = 0
        while True:
            try:
                return self._read_table(path, columns=["url", "html"])
            except (OSError, pa.ArrowInvalid):
                if attempt >= self.max_retries:
                    raise
                self.fetch_retries += 1
                time.sleep(self.retry_backoff * (2**attempt))
                attempt += 1

    def _bucket_lookup(self, bucket: int) -> dict[str, bytes]:
        if bucket in self.bucket_cache:
            return self.bucket_cache[bucket]
        path = os.path.join(self.store_dir, f"bucket={bucket}")
        table = self._read_with_retry(path) if os.path.exists(path) else pa.table(
            {"url": pa.array([], pa.string()), "html": pa.array([], pa.binary())}
        )
        lookup = dict(zip(table["url"].to_pylist(), table["html"].to_pylist()))
        self.bucket_cache[bucket] = lookup
        self.bucket_lru.append(bucket)
        self.bucket_loads += 1
        if len(self.bucket_lru) > self.max_cached_buckets:
            evict = self.bucket_lru.pop(0)
            self.bucket_cache.pop(evict, None)
        return lookup

    def fetch(self, url: str) -> bytes | None:
        """Page body for ``url``, or None when absent (the 404
        analog)."""
        return self._bucket_lookup(url_sha1_64(url) % self.n_buckets).get(url)

    def keep_buckets(self, buckets: list[int]) -> None:
        """Cache only ``buckets`` (this actor's share after the pool
        grew): drop the others and size the LRU to the share + 1."""
        for b in [b for b in self.bucket_lru if b not in buckets]:
            self.bucket_lru.remove(b)
            self.bucket_cache.pop(b, None)
        self.max_cached_buckets = len(buckets) + 1

    def stats(self) -> dict[str, int]:
        return {"fetch_retries": self.fetch_retries,
                "bucket_loads": self.bucket_loads}


class HttpTransport:
    """Live-HTTP transport matching the reference crawler's session
    semantics (/root/reference/crawler/crawler.py:252-301): ONE
    ``requests.Session`` per actor (created lazily inside the worker
    process, never pickled), each page fetched as a POST of the url's
    querydata payload (``dsr.payloads.payload_for_url``) with fresh
    ActivityId/RequestId headers per request, timeout 180 s, and 3
    attempts with exponential backoff clamped to [4 s, 10 s]
    (tenacity ``stop_after_attempt(3)`` +
    ``wait_exponential(multiplier=1, min=4, max=10)``).

    ``post`` is the injection seam: a callable
    ``(api_url, payload, headers, timeout) -> (status_code, bytes)``.
    The default builds a real requests session on first use; tests
    inject a fake so the retry/timeout path is exercised with no
    network (this sandbox has none — the page store is the default
    transport and this class exists so the engine is a drop-in for
    the reference's live path)."""

    def __init__(self, api_url: str, post=None, timeout: float = 180.0,
                 max_attempts: int = 3, backoff_min: float = 4.0,
                 backoff_max: float = 10.0, sleeper=None):
        self.api_url = api_url
        self._post = post
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_min = backoff_min
        self.backoff_max = backoff_max
        if sleeper is None:
            import time as _time

            sleeper = _time.sleep
        self._sleep = sleeper
        self.fetch_retries = 0
        self.bucket_loads = 0  # API parity with PageStoreTransport
        self._session = None

    def _default_post(self, api_url, payload, headers, timeout):
        if self._session is None:
            import requests  # deferred: worker-side only, never pickled

            self._session = requests.Session()
        r = self._session.post(api_url, json=payload, headers=headers,
                               timeout=timeout)
        return r.status_code, r.content

    def fetch(self, url: str) -> bytes | None:
        import uuid

        from crawler_tjce_ray.dsr.payloads import payload_for_url

        payload = payload_for_url(url)
        post = self._post or self._default_post
        attempt = 0
        while True:
            headers = {
                "ActivityId": str(uuid.uuid4()),
                "RequestId": str(uuid.uuid4()),
            }
            try:
                status, body = post(self.api_url, payload, headers,
                                    self.timeout)
            except Exception:
                status, body = None, None  # connection-level failure
            if status == 404:
                return None  # page absent — the store's None analog
            if status is not None and 200 <= status < 300:
                return body
            attempt += 1
            if attempt >= self.max_attempts:
                raise OSError(
                    f"HTTP fetch failed after {self.max_attempts} attempts "
                    f"(last status {status}): {url}")
            self.fetch_retries += 1
            # wait_exponential(multiplier=1, min=4, max=10): 4s, 8s, 10s…
            self._sleep(min(self.backoff_max,
                            max(self.backoff_min, float(2 ** attempt))))

    def stats(self) -> dict[str, int]:
        return {"fetch_retries": self.fetch_retries, "bucket_loads": 0}


class FetchActor:
    """One ``FetchPool`` member: frontier urls → fetched pages (a
    ``__call__`` per wave on this member's url-hash share), with record
    extraction FUSED into the same member when
    ``records_dir`` is set (operator fusion: the page body is parsed
    where it was fetched and never crosses the object store — a
    separate extract fan-out would leave the fetch pool's cores idle
    and ship gigabytes of html per wave).  Member 0 is an instance in
    the driver process (``DriverMember``); the others are Ray actors.

    Input: the wave's url and host lists, plus the wave number.
    Output: per url, in input order, ``status`` (ok | missing |
    robots_denied | budget_denied) and ``links`` lists, plus ``html``
    only when extraction is NOT fused.  Both directions are plain
    Python lists: an Arrow table crossing the Ray call would make the
    worker import Ray's Arrow serializer chain (``ray.data`` and pandas
    through it), which costs more CPU than a small wave's fetch.

    The member also hosts URL-seen cuckoo shards (``seen_*`` methods,
    driven by ``stages.seen.ShardedSeenSet``): the seen test runs in
    the long-lived members that own the url-hash partitions, so the
    seen set needs no processes of its own.
    """

    def __init__(self, store_dir: str, n_buckets: int = DEFAULT_STORE_BUCKETS,
                 per_host_rate: int = 10**9, max_cached_buckets: int = 8,
                 records_dir: str | None = None,
                 current_year: int | None = None, actor_id: int = 0,
                 max_retries: int = 3, retry_backoff: float = 0.05,
                 robots_ttl_waves: int | None = None,
                 cap_arrow_threads: bool = False,
                 transport_factory=None):
        if cap_arrow_threads:
            # cap this actor PROCESS's Arrow threadpools: with ~30
            # actors each defaulting to machine-width pools (32 threads
            # apiece for parquet writes/reads), the node runs ~1000
            # runnable threads during wave IO; 1 compute + 2 IO threads
            # per actor measures ~9% faster on the headline (A/B,
            # alternating reps).  Opt-in (FetchPool sets it for its
            # dedicated actor processes) because the settings are
            # process-global — an in-process construction (tests,
            # driver debugging) must not serialize the whole process
            pa.set_cpu_count(1)
            pa.set_io_thread_count(2)
        self.store_dir = store_dir
        self.n_buckets = n_buckets
        self.robots = RobotsCache(ttl_waves=robots_ttl_waves)
        # transport seam (T1): the page store is the default network;
        # pass transport_factory=lambda: HttpTransport(api_url, ...)
        # for the reference's live POST path.  The factory runs HERE,
        # in the worker process, so sessions are never pickled.
        # Retry policy (reference: tenacity stop_after_attempt(3) with
        # exponential wait, crawler/crawler.py:252-254) lives in the
        # transport; the store's backoff is deterministic
        # (0.05·2^attempt, no jitter) so retried runs stay
        # order-identical.
        if transport_factory is not None:
            self.transport = transport_factory()
        else:
            self.transport = PageStoreTransport(
                store_dir, n_buckets,
                max_cached_buckets=max_cached_buckets,
                max_retries=max_retries, retry_backoff=retry_backoff,
            )
        self.counters = {
            "fetched_ok": 0, "missing": 0,
            "robots_denied": 0, "budget_denied": 0,
        }
        self.budget = TokenBucket(per_host_rate)
        self.records_dir = records_dir
        self.actor_id = actor_id
        self.seen_shards: dict[int, CuckooFilter] = {}
        self.extractors = {}
        if records_dir is not None:
            # per-actor setup, once (the actor-pool contract): build
            # the extractor instances here, not per batch
            from crawler_tjce_ray.stages.extract import (
                ExtractEditais, ExtractPagamentos, ExtractPrecatorios,
            )

            self.extractors = {
                "precatorios": ExtractPrecatorios(current_year),
                "editais": ExtractEditais(current_year),
                "pagamentos": ExtractPagamentos(current_year),
            }

    def _extract_and_write(self, pages, wave: int) -> None:
        """``pages`` = [(url, parsed_doc_or_None)] for ok fetches; the
        body was parsed ONCE in ``__call__`` (outlink discovery) and
        the parsed dict is reused here — no second json parse, no
        Arrow copy of the html bytes."""
        if not pages:
            return
        for kind, extractor in self.extractors.items():
            sub = [(u, d) for u, d in pages if f"/{kind}/" in u]
            if not sub:
                continue
            out = extractor.extract_parsed(sub)
            if out.num_rows == 0:
                continue
            dest = os.path.join(self.records_dir, kind, f"wave={wave}")
            os.makedirs(dest, exist_ok=True)
            pq.write_table(
                out, os.path.join(dest, f"part-a{self.actor_id:03d}.parquet")
            )

    def __call__(self, urls: list[str], hosts: list[str],
                 wave: int = 0) -> dict[str, list]:
        htmls: list[bytes | None] = []
        statuses: list[str] = []
        links: list[list[str]] = []
        parsed: list[tuple[str, dict | None]] = []  # ok pages, fused path
        fused = self.records_dir is not None
        for url, host in zip(urls, hosts):
            if not self.robots.allowed(host, url, wave):
                htmls.append(None)
                statuses.append("robots_denied")
                links.append([])
                continue
            if not self.budget.grant(host, wave):
                htmls.append(None)
                statuses.append("budget_denied")
                links.append([])
                continue
            html = self.transport.fetch(url)
            htmls.append(html)
            statuses.append("ok" if html is not None else "missing")
            # outlink discovery happens HERE, in the actor pool (the
            # page is already in memory) — the driver only flattens a
            # small list column, never re-parses page bodies serially.
            # The parse happens ONCE; the fused extract reuses the dict.
            if html is None:
                links.append([])
            else:
                try:
                    doc = json_loads(html)
                    links.append(list(doc.get("links", [])))
                except Exception:
                    doc = None
                    links.append([])
                if fused:
                    parsed.append((url, doc))
        out = {"status": statuses, "links": links}
        for s in statuses:
            key = "fetched_ok" if s == "ok" else s
            self.counters[key] = self.counters.get(key, 0) + 1
        if fused:
            # fused parse: records written here, html stays actor-local
            self._extract_and_write(parsed, wave)
        else:
            out["html"] = htmls
        return out

    # ---- URL-seen shards hosted here: every call carries
    # {shard_id: payload} for this actor's shards only ----
    def seen_init(self, shard_ids: list[int], log2_buckets: int) -> None:
        self.seen_shards = {s: CuckooFilter(log2_buckets) for s in shard_ids}

    def seen_check_and_add(self, keys: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        return {s: self.seen_shards[s].check_and_add(k) for s, k in keys.items()}

    def seen_remove(self, keys: dict[int, np.ndarray]) -> int:
        return sum(self.seen_shards[s].remove(k) for s, k in keys.items())

    def seen_to_bytes(self, shard_ids: list[int] | None = None) -> dict[int, bytes]:
        """Bytes of ``shard_ids`` (every hosted shard when None)."""
        ids = self.seen_shards if shard_ids is None else shard_ids
        return {s: self.seen_shards[s].to_bytes() for s in ids}

    def seen_load_bytes(self, blobs: dict[int, bytes], drop: list[int] = ()) -> None:
        """Host (or overwrite) the shards in ``blobs``; stop hosting
        ``drop`` (shards moved to another actor)."""
        for s in drop:
            del self.seen_shards[s]
        self.seen_shards.update({s: CuckooFilter.from_bytes(b) for s, b in blobs.items()})

    def keep_buckets(self, buckets: list[int]) -> None:
        """The page-store buckets routed to this actor (after the pool
        grew): the transport caches only these."""
        self.transport.keep_buckets(buckets)

    def stats(self) -> dict[str, int]:
        """T8 metrics export: this actor's lifetime counters (merged
        across the pool by ``FetchPool.stats``; the reference analog is
        the per-entity Prometheus counters, metrics.py:6-70)."""
        return {
            **self.counters,
            "pages_failed": sum(e.pages_failed for e in self.extractors.values()),
            **self.transport.stats(),
            "robots_cache_hits": self.robots.hits,
            "robots_cache_misses": self.robots.misses,
            "robots_cache_expired": self.robots.expired,
        }


@functools.cache
def _remote_fetch_actor():
    """The Ray actor class of ``FetchActor``, made once per process:
    Ray exports a class to each new cluster and job on its first
    ``.remote()``, so one class serves every pool, and a crawl does not
    pay the export (0.05 s of driver CPU) again."""
    import ray

    return ray.remote(num_cpus=1)(FetchActor)


class Done:
    """A ``DriverMember`` call's result, in place of the ObjectRef a Ray
    actor's call returns."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def gather(refs: list) -> list:
    """``ray.get(refs)`` for a list that may mix ``DriverMember``
    results (``Done``) with ObjectRefs of the pool's Ray actors, in
    list order."""
    import ray

    remote = iter(ray.get([r for r in refs if not isinstance(r, Done)]))
    return [r.value if isinstance(r, Done) else next(remote) for r in refs]


class DriverMember:
    """Member 0 of a ``FetchPool``: a ``FetchActor`` in the driver
    process behind the actor-handle protocol the pool and
    ``ShardedSeenSet`` use.  ``member.method.remote(...)`` runs the
    method here, at once, and returns its result as a ``Done``, which
    ``gather`` reads next to the actors' ObjectRefs (a ``ray.put``
    instead would cost the raylet ~1 ms of CPU per call); an error
    raises from ``.remote`` itself."""

    def __init__(self, actor: FetchActor):
        self.actor = actor

    def __getattr__(self, name: str):
        method = getattr(self.actor, name)
        return SimpleNamespace(remote=lambda *a, **kw: Done(method(*a, **kw)))


class FetchPool:
    """A persistent, elastic pool of fetch members reused across waves.

    A fresh ``map_batches`` actor pool per wave pays actor startup and
    loses the per-actor bucket/robots caches every wave; this pool is
    created once per crawl and dispatched deterministically, so
    politeness buckets and caches live for the whole crawl — matching
    the reference's long-lived ``requests.Session`` (T1).

    Members start on demand, like Ray Data's autoscaling
    ``ActorPoolStrategy(min_size, max_size=n_actors)``: the pool
    starts none, and ``grow`` adds members, never past ``n_actors``,
    when a wave needs them (the crawl's first wave starts all it needs
    at once); it never shrinks.  Member 0 is a ``DriverMember``, the
    driver itself; each later member is a Ray actor and costs a worker
    process spawn plus its imports, so a pool of n members starts n−1
    actors, and a crawl of small (politeness-capped) waves starts
    none."""

    def __init__(self, store_dir: str, n_buckets: int = DEFAULT_STORE_BUCKETS,
                 n_actors: int = 4, records_dir: str | None = None,
                 current_year: int | None = None,
                 per_host_rate: int = 10**9,
                 max_retries: int = 3,
                 robots_ttl_waves: int | None = None):
        self.n_buckets = n_buckets
        self.n_actors = n_actors  # the maximum; ``actors`` are the live members
        self._actor_kwargs = dict(
            store_dir=store_dir, n_buckets=n_buckets,
            records_dir=records_dir, current_year=current_year,
            per_host_rate=per_host_rate, max_retries=max_retries,
            robots_ttl_waves=robots_ttl_waves,
        )
        self.actors: list = []  # actors[0] is the DriverMember

    def _start(self, i: int):
        if i == 0:
            # Arrow's thread caps are process-wide: the driver keeps its own
            return DriverMember(FetchActor(actor_id=0, **self._actor_kwargs))
        return _remote_fetch_actor().remote(
            actor_id=i, cap_arrow_threads=True, **self._actor_kwargs)

    def _buckets(self, i: int, n_live: int) -> list[int]:
        # bucket-affinity dispatch: actor i owns buckets ≡ i (mod
        # n_live), so each actor's LRU only ever holds its own buckets
        # — the cache is authoritative, never thrashes, and a wave
        # costs O(new buckets) store reads instead of O(actors ×
        # buckets).  This is the url-hash partitioning the frontier
        # design relies on (SURVEY §7.1).
        return list(range(i, self.n_buckets, n_live))

    def grow(self, n: int) -> bool:
        """Start members until ``min(n, n_actors)`` are live (the Ray
        actors in parallel), and block until they are up; every member
        then caches only its new bucket share.  Returns whether the
        pool grew."""
        n = min(n, self.n_actors)
        n_old = len(self.actors)
        if n <= n_old:
            return False
        # handles are kept before the wait, so shutdown() also kills
        # an actor whose start failed
        self.actors.extend(self._start(i) for i in range(n_old, n))
        # also the wait: a new actor answers once it is up
        gather([a.keep_buckets.remote(self._buckets(i, n))
                for i, a in enumerate(self.actors)])
        return True

    def fetch(self, wave_tbl: pa.Table, wave: int) -> pa.Table:
        """Fetch one wave's frontier rows → url, host, status, links
        (+ html when extraction is not fused), seed, depth.  A row goes
        to member ``url_key % n_buckets % len(actors)`` (its page-store
        bucket's owner) as url and host lists; the output is
        member-major (member 0's rows in input order, then member 1's,
        ...), so callers match rows by url."""
        table = wave_tbl.select(["url", "host", "seed", "depth"])
        parts, members = [], []
        if table.num_rows:
            n_live = np.uint64(len(self.actors))
            owner = wave_tbl["url_key"].to_numpy() % np.uint64(self.n_buckets) % n_live
            for i, actor in enumerate(self.actors):
                idx = np.nonzero(owner == i)[0]
                if len(idx):
                    parts.append(table.take(pa.array(idx)))
                    members.append(actor)
        # submitted last member first: the actors' calls are in flight
        # while member 0 runs its share here, in the driver
        futures = [actor.__call__.remote(part["url"].to_pylist(),
                                         part["host"].to_pylist(), wave)
                   for actor, part in zip(members[::-1], parts[::-1])][::-1]
        replies = gather(futures)
        rows = pa.concat_tables(parts) if parts else table

        def column(name, typ):
            return pa.array([v for r in replies for v in r[name]], typ)

        out = {"url": rows["url"], "host": rows["host"],
               "status": column("status", pa.string()),
               "links": column("links", pa.list_(pa.string()))}
        if self._actor_kwargs["records_dir"] is None:
            out["html"] = column("html", pa.binary())
        out["seed"], out["depth"] = rows["seed"], rows["depth"]
        return pa.table(out)

    def stats(self) -> dict[str, int]:
        """Merged (summed) lifetime counters of every member of the
        pool — the queryable T8 metrics surface."""
        merged: dict[str, int] = {}
        for s in gather([a.stats.remote() for a in self.actors]):
            for k, v in s.items():
                merged[k] = merged.get(k, 0) + int(v)
        return merged

    def shutdown(self):
        """Kill every actor the pool started (member 0, the driver,
        is dropped)."""
        import ray

        for a in self.actors[1:]:
            ray.kill(a)
        self.actors = []
