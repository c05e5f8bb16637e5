"""The crawl workload (``crawl_narrow``), its correctness checks, and
the crawl-layer tracer used by ``--trace 1``.

One driver runs ``run_crawl`` again and again over the same corpus (a
closed loop of one client).  After each crawl, outside the timed
section, the benchmark checks:

* the crawl order: a SHA-256 of the sorted ``(wave, order_in_wave,
  url, status)`` trace must equal the digest of the expected trace,
  which ``reference_trace`` derives for the seed from the frontier
  contract (total order ``(priority, next_fetch_wave, url)``, per-host
  budget, wave cap, exact seen set) and the generator's page links;
* the records: the rows written under ``records/`` (read from Parquet
  metadata) must equal ``rows_per_page`` times the ok record pages;
* ``pages_failed`` must be 0.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil
import statistics
import time
import urllib.parse
from collections import Counter

import numpy as np

WORKLOADS = {
    # the default skewed shape: entities are discovered through the
    # entity list, and the dominant host (a quarter of the entities plus
    # the three auxiliary chains) holds more live chains than its
    # per-host budget, so politeness defers it on many waves; a wave
    # fetches a handful of pages and the wave cap ends the crawl
    "crawl_narrow": dict(
        corpus=dict(n_entities=128, total_pages=1024, rows_per_page=16,
                    dominant_share=0.65),
        wave_size=256, per_host_budget=8, max_waves=60),
}
RECORD_KINDS = ("precatorios", "editais", "pagamentos")
FETCH_ACTORS = 2  # run_crawl caps the pool at cluster CPUs - 2


def corpus_key(name: str, seed: int) -> str:
    c = WORKLOADS[name]["corpus"]
    return (f"e{c['n_entities']}_p{c['total_pages']}_r{c['rows_per_page']}"
            f"_d{c['dominant_share']}_s{seed}")


def prepare(name: str, seed: int, cache: str) -> dict:
    """Synthesize the corpus and its page store for ``seed`` (cached
    under ``cache``; other seeds of this workload are evicted)."""
    from crawler_tjce_ray.pipelines.crawl import default_seeds
    from crawler_tjce_ray.sources.pages import corpus_cache_dir
    from crawler_tjce_ray.stages.fetch import build_page_store

    spec = WORKLOADS[name]
    base = os.path.join(cache, name)
    key = corpus_key(name, seed)
    for old in glob.glob(os.path.join(base, "*")):
        if not os.path.basename(old).startswith(key):
            shutil.rmtree(old, ignore_errors=True)
    pages = corpus_cache_dir(base=os.path.join(base, key), seed=seed,
                             **spec["corpus"])
    store = build_page_store(pages, pages.rstrip("/") + "_store")
    return dict(pages=pages, store=store, key=key,
                workdir=os.path.join(base, key + "_work"),
                seeds=default_seeds(), config=crawl_config(spec),
                expected=reference_trace(spec, seed))


def crawl_config(spec: dict):
    from crawler_tjce_ray.pipelines.crawl import CrawlConfig

    return CrawlConfig(wave_size=spec["wave_size"],
                       per_host_budget=spec["per_host_budget"],
                       max_waves=spec["max_waves"],
                       fetch_concurrency=FETCH_ACTORS)


# ---------------------------------------------------------------------------
# expected crawl order
# ---------------------------------------------------------------------------

def reference_trace(spec: dict, seed: int) -> dict:
    """Expected trace digest and record count, from a plain-Python
    frontier over the generator's page plan (no Ray, no engine frontier)."""
    from crawler_tjce_ray.dsr.synth import build_page_plan, page_outlinks
    from crawler_tjce_ray.pipelines.crawl import default_seeds

    c = spec["corpus"]
    plan = {p.url: p for p in build_page_plan(
        n_entities=c["n_entities"], total_pages=c["total_pages"], seed=seed,
        dominant_share=c["dominant_share"])}
    # url -> [priority, next_fetch_wave, depth, seed]
    frontier = {u: [0, 0, 0, "root"] for u in default_seeds()}
    seen: set[str] = set()
    rows: list[tuple] = []
    for wave in range(spec["max_waves"]):
        if not frontier:
            break
        eligible = sorted((v[0], v[1], u) for u, v in frontier.items()
                          if v[1] <= wave)
        if not eligible:
            continue
        per_host: Counter = Counter()
        selected = []
        for _, _, u in eligible:
            host = urllib.parse.urlsplit(u).hostname
            if per_host[host] < spec["per_host_budget"]:
                per_host[host] += 1
                selected.append(u)
        selected = selected[:spec["wave_size"]]
        picked = set(selected)
        for _, _, u in eligible:
            if u not in picked:
                frontier[u][1] = wave + 1
        links: dict[str, tuple] = {}
        for i, u in enumerate(selected):
            _, _, depth, root = frontier.pop(u)
            if u in seen:
                status = "dup"
            else:
                seen.add(u)
                status = ("robots_denied" if "/private/" in u
                          else "ok" if u in plan else "missing")
            rows.append((wave, i, u, status))
            if status != "ok":
                continue
            for out in page_outlinks(plan[u]):
                cand = (depth + 1, root)
                if out not in links or cand < links[out]:
                    links[out] = cand
        for out, (depth, root) in links.items():
            if out not in frontier:
                frontier[out] = [depth, wave + 1, depth, root]
    ok_record_pages = sum(1 for _, _, u, s in rows
                          if s == "ok" and plan[u].kind in RECORD_KINDS)
    return dict(digest=trace_digest(rows), waves=rows[-1][0] + 1 if rows else 0,
                pages_ok=sum(1 for r in rows if r[3] == "ok"),
                records=ok_record_pages * c["rows_per_page"])


def trace_digest(rows) -> str:
    h = hashlib.sha256()
    for wave, order, url, status in sorted(
            (int(w), int(o), str(u), str(s)) for w, o, u, s in rows):
        h.update(f"{wave}\t{order}\t{url}\t{status}\n".encode())
    return h.hexdigest()


def records_written(records_dir: str) -> int:
    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(p).metadata.num_rows for p in glob.glob(
        os.path.join(records_dir, "*", "wave=*", "*.parquet")))


def check_crawl(res, prep: dict) -> str | None:
    """None when the crawl is right, else a short reason."""
    t = res.trace
    digest = trace_digest(zip(t["wave"], t["order_in_wave"], t["url"],
                              t["status"]))
    exp = prep["expected"]
    if digest != exp["digest"]:
        return f"trace digest {digest[:12]} != expected {exp['digest'][:12]}"
    if res.actor_stats.get("pages_failed", 0):
        return f"pages_failed={res.actor_stats['pages_failed']}"
    got = records_written(res.records_dir)
    if got != exp["records"]:
        return f"records {got} != expected {exp['records']}"
    return None


def wave_latencies_ms(workdir: str, start_ns: int) -> list[float]:
    """Per-wave latency as a user sees it: the interval between
    consecutive durable wave commits (the ``_SUCCESS`` marker of each
    wave checkpoint), the first one measured from the crawl's start."""
    marks = sorted(os.stat(p).st_mtime_ns for p in glob.glob(
        os.path.join(workdir, "ckpt", "wave_*", "_SUCCESS")))
    bounds = [start_ns] + marks
    return [(b - a) / 1e6 for a, b in zip(bounds, bounds[1:])]


def one_crawl(prep: dict):
    """Run one crawl; returns (result, wall seconds, wave latencies)."""
    from crawler_tjce_ray.pipelines.crawl import run_crawl

    start_ns = time.time_ns()
    t0 = time.perf_counter()
    res = run_crawl(prep["pages"], prep["workdir"], seeds=prep["seeds"],
                    config=prep["config"], store_dir=prep["store"])
    wall = time.perf_counter() - t0
    return res, wall, wave_latencies_ms(prep["workdir"], start_ns)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class CrawlTracer:
    """Wraps the crawl layers' public entry points while active and
    records one span per call: (layer, start, end)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.ckpt_bytes = 0
        self.n_actors = 0
        self._saved: list = []

    def __enter__(self):
        from crawler_tjce_ray.pipelines import crawl
        from crawler_tjce_ray.stages.fetch import FetchPool
        from crawler_tjce_ray.stages.seen import ShardedSeenSet

        tracer = self

        def spanned(layer, fn, after=None):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                tracer.spans.append((layer, t0, time.perf_counter()))
                if after is not None:
                    after(args, out)
                return out
            return wrapper

        def pool_seen(args, _out):
            tracer.n_actors = args[0].n_actors

        def ckpt_size(args, _out):
            workdir, wave = args[0], args[1]
            d = crawl._ckpt_dir(workdir, wave)
            tracer.ckpt_bytes += sum(
                os.path.getsize(os.path.join(r, f))
                for r, _, fs in os.walk(d) for f in fs)

        patches = [
            (crawl, "select_wave", spanned("select", crawl.select_wave)),
            (crawl, "_write_checkpoint",
             spanned("checkpoint", crawl._write_checkpoint, ckpt_size)),
            (ShardedSeenSet, "check_and_add",
             spanned("seen.check", ShardedSeenSet.check_and_add)),
            (ShardedSeenSet, "checkpoint",
             spanned("seen.checkpoint", ShardedSeenSet.checkpoint)),
            (FetchPool, "fetch", spanned("fetch", FetchPool.fetch, pool_seen)),
        ]
        for owner, attr, wrapped in patches:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def total(self, layer: str) -> float:
        return sum(b - a for name, a, b in self.spans if name == layer)

    def count(self, layer: str) -> int:
        return sum(1 for name, _, _ in self.spans if name == layer)

    def layer_metrics(self, res, wall: float) -> dict[str, float]:
        starts = [a for name, a, _ in self.spans if name == "select"]
        ends = [b for name, _, b in self.spans if name == "checkpoint"]
        bounds = starts + ends[-1:]
        waves = [b - a for a, b in zip(bounds, bounds[1:])]
        top = ("select", "seen.check", "fetch", "checkpoint")
        selected = sum(m["selected"] for m in res.metrics)
        stats = res.actor_stats
        robots = stats.get("robots_cache_hits", 0) + stats.get("robots_cache_misses", 0)
        return {
            "crawl.wall_s": wall,
            "frontier.select_s": self.total("select"),
            "frontier.select_calls": self.count("select"),
            "frontier.pending_max": max(
                (m.get("frontier_pending", 0) for m in res.metrics), default=0),
            "seen.check_s": self.total("seen.check"),
            "seen.calls": self.count("seen.check"),
            "seen.dup_ratio": (sum(m["dup"] for m in res.metrics) / selected
                               if selected else 0.0),
            "seen.checkpoint_s": self.total("seen.checkpoint"),
            "crawl.checkpoint_s": self.total("checkpoint"),
            "crawl.checkpoint_bytes": self.ckpt_bytes,
            "crawl.wave0_s": waves[0] if waves else 0.0,
            "crawl.wave_p50_ms": 1000 * statistics.median(waves[1:]) if len(waves) > 1 else 0.0,
            "crawl.driver_other_s": wall - sum(self.total(t) for t in top),
            "fetch.pool_s": self.total("fetch"),
            "fetch.pages": stats.get("fetched_ok", 0),
            "fetch.bucket_loads": stats.get("bucket_loads", 0),
            "fetch.retries": stats.get("fetch_retries", 0),
            "fetch.robots_hit_ratio": (stats.get("robots_cache_hits", 0) / robots
                                       if robots else 0.0),
        }


def replay_pages(res, prep: dict, scratch: str) -> dict[str, float]:
    """Page-kernel replay: one driver-side pass over the pages the crawl
    fetched, timing each public call the fetch actors make per page."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawler_tjce_ray.functions.jsonio import loads_exact
    from crawler_tjce_ray.stages.extract import (
        ExtractEditais, ExtractPagamentos, ExtractPrecatorios, classify_url,
    )
    from crawler_tjce_ray.stages.fetch import PageStoreTransport

    cfg = prep["config"]
    transport = PageStoreTransport(prep["store"], cfg.store_buckets)
    extractors = {"precatorios": ExtractPrecatorios(cfg.current_year),
                  "editais": ExtractEditais(cfg.current_year),
                  "pagamentos": ExtractPagamentos(cfg.current_year)}
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    t = res.trace[res.trace["status"] == "ok"]
    busy = dict(read=0.0, parse=0.0, decode=0.0, write=0.0)
    pages = 0
    for wave, urls in t.groupby("wave", sort=True)["url"]:
        tables: dict[str, list] = {}
        for url in urls:
            t0 = time.perf_counter()
            body = transport.fetch(url)
            t1 = time.perf_counter()
            doc = loads_exact(body)
            t2 = time.perf_counter()
            busy["read"] += t1 - t0
            busy["parse"] += t2 - t1
            pages += 1
            kind = classify_url(url)
            if kind in extractors:
                out = extractors[kind].extract_parsed([(url, doc)])
                busy["decode"] += time.perf_counter() - t2
                tables.setdefault(kind, []).append(out)
        t0 = time.perf_counter()
        for kind, parts in tables.items():
            pq.write_table(pa.concat_tables(parts),
                           os.path.join(scratch, f"{kind}-{wave}.parquet"))
        busy["write"] += time.perf_counter() - t0
    shutil.rmtree(scratch, ignore_errors=True)
    per = 1000 / pages if pages else 0.0
    return {
        "fetch.read_ms_per_page": busy["read"] * per,
        "jsonio.parse_ms_per_page": busy["parse"] * per,
        "extract.decode_ms_per_page": busy["decode"] * per,
        "extract.write_ms_per_page": busy["write"] * per,
        "replay.busy_s": sum(busy.values()),
    }


def median_dict(rows: list[dict]) -> dict[str, float]:
    return {k: float(np.median([r[k] for r in rows])) for k in rows[0]}
