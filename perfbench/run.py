"""Benchmark of the crawler_tjce_ray engine: two closed-loop workloads.

    python3 perfbench/run.py --workload crawl_narrow --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it holds the environment, the inputs and every sample
behind the metrics.

Workloads (one driver process, ``ray.init(num_cpus=4)``, so the crawl's
fetch pool gets 2 actors):

* ``crawl_narrow`` -- the skewed default shape, 60 waves of a few pages
  each with the dominant host deferred by its per-host budget: frontier
  select, the seen-set round trip and the per-wave checkpoint dominate.
* ``query_mix``    -- 40 registry queries, about half exchange-bound and
  half scan-bound, in a seed-shuffled order over synthetic star-schema
  tables.

A ``crawl_narrow`` run first makes one warm-up crawl, which is checked
like the others but left out of every timing; ``query_mix`` relies on
the Ray Data warm-up of its setup.  Then the closed loop runs for
``--seconds`` and makes at least one operation.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: process start to ready -- imports, ``ray.init`` and, for
  ``query_mix``, the Ray Data warm-up -- as the median of this process
  and ``SETUP_RUNS - 1`` setup-only child processes run before it.
  Corpus synthesis is excluded; it models the web, not the engine.
* ``cpu_ms_per_item``: busy CPU time of the whole machine (the driver
  and every Ray process) per ok page (crawls) or per query
  (``query_mix``), over the timed operations.
* ``driver_peak_rss_mb``: the driver's peak resident set through the
  first operation, read before its checks.

The detail line also holds the wall-clock figures, which are not
end-to-end metrics because on a host whose hypervisor steals CPU time
they swing by more than a regression bound from run to run (each
operation records its steal share): ``throughput_per_s``, ok pages per
second of ``run_crawl`` wall time or queries per second of pass wall
time, and ``latency_p50_ms`` / ``latency_p75_ms``, per wave or per
query.

Failures count per operation (a crawl, or a query): a raised error, a
wrong crawl order, a wrong record count, ``pages_failed > 0``, or a
query result that differs from its DuckDB oracle.  ``failed /
attempted`` is the failure fraction.

With ``--trace 1`` the timed loop alternates untraced and traced
operations and reports the per-layer metrics (see ``crawls.CrawlTracer``,
``crawls.replay_pages`` and ``queries.QueryTracer``); a layer that the
workload does not exercise reports 0.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".perfbench_cache")
RAY_TMP = os.path.join(ROOT, ".pbray")
NUM_CPUS = 4
SETUP_RUNS = 3
WORKLOADS = ("crawl_narrow", "query_mix")

END_TO_END = {"setup_s": "s", "cpu_ms_per_item": "ms", "driver_peak_rss_mb": "MB"}
WALL = {"throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_p75_ms": "ms"}
PER_LAYER = {
    "crawl.wall_s": "s", "crawl.driver_other_s": "s",
    "crawl.wave0_s": "s", "crawl.wave_p50_ms": "ms",
    "crawl.checkpoint_s": "s", "crawl.checkpoint_bytes": "bytes",
    "frontier.select_s": "s", "frontier.select_calls": "count",
    "frontier.pending_max": "count",
    "seen.check_s": "s", "seen.calls": "count", "seen.dup_ratio": "ratio",
    "seen.checkpoint_s": "s",
    "fetch.pool_s": "s", "fetch.pages": "count", "fetch.bucket_loads": "count",
    "fetch.retries": "count", "fetch.robots_hit_ratio": "ratio",
    "fetch.pool_busy_ratio": "ratio", "fetch.read_ms_per_page": "ms",
    "jsonio.parse_ms_per_page": "ms", "extract.decode_ms_per_page": "ms",
    "extract.write_ms_per_page": "ms",
    "query.wall_s": "s", "query.scan_s": "s", "query.combine_s": "s",
    "query.exchange_s": "s", "query.finalize_s": "s",
    "query.driver_reduce_s": "s", "query.exchanges": "count",
    "query.exchange_skew": "ratio", "query.exchange_skew_max": "ratio",
    "trace.overhead_frac": "ratio",
}


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def summary(values) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    return {"median": percentile(values, 50), "q1": percentile(values, 25),
            "q3": percentile(values, 75), "n": len(values)}


def load_engine():
    """Import the engine from this checkout; exit non-zero when it is absent."""
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    try:
        import crawler_tjce_ray
    except ImportError as e:
        sys.exit(f"engine not found next to the benchmark: {e}")
    if not os.path.abspath(crawler_tjce_ray.__file__).startswith(ROOT + os.sep):
        sys.exit(f"engine imported from outside {ROOT}: {crawler_tjce_ray.__file__}")
    import ray  # noqa: F401
    import ray.data  # noqa: F401

    import_pipelines(None)


def import_pipelines(batch):
    """Import every pipeline module.  The registry imports them lazily;
    setup runs this on the driver and in the Ray workers, so the cost
    lands in setup_s instead of the first timed query."""
    import importlib
    import pkgutil

    import crawler_tjce_ray.pipelines as pipelines

    for mod in pkgutil.iter_modules(pipelines.__path__):
        importlib.import_module(f"{pipelines.__name__}.{mod.name}")
    return batch


def ray_temp_dir() -> str | None:
    """Ray's session directory inside the checkout, unless the path is
    too long for the unix sockets Ray creates there (then Ray's default
    is used and the detail line says so)."""
    return RAY_TMP if len(RAY_TMP) <= 40 else None


def start_ray(warm: bool) -> float:
    import logging

    import ray
    from ray.data import DataContext

    t0 = time.perf_counter()
    ray.init(num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=600 * 2**20, _temp_dir=ray_temp_dir())
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    if warm:
        ray.data.range(64, override_num_blocks=16).map_batches(
            import_pipelines, batch_size=4).materialize()
    return time.perf_counter() - t0


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import psutil  # ships with Ray
    import ray

    procs = psutil.Process().children(recursive=True)
    ray.shutdown()
    _, alive = psutil.wait_procs(procs, timeout=20)
    for p in alive:
        try:
            p.kill()
        except psutil.NoSuchProcess:
            pass
    psutil.wait_procs(alive, timeout=10)


def setup_probe(workload: str) -> float:
    """One ``setup_s`` sample: a fresh ``--setup-only`` process, timed
    from its spawn to its ``ready`` line; then it shuts Ray down and
    this waits until it has ended."""
    import subprocess

    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--setup-only"], stdout=subprocess.PIPE, text=True)
    ready = None
    try:
        for line in child.stdout:
            if line.strip() == "ready":
                ready = time.perf_counter() - t0
                break
        child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if ready is None or child.returncode:
        raise RuntimeError(f"setup probe failed with code {child.returncode}")
    return ready


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_ticks() -> tuple[int, int, int]:
    """(steal, busy, total) ticks of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as f:
        user, nice, system, idle, iowait, irq, softirq, steal = (
            int(v) for v in f.readline().split()[1:9])
    busy = user + nice + system + irq + softirq
    return steal, busy, busy + idle + iowait + steal


class CpuMeter:
    """CPU time over a section: the busy seconds of the whole machine,
    which the driver and every Ray process share, and the share of time
    the hypervisor gave to other guests (steal, a noisy-host marker)."""

    def __enter__(self):
        self._start = cpu_ticks()
        return self

    def __exit__(self, *exc):
        steal, busy, total = (b - a for a, b in zip(self._start, cpu_ticks()))
        self.cpu_s = busy / os.sysconf("SC_CLK_TCK")
        self.steal_frac = steal / max(1, total)


def error_text(e: BaseException) -> str:
    return f"{type(e).__name__}: {str(e).splitlines()[0][:300] if str(e) else ''}"


def closed_loop(one, seconds: float, trace: bool, warmup: bool) -> list[dict]:
    """Operations one after another for ``seconds``, at least one (a
    traced run alternates untraced and traced operations and makes at
    least one of each); with ``warmup``, one more operation first."""
    ops = [dict(one(False), warmup=True)] if warmup else []
    t_loop = time.perf_counter()
    n = 0
    while n < (2 if trace else 1) or time.perf_counter() - t_loop < seconds:
        ops.append(one(trace and n % 2 == 1))
        n += 1
    return ops


def overhead(timed: list[dict]) -> float:
    """trace.overhead_frac: median traced wall over median untraced
    wall, minus 1."""
    plain = [o["wall"] for o in timed if not o["traced"] and not o["error"]]
    traced = [o["wall"] for o in timed if o["traced"] and not o["error"]]
    if not plain or not traced:
        return 0.0
    return statistics.median(traced) / statistics.median(plain) - 1


# ---------------------------------------------------------------------------
# crawls
# ---------------------------------------------------------------------------

def run_crawl_workload(name: str, seed: int, seconds: float, trace: bool):
    import crawls

    prep = crawls.prepare(name, seed, CACHE)
    last_traced = None

    def one(traced: bool) -> dict:
        nonlocal last_traced
        op: dict = {"traced": traced}
        t0 = time.perf_counter()
        try:
            with CpuMeter() as cm:
                if traced:
                    with crawls.CrawlTracer() as ct:
                        res, wall, wave_ms = crawls.one_crawl(prep)
                else:
                    res, wall, wave_ms = crawls.one_crawl(prep)
            op["rss_mb"] = peak_rss_mb()
            op.update(wall=wall, cpu_s=cm.cpu_s, steal_frac=cm.steal_frac,
                      error=crawls.check_crawl(res, prep),
                      pages_ok=int((res.trace["status"] == "ok").sum()),
                      waves=res.waves_run, wave_ms=wave_ms)
            if traced:
                op["layers"] = ct.layer_metrics(res, wall)
                op["n_actors"] = ct.n_actors
                last_traced = res
        except Exception as e:
            op.update(wall=time.perf_counter() - t0, cpu_s=0.0, error=error_text(e),
                      pages_ok=0, waves=0, wave_ms=[])
        return op

    # the first crawl also pays for the driver's lazy imports and a cold
    # page-store file cache; it is checked but not timed
    ops = closed_loop(one, seconds, trace, warmup=True)
    timed = [o for o in ops if not o.get("warmup")]
    detail = {"corpus_key": prep["key"], "expected": prep["expected"],
              "config": crawls.WORKLOADS[name], "ops": ops}
    if not trace:
        waves = [ms for o in timed for ms in o["wave_ms"]]
        samples = {"throughput_per_s": [o["pages_ok"] / o["wall"] for o in timed],
                   "latency_p50_ms": waves, "latency_p75_ms": waves}
        pages = sum(o["pages_ok"] for o in timed)
        values = {"throughput_per_s": pages / sum(o["wall"] for o in timed),
                  "cpu_ms_per_item": 1000 * sum(o["cpu_s"] for o in timed) / max(1, pages)}
        return ops, samples, values, detail
    layers: dict[str, float] = {}
    if last_traced is not None:
        layers = crawls.median_dict([o["layers"] for o in timed if "layers" in o])
        replay = crawls.replay_pages(last_traced, prep,
                                     os.path.join(CACHE, "replay"))
        n_act = max(o.get("n_actors", 0) for o in timed) or crawls.FETCH_ACTORS
        pool_s = layers.get("fetch.pool_s", 0.0)
        layers.update({k: v for k, v in replay.items() if k in PER_LAYER})
        layers["fetch.pool_busy_ratio"] = (
            replay["replay.busy_s"] / (n_act * pool_s) if pool_s else 0.0)
        layers["trace.overhead_frac"] = overhead(timed)
    return ops, layers, None, detail


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def query_layers(qt, wall: float) -> dict[str, float]:
    skews = qt.skews
    return {
        "query.wall_s": wall,
        "query.scan_s": qt.kind_s["scan"],
        "query.combine_s": qt.kind_s["combine"],
        "query.exchange_s": qt.kind_s["exchange"],
        "query.finalize_s": qt.kind_s["finalize"],
        "query.driver_reduce_s": max(0.0, wall - qt.in_trigger_s) if wall else 0.0,
        "query.exchanges": qt.exchanges,
        "query.exchange_skew": statistics.median(skews) if skews else 0.0,
        "query.exchange_skew_max": max(skews) if skews else 0.0,
    }


def run_query_workload(seed: int, seconds: float, trace: bool):
    import crawls
    import queries
    import tables
    from crawler_tjce_ray.pipelines.registry import build_oracle_sql, build_queries

    sf_dir = tables.ensure_tables(CACHE)
    order = list(queries.QUERY_MIX)
    random.Random(seed).shuffle(order)
    qs = build_queries()
    oracle = queries.Oracle(sf_dir, tables.TABLES, build_oracle_sql())

    def run_query(name: str):
        r = qs[name](sf_dir)
        return r.to_pandas() if hasattr(r, "to_pandas") else r

    def one(traced: bool) -> dict:
        """One pass over the query list."""
        qt = queries.QueryTracer()
        lat: dict[str, float] = {}
        results: dict = {}
        errors: dict[str, str] = {}
        with CpuMeter() as cm:
            t_pass = time.perf_counter()
            for name in order:
                t0 = time.perf_counter()
                try:
                    if traced:
                        qt.new_query()
                        with qt:
                            results[name] = run_query(name)
                    else:
                        results[name] = run_query(name)
                except Exception as e:
                    errors[name] = error_text(e)
                lat[name] = time.perf_counter() - t0
            wall = time.perf_counter() - t_pass
        rss_mb = peak_rss_mb()
        for name, r in results.items():  # checks run outside the timing
            try:
                bad = oracle.check(name, r)
            except Exception as e:
                bad = error_text(e)
            if bad:
                errors[name] = bad
        op = {"traced": traced, "wall": wall, "cpu_s": cm.cpu_s,
              "steal_frac": cm.steal_frac, "latency_s": lat, "rss_mb": rss_mb,
              "errors": errors, "error": "; ".join(
                  f"{k}: {v}" for k, v in sorted(errors.items())) or None}
        if traced:
            op["layers"] = query_layers(qt, wall)
        return op

    # setup's Ray Data warm-up has started the workers and imported the
    # pipelines there; a warm-up pass would cost a pass per run
    ops = closed_loop(one, seconds, trace, warmup=False)
    oracle.close()
    timed = [o for o in ops if not o.get("warmup")]
    detail = {"tables": sf_dir, "data_seed": tables.DATA_SEED,
              "table_rows": tables.SIZES, "query_order": order,
              "exchange_bound": queries.EXCHANGE_BOUND,
              "scan_bound": queries.SCAN_BOUND, "ops": ops}
    if not trace:
        lats = [1000 * s for o in timed for s in o["latency_s"].values()]
        samples = {"throughput_per_s": [len(order) / o["wall"] for o in timed],
                   "latency_p50_ms": lats, "latency_p75_ms": lats}
        n = len(order) * len(timed)
        values = {"throughput_per_s": n / sum(o["wall"] for o in timed),
                  "cpu_ms_per_item": 1000 * sum(o["cpu_s"] for o in timed) / n}
        return ops, samples, values, detail
    layers = crawls.median_dict([o["layers"] for o in timed if "layers" in o])
    layers["trace.overhead_frac"] = overhead(timed)
    return ops, layers, None, detail


# ---------------------------------------------------------------------------

def environment(args) -> dict:
    import duckdb
    import pandas
    import pyarrow
    import ray

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "schedulable_cpus": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_num_cpus": NUM_CPUS, "ray_temp_dir": ray_temp_dir() or "ray default",
        "python": platform.python_version(), "ray": ray.__version__,
        "pyarrow": pyarrow.__version__, "pandas": pandas.__version__,
        "duckdb": duckdb.__version__, "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and shut down (one setup_s sample)")
    args = ap.parse_args()

    is_query = args.workload == "query_mix"
    load_engine()
    if args.setup_only:
        start_ray(warm=is_query)
        print("ready", flush=True)
        stop_ray()
        return 0
    import psutil  # ships with Ray

    import_s = time.time() - psutil.Process().create_time()
    sys.path.insert(0, HERE)
    os.makedirs(CACHE, exist_ok=True)
    if ray_temp_dir():
        shutil.rmtree(RAY_TMP, ignore_errors=True)
    probes = [] if args.trace else [
        setup_probe(args.workload) for _ in range(SETUP_RUNS - 1)]
    init_s = start_ray(warm=is_query)
    setups = [import_s + init_s] + probes
    try:
        if is_query:
            ops, out, values, detail = run_query_workload(
                args.seed, args.seconds, bool(args.trace))
        else:
            ops, out, values, detail = run_crawl_workload(
                args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_ray()
        if ray_temp_dir():
            shutil.rmtree(RAY_TMP, ignore_errors=True)

    failed = sum(1 for o in ops if o["error"]) if not is_query else sum(
        len(o["errors"]) for o in ops)
    attempted = len(ops) if not is_query else sum(len(o["latency_s"]) for o in ops)
    if args.trace:
        metrics = {k: {"value": float(out.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
        samples = {}
    else:
        rss_mb = ops[0].get("rss_mb") or peak_rss_mb()
        samples = {"setup_s": setups, **out, "driver_peak_rss_mb": [rss_mb]}
        values.update({
            "setup_s": statistics.median(setups),
            "latency_p50_ms": percentile(out["latency_p50_ms"], 50),
            "latency_p75_ms": percentile(out["latency_p75_ms"], 75),
            "driver_peak_rss_mb": rss_mb,
        })
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
        detail["wall"] = {k: {"value": values[k], "unit": u} for k, u in WALL.items()}
    detail.update(env=environment(args), import_s=import_s, setup_s=setups,
                  samples={k: summary(v) for k, v in samples.items()})
    with open(os.path.join(CACHE, f"last_{args.workload}.json"), "w") as f:
        json.dump(detail, f, indent=1, default=str)
    print(json.dumps({"detail": detail,
                      "errors": [o["error"] for o in ops if o["error"]]},
                     default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
