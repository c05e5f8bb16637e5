"""Per-process CPU seconds of one ``crawl_narrow`` crawl.

Prepares the benchmark's ``crawl_narrow`` workload (corpus, page store,
seeds and ``CrawlConfig``) with ``perfbench/crawls.py::prepare``,
loaded read-only by path, at perfbench's default seed, runs one
unmeasured warm-up crawl as perfbench does, then one measured crawl in
a local Ray session, sampling ``/proc/<pid>/stat`` of the driver and
every process below it (gcs_server, raylet, Ray workers and actors)
every 30 ms.  Prints one row per process: the CPU seconds it used
during the measured crawl, whether it started or exited during it,
and its role (``driver``, ``FetchActor``, ``raylet``, ``gcs_server``,
the Ray task it last ran, ...), then the fetch pool's member count,
the Ray actors the crawl started and the checkpoints it committed
(count and bytes; small waves share a commit), then the total per
role.  The fetch pool's member 0 runs in the driver, so its share is
in the driver's row; only members 1… are ``FetchActor`` processes.

The sampler keeps running for ``SETTLE`` seconds after the crawl
returns, so CPU the crawl causes afterwards —
a worker process Ray starts to replace a killed actor's, the raylet
reaping it — is counted too: each row's ``settle_s`` column and one
line of its own give that share, apart from the crawl's.

    python tools/crawl_cpu.py                 # perfbench's corpus cache
    python tools/crawl_cpu.py --cache DIR     # corpus and workdir in DIR
    python tools/crawl_cpu.py --json          # one JSON object

A process that exits between two samples loses at most one interval of
CPU time; the sampler thread's own CPU counts toward the driver.
Linux only (reads ``/proc``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TICK = os.sysconf("SC_CLK_TCK")
INTERVAL = 0.03     # sampling period, s
SETTLE = 2.0        # sampling past the crawl's return, s
WORKLOAD, SEED = "crawl_narrow", 0  # perfbench/run.py's default seed
NUM_CPUS = 4        # perfbench/run.py's Ray session


def proc_stat(pid: int) -> tuple[int, float] | None:
    """(parent pid, user + system CPU seconds) of ``pid``, or None once
    it has exited."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None
    return int(fields[1]), (int(fields[11]) + int(fields[12])) / TICK


def proc_title(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except (FileNotFoundError, ProcessLookupError):
        return ""


def role(pid: int, title: str) -> str:
    if pid == os.getpid():
        return "driver"
    if title.startswith("ray::"):
        # Ray names a worker by what it runs: ray::FetchActor,
        # ray::FetchActor.__call__, ray::IDLE, ray::ReadParquet, ...
        return title.split()[0][5:].split(".")[0]
    argv = title.split()
    for name in ("gcs_server", "raylet"):
        if argv and os.path.basename(argv[0]) == name:
            return name
    scripts = [a for a in argv[1:] if a.endswith(".py")]
    return os.path.basename(scripts[0] if scripts else argv[0]) if argv else "?"


class Sampler:
    """Samples the CPU time of the driver and its descendants."""

    def __init__(self, interval: float):
        self.interval = interval
        self.first: dict[int, float] = {}   # pid -> CPU at its first sample
        self.last: dict[int, float] = {}    # pid -> CPU at its latest sample
        self.roles: dict[int, str] = {}     # pid -> last role other than IDLE
        self.at_mark: dict[int, float] = {}  # pid -> CPU at ``mark()``
        self.before: set[int] = set()
        self.alive: set[int] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> set[int]:
        with self._lock:
            return self._sample()

    def _sample(self) -> set[int]:
        parent: dict[int, int] = {}
        cpu: dict[int, float] = {}
        for name in os.listdir("/proc"):
            if name.isdigit():
                st = proc_stat(int(name))
                if st is not None:
                    parent[int(name)], cpu[int(name)] = st
        mine = {os.getpid()}
        grew = True
        while grew:
            below = {p for p, pp in parent.items() if pp in mine} - mine
            grew = bool(below)
            mine |= below
        for pid in mine:
            self.first.setdefault(pid, cpu[pid])
            self.last[pid] = cpu[pid]
            title = proc_title(pid)  # empty once the process is a zombie
            if not title:
                self.roles.setdefault(pid, "?")
                continue
            r = role(pid, title)
            if self.roles.get(pid, "?") in ("?", "IDLE") or r != "IDLE":
                self.roles[pid] = r
        return mine

    def _run(self):
        while not self._stop.wait(self.interval):
            self.alive = self.sample()

    def __enter__(self):
        self.before = self.alive = self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.alive = self.sample()

    def mark(self) -> None:
        """Split the samples here: CPU used before the mark is the
        crawl's, after it the settle period's."""
        self.sample()
        self.at_mark = dict(self.last)

    def rows(self) -> list[dict]:
        out = []
        for pid, cpu in self.last.items():
            started = pid not in self.before
            base = 0.0 if started else self.first[pid]
            mark = self.at_mark.get(pid, base)
            out.append({"pid": pid, "role": self.roles[pid],
                        "cpu_s": round(mark - base, 3),
                        "settle_s": round(cpu - mark, 3),
                        "started": started, "exited": pid not in self.alive})
        return sorted(out, key=lambda r: -(r["cpu_s"] + r["settle_s"]))


def commits(workdir: str) -> tuple[int, int]:
    """(count, bytes) of the crawl's committed checkpoints."""
    from crawler_tjce_ray.pipelines.crawl import _ckpt_dir, _completed_waves

    dirs = [_ckpt_dir(workdir, w) for w in _completed_waves(workdir)]
    return len(dirs), sum(os.path.getsize(os.path.join(r, f))
                          for d in dirs for r, _, fs in os.walk(d) for f in fs)


def load_crawls():
    """``perfbench/crawls.py`` as a module, without importing perfbench."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_crawls", os.path.join(ROOT, "perfbench", "crawls.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cache", default=os.path.join(ROOT, ".perfbench_cache"),
                    help="directory for the corpus, its page store and the crawl's "
                         "workdir (default: perfbench's cache)")
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    crawls = load_crawls()
    prep = crawls.prepare(WORKLOAD, SEED, args.cache)
    crawls.one_crawl(prep)  # warm-up
    # the GCS actor table (ray.util.state needs the dashboard)
    actors_before = set(ray._private.state.actors())
    t0 = time.perf_counter()
    with Sampler(INTERVAL) as sampler:
        res, _, _ = crawls.one_crawl(prep)
        wall = time.perf_counter() - t0
        sampler.mark()
        time.sleep(SETTLE)
    error = crawls.check_crawl(res, prep)
    n_commits, ckpt_bytes = commits(prep["workdir"])
    table = ray._private.state.actors()
    started = sorted(table[a]["ActorClassName"] for a in set(table) - actors_before)
    ray.shutdown()

    rows = sampler.rows()
    by_role: dict[str, float] = {}
    settle_by_role: dict[str, float] = {}
    for r in rows:
        by_role[r["role"]] = round(by_role.get(r["role"], 0.0) + r["cpu_s"], 3)
        if r["settle_s"] > 0:
            settle_by_role[r["role"]] = round(
                settle_by_role.get(r["role"], 0.0) + r["settle_s"], 3)
    ok = int((res.trace["status"] == "ok").sum())
    summary = {
        "wall_s": round(wall, 3), "pages_ok": ok, "waves": res.waves_run,
        "error": error,
        # the pool's largest member count over the waves' metrics
        # (None on a tree whose pool starts every actor up front)
        "pool_members": max((m.get("fetch_actors") or 0 for m in res.metrics),
                            default=0) or None,
        "ray_actors_started": started,
        "commits": n_commits, "checkpoint_bytes": ckpt_bytes,
        "cpu_s": round(sum(r["cpu_s"] for r in rows), 3),
        "by_role": dict(sorted(by_role.items(), key=lambda kv: -kv[1])),
        "settle_s": SETTLE,
        "settle_cpu_s": round(sum(r["settle_s"] for r in rows), 3),
        "settle_by_role": dict(sorted(settle_by_role.items(), key=lambda kv: -kv[1])),
    }
    if args.json:
        print(json.dumps({**summary, "processes": rows}))
        return 0
    print(f"{'pid':>8} {'cpu_s':>8} {'settle_s':>8}  started exited  role")
    for r in rows:
        if r["cpu_s"] > 0 or r["settle_s"] > 0 or r["started"] or r["exited"]:
            print(f"{r['pid']:>8} {r['cpu_s']:>8.3f} {r['settle_s']:>8.3f}  "
                  f"{'yes' if r['started'] else '-':>7}"
                  f" {'yes' if r['exited'] else '-':>6}  {r['role']}")
    print(f"\nwall {summary['wall_s']} s, {ok} ok pages in {res.waves_run} waves, "
          f"{summary['pool_members'] or 'unreported'} pool members, "
          f"Ray actors started: {', '.join(started) or 'none'}; "
          f"{n_commits} commits, {ckpt_bytes} checkpoint bytes; "
          f"CPU {summary['cpu_s']} s in total; "
          f"{'crawl correct' if error is None else 'crawl WRONG: ' + error}")
    for name, cpu in summary["by_role"].items():
        print(f"{cpu:>8.3f}  {name}")
    after = ", ".join(f"{n} {c}" for n, c in summary["settle_by_role"].items())
    print(f"after the crawl: CPU {summary['settle_cpu_s']} s in the "
          f"{SETTLE} s settle period ({after or 'none'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
