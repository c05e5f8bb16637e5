"""Table-scan microbench: ``exchange.scan`` against ``ray.data.read_parquet``.

For each table of an sf dir, times one Ray Data execution of
read → identity ``map_batches`` → ``to_pandas`` through each reader at
the engine's block count (``exchange.read_blocks``), in busy CPU
milliseconds of the whole machine (``/proc/stat``: the driver and every
Ray process) per execution.  A rep runs ``--inner`` executions of one
reader; the readers alternate rep by rep, so host drift hits both
alike.  Prints one line per table and reader, then one JSON line with
the median and quartiles of every (table, reader) and of the pooled
reps.

    python tools/scan_bench.py                         # sf0.01, 10 reps
    python tools/scan_bench.py --tables events orders --reps 4 --inner 10

Starts a local Ray session (``--cpus``, default 4).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def busy_ms() -> float:
    """Busy CPU time of the whole machine since boot, in ms."""
    with open("/proc/stat") as f:
        user, nice, system, _idle, _iowait, irq, softirq = (
            int(v) for v in f.readline().split()[1:8])
    return (user + nice + system + irq + softirq) * 1000.0 \
        / os.sysconf("SC_CLK_TCK")


def readers():
    import ray.data as rd

    from crawler_tjce_ray.pipelines import exchange

    return {
        "scan": exchange.scan,
        "read_parquet": lambda p: rd.read_parquet(
            p, override_num_blocks=exchange.read_blocks(p)),
    }


def one_rep(read, path: str, inner: int) -> float:
    t0 = busy_ms()
    for _ in range(inner):
        read(path).map_batches(lambda t: t, batch_format="pyarrow").to_pandas()
    return (busy_ms() - t0) / inner


def quartiles(xs) -> dict:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return {"median": round(float(med), 2), "q1": round(float(q1), 2),
            "q3": round(float(q3), 2), "n": len(xs)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("--tables", nargs="*", default=TABLES)
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--inner", type=int, default=4)
    ap.add_argument("--cpus", type=int, default=4)
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    rs = readers()
    times = {(t, r): [] for t in args.tables for r in rs}
    for t in args.tables:
        path = f"{args.sf}/{t}.parquet"
        for r in rs:  # warm-up, untimed
            one_rep(rs[r], path, 1)
        for i in range(args.reps):
            order = list(rs) if i % 2 == 0 else list(rs)[::-1]
            for r in order:
                times[(t, r)].append(one_rep(rs[r], path, args.inner))
        for r in rs:
            q = quartiles(times[(t, r)])
            print(f"{t:12s} {r:13s} {q['median']:8.1f} ms "
                  f"(q1 {q['q1']:.1f}, q3 {q['q3']:.1f})", flush=True)
    ray.shutdown()
    out = {f"{t}/{r}": quartiles(v) for (t, r), v in times.items()}
    for r in rs:
        out[f"all/{r}"] = quartiles(
            [x for (t, rr), v in times.items() if rr == r for x in v])
    print(json.dumps({"sf": args.sf, "reps": args.reps, "inner": args.inner,
                      "cpus": args.cpus, "ms_per_execution": out}))


if __name__ == "__main__":
    main()
