"""Time one large-frontier crawl wave from a checkpoint's Parquet.

    python tools/frontier_wave.py --pending 1000000 --reps 3
    python tools/frontier_wave.py --pending 10000000 --reps 1

Generates a skewed frontier of ``--pending`` urls with NumPy and Arrow
compute (``HOT`` of the urls on one of ``HOSTS`` hosts, priority 0–2,
every row due), writes it as the ``frontier_parquet/`` directory of
``BLOCKS`` files that a large-frontier checkpoint leaves, and then, per
rep, runs the wave's frontier steps as ``pipelines/crawl.py`` runs them
above ``distributed_select_threshold`` (its own ``CPUS``-CPU Ray
session):

* ``select``: ``select_wave_distributed`` on ``read_parquet`` of the
  directory (the selected wave materializes; the defer stays lazy);
* ``probe``: ``_keys_present`` of ``4 × WAVE_SIZE`` outlink keys,
  half of them pending, against the deferred Dataset;
* ``ckpt``: ``_write_checkpoint`` of the deferred Dataset ∪ the new
  outlink rows (the seen set is a stub that writes an empty log).

Each rep prints the three times, the rows selected, the checkpoint's
pending count and bytes, and a sha1 of the selected urls in wave
order, so runs of two checkouts can be checked to pick the same wave.
``url_key`` is a bijective mix of the row number, not the url's sha1:
the steps timed only need it unique.  Fetch, seen set and extract are
not run.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

HOSTS = 4096
HOT = 0.65  # share of the urls on the dominant host
BLOCKS = 16
WAVE_SIZE = 256
BUDGET = 8
CPUS = 4
SEED = 0


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer: a bijection on uint64."""
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def frontier_rows(start: int, stop: int, rng) -> pa.Table:
    """Frontier rows ``start..stop`` (row number ``i`` has url
    ``https://h<host>.example/p/<i>``), due at wave 0."""
    from crawler_tjce_ray.state.frontier import FRONTIER_SCHEMA

    n = stop - start
    i = np.arange(start, stop)
    host_id = np.where(rng.random(n) < HOT, 0, rng.integers(1, HOSTS, n))
    host = pc.binary_join_element_wise(
        "h", pc.cast(pa.array(host_id), pa.string()), ".example", "")
    url = pc.binary_join_element_wise(
        "https://", host, "/p/", pc.cast(pa.array(i), pa.string()), "")
    priority = rng.integers(0, 3, n).astype(np.int32)
    return pa.table({
        "url": url, "url_key": mix64(i), "host": host, "priority": priority,
        "next_fetch_wave": np.zeros(n, np.int32), "depth": priority,
        "seed": pa.repeat("root", n),
    }, schema=FRONTIER_SCHEMA)


class NoSeen:
    """The seen-set surface a checkpoint write touches."""

    def take_log(self):
        return b""

    def snapshot_due(self):
        return False


def dir_bytes(d: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(d) for f in fs)


def one_wave(fdir: str, workdir: str, probe_keys: np.ndarray,
             new_rows: pa.Table) -> dict:
    import ray.data as rd

    from crawler_tjce_ray.pipelines import crawl

    t0 = time.perf_counter()
    selected, deferred = crawl.select_wave_distributed(
        rd.read_parquet(fdir), 0, WAVE_SIZE, BUDGET)
    t1 = time.perf_counter()
    present = crawl._keys_present(deferred, probe_keys)
    adds = new_rows.filter(~np.isin(new_rows["url_key"].to_numpy(), present))
    t2 = time.perf_counter()
    lineage = pa.table({"url": selected["url"]})
    pending = crawl._write_checkpoint(
        workdir, 0, deferred.union(rd.from_arrow(adds)), NoSeen(), lineage, {})
    t3 = time.perf_counter()
    return {
        "select_s": round(t1 - t0, 3), "probe_s": round(t2 - t1, 3),
        "ckpt_s": round(t3 - t2, 3), "selected": selected.num_rows,
        "present": len(present), "pending": pending,
        "ckpt_mb": round(dir_bytes(workdir) / 2**20, 1),
        "wave_sha1": hashlib.sha1(
            "\n".join(selected["url"].to_pylist()).encode()).hexdigest()[:16],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pending", type=int, default=1_000_000)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    rng = np.random.default_rng(SEED)
    tmp = tempfile.mkdtemp(prefix="frontier_wave_")
    try:
        fdir = os.path.join(tmp, "frontier_parquet")
        os.makedirs(fdir)
        t = time.perf_counter()
        bounds = np.linspace(0, args.pending, BLOCKS + 1).astype(np.int64)
        for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            pq.write_table(frontier_rows(int(lo), int(hi), rng),
                           os.path.join(fdir, f"part_{b:05d}.parquet"))
        print(f"generated {args.pending} pending urls in "
              f"{time.perf_counter() - t:.2f} s", flush=True)
        n_new = 2 * WAVE_SIZE
        new_rows = frontier_rows(args.pending, args.pending + n_new, rng)
        old_keys = mix64(rng.choice(args.pending, n_new, replace=False))
        probe_keys = np.concatenate([old_keys, new_rows["url_key"].to_numpy()])
        for r in range(args.reps):
            workdir = os.path.join(tmp, f"rep_{r}")
            out = one_wave(fdir, workdir, probe_keys, new_rows)
            shutil.rmtree(workdir)
            print(f"rep {r}: " + " ".join(f"{k}={v}" for k, v in out.items()),
                  flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        ray.shutdown()


if __name__ == "__main__":
    main()
