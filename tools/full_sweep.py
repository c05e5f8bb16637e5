"""Close-out: strict driver-style compare of ALL oracle-backed queries
(sorted columns, raw string equality — the driver's hash).

Usage: python tools/full_sweep.py [sf_dir]   (default /root/testdata/sf0.01)
Results land in /tmp/full_sweep.json (keyed by the sf dir's basename when
a non-default dir is given).  Exits 1 when any query fails or errors."""
import json
import sys
import time

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parents[1]))

import duckdb
import pandas as pd
import ray

import os
ray.init(address="local",
         num_cpus=int(os.environ.get("GRAFT_SWEEP_CPUS", "16")),
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

import __ray_entry__ as E

SF_DIR = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
TABLES = ["region", "nation", "customer", "supplier", "part",
          "orders", "lineitem", "events", "documents", "embeddings"]

con = duckdb.connect()
for t in TABLES:
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")

qs = E.queries()
sql = E.oracle_sql()

fails = []
n_ok = 0
for name in qs:
    if name not in sql:
        continue
    t0 = time.time()
    try:
        mine = qs[name](SF_DIR)
        if hasattr(mine, "to_pandas"):
            mine = mine.to_pandas()
        ref = con.execute(sql[name]).df()
        a = mine[sorted(mine.columns)].reset_index(drop=True)
        b = ref[sorted(ref.columns)].reset_index(drop=True)
        ok = (len(a) == len(b) and list(a.columns) == list(b.columns))
        if ok:
            sa = a.astype(str).sort_values(list(a.columns), kind="mergesort").reset_index(drop=True)
            sb = b.astype(str).sort_values(list(b.columns), kind="mergesort").reset_index(drop=True)
            ok = bool(sa.equals(sb))
        if ok:
            n_ok += 1
            print(f"{name}: OK [{time.time()-t0:.1f}s]", flush=True)
        else:
            fails.append(name)
            print(f"{name}: FAIL ({len(a)}/{list(a.columns)} vs {len(b)}/{list(b.columns)})", flush=True)
    except Exception as ex:
        fails.append(name)
        print(f"{name}: ERROR {type(ex).__name__}: {ex}", flush=True)

print(f"\n=== {n_ok} strict green, {len(fails)} failing: {fails} ===")
out = ("/tmp/full_sweep.json" if SF_DIR.endswith("sf0.01")
       else f"/tmp/full_sweep_{SF_DIR.rstrip('/').rsplit('/', 1)[-1]}.json")
json.dump({"sf_dir": SF_DIR, "ok": n_ok, "fails": fails}, open(out, "w"))
ray.shutdown()
sys.exit(1 if fails else 0)
