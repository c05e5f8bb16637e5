"""DSR page-decode microbench: columnar plan vs scalar decoder by page size.

For each record kind and each page size, builds ``PAGES`` synthetic
pages with ``dsr/synth.generate_page`` (parsed once, untimed) and times
two decoders of one extractor over them:

* ``columnar``: the kind's columnar plan (``decode_columns``), with the
  extractor's cross-page memo;
* ``scalar``: the scalar spec decoder plus its column adapter
  (``scalar_columns``).

Each time is the best of ``--reps`` passes over the pages, in ms per
page.  One extractor serves every pass of a kind, so from the second
pass on its memo is as warm as in a long-lived fetch actor.  A kind
without a columnar plan reports ``-``.  The extract stage switches a
kind to its columnar plan at the page size where that plan becomes the
faster one (``stages/extract.py``, ``*_COLUMNAR_MIN_ROWS``).

    python tools/decode_bench.py                  # table + one JSON line
    python tools/decode_bench.py --sizes 16 64 --reps 3

Single process, no Ray.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from crawler_tjce_ray.dsr import synth  # noqa: E402
from crawler_tjce_ray.functions.jsonio import loads_exact  # noqa: E402
from crawler_tjce_ray.stages.extract import (  # noqa: E402
    ExtractEditais,
    ExtractPagamentos,
    ExtractPrecatorios,
)

KINDS = {
    "precatorios": ExtractPrecatorios,
    "editais": ExtractEditais,
    "pagamentos": ExtractPagamentos,
}
SIZES = (4, 16, 32, 64, 128, 256, 384, 512)
PAGES = 8          # distinct pages per (kind, size)
YEAR = 2024        # pinned current_year


def pages_for(kind: str, rows: int, seed: int) -> list[dict]:
    plan = synth.build_page_plan(n_entities=8, total_pages=400, seed=seed)
    chosen = [p for p in plan if p.kind == kind][:PAGES]
    return [loads_exact(synth.generate_page(p, rows, seed)["html"]) for p in chosen]


def best_ms(fn, docs: list[dict], reps: int) -> float:
    best = float("inf")
    gc.disable()  # as timeit does, so no collection lands in one pass only
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            for d in docs:
                fn(d)
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best * 1000 / len(docs)


def run(sizes, reps: int, seed: int) -> list[dict]:
    out = []
    for kind, cls in KINDS.items():
        ex = cls(YEAR)
        for rows in sizes:
            docs = pages_for(kind, rows, seed)
            row = {"kind": kind, "rows": rows,
                   "scalar_ms": best_ms(ex.scalar_columns, docs, reps),
                   "columnar_ms": None}
            if cls.columnar_min_rows is not None:
                row["columnar_ms"] = best_ms(ex.decode_columns, docs, reps)
            out.append(row)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rows = run(args.sizes, args.reps, args.seed)
    print(f"{'kind':<12} {'rows':>5} {'columnar ms':>12} {'scalar ms':>10} {'col/scalar':>11}")
    for r in rows:
        c = r["columnar_ms"]
        ratio = f"{c / r['scalar_ms']:.2f}" if c is not None else "-"
        col = f"{c:.3f}" if c is not None else "-"
        print(f"{r['kind']:<12} {r['rows']:>5} {col:>12} {r['scalar_ms']:>10.3f} {ratio:>11}")
    print(json.dumps({"reps": args.reps, "pages": PAGES, "seed": args.seed,
                      "rows": rows}))


if __name__ == "__main__":
    main()
