"""Resumable bulk extraction: one output partition per input shard,
skip-finished semantics.

The crawl path checkpoints per wave (pipelines/crawl.py); this is the
equivalent contract for OFFLINE bulk extraction over an existing pages
corpus: output is laid out as ``out_dir/shard=<relpath>/`` with a
``_SUCCESS`` marker per shard, so a killed run redoes only unfinished
shards — never one giant file, never a full restart (SURVEY §7
"Resumable output").

Shard identity is the input file's path RELATIVE to the corpus root
(separators folded) — basenames alone collide on nested layouts like
``bucket=K/part-0.parquet``.  The per-shard marker records
(kind, source, year): reusing an out_dir for a different extraction
re-runs instead of silently serving stale records.

Each shard is one Ray task (read shard → filter kind → DSR extract →
write partition → marker).  Shards are independent, so a 100 TB corpus
is just more tasks; the scheduler pipelines them.
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray

from crawler_tjce_ray.pipelines.extract_all import _EXTRACTORS
from crawler_tjce_ray.stages.extract import filter_kind


def _list_shards(pages_path: str) -> list[str]:
    out = []
    for root, _dirs, files in os.walk(pages_path):
        for name in files:
            if name.endswith(".parquet"):
                out.append(os.path.join(root, name))
    return sorted(out)


def _shard_dir(out_dir: str, pages_path: str, shard_path: str) -> str:
    rel = os.path.relpath(shard_path, pages_path)
    stem = os.path.splitext(rel)[0].replace(os.sep, "__")
    return os.path.join(out_dir, f"shard={stem}")


def _marker_key(kind: str, pages_path: str, year) -> str:
    return f"{kind}|{os.path.abspath(pages_path)}|{year}"


@ray.remote(num_cpus=1)
def _extract_shard(shard_path: str, kind: str, year: int | None,
                   dest: str, marker_key: str) -> int:
    """Process one input shard to one output partition, atomically
    (tmp file + rename + keyed marker).  Any stale part file from a
    previous run is removed first, so a zero-row shard can never bless
    leftover data as valid."""
    import pyarrow.parquet as pq

    t = pq.read_table(shard_path, columns=["url", "html"])
    t = filter_kind(t, kind)
    out = _EXTRACTORS[kind](year)(t) if t.num_rows else pa.table({})
    os.makedirs(dest, exist_ok=True)
    final = os.path.join(dest, "part-0.parquet")
    if os.path.exists(final):
        os.remove(final)
    if out.num_rows:
        tmp = final + ".tmp"
        pq.write_table(out, tmp)
        os.replace(tmp, final)
    with open(os.path.join(dest, "_SUCCESS"), "w") as f:
        f.write(marker_key + "\n" + str(out.num_rows))
    return out.num_rows


def extract_records_resumable(
    pages_path: str, kind: str, out_dir: str, current_year: int | None = None
) -> dict:
    """Run (or resume) bulk extraction.  Returns
    ``{"shards_total", "shards_skipped", "shards_done", "rows"}``."""
    key = _marker_key(kind, pages_path, current_year)
    shards = _list_shards(pages_path)
    todo, skipped = [], 0
    for s in shards:
        dest = _shard_dir(out_dir, pages_path, s)
        marker = os.path.join(dest, "_SUCCESS")
        done = False
        if os.path.exists(marker):
            with open(marker) as f:
                done = f.readline().strip() == key
        if done:
            skipped += 1
        else:
            todo.append((s, dest))
    refs = [
        _extract_shard.remote(s, kind, current_year, dest, key)
        for s, dest in todo
    ]
    rows = sum(ray.get(refs)) if refs else 0
    return {
        "shards_total": len(shards),
        "shards_skipped": skipped,
        "shards_done": len(todo),
        "rows": rows,
    }


def read_records(out_dir: str):
    """Read the resumable output back as a Dataset (only completed
    shards — partial shards have no final part file)."""
    import ray.data as rd

    parts = []
    for root, _dirs, files in os.walk(out_dir):
        if "_SUCCESS" in files and "part-0.parquet" in files:
            parts.append(os.path.join(root, "part-0.parquet"))
    return rd.read_parquet(sorted(parts)) if parts else rd.from_items([])
