"""Format-agnostic documents source: the same `documents` table read
from Parquet, JSONL or CSV with one call — so every text/webtext/dedup
query in the registry runs unchanged over a JSONL or CSV export of the
corpus (the interchange formats web-crawl dumps actually arrive in).

Resolution order per directory: ``documents.parquet`` (columnar,
pruned at the read — the preferred scale path), then
``documents.jsonl`` / ``documents.json`` (ray.data.read_json), then
``documents.csv`` (ray.data.read_csv with explicit types so doc_id
stays int64 and text never auto-parses).  Non-parquet formats cannot
prune columns at the scan, so a ``select_columns`` projection drops
the rest immediately after the read — the payload leaves the object
store before any shuffle, which is the part that matters.

Block sizing is the tables' rule (``exchange.read_blocks``): the
file's bytes decide the block count, at most one block per four
cluster CPUs, so a small export reads as one block and a large one
keeps the CPUs busy instead of serializing every per-batch stage.
The Parquet file reads through ``exchange.scan``, planned from its
footer like every other single-file table.
"""

from __future__ import annotations

import os


def read_documents(sf_dir: str, columns=None):
    """A ``ray.data.Dataset`` over the documents table in whichever
    format ``sf_dir`` provides (parquet > jsonl/json > csv).  Parquet
    goes through ``exchange.scan`` (footer-planned, pruned to
    ``columns`` at the read); JSON and CSV through Ray's readers,
    projected right after."""
    import pyarrow as pa
    import pyarrow.csv as pacsv
    import ray.data as rd

    from crawler_tjce_ray.pipelines.exchange import read_blocks, scan

    pq_path = os.path.join(sf_dir, "documents.parquet")
    if os.path.exists(pq_path):
        return scan(pq_path, columns, 4)
    for name in ("documents.jsonl", "documents.json"):
        p = os.path.join(sf_dir, name)
        if os.path.exists(p):
            ds = rd.read_json(p, override_num_blocks=read_blocks(p, 4))
            return ds.select_columns(columns) if columns else ds
    csv_path = os.path.join(sf_dir, "documents.csv")
    if os.path.exists(csv_path):
        convert = pacsv.ConvertOptions(column_types={
            "doc_id": pa.int64(), "n_chars": pa.int64(),
            "text": pa.string(), "lang": pa.string(),
            "source": pa.string(),
        })
        ds = rd.read_csv(
            csv_path, convert_options=convert,
            override_num_blocks=read_blocks(csv_path, 4),
        )
        return ds.select_columns(columns) if columns else ds
    raise FileNotFoundError(
        f"no documents.(parquet|jsonl|json|csv) under {sf_dir}"
    )


def _documents_file(sf_dir: str) -> str:
    for name in ("documents.parquet", "documents.jsonl",
                 "documents.json", "documents.csv"):
        p = os.path.join(sf_dir, name)
        if os.path.exists(p):
            return p
    raise FileNotFoundError(
        f"no documents.(parquet|jsonl|json|csv) under {sf_dir}"
    )


def documents_mtime(sf_dir: str) -> float:
    """Cache-key mtime of whichever documents file the dir provides."""
    return os.path.getmtime(_documents_file(sf_dir))


def documents_row_count(sf_dir: str) -> int:
    """Row count — parquet metadata when available (no data read),
    else one pruned Dataset count."""
    p = _documents_file(sf_dir)
    if p.endswith(".parquet"):
        import pyarrow.parquet as pq

        return int(pq.read_metadata(p).num_rows)
    return int(read_documents(sf_dir, ["doc_id"]).count())


def documents_max_doc_id(sf_dir: str) -> int:
    """Max doc_id — parquet column read when available, else a
    per-batch max over the pruned Dataset."""
    p = _documents_file(sf_dir)
    if p.endswith(".parquet"):
        import pyarrow.parquet as pq

        t = pq.read_table(p, columns=["doc_id"])
        return int(t["doc_id"].to_pandas().max())
    import pandas as pd

    def batch_max(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:  # an empty batch has no max — emit nothing
            return pd.DataFrame({"mx": pd.Series([], dtype="int64")})
        return pd.DataFrame({"mx": [int(df["doc_id"].max())]})

    parts = read_documents(sf_dir, ["doc_id"]).map_batches(
        batch_max, batch_format="pandas",
    ).to_pandas()
    if parts.empty:
        raise ValueError(
            f"documents table in {sf_dir!r} has no rows; "
            "max doc_id is undefined")
    return int(parts["mx"].max())
