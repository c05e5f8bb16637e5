"""Key-bucket exchanges: the one single-input shuffle, the one
multi-input cogroup, the one driver-merged group-aggregate, and the
plan sizing rule for read blocks and exchange fan-out.

``shuffle(ds, key, nb, finalize, combine=None)`` is the one path for a
single-input exchange.  ONE pyarrow ``map_batches`` applies the
optional per-batch ``combine`` (Arrow table in, bounded per-key
partials out) and appends the bucket ``kb = kb_arrow(key, nb)``; then
``groupby("kb").map_groups(finalize)`` hands each bucket to
``finalize`` as ONE pandas frame.  The Ray plan is one map operator,
one all-to-all and one map operator.  Neither UDF needs an
empty-input guard: Ray Data passes an empty block through a
``map_batches`` UDF without calling it, and ``map_groups`` never
forms an empty group (pinned by tests/test_exchange_fanout.py).

Sizing.  A plan's task count follows its input bytes, not a fixed
shape — the same size-from-input discipline the politeness and
page-store layers already use:

* ``blocks_for_bytes(bytes, cap)`` splits a read into one block per
  ``TARGET_BLOCK_BYTES`` of decompressed payload, clamped to
  ``[1, cap]``.  ``read_cap()`` derives the cap from the cluster's CPU
  count (``ray.cluster_resources``, so a plan does not depend on how
  busy the cluster is when the query is issued); ``read_blocks(path)``
  applies both to one file.  A table of up to 1 MiB on disk reads as
  one block; it takes ``cap`` MiB to reach the cap.
* ``scan(path, columns, cpus_per_block)`` is the one read of a
  single-file table at that block count.  Its source plans from the
  Parquet footer alone — row-group row counts and the Arrow schema —
  so a read runs no dataset discovery and no sampling task, and sizes
  itself at the file's bytes × ``PARQUET_INFLATION``.  Each read task
  takes a contiguous row-group run, so a many-row-group file reads in
  parallel; a one-row-group file is one task whose output Ray's
  read-parallelism rule splits to the block count.  Directory and
  multi-file reads (crawl frontier, records, page store) stay on
  ``ray.data.read_parquet``.
* ``buckets_for_bytes(bytes)`` gives a power-of-two exchange fan-out.
  Its floor is ``next_pow2(blocks_for_bytes(bytes, read_cap()))`` —
  about one bucket per sort partition, since a groupby exchange sorts
  into as many partitions as its input has blocks — and it grows so
  one bucket's decompressed payload stays near ``TARGET_BUCKET_BYTES``
  (row-carrying exchanges — big-big joins, text-carrying dedup hops —
  put O(corpus/buckets) bytes in each task: at 100 TB a 64-way
  exchange puts ~1.5 TB in one).  An unknown size keeps 64 buckets.

Correctness is bucket- and block-count invariant by construction:
tests pin oracle equality at forced 16- and 128-way fan-outs and with
every read split to its cap (tests/test_exchange_fanout.py).

Ops override order for the fan-out: ``set_forced_buckets()`` (tests) >
``CRAWLER_EXCHANGE_BUCKETS`` env > size-derived value.

``cogroup(sides, key, nb, finalize)`` is the one path for a join of
two or more datasets on a shared key.  Each side is
``(ds, schema, project)``: one pyarrow map per side projects (and may
pre-combine), casts to the side's declared schema, pads every other
side's columns with typed nulls (columns are namespaced per side, so
each block has ONE schema) and appends ``kb`` and an int8 side tag;
one union, one all-to-all, one map.  Each bucket is split by side in
Arrow and ``finalize(*frames)`` gets one pandas frame per side at its
declared types — a side absent from the bucket is a typed empty frame,
and no padding null ever turns a side's int64 column into float.

Output blocks.  ``nb`` sets the bucket key, not the output block
count: Ray's sort-based groupby keeps its input's block count, so
``shuffle`` returns as many blocks as its input holds and ``cogroup``
as many as all its sides hold together.  A plan that chains exchanges,
or feeds one dataset into two sides, grows its block count with every
hop and must ``repartition`` between hops, as label propagation
(``dedup.cluster_labels_distributed``) does per round.  The graph
family needed no such bound: its one chained plan,
``triangle_count``, feeds hop 1's output alone into hop 2, so both
hops keep the edge Dataset's block count.

Bucket keys (``kb_arrow``) follow the key column's type, so neither
primitive takes a hashing parameter:

* an integer key is ``key & (nb-1)`` after an int64 cast — user ids
  (``retention``, ``rolling_unique_users``, ``merge_intervals``,
  ``attribution_first_touch``), customer keys (``first_last_order``,
  ``dense_rank_topk``, ``customer_year_setops``), shingle digest
  halves ``k1`` (``ngram_novelty``, ``vocab_growth``,
  ``hapax_rate_by_source``), ``part_cooccurrence``'s packed pair
  xor-folded onto its low half (both partkeys mix into the bucket),
  ``purchase_id_islands``' range bucket ``event_id >> 10`` (a 1024-id
  range stays whole, so runs split only at range borders), and the
  band bucket ``bb`` of the banded Hamming pairs
  (``dedup.hamming_pairs``: ``dedup_simhash`` and the phash image
  dedup) and ``epoch_shuffle``'s range bucket, both below ``nb`` and
  so mapped to themselves (bucket order stays key order);
* a uint64 key (a 64-bit digest) masks its own low bits — no int64
  cast, which overflows at ≥ 2^63 — as ``curation_pipeline``'s md5
  prefix does (an int64 view of a digest, like ``dup_ngram_docs``'
  window hash, gets the same low bits from the integer rule);
* a string key is its process-stable siphash masked to ``nb``, the
  same function as ``kb_words`` — the word and token keys of the
  bigram, vocabulary and top-term exchanges, ``top_paths``' path, and
  ``fuzzy_name_pairs``' name, deletion key and pair key
  ``name_a + "\\x00" + name_b`` (for a power-of-two ``nb`` the mask is
  the ``% nb`` those hops used before, so every row keeps its
  bucket).

``aggregate(ds, by, aggs, derive=None)`` is the one group-aggregate
whose groups fit the driver (months, flags, languages, distinct
pairs), returned as a pandas frame sorted by ``by``:

* Phase 1: ONE pyarrow ``map_batches`` runs ``derive`` (Arrow →
  Arrow: the key and value columns, or a filter) and then
  ``group_by(by, use_threads=False).aggregate``, so each batch ships
  one partial row per group it holds.
* Phase 2: the driver reads the partials with
  ``iter_batches(batch_size=None, batch_format="pyarrow")``, sorts them
  (one fold order whatever order the blocks arrive in, so a float sum
  is the same on every run) and merges them with one more
  ``use_threads=False`` ``group_by``.
* ``aggs`` maps each output name to ``(column, fn)``.  ``fn`` is
  ``count_all`` (rows), ``count`` (non-null values), ``sum``, ``min``
  or ``max``; their merges are sum, sum, sum, min and max.  An empty
  ``aggs`` is a DISTINCT over ``by``; an empty ``by`` is one global
  row.  Mean and variance are (n, Σx, Σx²) columns that ``derive``
  emits and the caller finishes, under the caller's own exactness rule
  (integer cents, a final round).
* NULL keys form a group, as in SQL, and an all-NULL sum is NULL.
* Empty input: when no partial comes back, phase 1 runs on the empty
  table of ``ds.schema()``, so the result is a typed, schema-complete
  frame and no caller declares dtypes.  A Dataset with no schema at
  all (a ``shuffle`` that formed no group) gives the empty frame with
  the result's column names and no types.
* There is no shuffle branch and no fan-out parameter: the merge is
  O(blocks × groups) rows on the driver.  A key domain that grows with
  the data stays on ``shuffle`` until ``shuffle`` finalizes in Arrow;
  then a large-domain phase 2 can run per bucket there.

Driver read.  ``to_pandas(ds, **dtypes)`` is the one read of an
exchange's or a map's partials on the driver.  Ray's ``to_pandas`` of
a dataset whose blocks are all empty has no columns: a ``shuffle``
that forms no group has ``schema()`` None, and a map whose UDFs return
typed empty pandas frames comes back with its string columns typed
``null``.  So neither the plan nor the blocks know the columns; the
caller declares the ones it reads, with their pandas dtypes, and an
empty result is a typed empty frame (a wordless corpus gives the
oracle's zero rows instead of a ``KeyError``).
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# target decompressed bytes of row payload per bucket task — sized so a
# bucket frame plus its join/merge scratch fits a worker heap with room
# to spare (32 workers × 256 MB ≈ 8 GB resident on a 128 GB node)
TARGET_BUCKET_BYTES = 256 * 1024 * 1024
# snappy parquet on these schemas decompresses ~4x (measured on the
# testdata tables; text-heavy tables run closer to 3x)
PARQUET_INFLATION = 4
# target decompressed bytes per read block — below this a block's
# per-task overhead (sort sample, map, reduce, Arrow→pandas) outweighs
# its work, so a small table reads as one block
TARGET_BLOCK_BYTES = 4 * 1024 * 1024
# fan-out when the input size is unknown
MIN_BUCKETS = 64
MAX_BUCKETS = 1 << 16

_FORCED: int | None = None


def set_forced_buckets(n: int | None) -> None:
    """Force a fan-out (tests / ops).  Must be a power of two so the
    ``& (nb-1)`` bucket key stays an exact mod; ``None`` clears."""
    global _FORCED
    if n is not None and (n < 1 or n & (n - 1)):
        raise ValueError(f"bucket count must be a power of two, got {n}")
    _FORCED = n


def _next_pow2(n: int) -> int:
    """Smallest power of two ≥ n (1 for n ≤ 1)."""
    return 1 << (int(max(n, 1)) - 1).bit_length()


def read_cap(cpus_per_block: int = 1) -> int:
    """Most blocks a split read may use: one per ``cpus_per_block``
    CPUs, within [8, 32].  The CPUs are the whole cluster's, not the
    momentarily free ones, so a query issued while other tasks run gets
    the same plan; 8 when Ray is not initialised."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    return max(8, min(32, cpus // cpus_per_block))


def blocks_for_bytes(est_file_bytes: int | None, cap: int) -> int:
    """Block count of a read whose on-disk input is roughly
    ``est_file_bytes``: one block per ``TARGET_BLOCK_BYTES`` of
    decompressed payload, within [1, cap].  ``None`` (unknown) →
    ``cap``."""
    if est_file_bytes is None:
        return cap
    need = -(-est_file_bytes * PARQUET_INFLATION // TARGET_BLOCK_BYTES)
    return max(1, min(cap, need))


def read_blocks(path: str, cpus_per_block: int = 1) -> int:
    """``override_num_blocks`` for a read of the single file ``path``
    (a single-file table otherwise lands in ONE block and serialises
    every downstream map).  Text formats inflate less than parquet, so
    their count errs high, never above the cap."""
    return blocks_for_bytes(os.path.getsize(path), read_cap(cpus_per_block))


def _row_group_runs(n_groups: int, n: int) -> list[list[int]]:
    """At most ``n`` contiguous, disjoint runs of row-group ids that
    cover ``range(n_groups)``, as even in group count as possible."""
    return [r.tolist() for r in np.array_split(np.arange(n_groups),
                                               max(1, min(n, n_groups)))]


def _read_run(path: str, run: list[int], columns):
    """One read task's body: one Arrow table of the row groups
    ``run`` (all of them, or the typed empty table for a file with
    none)."""
    import pyarrow.parquet as pq

    f = pq.ParquetFile(path)
    if not run:
        t = f.schema_arrow.empty_table()
        return [t if columns is None else t.select(columns)]
    return [f.read_row_groups(run, columns=columns, use_threads=False)]


@functools.cache
def _footer_source():
    """The ``ray.data`` source class behind ``scan``: one Parquet file,
    planned from its footer alone.  The driver reads the row-group row
    counts and the Arrow schema (``pq.read_metadata``); each read task
    reads one contiguous row-group run.  No dataset discovery and no
    sample task: the size estimate is the file's bytes ×
    ``PARQUET_INFLATION``, the ratio ``read_blocks`` plans with.  Built
    on first use, so importing this module does not import
    ``ray.data``."""
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    class FooterSource(Datasource):
        def __init__(self, path: str, columns):
            import pyarrow.parquet as pq

            meta = pq.read_metadata(path)
            schema = meta.schema.to_arrow_schema()
            if columns is not None:
                columns = list(columns)
                schema = pa.schema([schema.field(c) for c in columns],
                                   schema.metadata)
            self._path, self._columns, self._schema = path, columns, schema
            self._rows = [meta.row_group(i).num_rows
                          for i in range(meta.num_row_groups)]
            self._bytes = os.path.getsize(path) * PARQUET_INFLATION

        def get_name(self) -> str:
            # the operator stays ``ReadParquet``, as for ``read_parquet``
            return "Parquet"

        def estimate_inmemory_data_size(self) -> int:
            return self._bytes

        def get_read_tasks(self, parallelism: int):
            total = max(1, sum(self._rows))
            path, columns = self._path, self._columns
            tasks = []
            for run in _row_group_runs(len(self._rows), parallelism):
                rows = sum(self._rows[i] for i in run)
                meta = BlockMetadata(
                    num_rows=rows, size_bytes=self._bytes * rows // total,
                    input_files=[path], exec_stats=None)
                tasks.append(ReadTask(
                    lambda run=run: _read_run(path, run, columns),
                    meta, schema=self._schema))
            return tasks

    return FooterSource


def scan(path: str, columns=None, cpus_per_block: int = 1):
    """Dataset over the single Parquet file ``path`` (pruned to
    ``columns``), split into ``read_blocks(path, cpus_per_block)``
    blocks: contiguous row-group runs, one read task each, and Ray's
    read-parallelism rule splits the runs' output when the file has
    fewer row groups than blocks.  Same rows, order, column order,
    types and schema metadata as ``ray.data.read_parquet`` of the
    file, planned from the footer alone."""
    import ray.data as rd

    return rd.read_datasource(
        _footer_source()(path, columns),
        override_num_blocks=read_blocks(path, cpus_per_block))


def buckets_for_bytes(est_file_bytes: int | None) -> int:
    """Power-of-two fan-out for an exchange whose payload is roughly
    the given on-disk input size: at least one bucket per sort
    partition of the input, more once a bucket would exceed
    ``TARGET_BUCKET_BYTES``.  ``None`` (unknown) → ``MIN_BUCKETS``."""
    if _FORCED is not None:
        return _FORCED
    env = os.environ.get("CRAWLER_EXCHANGE_BUCKETS")
    if env:
        n = int(env)
        if n < 1 or n & (n - 1):
            raise ValueError(
                f"CRAWLER_EXCHANGE_BUCKETS must be a power of two, got {n}")
        return n
    if est_file_bytes is None:
        return MIN_BUCKETS
    floor = _next_pow2(blocks_for_bytes(est_file_bytes, read_cap()))
    need = (est_file_bytes * PARQUET_INFLATION) // TARGET_BUCKET_BYTES
    return min(MAX_BUCKETS, max(floor, _next_pow2(int(need))))


def table_bytes(sf_dir: str, *tables: str) -> int | None:
    """Sum of on-disk bytes of the named tables (parquet preferred,
    any other single-file extension accepted) — the cheap input-size
    estimate ``buckets_for_bytes`` consumes.  Missing files are
    skipped; returns None if nothing was found."""
    total, found = 0, False
    for t in tables:
        for ext in ("parquet", "jsonl", "csv", "json"):
            p = os.path.join(sf_dir, f"{t}.{ext}")
            if os.path.exists(p):
                total += os.path.getsize(p)
                found = True
                break
    return total if found else None


def band_subbuckets(total_buckets: int | None, n_bands: int) -> int:
    """Per-band sub-bucket count for LSH-style banding exchanges: the
    size-derived TOTAL group budget (``buckets_for_bytes``) split
    across the bands, floored at 1 and rounded to a power of two so
    the ``& (nb-1)`` key stays an exact mod.  A small input's budget
    is below the band count, so each band is one group; at a 64-bucket
    budget a 32-band scheme gets 2 sub-buckets/band; the fan-out only
    widens when the data does."""
    if not total_buckets:
        return 1
    return _next_pow2(max(1, total_buckets // max(1, n_bands)))


def kb_arrow(key: pa.ChunkedArray | pa.Array, nb: int) -> pa.ChunkedArray:
    """Bucket of every row of ``key`` over ``nb`` (a power of two)
    buckets, picked by the key column's type: an integer key is
    ``key & (nb-1)`` after an int64 cast (an exact mod for non-negative
    keys); a uint64 key (a digest) masks its own low bits, since the
    int64 cast overflows at ≥ 2^63; a string key is ``kb_words`` of
    its values."""
    if pa.types.is_string(key.type) or pa.types.is_large_string(key.type):
        return pa.array(kb_words(key.to_numpy(zero_copy_only=False), nb))
    if pa.types.is_uint64(key.type):
        return pc.cast(pc.bit_wise_and(key, pa.scalar(nb - 1, pa.uint64())),
                       pa.int64())
    return pc.bit_wise_and(pc.cast(key, pa.int64()), pa.scalar(nb - 1, pa.int64()))


def shuffle(ds, key: str, nb: int, finalize, combine=None):
    """Exchange ``ds`` on the column ``key`` over ``nb`` (a
    power of two) buckets and run ``finalize`` (pandas frame → pandas
    frame, the ``kb`` column included) once per bucket.  ``combine``,
    if given, pre-reduces each Arrow batch in the same map as the tag,
    and ``key`` then names a column of its output.  Returns the lazy
    dataset."""

    def tag(t: pa.Table) -> pa.Table:
        if combine is not None:
            t = combine(t)
        return t.append_column("kb", kb_arrow(t[key], nb))

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("kb")
        .map_groups(finalize, batch_format="pandas")
    )


def cogroup(sides, key: str, nb: int, finalize):
    """Exchange several datasets on the shared column ``key``
    over ``nb`` (a power of two) buckets and run ``finalize(*frames)``
    once per bucket, one pandas frame per side.  Each side is
    ``(ds, schema, project)``: ``project`` (Arrow table → Arrow table,
    ``None`` for identity; it may pre-combine) yields the columns of
    ``schema`` (a ``pa.schema`` or a name → type mapping that includes
    ``key``), and each side is cast to its schema.  A side's frame
    holds only its own columns at their declared types; a side with no
    rows in the bucket arrives as a typed empty frame.  Returns the
    lazy dataset."""
    schemas = [pa.schema(s) for _, s, _ in sides]
    cols = [(i, f) for i, s in enumerate(schemas) for f in s]
    # namespaced per side, so two sides may share a column name
    names = [f"{i}.{f.name}" for i, f in cols] + ["kb", "side"]

    def tag(i, project):
        def run(t: pa.Table) -> pa.Table:
            if project is not None:
                t = project(t)
            t = t.select(schemas[i].names).cast(schemas[i])
            n = t.num_rows
            # every side pads the others with typed nulls: ONE schema
            # across the union
            arrays = [t[f.name] if j == i else pa.nulls(n, f.type)
                      for j, f in cols]
            return pa.Table.from_arrays(
                arrays + [kb_arrow(t[key], nb),
                          pa.array(np.full(n, i, np.int8))], names=names)
        return run

    def split(g: pa.Table):
        frames = []
        for i, s in enumerate(schemas):
            part = g.filter(pc.equal(g["side"], pa.scalar(i, pa.int8())))
            frames.append(part.select([f"{i}.{n}" for n in s.names])
                          .rename_columns(s.names).to_pandas())
        return finalize(*frames)

    tagged = [ds.map_batches(tag(i, project), batch_format="pyarrow")
              for i, (ds, _, project) in enumerate(sides)]
    return (
        tagged[0].union(*tagged[1:])
        .groupby("kb")
        .map_groups(split, batch_format="pyarrow")
    )


# each aggregate's phase-1 Arrow kernel and its phase-2 merge
_AGG_KERNELS = {
    "count_all": ("count", pc.CountOptions(mode="all"), "sum"),
    "count": ("count", pc.CountOptions(mode="only_valid"), "sum"),
    "sum": ("sum", None, "sum"),
    "min": ("min", None, "min"),
    "max": ("max", None, "max"),
}


def _group(t: pa.Table, by: list[str], aggs: dict, phase: int) -> pa.Table:
    """One ``use_threads=False`` Arrow ``group_by`` of ``t`` on ``by``:
    phase 1 applies each aggregate's kernel to its source column,
    phase 2 merges the phase-1 column of the same name.  Returns the
    ``by`` columns, then one column per aggregate name."""
    # one uniquely named input column per aggregate, so outputs never
    # collide and are read back by name
    cols, spec = {k: t[k] for k in by}, []
    for i, (name, (col, fn)) in enumerate(aggs.items()):
        kernel, opts, merge = _AGG_KERNELS[fn]
        cols[f"_agg{i}"] = t[col if phase == 1 else name]
        spec.append((f"_agg{i}", kernel, opts) if phase == 1
                    else (f"_agg{i}", merge))
    g = pa.table(cols).group_by(by, use_threads=False).aggregate(spec)
    return pa.Table.from_arrays(
        [g[k] for k in by] + [g[f"{c}_{f}"] for c, f, *_ in spec],
        names=by + list(aggs))


def aggregate(ds, by, aggs: dict, derive=None):
    """Group-aggregate ``ds`` on the columns ``by`` (a name or a list;
    ``[]`` for one global row) in two phases and return the result as
    a pandas frame sorted by ``by``.  ``aggs`` maps each output name to
    ``(column, fn)``, ``fn`` one of ``count_all`` (rows), ``count``
    (non-null values), ``sum``, ``min`` or ``max`` (empty: DISTINCT
    ``by``); ``derive`` (Arrow table → Arrow table) runs first in each
    batch and yields the ``by`` and value columns (or filters rows).
    See the module docstring for the merge rules."""
    import pandas as pd

    by = [by] if isinstance(by, str) else list(by)

    def partial(t: pa.Table) -> pa.Table:
        if derive is not None:
            t = derive(t)
        return _group(t, by, aggs, 1)

    parts = [b for b in ds.map_batches(partial, batch_format="pyarrow")
             .iter_batches(batch_size=None, batch_format="pyarrow")
             if b.num_rows]
    if not parts:
        schema = ds.schema()
        if schema is None:  # an exchange that formed no group: no types
            return pd.DataFrame(columns=by + list(aggs))
        # a pandas block's object column has no Arrow type: read as string
        parts = [partial(pa.schema([
            (n, t if isinstance(t, pa.DataType) else pa.string())
            for n, t in zip(schema.names, schema.types)]).empty_table())]
    parts = pa.concat_tables(parts, promote_options="default")
    # one fold order, whatever order the blocks arrive in, so a float
    # sum is the same on every run
    parts = parts.sort_by([(c, "ascending") for c in parts.column_names])
    merged = _group(parts, by, aggs, 2)
    if by:
        merged = merged.sort_by([(k, "ascending") for k in by])
    return merged.to_pandas()


def to_pandas(ds, **dtypes):
    """``ds.to_pandas()``, or, when ``ds`` has no row, an empty frame
    with the declared columns (name → pandas dtype): Ray's frame of
    all-empty blocks has no columns."""
    import pandas as pd

    out = ds.to_pandas()
    if len(out):
        return out
    return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in dtypes.items()})


def kb_words(words, nb: int) -> np.ndarray:
    """Bucket keys for a string key column, vectorized: pandas'
    process-stable siphash (fixed key — the same cross-process
    determinism guarantee the paragraph-dedup hop relies on) masked to
    the power-of-two fan-out.  Any word→bucket FUNCTION co-locates all
    rows of a key, which is the only property these exchanges need —
    the forced-16/128 invariance tests pin that the downstream result
    does not depend on the assignment."""
    import pandas as pd

    arr = np.asarray(words, dtype=object)
    if arr.size == 0:
        return np.empty(0, np.int64)
    return (pd.util.hash_array(arr) & np.uint64(nb - 1)).astype(np.int64)
