"""Frontier state: URL canonicalization, keys, the frontier table and
deterministic wave selection.

The frontier is a Parquet-checkpointed table (FIXTURES.md F7); on the
driver it is one ``pa.Table`` with ``FRONTIER_SCHEMA``:

    url, url_key (uint64 = first 8 bytes of sha1(canonical url)),
    host, priority, next_fetch_wave, depth, seed

Ordering contract (north rule / SURVEY.md §4): the crawl order is
defined by the frontier sort key ``(priority, next_fetch_wave, url)``
— a total order — never by fetch completion, so runs and resumes are
order-identical by construction.
"""

from __future__ import annotations

import hashlib
import urllib.parse

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

FRONTIER_SCHEMA = pa.schema([
    ("url", pa.string()), ("url_key", pa.uint64()), ("host", pa.string()),
    ("priority", pa.int32()), ("next_fetch_wave", pa.int32()),
    ("depth", pa.int32()), ("seed", pa.string()),
])
SORT_KEYS = [("priority", "ascending"), ("next_fetch_wave", "ascending"),
             ("url", "ascending")]


def as_frontier(tables) -> pa.Table:
    """Concatenate Arrow tables (Ray blocks, Parquet reads of either
    checkpoint layout, pandas-written ones included) into one
    ``FRONTIER_SCHEMA`` table; empty parts, which may have lost their
    schema, are dropped."""
    parts = [t.select(FRONTIER_SCHEMA.names).cast(FRONTIER_SCHEMA)
             for t in tables if t.num_rows]
    return pa.concat_tables(parts) if parts else FRONTIER_SCHEMA.empty_table()


def assert_frontier_unique(frontier: pa.Table) -> None:
    """Enforce the frontier's url_key-uniqueness invariant.

    ``select_wave_distributed`` defers by url_key SET membership while
    the driver ``select_wave`` defers by row position: if duplicate
    url_key rows ever coexisted, the distributed path would silently
    drop the non-selected duplicate and the two paths would diverge.
    The frontier-update code maintains uniqueness (seen-filter +
    within-wave outlink dedup + pending-url anti-join), so a duplicate
    here means corrupted state — fail loudly before selection."""
    if pc.count_distinct(frontier["url_key"]).as_py() != frontier.num_rows:
        raise AssertionError("frontier url_key uniqueness invariant violated")


def canonicalize_url(url: str) -> str:
    """Lowercase scheme/host, drop fragments and default ports, strip
    trailing slashes on paths, collapse empty query (the M8
    slug-canonicalization analog for URLs)."""
    p = urllib.parse.urlsplit(url.strip())
    host = (p.hostname or "").lower()
    port = f":{p.port}" if p.port and p.port not in (80, 443) else ""
    path = p.path.rstrip("/") or "/"
    query = f"?{p.query}" if p.query else ""
    return f"{p.scheme.lower()}://{host}{port}{path}{query}"


def url_sha1_64(url: str) -> int:
    """First 8 bytes of sha1(canonical url) as uint64 — the URL-seen
    key (north rule: canonicalized+SHA1-hashed URLs)."""
    h = hashlib.sha1(url.encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big")


def host_of(url: str) -> str:
    return (urllib.parse.urlsplit(url).hostname or "").lower()


def make_frontier_rows(
    urls: list[str],
    priority=0,
    wave: int = 0,
    depth=0,
    seed="",
) -> pa.Table:
    """Build canonical frontier rows for a url list (seeds, and the
    outlinks of a wave).  ``priority``, ``depth`` and ``seed`` are one
    value for every row or one per url."""
    canon = [canonicalize_url(u) for u in urls]
    n = len(canon)
    return pa.table({
        "url": canon,
        "url_key": [url_sha1_64(u) for u in canon],
        "host": [host_of(u) for u in canon],
        "priority": _int32s(priority, n),
        "next_fetch_wave": _int32s(wave, n),
        "depth": _int32s(depth, n),
        "seed": pa.repeat(seed, n) if isinstance(seed, str) else seed,
    }, schema=FRONTIER_SCHEMA)


def _int32s(v, n: int) -> np.ndarray:
    """``v`` (one value, or one per row) as ``n`` int32s."""
    return np.zeros(n, np.int32) + np.asarray(v, np.int32)


def with_next_fetch_wave(frontier: pa.Table, wave) -> pa.Table:
    """``frontier`` with ``next_fetch_wave`` set to ``wave`` (one value,
    or one per row)."""
    i = FRONTIER_SCHEMA.get_field_index("next_fetch_wave")
    return frontier.set_column(i, FRONTIER_SCHEMA.field(i), [_int32s(wave, frontier.num_rows)])


def select_wave(
    frontier: pa.Table,
    wave: int,
    wave_size: int,
    per_host_budget: int,
) -> tuple[pa.Table, pa.Table]:
    """Deterministic wave selection (O1 frontier ordering):

    1. eligible = rows with ``next_fetch_wave <= wave``;
    2. total-order sort by (priority, next_fetch_wave, url) —
       ``pc.sort_indices``; Arrow compares UTF-8 by bytes, which is
       code-point order;
    3. per-host politeness cap: first ``per_host_budget`` per host
       (the token-bucket grant for this wave), a NumPy rank over the
       ``dictionary_encode(host)`` codes;
    4. global cap ``wave_size``.

    Returns (selected, deferred_rest), both ``FRONTIER_SCHEMA`` tables:
    the deferred eligible rows in sort order with ``next_fetch_wave =
    wave + 1``, then the not-yet-eligible rows in frontier order — the
    dominant host never stalls the wave (skew rule: carry, don't
    barrier).

    Large-frontier mode runs steps 1–4 (``_pick``) per block and then
    this whole kernel on the union of the blocks' picks
    (``select_wave_distributed``).
    """
    order, picked = _pick(frontier, wave, wave_size, per_host_budget)
    nfw = frontier["next_fetch_wave"].to_numpy()
    rest = np.flatnonzero(nfw > wave)
    deferred = with_next_fetch_wave(
        frontier.take(np.concatenate([order[~picked], rest])),
        np.r_[np.full(len(order) - picked.sum(), wave + 1, np.int32), nfw[rest]])
    return frontier.take(order[picked]), deferred


def _pick(frontier: pa.Table, wave: int, wave_size: int, per_host_budget: int):
    """Steps 1–4 of ``select_wave``: the eligible row indices in sort
    order, and the mask of those the wave picks."""
    nfw = frontier["next_fetch_wave"].to_numpy()
    eligible = np.flatnonzero(nfw <= wave)
    order = eligible[pc.sort_indices(frontier.take(eligible), SORT_KEYS).to_numpy()]
    # rank of each sorted row within its host: a stable sort by host
    # code, minus the position of the host's first row
    codes = pc.dictionary_encode(frontier["host"].take(order)).combine_chunks().indices.to_numpy()
    by = np.argsort(codes, kind="stable")
    pos = np.arange(len(by))
    first = np.maximum.accumulate(np.where(np.r_[True, np.diff(codes[by]) != 0], pos, 0))
    rank = np.empty_like(pos)
    rank[by] = pos - first
    keep = np.flatnonzero(rank < per_host_budget)
    picked = np.zeros(len(order), bool)
    picked[keep[:wave_size]] = True
    return order, picked


def select_wave_distributed(
    frontier_ds,
    wave: int,
    wave_size: int,
    per_host_budget: int,
):
    """``select_wave`` for a frontier Dataset too large for the driver
    (the 10^10-URL regime of the north rule), with the same result:

    1. candidates: one map runs ``select_wave``'s pick (``_pick``) on
       each whole block and keeps the block's selected rows (at most
       ``wave_size`` each);
    2. the driver runs ``select_wave`` on the union of the candidates;
    3. the deferred frontier stays a Dataset: a map drops the selected
       ``url_key`` set and bumps ``next_fetch_wave`` to ``wave + 1``
       where it is ``<= wave``.

    Exact for any partition: a row of the global wave is within its
    host's budget inside its own block, and inside its block each host
    has no more capped rows ahead of it than globally, where fewer than
    ``wave_size`` are — so the row is among its block's picks.  There
    is no exchange, so a dominant host never forms one group.

    Returns ``(selected: pa.Table, deferred: ray.data.Dataset)``; both
    carry ``FRONTIER_SCHEMA`` (blocks of older layouts are cast).
    """

    def candidates(t: pa.Table) -> pa.Table:
        t = as_frontier([t])
        order, picked = _pick(t, wave, wave_size, per_host_budget)
        return t.take(order[picked])

    selected, _ = select_wave(as_frontier(frontier_ds.map_batches(
        candidates, batch_format="pyarrow", batch_size=None).iter_batches(
        batch_size=None, batch_format="pyarrow")), wave, wave_size, per_host_budget)
    keys = selected["url_key"].combine_chunks()

    def defer(t: pa.Table) -> pa.Table:
        t = as_frontier([t])
        t = t.filter(pc.invert(pc.is_in(t["url_key"], value_set=keys)))
        nfw = t["next_fetch_wave"].to_numpy()
        return with_next_fetch_wave(t, np.where(nfw <= wave, wave + 1, nfw))

    return selected, frontier_ds.map_batches(defer, batch_format="pyarrow")
