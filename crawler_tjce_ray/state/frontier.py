"""Frontier state: URL canonicalization, keys, the frontier table and
deterministic wave selection.

The frontier is a Parquet-checkpointed table (FIXTURES.md F7); on the
driver it is one ``pa.Table`` with ``FRONTIER_SCHEMA``:

    url, url_key (uint64 = first 8 bytes of sha1(canonical url)),
    host, host_hash, priority, next_fetch_wave, depth, seed

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
    ("host_hash", pa.int64()), ("priority", pa.int32()),
    ("next_fetch_wave", pa.int32()), ("depth", pa.int32()), ("seed", pa.string()),
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


def host_hash_salted(host: str, url: str, hot_hosts: dict[str, int] | None = None) -> int:
    """Partition key: hash(host), salted into ``n`` sub-partitions for
    hosts listed in ``hot_hosts`` (skew handling: the dominant host
    would otherwise serialize an entire partition — SURVEY.md §4 Skew)."""
    base = int.from_bytes(hashlib.sha1(host.encode()).digest()[:8], "big")
    if hot_hosts and host in hot_hosts:
        salt = url_sha1_64(url) % hot_hosts[host]
        return (base + salt) & 0x7FFFFFFFFFFFFFFF
    return base & 0x7FFFFFFFFFFFFFFF


def make_frontier_rows(
    urls: list[str],
    priority=0,
    wave: int = 0,
    depth=0,
    seed="",
    hot_hosts: dict[str, int] | None = None,
) -> pa.Table:
    """Build canonical frontier rows for a url list (seeds, and the
    outlinks of a wave).  ``priority``, ``depth`` and ``seed`` are one
    value for every row or one per url."""
    canon = [canonicalize_url(u) for u in urls]
    hosts = [host_of(u) for u in canon]
    n = len(canon)
    return pa.table({
        "url": canon,
        "url_key": [url_sha1_64(u) for u in canon],
        "host": hosts,
        "host_hash": [host_hash_salted(h, u, hot_hosts) for h, u in zip(hosts, canon)],
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

    This driver implementation holds to ~10^7 pending urls;
    ``select_wave_distributed`` below is the semantically identical
    Ray-Data path for larger frontiers (equivalence pinned by
    tests/test_frontier_distributed.py).
    """
    nfw = frontier["next_fetch_wave"].to_numpy()
    eligible = np.flatnonzero(nfw <= wave)
    rest = np.flatnonzero(nfw > wave)
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
    deferred = with_next_fetch_wave(
        frontier.take(np.concatenate([order[~picked], rest])),
        np.r_[np.full(len(order) - picked.sum(), wave + 1, np.int32), nfw[rest]])
    return frontier.take(order[picked]), deferred


def select_wave_distributed(
    frontier_ds,
    wave: int,
    wave_size: int,
    per_host_budget: int,
):
    """Dataset-level wave selection for frontiers too large for the
    driver (the 10^10-URL regime of the north rule) — semantically
    identical to ``select_wave``:

    1. filter eligible (``next_fetch_wave <= wave``) — stateless map;
    2. global sort by the total order key (the only all-to-all);
    3. per-host politeness cap via ``groupby(host)`` + sorted head
       (hosts co-locate by the groupby hash; salted ``host_hash``
       splits a dominant host across partitions while the budget stays
       host-global because the cap re-applies on the full host group);
    4. ``limit(wave_size)`` — the wave itself is driver-sized by
       definition, so it materializes; the DEFERRED remainder stays a
       Dataset (anti-membership filter against the broadcast selected
       key set, with ``next_fetch_wave`` bumped).

    Returns ``(selected: pa.Table, deferred: ray.data.Dataset)``.
    """
    import pandas as pd

    sort_keys = [k for k, _ in SORT_KEYS]

    def split_eligible(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["next_fetch_wave"] <= wave]

    eligible = frontier_ds.map_batches(split_eligible, batch_format="pandas")

    def head_per_host(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(sort_keys, kind="mergesort").head(per_host_budget)

    capped = eligible.groupby("host").map_groups(head_per_host, batch_format="pandas")
    selected = as_frontier(capped.sort(sort_keys).limit(wave_size).iter_batches(
        batch_size=None, batch_format="pyarrow"))
    selected = selected.take(pc.sort_indices(selected, SORT_KEYS))
    sel_keys = selected["url_key"].to_numpy()

    def defer(df: pd.DataFrame) -> pd.DataFrame:
        df = df[~np.isin(df["url_key"].to_numpy(np.uint64), sel_keys)].copy()
        bump = df["next_fetch_wave"] <= wave
        df.loc[bump, "next_fetch_wave"] = wave + 1
        return df

    deferred = frontier_ds.map_batches(defer, batch_format="pandas")
    return selected, deferred
