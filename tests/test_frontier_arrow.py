"""The driver frontier is one Arrow table (``FRONTIER_SCHEMA``):
``select_wave`` against a plain-Python sorted-list reference, and the
schema through both checkpoint layouts."""

import urllib.parse
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crawler_tjce_ray.pipelines import crawl
from crawler_tjce_ray.state.frontier import (
    FRONTIER_SCHEMA, canonicalize_url, make_frontier_rows, select_wave,
)

# mixed-case and non-ASCII hosts; canonicalization lowercases them
HOSTS = ["Hot.Example", "b.example", "ÜNÏ.example", "日本.example", "z.EXAMPLE"]
path = st.text(alphabet="aAzZéÉüÜ日本0-_", min_size=1, max_size=6)
row = st.tuples(st.sampled_from(HOSTS), path,
                st.integers(0, 2), st.integers(0, 3))  # priority, next_fetch_wave


def _frontier(rows, hot, budget):
    """Unique canonical urls; the hot host holds more eligible rows
    than its per-wave budget."""
    rows = rows + [("Hot.Example", f"hot{i}", 0, 0) for i in range(budget + hot)]
    by_url = {}
    for host, p, prio, nfw in rows:
        by_url.setdefault(canonicalize_url(f"https://{host}/{p}"), (prio, nfw))
    urls = list(by_url)
    f = make_frontier_rows(urls, priority=[by_url[u][0] for u in urls],
                           depth=[7] * len(urls), seed=pa.array(urls))
    i = FRONTIER_SCHEMA.get_field_index("next_fetch_wave")
    return f.set_column(i, FRONTIER_SCHEMA.field(i),
                        pa.array([by_url[u][1] for u in urls], pa.int32()))


def _reference(frontier, wave, wave_size, budget):
    """perfbench/crawls.py::reference_trace's selection rule on a dict
    url -> [priority, next_fetch_wave]."""
    front = {r["url"]: [r["priority"], r["next_fetch_wave"]] for r in frontier.to_pylist()}
    eligible = sorted((v[0], v[1], u) for u, v in front.items() if v[1] <= wave)
    per_host: Counter = Counter()
    selected = []
    for _, _, u in eligible:
        host = urllib.parse.urlsplit(u).hostname
        if per_host[host] < budget:
            per_host[host] += 1
            selected.append(u)
    selected = selected[:wave_size]
    for _, _, u in eligible:
        if u not in selected:
            front[u][1] = wave + 1
    return selected, {u: v for u, v in front.items() if u not in selected}


@given(rows=st.lists(row, max_size=40), hot=st.integers(1, 6),
       budget=st.integers(1, 4), wave=st.integers(0, 3), data=st.data())
@settings(max_examples=200, deadline=None)
def test_select_wave_matches_sorted_list_reference(rows, hot, budget, wave, data):
    frontier = _frontier(rows, hot, budget)
    n_eligible = int((frontier["next_fetch_wave"].to_numpy() <= wave).sum())
    # often below the eligible count, so the wave cap binds
    wave_size = data.draw(st.integers(1, n_eligible + 1))
    sel, rest = select_wave(frontier, wave, wave_size, budget)
    want_sel, want_rest = _reference(frontier, wave, wave_size, budget)

    assert sel.schema == FRONTIER_SCHEMA and rest.schema == FRONTIER_SCHEMA
    assert sel["url"].to_pylist() == want_sel
    assert {r["url"]: [r["priority"], r["next_fetch_wave"]]
            for r in rest.to_pylist()} == want_rest
    assert len(sel) + len(rest) == len(frontier)
    # the other columns travel with their row
    orig = {r["url"]: r for r in frontier.to_pylist()}
    for r in sel.to_pylist() + rest.to_pylist():
        assert {k: v for k, v in r.items() if k != "next_fetch_wave"} == \
            {k: v for k, v in orig[r["url"]].items() if k != "next_fetch_wave"}


class _NoSeen:
    """The seen-set surface a checkpoint write and restore touch."""

    def take_log(self):
        return b""

    def snapshot_due(self):
        return False

    def restore(self, blobs):
        pass

    def replay(self, log):
        pass


@pytest.mark.usefixtures("ray_session")
def test_frontier_schema_round_trips_both_checkpoint_layouts(tmp_path):
    """``frontier.parquet`` (driver table) and ``frontier_parquet/``
    (Dataset write, the ``distributed_select_threshold=0`` layout) both
    restore as ``FRONTIER_SCHEMA`` with a uint64 ``url_key``, whether
    they come back as the driver table or as a Dataset.  A
    ``frontier.parquet`` comes back as the driver table even above the
    threshold: a driver-mode wave's outlinks can grow the saved
    frontier past it.  A frontier saved with the older schema's extra
    ``host_hash`` column restores the same way."""
    import ray.data as rd

    frontier = make_frontier_rows(
        [f"https://h{i % 3}.example/ü/{i}" for i in range(20)],
        priority=np.arange(20) % 2, wave=3, depth=1, seed="root")
    lineage = pa.table({"wave": [0]})
    legacy = frontier.add_column(3, "host_hash", pa.array(np.arange(20), pa.int64()))
    for name, saved in [("single", frontier), ("dir", rd.from_arrow(frontier)),
                        ("legacy", legacy), ("legacy_dir", rd.from_arrow(legacy))]:
        workdir = str(tmp_path / name)
        crawl._write_checkpoint(workdir, 0, saved, _NoSeen(), lineage, {})
        table, pending = crawl._load_checkpoint(workdir, 0, _NoSeen(), threshold=10**6)
        assert pending == 20
        assert table.schema == FRONTIER_SCHEMA
        assert table["url_key"].type == pa.uint64()
        assert table.sort_by("url").equals(frontier.sort_by("url"))
        restored, pending = crawl._load_checkpoint(workdir, 0, _NoSeen(), threshold=0)
        assert pending == 20
        if isinstance(saved, pa.Table):
            assert restored.schema == FRONTIER_SCHEMA
            assert restored.sort_by("url").equals(frontier.sort_by("url"))
        else:
            assert restored.schema().base_schema.field("url_key").type == pa.uint64()
            assert restored.count() == 20
            # every row is due and within its host's budget
            selected, _ = crawl.select_wave_distributed(restored, 3, 64, 8)
            assert selected.sort_by("url").equals(frontier.sort_by("url"))
