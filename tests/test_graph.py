"""Structural pins for the graph/sequence operators
(pipelines/graph.py) beyond their DuckDB-oracle parity: PageRank mass
conservation on a closed graph and equivalence to a local reference
implementation, funnel monotonicity, transition-matrix row
normalization, and posting-list ordering.
"""

import numpy as np
import pandas as pd
import pytest

from crawler_tjce_ray.pipelines.graph import (
    PR_DAMPING,
    PR_ITERS,
    q_event_funnel,
    q_event_transitions,
    q_inverted_index,
    q_pagerank_parts,
)

SF_DIR = "/root/testdata/sf0.001"


def _local_pagerank(edges: pd.DataFrame, nodes: np.ndarray) -> np.ndarray:
    """Scalar reference: same spec (damped, no dangling redistribution)."""
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    od = np.zeros(n)
    for _, r in edges.iterrows():
        od[idx[r["src"]]] += r["w"]
    pr = np.full(n, 1.0 / n)
    for _ in range(PR_ITERS):
        c = np.zeros(n)
        for _, r in edges.iterrows():
            c[idx[r["dst"]]] += pr[idx[r["src"]]] / od[idx[r["src"]]] * r["w"]
        pr = (1.0 - PR_DAMPING) / n + PR_DAMPING * c
    return pr


@pytest.mark.usefixtures("ray_session")
def test_pagerank_matches_local_reference():
    from crawler_tjce_ray.pipelines.graph import _edges_ds_and_nodes

    edges_ds, nodes = _edges_ds_and_nodes(SF_DIR)
    edges = (
        edges_ds.to_pandas()
        .groupby(["src", "dst"], as_index=False)["w"].sum()
    )
    # the query rounds to 12 dp (driver-hash strictness vs the SQL
    # oracle); round the local reference identically before comparing
    expect = np.round(_local_pagerank(edges, nodes), 12)
    got = q_pagerank_parts(SF_DIR)
    assert np.array_equal(got["part_key"].to_numpy(), nodes)
    np.testing.assert_allclose(got["pr"].to_numpy(), expect, atol=2e-12)
    # every rank at least the teleport floor, none above 1
    assert (got["pr"] >= (1.0 - PR_DAMPING) / len(nodes) - 1e-15).all()
    assert (got["pr"] < 1.0).all()


@pytest.mark.usefixtures("ray_session")
def test_funnel_is_monotone():
    out = q_event_funnel(SF_DIR)
    assert out["stage"].tolist() == [1, 2, 3]
    n = out["n_users"].to_numpy()
    assert n[0] >= n[1] >= n[2] >= 0
    assert ((out["conv"] >= 0) & (out["conv"] <= 1)).all()


@pytest.mark.usefixtures("ray_session")
def test_transitions_rows_normalize():
    out = q_event_transitions(SF_DIR)
    sums = out.groupby("src")["p"].sum()
    np.testing.assert_allclose(sums.to_numpy(), 1.0, rtol=1e-12)
    assert (out["n"] >= 1).all()
    # total adjacencies = total events - #users with >=1 event
    import duckdb

    con = duckdb.connect()
    total = con.execute(
        f"SELECT COUNT(*) - COUNT(DISTINCT user_id) FROM '{SF_DIR}/events.parquet'"
    ).fetchone()[0]
    assert int(out["n"].sum()) == int(total)


@pytest.mark.usefixtures("ray_session")
def test_inverted_index_postings_sorted():
    out = q_inverted_index(SF_DIR)
    assert len(out) == 30
    assert out["df"].is_monotonic_decreasing
    for s, df_ in zip(out["postings"], out["df"]):
        ids = [int(x) for x in s.split(",")]
        assert ids == sorted(ids)
        assert len(ids) == min(df_, 10)
        assert len(set(ids)) == len(ids)


@pytest.mark.usefixtures("ray_session")
def test_triangle_count_matches_brute_force():
    """Pin triangles/wedges against an all-pairs local reference on the
    sf0.001 part-succession graph (small enough to brute-force)."""
    from crawler_tjce_ray.pipelines.graph import (
        _edges_ds_and_nodes,
        q_triangle_count,
    )

    edges_ds, _ = _edges_ds_and_nodes(SF_DIR)
    e = edges_ds.to_pandas()
    e = e.loc[e["src"] != e["dst"]]
    und = set()
    for s, d in zip(e["src"], e["dst"]):
        und.add((min(s, d), max(s, d)))
    adj: dict[int, set[int]] = {}
    for u, v in und:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    tri = sum(
        1
        for u, v in und
        for w in adj[u]
        if w > v and w in adj[v]
    )
    wedges = sum(len(n) * (len(n) - 1) // 2 for n in adj.values())

    out = q_triangle_count(SF_DIR)
    assert int(out["n_triangles"].iloc[0]) == tri
    assert int(out["n_wedges"].iloc[0]) == wedges
    if wedges:
        np.testing.assert_allclose(
            out["clustering"].iloc[0], 3.0 * tri / wedges, rtol=1e-12
        )


@pytest.mark.usefixtures("ray_session")
def test_cumulative_users_invariants():
    """cum_users is the running sum of n_new, ends at the distinct user
    count, and every active day appears exactly once."""
    from crawler_tjce_ray.pipelines.graph import q_cumulative_users

    out = q_cumulative_users(SF_DIR)
    assert (out["cum_users"].to_numpy() == out["n_new"].cumsum().to_numpy()).all()
    assert out["day"].is_monotonic_increasing and out["day"].is_unique

    import duckdb

    con = duckdb.connect()
    n_users, n_days = con.execute(
        f"SELECT COUNT(DISTINCT user_id), COUNT(DISTINCT CAST(ts AS DATE)) "
        f"FROM '{SF_DIR}/events.parquet'"
    ).fetchone()
    assert int(out["cum_users"].iloc[-1]) == int(n_users)
    assert len(out) == int(n_days)


@pytest.mark.usefixtures("ray_session")
def test_edge_cache_hit_runs_no_execution(monkeypatch):
    """A second use of the edge Dataset in the same session is a pure
    cache hit: no probe, so no Ray Data execution at all."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from crawler_tjce_ray.pipelines import graph

    graph._EDGES_CACHE.clear()
    edges, nodes = graph._edges_ds_and_nodes(SF_DIR)
    runs = []
    orig = StreamingExecutor.execute

    def counting(self, *a, **k):
        runs.append(1)
        return orig(self, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    hit_edges, hit_nodes = graph._edges_ds_and_nodes(SF_DIR)
    assert hit_edges is edges and hit_nodes is nodes
    assert runs == []


_SESSION_CYCLE = """
import ray
from crawler_tjce_ray.pipelines import graph

out, keys = [], []
for _ in range(2):
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    out.append(graph.q_degree_distribution({sf!r}))
    keys.append(list(graph._EDGES_CACHE))
    ray.shutdown()
assert out[0].equals(out[1]), (out[0], out[1])
assert len(keys[1]) == 1 and keys[1][0] not in keys[0], keys
print("ok")
"""


def test_edge_cache_rebuilds_after_session_cycle():
    """Job ids repeat across ``ray.init`` cycles in one process, so the
    cache key holds the gcs address: a new session rebuilds the edges
    (and evicts the dead entry) instead of reading freed blocks."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = str(Path(__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SESSION_CYCLE.format(sf=SF_DIR)],
        capture_output=True, text=True, timeout=300, cwd=root,
        env={**os.environ, "PYTHONPATH": root},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().endswith("ok")
