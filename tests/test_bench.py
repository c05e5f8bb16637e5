"""bench.py failure containment: one raising query is recorded, the
JSON line still prints, and the exit code stays nonzero."""

import json

import pytest


@pytest.mark.usefixtures("ray_session")
def test_failing_query_is_contained(monkeypatch, capsys, tmp_path):
    import bench
    from crawler_tjce_ray.pipelines import registry

    def ok(sf_dir):
        import pandas as pd

        return pd.DataFrame({"x": [1]})

    def broken(sf_dir):
        raise ValueError("boom")

    monkeypatch.setattr(registry, "build_queries",
                        lambda: {"ok_a": ok, "broken": broken, "ok_b": ok})
    monkeypatch.setattr(bench, "BENCH_QUERIES", ["ok_a", "broken", "ok_b"])
    monkeypatch.setattr(bench, "DETAIL_PATH", str(tmp_path / "detail.json"))
    monkeypatch.setattr(bench, "_init_ray", lambda: 4)
    monkeypatch.setattr(bench, "run_headline",
                        lambda workdir, num_cpus, scaling_mode=False:
                        {"seconds": 1.0, "urls_per_sec": 1.0})
    monkeypatch.setenv("GRAFT_SKIP_SCALING", "1")

    rc = bench.main([])

    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert out["failed"] == ["broken"]
    assert set(out["queries"]) == {"ok_a", "ok_b"}
    assert out["n_queries"] == 2
    detail = json.loads((tmp_path / "detail.json").read_text())
    assert detail["queries"]["broken"] == {"error": "ValueError: boom"}
