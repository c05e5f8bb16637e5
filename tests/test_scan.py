"""``exchange.scan``, the footer-planned read of a single-file table:
it must give what ``ray.data.read_parquet`` gives for the same file and
block count — column order, types, schema metadata and rows in order —
while planning from the Parquet footer alone (no sample task, so
building a read submits no Ray task)."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from crawler_tjce_ray.pipelines import exchange

SF = "/root/testdata/sf0.01"

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _blocks(ds) -> list[pa.Table]:
    import ray

    return [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
            for ref, _ in bundle.blocks]


def _same_as_read_parquet(path, columns):
    import ray.data as rd

    got = _blocks(exchange.scan(path, columns))
    want = _blocks(rd.read_parquet(
        path, columns=columns,
        override_num_blocks=exchange.read_blocks(path)))
    assert len(got) == len(want)
    g, w = pa.concat_tables(got), pa.concat_tables(want)
    assert g.column_names == w.column_names
    assert g.schema.equals(w.schema, check_metadata=True)
    assert g.equals(w)


@pytest.fixture(params=["default", "split_to_cap", "three_blocks"])
def sizing(request, monkeypatch):
    if request.param == "split_to_cap":
        monkeypatch.setattr(exchange, "TARGET_BLOCK_BYTES", 1)
    elif request.param == "three_blocks":
        monkeypatch.setattr(exchange, "read_blocks", lambda path, c=1: 3)
    return request.param


@pytest.mark.usefixtures("ray_session")
class TestScan:
    @pytest.mark.parametrize("table", TABLES)
    def test_equals_read_parquet(self, sizing, table):
        path = f"{SF}/{table}.parquet"
        names = pq.read_schema(path).names
        _same_as_read_parquet(path, None)
        # a reordered subset: the output follows ``columns``
        _same_as_read_parquet(path, names[::-2])

    def test_row_group_runs(self, tmp_path, monkeypatch):
        """Ten row groups over four blocks: four disjoint contiguous
        runs, one read task each, whose union is the file in order."""
        path = str(tmp_path / "t.parquet")
        t = pa.table({"a": pa.array(range(1000), pa.int64()),
                      "s": pa.array([str(i) for i in range(1000)])})
        pq.write_table(t, path, row_group_size=100)
        tasks = exchange._footer_source()(path, ["s"]).get_read_tasks(4)
        runs = [pa.concat_tables(task.read_fn()) for task in tasks]
        assert [r.num_rows for r in runs] == [300, 300, 200, 200]
        assert [task.metadata.num_rows for task in tasks] == [300, 300, 200, 200]
        assert pa.concat_tables(runs).equals(t.select(["s"]))

        # the runs are separate tasks, so their blocks arrive in any order
        monkeypatch.setattr(exchange, "read_blocks", lambda path, c=1: 4)
        ds = exchange.scan(path)
        assert pa.concat_tables(_blocks(ds)).sort_by("a").equals(t)
        assert ds.materialize().num_blocks() == 4

    def test_zero_row_file(self, tmp_path):
        path = str(tmp_path / "empty.parquet")
        schema = pa.schema([("a", pa.int64()), ("b", pa.string())])
        pq.write_table(schema.empty_table(), path)
        ds = exchange.scan(path, ["b", "a"])
        assert ds.count() == 0
        assert ds.schema().names == ["b", "a"]
        assert ds.schema().types == [pa.string(), pa.int64()]

    def test_read_submits_no_task(self, monkeypatch):
        """Building a table read plans from the footer on the driver:
        ``read_parquet`` submits one sampling task here."""
        from ray.remote_function import RemoteFunction

        from crawler_tjce_ray.pipelines.relational import _read

        calls = []
        orig = RemoteFunction._remote

        def counting(self, *a, **k):
            calls.append(self)
            return orig(self, *a, **k)

        monkeypatch.setattr(RemoteFunction, "_remote", counting)
        ds = _read(SF, "events", ["user_id", "ts"])
        assert calls == []
        assert ds.count() == pq.read_metadata(f"{SF}/events.parquet").num_rows
