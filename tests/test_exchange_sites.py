"""Every bucket exchange in the package goes through
``pipelines/exchange.py`` (``shuffle`` / ``cogroup``).  The
``.map_groups(...)`` calls left anywhere else are true per-key groups,
each with the reason it is kept in its docstring, and are named here
one by one: a new hand-rolled ``groupby(tag).map_groups`` exchange
fails this test and belongs on ``exchange.shuffle`` instead."""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PKG = ROOT / "crawler_tjce_ray"

# (module, top-level function) of every per-key group left
PER_KEY_GROUPS = sorted([
    ("pipelines/relational.py", "q_resequence"),           # month
    ("pipelines/relational.py", "q_stratified_sample"),    # lang
    ("pipelines/similarity.py", "_per_query_topk"),        # query_id
    ("pipelines/sketches.py", "q_value_quantiles"),        # event_type
    ("pipelines/clustering.py", "q_semdedup"),             # cluster_id
    ("pipelines/dedup.py", "q_dedup_embedding_nn"),        # label
    ("pipelines/textops.py", "q_pack_sequences_sharded"),  # shard
    ("pipelines/webtext.py", "q_sample_to_budget"),        # source
    ("stages/fetch.py", "build_page_store"),               # bucket
])


def _dupscan():
    spec = importlib.util.spec_from_file_location(
        "dupscan", ROOT / "tools" / "dupscan.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _is_map_groups(n) -> bool:
    return isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
        and n.func.attr == "map_groups"


def test_map_groups_sites_are_the_per_key_groups():
    dupscan = _dupscan()
    sites = []
    for path in sorted(PKG.rglob("*.py")):
        rel = str(path.relative_to(PKG))
        if rel == "pipelines/exchange.py":
            continue
        tree = ast.parse(path.read_text())
        found = [(rel, getattr(top, "name", "<module>"))
                 for top in tree.body for n in ast.walk(top)
                 if _is_map_groups(n)]
        # the count dupscan reports agrees with the sites named here
        assert len(found) == dupscan.map_groups_sites(path), rel
        sites += found
    assert sorted(sites) == PER_KEY_GROUPS


def test_no_hand_built_bucket_tags():
    """No module tags rows with a bucket by hand: the ``& (nb - 1)``
    mask and the ``kb``/``pb``/``rb``/``bb`` group keys live in
    ``exchange.kb_arrow`` and ``exchange.shuffle`` alone."""
    for sub in ("pipelines", "stages"):
        for path in sorted((PKG / sub).glob("*.py")):
            if path.name == "exchange.py":
                continue
            src = path.read_text()
            assert "& np.int64(nb - 1)" not in src, path.name
            for tag in ("kb", "pb", "rb", "bb"):
                assert f'groupby("{tag}")' not in src, (path.name, tag)


def test_no_ray_sort_aggregates():
    """Every group-aggregate whose groups fit the driver runs on
    ``exchange.aggregate``: no module imports ``ray.data.aggregate``,
    whose ``Count``/``Sum`` drive Ray's sort-based
    ``groupby().aggregate`` exchange."""
    for path in sorted(PKG.rglob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            mods = [n.module or ""] if isinstance(n, ast.ImportFrom) else \
                [a.name for a in n.names] if isinstance(n, ast.Import) else []
            assert not any(m.startswith("ray.data.aggregate") for m in mods), \
                path.relative_to(PKG)
