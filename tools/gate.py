"""Snapshot gate: run the tests that cover what a change touched.

Maps each touched ``crawler_tjce_ray/**`` module to
  * every test module that imports it, directly or through other
    package modules (static import graph, function-local imports
    included), and
  * the oracle-parity cases (``tests/test_oracle_parity.py``) of every
    query family it reaches — only that family's queries, not the
    whole registry.
Touched test files and ``bench.py`` map to themselves / their tests.

    python tools/gate.py                 # touched = working tree vs HEAD
    python tools/gate.py --base main     # touched = working tree vs main
    python tools/gate.py FILE ...        # touched = these files
    python tools/gate.py --run ...       # also run pytest on the result

Prints the selected pytest node ids (one per line); with ``--run`` the
exit code is pytest's.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "crawler_tjce_ray"
PARITY = "tests/test_oracle_parity.py"
# the registry aggregates every family: import reach stops here, and
# the parity cases are picked per family instead
REGISTRY = f"{PKG}.pipelines.registry"


def touched_files(base: str) -> list[str]:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.split()

    return sorted(set(git("diff", "--name-only", base))
                  | set(git("ls-files", "--others", "--exclude-standard")))


def module_name(path: Path) -> str:
    parts = list(path.relative_to(ROOT).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imports_of(path: Path, package: str) -> set[str]:
    """Every module name ``path`` imports (``from a import b`` yields
    both ``a`` and ``a.b``; relative imports resolve against
    ``package``)."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            out.add(base)
            out.update(f"{base}.{a.name}" for a in node.names)
    return out


def affected_modules(touched: set[str]) -> set[str]:
    """``touched`` plus every package module that imports one of them,
    transitively (reverse import closure)."""
    graph = {}
    for p in (ROOT / PKG).rglob("*.py"):
        mod = module_name(p)
        pkg = mod if p.name == "__init__.py" else mod.rpartition(".")[0]
        graph[mod] = imports_of(p, pkg)
    affected = set(touched)
    while True:
        new = {m for m, deps in graph.items()
               if m not in affected and m != REGISTRY
               and deps & (affected - {REGISTRY})}
        if not new:
            return affected
        affected |= new


def parity_cases(families: set[str]) -> list[str]:
    sys.path.insert(0, str(ROOT))
    from crawler_tjce_ray.pipelines import registry

    queries = registry.build_queries()
    names: set[str] = set()
    for fam in families:
        names.update(n for n in getattr(importlib.import_module(fam), "ORACLE_SQL", {})
                     if n in queries)
    return [f"{PARITY}::test_query_matches_oracle[{n}]" for n in sorted(names)]


def select(files: list[str]) -> list[str]:
    touched = {module_name(ROOT / f) for f in files
               if f.startswith(f"{PKG}/") and f.endswith(".py")
               and (ROOT / f).exists()}
    affected = affected_modules(touched)
    if "bench.py" in files:
        affected.add("bench")
    tests = {f for f in files if f.startswith("tests/test_") and f.endswith(".py")
             and (ROOT / f).exists()}
    for p in sorted((ROOT / "tests").glob("test_*.py")):
        rel = str(p.relative_to(ROOT))
        if rel != PARITY and imports_of(p, "tests") & affected:
            tests.add(rel)
    if REGISTRY in affected or PARITY in tests:
        return sorted(tests | {PARITY})
    families = {m for m in affected if m.startswith(f"{PKG}.pipelines.")}
    return sorted(tests) + parity_cases(families)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="*")
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--run", action="store_true")
    args = ap.parse_args()
    ids = select(args.files or touched_files(args.base))
    print("\n".join(ids))
    if not args.run or not ids:
        return 0
    return subprocess.call([sys.executable, "-m", "pytest", "-q",
                            "-p", "no:cacheprovider", *ids], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
