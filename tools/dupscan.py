"""Duplicate-block scan: repeated 6-line windows in the pipelines, and
the hand-rolled exchanges left in the package.

Each module's lines are whitespace-stripped and blank lines dropped;
every run of WINDOW consecutive lines is one window.  A window seen k
times counts k - 1 extra copies.  Per module the count is over that
module's own windows; the total is over all modules together.

The second table counts ``.map_groups(...)`` call sites (parsed, so
docstrings and comments do not count) in every module of
``crawler_tjce_ray`` except ``pipelines/exchange.py``, which owns the
two exchange primitives: each is an exchange not yet on them.

Usage: python tools/dupscan.py [pkg_dir]   (default crawler_tjce_ray/pipelines)
"""
import ast
import collections
import pathlib
import sys

WINDOW = 6


def windows(path: pathlib.Path) -> list[tuple[str, ...]]:
    lines = [ln.strip() for ln in path.read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    return [tuple(lines[i:i + WINDOW]) for i in range(len(lines) - WINDOW + 1)]


def extra(ws) -> int:
    return sum(c - 1 for c in collections.Counter(ws).values())


def map_groups_sites(path: pathlib.Path) -> int:
    return sum(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == "map_groups"
        for n in ast.walk(ast.parse(path.read_text())))


def main(argv: list[str]) -> int:
    root = pathlib.Path(__file__).resolve().parents[1]
    pkg = pathlib.Path(argv[0]) if argv else root / "crawler_tjce_ray" / "pipelines"
    every = []
    for path in sorted(pkg.glob("*.py")):
        ws = windows(path)
        every += ws
        print(f"{path.name:24s} {extra(ws):5d}")
    print(f"{'total':24s} {extra(every):5d}")
    pkg_root = root / "crawler_tjce_ray"
    sites = {str(p.relative_to(pkg_root)): map_groups_sites(p)
             for p in sorted(pkg_root.rglob("*.py"))}
    sites.pop("pipelines/exchange.py")
    print("\nmap_groups call sites outside pipelines/exchange.py")
    for name, n in sites.items():
        if n:
            print(f"{name:32s} {n:5d}")
    print(f"{'total':32s} {sum(sites.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
