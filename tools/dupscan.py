"""Duplicate-block scan: repeated 6-line windows in the pipelines.

Each module's lines are whitespace-stripped and blank lines dropped;
every run of WINDOW consecutive lines is one window.  A window seen k
times counts k - 1 extra copies.  Per module the count is over that
module's own windows; the total is over all modules together.

Usage: python tools/dupscan.py [pkg_dir]   (default crawler_tjce_ray/pipelines)
"""
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


def main(argv: list[str]) -> int:
    root = pathlib.Path(__file__).resolve().parents[1]
    pkg = pathlib.Path(argv[0]) if argv else root / "crawler_tjce_ray" / "pipelines"
    every = []
    for path in sorted(pkg.glob("*.py")):
        ws = windows(path)
        every += ws
        print(f"{path.name:24s} {extra(ws):5d}")
    print(f"{'total':24s} {extra(every):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
