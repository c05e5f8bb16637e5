"""Duplicate-block scan: repeated 6-line windows in the pipelines, and
the hand-rolled exchanges left in the package.

Each module's lines are whitespace-stripped and blank lines dropped;
every run of WINDOW consecutive lines is one window.  A window seen k
times counts k - 1 extra copies.  Per module the count is over that
module's own windows; the total is over all modules together.

The second table counts ``.map_groups(...)`` call sites (parsed, so
docstrings and comments do not count) in every module of
``crawler_tjce_ray`` except ``pipelines/exchange.py``, which owns the
exchange primitives: each is an exchange not yet on them.

The third table counts code-only lines per module of
``crawler_tjce_ray`` and in total: lines that carry a token (a
multi-line string counts every line it spans), less comments, blank
lines and docstrings (the first string statement of a module, class
or function).

Usage: python tools/dupscan.py [pkg_dir]   (default crawler_tjce_ray/pipelines)
"""
import ast
import collections
import io
import pathlib
import sys
import tokenize

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


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    src = path.read_text()
    doc = set()
    for n in ast.walk(ast.parse(src)):
        if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                          ast.AsyncFunctionDef)) and n.body:
            s = n.body[0]
            if isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant) \
                    and isinstance(s.value.value, str):
                doc.update(range(s.lineno, s.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


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
    loc = {str(p.relative_to(pkg_root)): code_lines(p)
           for p in sorted(pkg_root.rglob("*.py"))}
    print("\ncode-only lines in crawler_tjce_ray")
    for name, n in loc.items():
        print(f"{name:32s} {n:5d}")
    print(f"{'total':32s} {sum(loc.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
