#!/usr/bin/env python
"""Code-only line counts per ``src/repro`` package.

A line counts when it carries at least one token that is not a comment
and it is not part of a module, class or function docstring — so adding
or deleting comments, docstrings and blank lines never moves the number;
only code does.  This is the figure ROADMAP item 3 ("``src/`` shrinks")
is tracked with.

Usage::

    python scripts/loc_report.py [--json] [ROOT]

ROOT defaults to ``src/repro``.  Top-level modules are grouped under
``(root)``; every sub-package gets its own row.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module/class/function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of *source* that carry code (see the module docstring)."""
    counted: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            counted.update(range(token.start[0], token.end[0] + 1))
    return len(counted - docstring_lines(ast.parse(source)))


def report(root: Path) -> dict[str, dict[str, int]]:
    """``{package: {"files", "code", "raw"}}`` for every package of *root*."""
    rows: dict[str, Counter] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        package = relative.parts[0] if len(relative.parts) > 1 else "(root)"
        source = path.read_text(encoding="utf-8")
        row = rows.setdefault(package, Counter())
        row["files"] += 1
        row["code"] += code_lines(source)
        row["raw"] += source.count("\n")
    return {package: dict(row) for package, row in sorted(rows.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=REPO_ROOT / "src" / "repro")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    args = parser.parse_args(argv)
    rows = report(Path(args.root))
    total = sum((Counter(row) for row in rows.values()), Counter())
    if args.json:
        print(json.dumps({"packages": rows, "total": dict(total)}, indent=2))
        return 0
    print(f"{'package':<12} {'files':>5} {'code':>7} {'raw':>7}")
    for package, row in rows.items():
        print(f"{package:<12} {row['files']:>5} {row['code']:>7} {row['raw']:>7}")
    print(f"{'total':<12} {total['files']:>5} {total['code']:>7} {total['raw']:>7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
