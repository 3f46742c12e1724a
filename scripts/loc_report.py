#!/usr/bin/env python
"""Code-only line counts per ``src/repro`` package.

A line counts when it carries at least one token that is not a comment
and it is not part of a module, class or function docstring — so adding
or deleting comments, docstrings and blank lines never moves the number;
only code does.  This is the figure ROADMAP item 3 ("``src/`` shrinks")
is tracked with.

Below the lines comes the knob census: every independently settable
value a caller or an operator can choose — keyword parameters of the
four execution entry points, fields of the two options dataclasses,
CLI flags per subcommand, ``Stats`` counters and fault sites — read off
the imported package itself, so a knob cannot be added or removed
without this number moving.  Its last two rows are lists:
``caches`` names the memos in the cache registry
(``repro.cache_stats()``), and ``fused_kernels`` names the plan
operators under ``repro.engine`` with a generated form (``_fused``: the
row loop emitted as source, ``repro.engine.codegen``).

Usage::

    python scripts/loc_report.py [--json] [ROOT]

ROOT defaults to ``src/repro`` and must be the ``repro`` package
directory (the census imports it from ROOT's parent).  Top-level modules
are grouped under ``(root)``; every sub-package gets its own row.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import io
import json
import pkgutil
import sys
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


def code_line_numbers(source: str) -> set[int]:
    """Numbers of the lines of *source* that carry code."""
    counted: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            counted.update(range(token.start[0], token.end[0] + 1))
    return counted - docstring_lines(ast.parse(source))


def code_lines(source: str) -> int:
    """Lines of *source* that carry code (see the module docstring)."""
    return len(code_line_numbers(source))


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


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def knob_census(root: Path) -> dict[str, dict[str, int] | list[str] | int]:
    """Counts of independently settable values in the package at *root*."""
    sys.path.insert(0, str(root.resolve().parent))
    import repro.engine
    from repro.api import run_with_options
    from repro.cache import cache_stats
    from repro.cli import build_arg_parser
    from repro.engine.operators.base import PlanNode
    from repro.engine.planner import PlannerOptions, execute_plan, execute_planned
    from repro.engine.stats import Stats
    from repro.options import ExecutionOptions
    from repro.resilience.faults import ALL_SITES
    from repro.resilience.guarded import run_guarded

    for module in pkgutil.walk_packages(repro.engine.__path__, "repro.engine."):
        importlib.import_module(module.name)
    subcommands = next(
        action
        for action in build_arg_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        "parameters": {
            function.__name__: len(inspect.signature(function).parameters)
            for function in (
                execute_plan, execute_planned, run_guarded, run_with_options
            )
        },
        "fields": {
            cls.__name__: len(dataclasses.fields(cls))
            for cls in (ExecutionOptions, PlannerOptions)
        },
        "cli_flags": {
            name: sum(
                option.startswith("--") and option != "--help"
                for action in subparser._actions
                for option in action.option_strings
            )
            for name, subparser in subcommands.choices.items()
        },
        "stats_counters": len(dataclasses.fields(Stats)),
        "fault_sites": len(ALL_SITES),
        "caches": sorted(set(cache_stats())),
        "fused_kernels": sorted(
            cls.__name__ for cls in _subclasses(PlanNode) if "_fused" in vars(cls)
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=REPO_ROOT / "src" / "repro")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    args = parser.parse_args(argv)
    rows = report(Path(args.root))
    total = sum((Counter(row) for row in rows.values()), Counter())
    knobs = knob_census(Path(args.root))
    if args.json:
        print(
            json.dumps(
                {"packages": rows, "total": dict(total), "knobs": knobs},
                indent=2,
            )
        )
        return 0
    print(f"{'package':<12} {'files':>5} {'code':>7} {'raw':>7}")
    for package, row in rows.items():
        print(f"{package:<12} {row['files']:>5} {row['code']:>7} {row['raw']:>7}")
    print(f"{'total':<12} {total['files']:>5} {total['code']:>7} {total['raw']:>7}")
    print()
    for group, counts in knobs.items():
        if isinstance(counts, int):
            print(f"{group:<14} {counts:>3}")
            continue
        if isinstance(counts, list):
            print(f"{group:<14} {len(counts):>3}  {'  '.join(counts)}")
            continue
        listed = "  ".join(f"{name} {count}" for name, count in counts.items())
        print(f"{group:<14} {sum(counts.values()):>3}  {listed}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
