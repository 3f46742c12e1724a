#!/usr/bin/env python3
"""Reach ledger: the ``src/repro`` functions that no driver ever enters.

Two groups of drivers run with a profiling hook in every Python process
they start:

* **workloads** — ``benchmarks/e2e/run.py --workload W --seconds 2`` for
  each workload of ``BENCHMARK.json`` (harness children, the HTTP
  server and cluster workers included);
* **exhibits** — E1–E11 under ``--benchmark-disable``, every
  ``examples/*.py`` and ``tests/resilience/test_chaos_matrix.py``.

The hook is a ``sitecustomize`` module put first on ``PYTHONPATH``.  It
installs ``sys.setprofile`` and ``threading.setprofile`` and writes the
code objects its process entered at exit and on SIGTERM (then hands the
signal to the handler that was there before).  The report gives, per
package and per file, the code lines — counted as
``scripts/loc_report.py`` counts them — of the functions each group
never entered.  A function's lines are its own: the lines of a function
nested in it count for the nested function.

Usage::

    python scripts/reach_report.py              # run the drivers, print the table
    python scripts/reach_report.py --write      # ... and rewrite the baseline
    python scripts/reach_report.py --check      # ... and exit 1 on newly unreached code

The baseline, ``scripts/reach_baseline.json``, lists every function that
some group never entered.  ``--check`` fails when a function that
neither group entered is missing from the baseline's ``both`` entries.
A change that adds code no driver reaches declares it by rewriting the
baseline (``--write``), so the baseline's diff is what a reviewer reads.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from loc_report import code_line_numbers

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
BASELINE = Path(__file__).resolve().parent / "reach_baseline.json"
GROUPS = ("workloads", "exhibits")
DRIVER_TIMEOUT_S = 600
JOBS = 2  # drivers at once; a third is slower on a 2-core box

HOOK = '''\
"""Records the code objects this process enters (scripts/reach_report.py)."""
import atexit, json, os, signal, sys, threading

_entered = set()
_add = _entered.add
_token = os.urandom(4).hex()


def _profile(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def _dump():
    package, real = os.environ["REACH_PACKAGE"], {}
    records = set()
    for code in list(_entered):
        name = code.co_filename
        if name not in real:
            real[name] = os.path.realpath(name)
        if real[name].startswith(package):
            records.add((real[name], code.co_name, code.co_firstlineno))
    path = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}-{_token}.json")
    with open(path + ".part", "w") as out:
        json.dump(sorted(records), out)
    os.replace(path + ".part", path)


def _on_sigterm(signum, frame):
    _dump()
    if callable(_previous):
        _previous(signum, frame)
    elif _previous != signal.SIG_IGN:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)


_previous = signal.getsignal(signal.SIGTERM)
signal.signal(signal.SIGTERM, _on_sigterm)
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def drivers() -> dict[str, list[list[str]]]:
    """The command lines of each group, run from the repository root."""
    python = sys.executable
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [
        [python, "benchmarks/e2e/run.py", "--workload", workload["name"], "--seconds", "2"]
        for workload in benchmark["workloads"]
    ]
    exhibits = sorted(
        path.relative_to(REPO).as_posix()
        for path in (REPO / "benchmarks").glob("test_e*_*.py")
        if int(re.match(r"test_e(\d+)_", path.name).group(1)) <= 11
    )
    pytest = [python, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    return {
        "workloads": workloads,
        "exhibits": [
            [*pytest, "--benchmark-disable", *exhibits],
            [*pytest, "tests/resilience/test_chaos_matrix.py"],
            *(
                [python, path.relative_to(REPO).as_posix()]
                for path in sorted((REPO / "examples").glob("*.py"))
            ),
        ],
    }


def run_drivers() -> dict[str, set[tuple[str, str, int]]]:
    """``{group: {(file, function name, first line)}}`` of entered code."""
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        hook = Path(scratch, "hook")
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        runs = []
        for group, commands in drivers().items():
            out = Path(scratch, group)
            out.mkdir()
            env = dict(
                os.environ,
                PYTHONPATH=os.pathsep.join([str(hook), str(REPO / "src")]),
                REACH_OUT=str(out),
                REACH_PACKAGE=os.path.realpath(PACKAGE) + os.sep,
            )
            runs += [(command, env) for command in commands]

        def run(command: list[str], env: dict[str, str]) -> None:
            done = subprocess.run(
                command, cwd=REPO, env=env, capture_output=True, text=True,
                timeout=DRIVER_TIMEOUT_S,
            )
            if done.returncode != 0:
                tail = (done.stdout + done.stderr).strip().splitlines()[-20:]
                raise SystemExit(
                    f"driver failed ({done.returncode}): {' '.join(command)}\n"
                    + "\n".join(tail)
                )

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            for future in [pool.submit(run, *job) for job in runs]:
                future.result()

        package = Path(os.path.realpath(PACKAGE))
        entered: dict[str, set[tuple[str, str, int]]] = {}
        for group in GROUPS:
            records = entered.setdefault(group, set())
            for dump in Path(scratch, group).glob("*.json"):
                for filename, name, line in json.loads(dump.read_text()):
                    relative = Path(filename).relative_to(package).as_posix()
                    records.add((relative, name, line))
        return entered


@dataclass(frozen=True)
class Function:
    qualname: str
    name: str
    first_line: int  # the code object's co_firstlineno: the first decorator's line
    lines: int  # code lines it owns


def functions(source: str) -> list[Function]:
    """Every ``def`` of *source* with the code lines it owns."""
    tree = ast.parse(source)
    found: list[tuple[str, ast.AST]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    owner: dict[int, int] = {}
    # ``found`` lists an outer function before the ones nested in it, so
    # a nested function claims its lines last.
    for index, (_, node) in enumerate(found):
        for line in range(node.lineno, node.end_lineno + 1):
            owner[line] = index
    owned = [0] * len(found)
    for line in code_line_numbers(source):
        if line in owner:
            owned[owner[line]] += 1
    result, seen = [], {}
    for index, (qualname, node) in enumerate(found):
        seen[qualname] = seen.get(qualname, 0) + 1
        if seen[qualname] > 1:
            qualname += f"#{seen[qualname]}"
        first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        result.append(Function(qualname, node.name, first, owned[index]))
    return result


def ledger(entered: dict[str, set[tuple[str, str, int]]]) -> dict:
    """Unreached function lines per package and file, and the functions."""
    files: dict[str, dict] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        row = dict.fromkeys(("function_lines", *GROUPS, "both"), 0)
        unreached = {}
        for function in functions(path.read_text(encoding="utf-8")):
            row["function_lines"] += function.lines
            key = (relative, function.name, function.first_line)
            missed = [group for group in GROUPS if key not in entered[group]]
            for group in missed:
                row[group] += function.lines
            if len(missed) == len(GROUPS):
                row["both"] += function.lines
            if missed:
                by = "both" if len(missed) == len(GROUPS) else missed[0]
                unreached[function.qualname] = [function.lines, by]
        if row["function_lines"]:
            files[relative] = {**row, "unreached": unreached}
    packages: dict[str, dict[str, int]] = {}
    for relative, row in files.items():
        package = relative.split("/")[0] if "/" in relative else "(root)"
        total = packages.setdefault(package, dict.fromkeys(row.keys() - {"unreached"}, 0))
        for column in total:
            total[column] += row[column]
    return {"packages": dict(sorted(packages.items())), "files": files}


def unreached_by_both(report: dict) -> set[str]:
    return {
        f"{relative}::{qualname}"
        for relative, row in report["files"].items()
        for qualname, (_, by) in row["unreached"].items()
        if by == "both"
    }


def print_table(report: dict) -> None:
    columns = ("function_lines", *GROUPS, "both")
    print(f"{'package':<12} {'fn lines':>8} " + " ".join(f"{c:>15}" for c in columns[1:]))
    rows = dict(report["packages"])
    rows["total"] = {c: sum(row[c] for row in rows.values()) for c in columns}
    for package, row in rows.items():
        cells = " ".join(
            f"{row[c]:>8} {row[c] / max(row['function_lines'], 1):>6.0%}"
            for c in columns[1:]
        )
        print(f"{package:<12} {row['function_lines']:>8} {cells}")


def dumps(report: dict) -> str:
    text = json.dumps(report, indent=1, sort_keys=True)
    # One line per unreached function: [lines, "group"].
    return re.sub(r'\[\s+(\d+),\s+("\w+")\s+\]', r"[\1, \2]", text) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group()
    action.add_argument(
        "--write", nargs="?", const=str(BASELINE), metavar="FILE",
        help=f"write the ledger to FILE (default {BASELINE.relative_to(REPO)})",
    )
    action.add_argument(
        "--check", action="store_true",
        help="exit 1 if a function neither group enters is not in the baseline",
    )
    args = parser.parse_args(argv)
    report = ledger(run_drivers())
    print_table(report)
    if args.write:
        Path(args.write).write_text(dumps(report))
    if args.check:
        baseline = json.loads(BASELINE.read_text())
        new = sorted(unreached_by_both(report) - unreached_by_both(baseline))
        if new:
            print(f"\n{len(new)} function(s) neither group enters, not in the baseline:")
            print("\n".join(f"  {name}" for name in new))
            print("Reach them from a driver, delete them, or declare them with --write.")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
