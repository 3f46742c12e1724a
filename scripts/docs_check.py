#!/usr/bin/env python
"""Execute the runnable code blocks in the documentation.

Fenced blocks whose info string is ``python run`` or ``bash run`` — in
``README.md`` and every ``docs/*.md`` — are executed from the repository
root with ``PYTHONPATH=src``, so the documented examples are CI-verified
against the current code.  Blocks without the ``run`` tag (transcripts,
install snippets) are left alone.

Usage::

    python scripts/docs_check.py [--list] [FILE ...]

With no FILE arguments, checks README.md and docs/*.md.  Exits non-zero
on the first report of a failing block, after running all of them.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Opening fence with an info string we execute: ```python run / ```bash run
FENCE_RE = re.compile(r"^```(python|bash)\s+run\s*$")

#: Per-block wall-clock ceiling (seconds) — a hung example must not hang CI.
BLOCK_TIMEOUT = 120


@dataclass
class Block:
    """One runnable fenced block."""

    path: Path
    line: int  # 1-based line of the opening fence
    language: str
    source: str

    @property
    def label(self) -> str:
        return f"{self.path.relative_to(REPO_ROOT)}:{self.line}"


def extract_blocks(path: Path) -> list[Block]:
    """Runnable blocks in *path*, in document order."""
    blocks: list[Block] = []
    lines = path.read_text().splitlines()
    i = 0
    while i < len(lines):
        match = FENCE_RE.match(lines[i].strip())
        if not match:
            i += 1
            continue
        start = i
        body: list[str] = []
        i += 1
        while i < len(lines) and lines[i].strip() != "```":
            body.append(lines[i])
            i += 1
        if i == len(lines):
            raise SystemExit(f"{path}:{start + 1}: unterminated fence")
        blocks.append(
            Block(path, start + 1, match.group(1), "\n".join(body) + "\n")
        )
        i += 1
    return blocks


def run_block(block: Block) -> tuple[bool, str]:
    """Execute one block; returns (ok, captured output)."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src

    if block.language == "python":
        argv = [sys.executable, "-c", block.source]
    else:
        argv = ["bash", "-euo", "pipefail", "-c", block.source]
    try:
        proc = subprocess.run(
            argv,
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=BLOCK_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {BLOCK_TIMEOUT}s"
    output = proc.stdout + proc.stderr
    return proc.returncode == 0, output


def check_cli_drift() -> list[str]:
    """Assert the CLI reference cannot drift from the implementation.

    Introspects ``repro.cli.build_arg_parser()`` — every subcommand
    must be named in ``docs/cli.md`` (as a section) and in
    ``README.md``, and every long flag must appear in its subcommand's
    ``docs/cli.md`` section.  Both read ``repro.errors.ERROR_TABLE``:
    the exit-code tables of ``docs/cli.md`` and ``README.md`` must list
    every class with its own exit code, and ``docs/http_api.md``'s
    status table must name every class with its status and retryable
    flag.  Returns a list of human-readable problems (empty = no drift).
    """
    import argparse as _argparse

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import build_arg_parser
    from repro.errors import CLI_EXIT_CODES, ERROR_TABLE, RETRYABLE_STATUSES

    cli_doc = (REPO_ROOT / "docs" / "cli.md").read_text()
    http_doc = (REPO_ROOT / "docs" / "http_api.md").read_text()
    readme = (REPO_ROOT / "README.md").read_text()
    problems: list[str] = []

    parser = build_arg_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, _argparse._SubParsersAction)
    )
    for name, subparser in subparsers.choices.items():
        if f"## {name}" not in cli_doc:
            problems.append(f"docs/cli.md: no '## {name}' section")
        if f"`{name}`" not in readme:
            problems.append(f"README.md: subcommand `{name}` not mentioned")
        flags = {
            option
            for action in subparser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for flag in sorted(flags):
            if f"`{flag}" not in cli_doc:
                problems.append(
                    f"docs/cli.md: flag `{flag}` of '{name}' undocumented"
                )

    for error_type, code in CLI_EXIT_CODES:
        row = f"| {code} |"
        if row not in cli_doc or error_type.__name__ not in cli_doc:
            problems.append(
                f"docs/cli.md: exit code {code} ({error_type.__name__}) "
                "missing from the exit-code table"
            )
        if row not in readme or error_type.__name__ not in readme:
            problems.append(
                f"README.md: exit code {code} ({error_type.__name__}) "
                "missing from the exit-code table"
            )

    rows = [line for line in http_doc.splitlines() if line.startswith("| `")]
    for error_type, _code, status in ERROR_TABLE:
        name = error_type.__name__
        retryable = "yes" if status in RETRYABLE_STATUSES else "no"
        if not any(
            f"`{name}`" in row
            and f"| {status}" in row
            and row.endswith(f"| {retryable} |")
            for row in rows
        ):
            problems.append(
                f"docs/http_api.md: {name} not listed with status {status}, "
                f"retryable {retryable}"
            )
    return problems


def doc_files(args: list[str]) -> list[Path]:
    if args:
        return [Path(arg).resolve() for arg in args]
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files", nargs="*", help="markdown files (default: README + docs/)"
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the runnable blocks without executing them",
    )
    args = parser.parse_args(argv)

    blocks = [
        block for path in doc_files(args.files) for block in extract_blocks(path)
    ]
    if args.list:
        for block in blocks:
            print(f"{block.label} [{block.language}]")
        return 0
    if not blocks:
        print("no runnable blocks found", file=sys.stderr)
        return 1

    failures = 0
    if not args.files:
        # Full runs also police reference drift: the CLI surface and
        # exit-code taxonomy must match what the docs promise.
        drift = check_cli_drift()
        status = "ok" if not drift else "FAIL"
        print(f"[{status}] CLI reference drift (docs/cli.md, README.md)")
        for problem in drift:
            failures += 1
            print(f"    {problem}")
    for block in blocks:
        ok, output = run_block(block)
        status = "ok" if ok else "FAIL"
        print(f"[{status}] {block.label} ({block.language})")
        if not ok:
            failures += 1
            indented = "\n".join(f"    {line}" for line in output.splitlines())
            print(indented or "    (no output)")
    print(f"-- {len(blocks) - failures}/{len(blocks)} documentation blocks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
