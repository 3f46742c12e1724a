"""The generated kernels, pinned: their source texts per read template.

``kernel_sources_golden.json`` holds, for every read template of
``benchmarks/e2e/workloads.py``, the source text of each kernel that one
plain execution through the front door assembles from cold caches — in
both contexts a kernel is shaped for: no guard (the connection's
defaults) and a guard (a timeout) — under two type censuses: one that
has met NULL in every column, so every comparison keeps its guard
(``unguarded``, ``guarded``), and the census the loaded rows leave,
NULL-free and one type per column, so the comparisons run bare
(``unguarded.lean``, ``guarded.lean``).  The six benchmark workloads
run these texts, so a change that must leave the served row path alone
(an observer, a refactoring of the per-node path) shows here if it does
not.  Regenerate only for an intended change of a kernel's text::

    PYTHONPATH=src python -m tests.engine.test_kernel_sources_golden --write
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

import repro
from repro import clear_all_caches
from repro.engine import PlanCache, codegen
from repro.options import ExecutionOptions
from repro.types.values import NULL
from repro.workloads import SupplierScale, build_database, generate

from ..api.test_request_path import spy_on
from .test_row_kernel_scaling import workloads

GOLDEN_PATH = Path(__file__).with_name("kernel_sources_golden.json")
SEED = 7
SUPPLIERS, PARTS, AGENTS = 20, 10, 3
LEDGER_ROWS = 10
CONTEXTS = {"unguarded": None, "guarded": ExecutionOptions(timeout=60)}
READS = [
    template_id
    for template_id, template in workloads.TEMPLATES.items()
    if template.kind == workloads.READ
]


def _database():
    database = build_database(generate(SupplierScale(SUPPLIERS, PARTS, AGENTS, seed=SEED)))
    ledger = ", ".join(f"({k}, {k})" for k in range(1, LEDGER_ROWS + 1))
    database.run_script(f"{workloads.LEDGER_DDL} INSERT INTO LEDGER VALUES {ledger};")
    return database


def _met_null(database):
    """*database* with NULL's type in every column's census, as writes
    that were rolled back may have left it (the rows are unchanged)."""
    for name in database.table_names():
        data = database.table(name)
        data.census = tuple(types | {type(NULL)} for types in data.census)
    return database


def _params(template_id: str) -> dict:
    if template_id == "key_lookup.ledger":  # keys are sequenced, not drawn
        return {"K": 1 + SEED % LEDGER_ROWS}
    dims = workloads.Dims(SUPPLIERS, PARTS, AGENTS)
    return workloads._draw(template_id, random.Random(SEED), dims)


def kernel_sources(databases, assembled: list, template_id: str) -> dict:
    """``{context: [source, …]}`` of one cold plain execution per context
    and census, *databases* being ``(lean, met_null)`` and *assembled*
    the list a spy on ``codegen.assemble`` appends to."""
    sql, params = workloads.TEMPLATES[template_id].sql, _params(template_id)
    sources = {}
    for database, suffix in zip(databases, (".lean", "")):
        for context, options in CONTEXTS.items():
            clear_all_caches()
            del assembled[:]
            with repro.connect(database, plan_cache=PlanCache()) as conn:
                conn.execute(sql, params, options=options).fetchall()
            sources[context + suffix] = list(assembled)
    return sources


@pytest.fixture(scope="module")
def database():
    return _database(), _met_null(_database())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_read_template_is_pinned(golden):
    assert sorted(golden) == sorted(READS)


@pytest.mark.parametrize("template_id", READS)
def test_a_plain_read_assembles_the_pinned_kernels(
    monkeypatch, database, golden, template_id
):
    assembled = spy_on(monkeypatch, codegen, "assemble")
    sources = kernel_sources(database, assembled, template_id)
    assert sources["unguarded"], "every read template runs a generated kernel"
    assert sources == golden[template_id]


def _write() -> None:
    database = _database(), _met_null(_database())
    with pytest.MonkeyPatch.context() as monkeypatch:
        assembled = spy_on(monkeypatch, codegen, "assemble")
        golden = {
            template_id: kernel_sources(database, assembled, template_id)
            for template_id in READS
        }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} templates)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write()
