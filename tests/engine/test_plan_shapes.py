"""Plan shapes the planner rarely emits, against the interpreter.

Hand-built plans put a fused kernel's boundary where the planner never
does: a cross-table residual above a join, a projection over a
DISTINCT, a set operation of two scan pipelines and a projection over an
index probe.  Each runs
with compilation on (fused where it can be) and off (the reference
interpreter): the rows are the same sequence, the work counters are the
same, and an analyzed execution opens and observes every node once.
"""

from __future__ import annotations

import pytest

from repro.engine import execute_plan, set_compilation_enabled
from repro.engine.operators import (
    Filter,
    HashJoin,
    IndexScan,
    Project,
    SeqScan,
    SortDistinct,
    SortSetOp,
)
from repro.engine.stats import Stats
from repro.observe.analyze import PlanAnalysis
from repro.sql import parse_condition
from repro.sql.ast import SetOpKind
from repro.sql.expressions import Literal

#: Which path judged a predicate, and cache warmth: not work.
PATH_COUNTERS = {
    "predicates_compiled",
    "compiled_evals",
    "compile_fallbacks",
    "plan_cache_hits",
    "plan_cache_misses",
}


def _work(stats: Stats) -> dict[str, int]:
    return {k: v for k, v in stats.as_dict().items() if k not in PATH_COUNTERS}


def _scan(db, table, alias):
    return SeqScan(table, alias, db.catalog.table(table).column_names)


def _filter_over_join(db):
    """A cross-table residual above the join, not inside it."""
    supplier, parts = _scan(db, "SUPPLIER", "S"), _scan(db, "PARTS", "P")
    join = HashJoin(
        supplier, parts,
        [supplier.schema.index_of("S", "SNO")], [parts.schema.index_of("P", "SNO")],
    )
    return Filter(join, parse_condition("S.SNO <= P.PNO AND P.COLOR <> 'RED'"))


def _project_over_distinct(db):
    parts = _scan(db, "PARTS", "P")
    pipeline = Project(
        Filter(parts, parse_condition("P.PNO > 1")),
        [parts.schema.index_of("P", "COLOR"), parts.schema.index_of("P", "PNAME")],
        ["COLOR", "PNAME"],
    )
    return Project(SortDistinct(pipeline), [0], ["COLOR"])


def _setop_of_two_pipelines(db):
    supplier, agents = _scan(db, "SUPPLIER", "S"), _scan(db, "AGENTS", "A")
    left = Project(supplier, [supplier.schema.index_of("S", "SNO")], ["SNO"])
    right = Project(
        Filter(agents, parse_condition("A.ACITY = 'Chicago'")),
        [agents.schema.index_of("A", "SNO")],
        ["SNO"],
    )
    return SortSetOp(SetOpKind.INTERSECT, True, left, right)


def _project_over_index_scan(db):
    probe = IndexScan(
        "PARTS", "P", db.catalog.table("PARTS").column_names,
        ("SNO",), (Literal(3),), residual=parse_condition("P.PNO >= 2"),
    )
    return Project(probe, [1, 2], ["PNO", "PNAME"])


def _nodes(plan):
    yield plan
    for child in plan.children():
        yield from _nodes(child)


def _run(plan, db, compiled: bool, analysis: PlanAnalysis | None = None):
    stats = Stats()
    previous = set_compilation_enabled(compiled)
    try:
        result = execute_plan(plan, db, stats=stats, analysis=analysis)
    finally:
        set_compilation_enabled(previous)
    return result.rows, _work(stats)


@pytest.mark.parametrize(
    "shape",
    [
        _filter_over_join,
        _project_over_distinct,
        _setop_of_two_pipelines,
        _project_over_index_scan,
    ],
)
def test_rare_plan_shapes_agree_and_open_each_node_once(shape, small_db):
    plan = shape(small_db)
    rows, work = _run(plan, small_db, compiled=False)
    assert rows
    assert _run(plan, small_db, compiled=True) == (rows, work)  # fused
    analyses = {}
    for compiled in (True, False):
        analysis = PlanAnalysis()
        assert _run(plan, small_db, compiled, analysis) == (rows, work)
        analyses[compiled] = analysis
    for node in _nodes(plan):
        seen, expected = analyses[True].for_node(node), analyses[False].for_node(node)
        assert seen.loops == expected.loops == 1, node.label()
        assert seen.rows == expected.rows, node.label()

