"""``engine_mode`` selects nothing: one row engine answers every spelling.

The keyword survives on ``execute_plan``, ``execute_planned``,
``run_guarded`` and ``ExecutionOptions`` (and its wire key) only because
callers outside the package still pass it.  Each accepted spelling — and
its absence — must give the same rows *and* the same ``Stats`` on E1–E11
and on the six analytic texts of ``benchmarks/e2e/workloads.py``; an
unknown spelling is still refused.
"""

from __future__ import annotations

import pytest

from repro.engine import PlanCache, Planner, execute_plan, execute_planned
from repro.engine.stats import Stats
from repro.errors import ProtocolError
from repro.options import ENGINE_MODES, ExecutionOptions
from repro.resilience.guarded import run_guarded
from repro.workloads import PAPER_QUERIES, SupplierScale, build_database, generate

from .test_row_kernel_scaling import workloads

MODES = (None, *ENGINE_MODES)
SUPPLIERS = 20

ANALYTIC = {
    "filter_scan": {"COLOR": workloads.COLORS[0]},
    "key_join": {"CITY": workloads.CITIES[0]},
    "distinct_removable": {"COLOR": workloads.COLORS[0]},
    "distinct_needed": {"COLOR": workloads.COLORS[0]},
    "exists_probe": {"CITY": workloads.CITIES[0], "PNO": 1},
    "intersect": {
        "CITY": workloads.CITIES[0],
        "ACITY": workloads.AGENT_CITIES[0],
    },
}
STATEMENTS = [
    pytest.param(query.sql, query.params, id=f"E{query.example}")
    for query in PAPER_QUERIES
] + [
    pytest.param(
        workloads.TEMPLATES[cls].sql,
        {"LO": 1, "HI": SUPPLIERS, **params},
        id=cls,
    )
    for cls, params in ANALYTIC.items()
]


@pytest.fixture(scope="module")
def db():
    return build_database(generate(SupplierScale(SUPPLIERS, 10, 3, seed=7)))


@pytest.mark.parametrize("sql, params", STATEMENTS)
def test_every_spelling_gives_the_same_rows_and_stats(db, sql, params):
    runs = {}
    for mode in MODES:
        stats = Stats()
        result = execute_planned(
            sql, db, params=params, stats=stats, engine_mode=mode,
            plan_cache=PlanCache(),
        )
        runs[mode] = (result.columns, result.rows, stats.as_dict())
    reference = runs[None]
    for mode in ENGINE_MODES:
        assert runs[mode] == reference, mode


def test_an_unknown_spelling_is_still_refused(db):
    sql = "SELECT S.SNO FROM SUPPLIER S"
    plan = Planner(db.catalog, database=db).plan(sql)
    with pytest.raises(ValueError):
        execute_plan(plan, db, engine_mode="fast")
    with pytest.raises(ValueError):
        execute_planned(sql, db, engine_mode="fast")
    with pytest.raises(ValueError):
        run_guarded(sql, db, engine_mode="fast")
    with pytest.raises(ValueError):
        ExecutionOptions.create(engine_mode="fast")
    with pytest.raises(ProtocolError):
        ExecutionOptions.from_wire({"engine_mode": "fast"})
