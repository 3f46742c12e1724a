"""The tuple path's row loop calls no per-value helper — counted, not timed.

Spies on the three-valued connectives (``Tristate.__and__`` / ``__or__``
/ ``__invert__``), on ``compare_where``, ``is_null`` and
``row_sort_key`` bracket the ``filter_scan``, ``key_join`` and
``distinct_needed`` texts of ``benchmarks/e2e/workloads.py`` at 200 and
2 000 PARTS rows, with ``engine_mode="tuple"`` passed explicitly (the
forced-vectorized CI leg runs this directory too).  Each count must be
the same at both sizes: predicates are lowered once per execution to
two-valued closures and join/DISTINCT keys come from one
``key_extractor`` kernel, so what is left per statement is compile-time
work.  Before, every one of these grew linearly — a ``Tristate`` per
condition node per row, an ``is_null`` and a ``row_sort_key`` per key.

Taking the counters out of the row loop must not move them: the second
half compares ``Stats.as_dict()`` of the compiled run against the
interpreter-only run (``set_compilation_enabled(False)``, the reference
semantics) at the three exits of a row loop — exhaustion, a consumer
that closes the stream at row 10, a seeded ``compiled_eval`` fault that
demotes mid-stream, and a row budget that trips inside the join while
its filtered input is suspended.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro import clear_all_caches
from repro.engine import Planner, execute_planned, set_compilation_enabled
from repro.engine.operators import ExecContext
from repro.engine.stats import Stats
from repro.errors import RowBudgetExceeded
from repro.resilience import FAULTS, SITE_COMPILED_EVAL, ResourceBudget
from repro.types import tristate, values
from repro.workloads import SupplierScale, build_database, generate

from ..api.test_request_path import spy_on

_WORKLOADS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "workloads.py"
_spec = importlib.util.spec_from_file_location("e2e_workloads", _WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # dataclasses resolve their module
_spec.loader.exec_module(workloads)

PARTS_PER_SUPPLIER = 10
SIZES = (200, 2_000)  # PARTS rows
CLASSES = ("filter_scan", "key_join", "distinct_needed")
# Which path evaluated a predicate, not how much work was done.
PATH_COUNTERS = {"predicates_compiled", "compiled_evals", "compile_fallbacks"}


def _db(parts_rows: int):
    suppliers = parts_rows // PARTS_PER_SUPPLIER
    return build_database(
        generate(SupplierScale(suppliers, PARTS_PER_SUPPLIER, 3, seed=7))
    )


def _statement(cls: str, parts_rows: int) -> tuple[str, dict]:
    """The benchmark's text with bindings that keep every supplier in
    range, so the rows that flow grow with the table."""
    suppliers = parts_rows // PARTS_PER_SUPPLIER
    params = {"LO": 1, "HI": suppliers}
    if cls == "key_join":
        params["CITY"] = workloads.CITIES[0]
    else:
        params["COLOR"] = workloads.COLORS[0]
    return workloads.TEMPLATES[cls].sql, params


@pytest.fixture()
def calls(monkeypatch):
    """One list per per-value helper, growing by an entry per call."""
    spied = {
        name: spy_on(monkeypatch, values, name)
        for name in ("compare_where", "is_null", "row_sort_key")
    }
    for dunder in ("__and__", "__or__", "__invert__"):
        connective = getattr(tristate.Tristate, dunder)
        seen = spied[f"Tristate.{dunder}"] = []

        def spy(*args, _connective=connective, _seen=seen):
            _seen.append(args[0])
            return _connective(*args)

        monkeypatch.setattr(tristate.Tristate, dunder, spy)
    return spied


@pytest.mark.parametrize("cls", CLASSES)
def test_per_value_helper_calls_do_not_grow_with_the_table(calls, cls):
    seen = {}
    for size in SIZES:
        database = _db(size)
        sql, params = _statement(cls, size)
        clear_all_caches()
        before = {name: len(made) for name, made in calls.items()}
        result = execute_planned(sql, database, params=params, engine_mode="tuple")
        seen[size] = {name: len(made) - before[name] for name, made in calls.items()}
        # The rows that flowed did grow, so flat counts mean flat work.
        assert len(result.rows) >= size // 40, (cls, size, len(result.rows))
    small, large = (seen[size] for size in SIZES)
    assert small == large, f"{cls}: {small} at {SIZES[0]} rows, {large} at {SIZES[1]}"


# ----------------------------------------------------------------------
# counters flushed in ``finally`` are the counters bumped per row


def _totals(stats: Stats) -> dict[str, int]:
    return {k: v for k, v in stats.as_dict().items() if k not in PATH_COUNTERS}


def _consume(
    cls: str,
    *,
    compiled: bool,
    stop_after: int | None = None,
    row_budget: int | None = None,
    stats: Stats | None = None,
) -> Stats:
    """Run one text in tuple mode; optionally abandon it at a row, or
    under a row budget (which raises out of here: pass *stats* in)."""
    database = _db(SIZES[0])
    sql, params = _statement(cls, SIZES[0])
    stats = stats if stats is not None else Stats()
    guard = ResourceBudget(row_budget=row_budget).guard() if row_budget else None
    previous = set_compilation_enabled(compiled)
    try:
        plan = Planner(database.catalog, database=database).plan(sql)
        ctx = ExecContext(
            database, params=params, stats=stats, guard=guard, engine_mode="tuple"
        )
        stream = plan.rows(ctx)
        if stop_after is None:
            for _ in stream:
                pass
        else:
            for _ in range(stop_after):
                next(stream)
            stream.close()
    finally:
        set_compilation_enabled(previous)
    return stats


@pytest.mark.parametrize("cls", CLASSES)
def test_totals_match_the_interpreter_after_full_consumption(cls):
    compiled = _consume(cls, compiled=True)
    assert compiled.compiled_evals > 0 and compiled.compile_fallbacks == 0
    assert compiled.compiled_evals == compiled.predicate_evals
    assert _totals(compiled) == _totals(_consume(cls, compiled=False))


@pytest.mark.parametrize("cls", CLASSES)
def test_totals_match_the_interpreter_when_the_consumer_leaves_at_row_10(cls):
    compiled = _consume(cls, compiled=True, stop_after=10)
    reference = _consume(cls, compiled=False, stop_after=10)
    assert compiled.compiled_evals > 0
    assert _totals(compiled) == _totals(reference)
    # It really was abandoned: a full run does more.
    assert _totals(reference) != _totals(_consume(cls, compiled=False))


@pytest.mark.parametrize("cls", CLASSES)
def test_totals_match_the_interpreter_across_a_mid_stream_demotion(cls):
    reference = _consume(cls, compiled=False)
    with FAULTS.inject(SITE_COMPILED_EVAL, after=7, times=1):
        demoted = _consume(cls, compiled=True)
    # One predicate ran seven rows compiled, then the failing row and
    # the rest interpreted (a second predicate of the plan stays compiled).
    assert demoted.compile_fallbacks == 1
    assert 7 <= demoted.compiled_evals < demoted.predicate_evals
    assert _totals(demoted) == _totals(reference)


@pytest.mark.parametrize("cls", CLASSES)
def test_totals_match_the_interpreter_when_a_row_budget_trips(cls):
    # 20 build-side rows, then the budget trips on an early join match
    # (on the scan's first chunk for filter_scan): PARTS' Filter is
    # suspended with its evaluations still in a local.
    totals = {}
    for compiled in (True, False):
        stats = Stats()
        with pytest.raises(RowBudgetExceeded) as excinfo:
            _consume(cls, compiled=compiled, row_budget=25, stats=stats)
        # Read while the exception, and so every frame, is still alive.
        assert excinfo.traceback
        totals[compiled] = _totals(stats)
        assert stats.predicate_evals > 0
    assert totals[True] == totals[False]
