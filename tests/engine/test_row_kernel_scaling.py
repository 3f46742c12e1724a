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

The vectorized arm (last section) holds ``engine_mode="vectorized"`` to
the same two standards against the tuple run.  Column batches are the
format of scan → filter → project pipelines only; the join, DISTINCT
and set operation above them are the tuple run's own loops reading
rows, so a vectorized ``key_join`` / ``distinct_needed`` / ``intersect``
never transposes rows back into a batch (``ColumnBatch.from_rows`` is
not called) and canonicalises keys exactly as often as the tuple run;
and at the same four exits its ``Stats`` totals are the tuple run's —
save that a stream cut short has accounted its open batches whole.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro import clear_all_caches
from repro.engine import (
    DEFAULT_BATCH_ROWS,
    ColumnBatch,
    Planner,
    execute_planned,
    set_compilation_enabled,
)
from repro.engine.operators import ExecContext
from repro.engine.stats import Stats
from repro.errors import RowBudgetExceeded
from repro.resilience import (
    FAULTS,
    SITE_COMPILED_EVAL,
    SITE_VECTORIZED_EVAL,
    ResourceBudget,
)
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
    if cls in ("key_join", "intersect"):
        params["CITY"] = workloads.CITIES[0]
    else:
        params["COLOR"] = workloads.COLORS[0]
    if cls == "intersect":
        params["ACITY"] = workloads.AGENT_CITIES[0]
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
    engine_mode: str = "tuple",
) -> Stats:
    """Run one text in *engine_mode*; optionally abandon it at a row, or
    under a row budget (which raises out of here: pass *stats* in)."""
    database = _db(SIZES[0])
    sql, params = _statement(cls, SIZES[0])
    stats = stats if stats is not None else Stats()
    guard = ResourceBudget(row_budget=row_budget).guard() if row_budget else None
    previous = set_compilation_enabled(compiled)
    try:
        plan = Planner(database.catalog, database=database).plan(sql)
        ctx = ExecContext(
            database, params=params, stats=stats, guard=guard, engine_mode=engine_mode
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


# ----------------------------------------------------------------------
# the vectorized arm: batches end where the first row loop begins

VECTORIZED_CLASSES = ("key_join", "distinct_needed", "intersect")
# What a batch kernel accounts a batch at a time (the documented batch
# granularity): equal to the tuple run over a whole stream, ahead of it
# by at most the open batches when the stream is cut short.
BATCH_GRANULAR = {"rows_scanned", "predicate_evals"}


def _shared(stats: Stats, *, without: set[str] = frozenset()) -> dict[str, int]:
    """The engine-independent counters: everything but which path ran."""
    return {
        name: value
        for name, value in _totals(stats).items()
        if not name.startswith("vectorized") and name not in without
    }


@pytest.fixture()
def transposed(monkeypatch):
    """One entry per ``ColumnBatch.from_rows`` call."""
    original = ColumnBatch.from_rows.__func__
    seen = []

    def spy(cls, rows, width):
        seen.append(len(rows))
        return original(cls, rows, width)

    monkeypatch.setattr(ColumnBatch, "from_rows", classmethod(spy))
    return seen


@pytest.mark.parametrize("cls", VECTORIZED_CLASSES)
def test_a_vectorized_run_transposes_nothing_and_keys_like_the_tuple_run(
    calls, transposed, monkeypatch, cls
):
    calls["sort_key"] = spy_on(monkeypatch, values, "sort_key")
    key_helpers = ("sort_key", "row_sort_key")
    helpers = ("is_null", *key_helpers)
    seen = {}
    for size in SIZES:
        database = _db(size)
        for name in ("SUPPLIER", "PARTS", "AGENTS"):
            # The per-table batch cache is storage, filled once per
            # table version; what is counted below is execution.
            database.table(name).column_batches(DEFAULT_BATCH_ROWS)
        sql, params = _statement(cls, size)
        for mode in ("tuple", "vectorized"):
            clear_all_caches()
            del transposed[:]
            before = {name: len(calls[name]) for name in helpers}
            stats = Stats()
            result = execute_planned(
                sql, database, params=params, engine_mode=mode, stats=stats
            )
            seen[size, mode] = (
                {name: len(calls[name]) - before[name] for name in helpers},
                len(result.rows),
            )
            if mode == "vectorized":
                assert stats.vectorized_batches > 0 and not stats.vectorized_fallbacks
                assert transposed == [], (cls, size, transposed)
        (batch, batch_rows), (row, row_rows) = seen[size, "vectorized"], seen[size, "tuple"]
        assert batch_rows == row_rows
        # The batch compiler asks is_null of each constant operand once,
        # at compile time; nothing else differs from the tuple run.
        assert 0 <= batch["is_null"] - row["is_null"] <= len(params)
        assert [batch[name] for name in key_helpers] == [
            row[name] for name in key_helpers
        ], (cls, size)
    (small, small_rows), (large, large_rows) = (
        seen[size, "vectorized"] for size in SIZES
    )
    assert large_rows > small_rows  # the rows that flowed did grow
    assert small == large, f"{cls}: {small} at {SIZES[0]} rows, {large} at {SIZES[1]}"


@pytest.mark.parametrize("cls", VECTORIZED_CLASSES)
def test_vectorized_totals_match_the_tuple_run_after_full_consumption(cls):
    vectorized = _consume(cls, compiled=True, engine_mode="vectorized")
    assert vectorized.vectorized_batches > 0 and not vectorized.vectorized_fallbacks
    assert _shared(vectorized) == _shared(_consume(cls, compiled=True))


@pytest.mark.parametrize(
    "cls, row",
    # intersect answers fewer than ten rows at this size
    [("key_join", 10), ("distinct_needed", 10), ("intersect", 2)],
)
def test_vectorized_totals_match_the_tuple_run_when_the_consumer_leaves_early(cls, row):
    vectorized = _consume(cls, compiled=True, stop_after=row, engine_mode="vectorized")
    reference = _consume(cls, compiled=True, stop_after=row)
    full = _consume(cls, compiled=True)
    # Every row loop did exactly the tuple run's work and stopped there ...
    assert _shared(vectorized, without=BATCH_GRANULAR) == _shared(
        reference, without=BATCH_GRANULAR
    )
    # ... on input the batch kernels had accounted whole batches of.
    for name in BATCH_GRANULAR:
        assert (
            getattr(reference, name) <= getattr(vectorized, name) <= getattr(full, name)
        ), name
    if cls == "key_join":  # the one class whose root streams its probe side
        assert _shared(reference) != _shared(full)


@pytest.mark.parametrize("cls", VECTORIZED_CLASSES)
def test_vectorized_totals_match_the_tuple_run_across_a_kernel_demotion(cls):
    reference = _consume(cls, compiled=True)
    with FAULTS.inject(SITE_VECTORIZED_EVAL, after=0, times=1):
        demoted = _consume(cls, compiled=True, engine_mode="vectorized")
    # The first mask kernel to run — the Filter under the join — died on
    # its first batch and finished through the evaluator.
    assert demoted.vectorized_fallbacks == 1 and demoted.compile_fallbacks == 1
    assert demoted.compiled_evals < demoted.predicate_evals
    assert _shared(demoted) == _shared(reference)


@pytest.mark.parametrize("cls", ("key_join", "distinct_needed"))
def test_vectorized_totals_match_the_tuple_run_when_a_row_budget_trips_in_the_join(cls):
    # Each mode's budget is what its scans have ticked when the join's
    # first match arrives, plus five: the 20 build-side suppliers in
    # tuple mode (PARTS' first chunk is still open), both whole tables
    # in vectorized mode.  The sixth match trips it, inside the join.
    totals = {}
    for mode, scanned in (("tuple", 20), ("vectorized", 20 + SIZES[0])):
        stats = Stats()
        with pytest.raises(RowBudgetExceeded) as excinfo:
            _consume(
                cls, compiled=True, row_budget=scanned + 5, stats=stats, engine_mode=mode
            )
        assert excinfo.traceback
        assert stats.rows_joined == 5 and stats.rows_scanned == scanned, mode
        totals[mode] = _shared(stats, without=BATCH_GRANULAR)
    assert totals["vectorized"] == totals["tuple"]
