"""The tuple path's row loop calls no per-value helper — counted, not timed.

Spies on the three-valued connectives (``Tristate.__and__`` / ``__or__``
/ ``__invert__``), on ``compare_where``, ``is_null`` and
``row_sort_key`` bracket the ``filter_scan``, ``key_join`` and
``distinct_needed`` texts of ``benchmarks/e2e/workloads.py`` at 200 and
2 000 PARTS rows.  Each count must be
the same at both sizes: predicates are lowered once per execution to
two-valued closures and join/DISTINCT keys come from one
``key_extractor`` kernel, so what is left per statement is compile-time
work.  Before, every one of these grew linearly — a ``Tristate`` per
condition node per row, an ``is_null`` and a ``row_sort_key`` per key.

Taking the counters out of the row loop must not move them: the second
half compares ``Stats.as_dict()`` of the compiled run against the
interpreter-only run (``set_compilation_enabled(False)``, the reference
semantics) at the exits of a row loop — exhaustion, a consumer that
closes the stream at row 10, and a row budget that trips inside the
join while its filtered input is suspended.  The compiled run is the fused one.
A join's generated probe loop runs PARTS' scan and filter inside it
with the per-node accounting, so the join classes match the
interpreter exactly at every exit; ``filter_scan``'s pipeline pulls,
ticks and accounts a ``TICK_CHUNK``-row chunk as a whole
(``BATCH_GRANULAR``), so where its stream is cut short it may be ahead
of the interpreter.  The fused arm checks which path
ran: no per-node row loop opens under a generated kernel.  The last section runs the join templates
as the front door rewrites them in both kernel contexts — no guard, and
a guard under a timeout — against the interpreter, and reads the
kernels' sources: only the guarded one ticks.
"""

from __future__ import annotations

import importlib.util
import sys
from itertools import islice
from pathlib import Path

import pytest

from repro import clear_all_caches
from repro.core import Optimizer
from repro.engine import Planner, codegen, execute_planned, set_compilation_enabled
from repro.engine.operators import base as operators_base
from repro.engine.operators import ExecContext, Filter, HashJoin, Project, SeqScan
from repro.engine.stats import Stats
from repro.errors import RowBudgetExceeded
from repro.resilience import ResourceBudget
from repro.sql.parser import parse_query
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
        result = execute_planned(sql, database, params=params)
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
    """Run one text; optionally abandon it at a row, or under a row
    budget (which raises out of here: pass *stats* in)."""
    database = _db(SIZES[0])
    sql, params = _statement(cls, SIZES[0])
    stats = stats if stats is not None else Stats()
    guard = ResourceBudget(row_budget=row_budget).guard() if row_budget else None
    previous = set_compilation_enabled(compiled)
    try:
        plan = Planner(database.catalog, database=database).plan(sql)
        ctx = ExecContext(database, params=params, stats=stats, guard=guard)
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
    assert compiled.compiled_evals > 0
    assert compiled.compiled_evals == compiled.predicate_evals
    assert _totals(compiled) == _totals(_consume(cls, compiled=False))


@pytest.mark.parametrize("cls", CLASSES)
def test_totals_match_the_interpreter_when_the_consumer_leaves_at_row_10(cls):
    compiled = _consume(cls, compiled=True, stop_after=10)
    reference = _consume(cls, compiled=False, stop_after=10)
    full = _consume(cls, compiled=False)
    assert compiled.compiled_evals > 0
    if cls == "filter_scan":
        # A fused pipeline accounts the chunk it pulled whole: every
        # other counter stopped where the interpreter's did.
        assert _shared(compiled, without=BATCH_GRANULAR) == _shared(
            reference, without=BATCH_GRANULAR
        )
        for name in BATCH_GRANULAR:
            assert (
                getattr(reference, name)
                <= getattr(compiled, name)
                <= getattr(full, name)
            ), name
    else:
        assert _totals(compiled) == _totals(reference)
    # It really was abandoned: a full run does more.
    assert _totals(reference) != _totals(full)


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
        if cls == "filter_scan":
            # The fused pipeline ticks its first chunk before testing a
            # row of it, so it trips with nothing evaluated.
            totals[compiled] = _shared(stats, without=BATCH_GRANULAR)
            assert compiled or stats.predicate_evals > 0
        else:
            totals[compiled] = _totals(stats)
            assert stats.predicate_evals > 0
    assert totals[True] == totals[False]


# What a fused scan pipeline accounts a pulled chunk at a time: equal to
# the interpreter over a whole stream, ahead of it by at most the open
# chunk when the stream is cut short.
BATCH_GRANULAR = {"rows_scanned", "predicate_evals"}


def _shared(stats: Stats, *, without: set[str] = frozenset()) -> dict[str, int]:
    """The path-independent counters, less *without*."""
    return {
        name: value
        for name, value in _totals(stats).items()
        if name not in without
    }


# ----------------------------------------------------------------------
# the fused arm: generated kernels run the rows, and leave the totals alone

FUSED_CLASSES = ("filter_scan", "key_join", "distinct_needed", "big_result")
EXITS = ("exhaustion", "early close", "row budget")


@pytest.fixture()
def per_node(monkeypatch):
    """The name of every per-node row loop a kernel would replace, as it
    is opened."""
    opened = []
    for node in (SeqScan, Filter, Project, HashJoin):
        original = node._rows

        def spy(self, ctx, _original=original, _name=node.__name__):
            opened.append(_name)
            return _original(self, ctx)

        monkeypatch.setattr(node, "_rows", spy)
    return opened


@pytest.mark.parametrize("exit", EXITS)
@pytest.mark.parametrize("cls", FUSED_CLASSES)
def test_fused_kernels_keep_the_interpreters_totals(per_node, cls, exit):
    def run(compiled: bool, **kwargs) -> tuple[Stats, list[str]]:
        del per_node[:]
        return _consume(cls, compiled=compiled, **kwargs), list(per_node)

    def tripped(compiled: bool, budget: int) -> tuple[Stats, list[str]]:
        del per_node[:]
        stats = Stats()
        with pytest.raises(RowBudgetExceeded):
            _consume(cls, compiled=compiled, row_budget=budget, stats=stats)
        return stats, list(per_node)

    # A scan pipeline that is not a join's probe side accounts each chunk
    # it pulls whole; one inside a join's probe loop, as the per-node
    # scan and filter do.
    chunked = cls not in ("key_join", "distinct_needed")
    without: set[str] = set()
    if exit == "exhaustion":
        fused, opened = run(True)
        reference, _ = run(False)
    elif exit == "early close":
        fused, opened = run(True, stop_after=10)
        reference, _ = run(False, stop_after=10)
        full, _ = run(False)
        if chunked:
            without = BATCH_GRANULAR
        for name in BATCH_GRANULAR:
            assert (
                getattr(reference, name) <= getattr(fused, name) <= getattr(full, name)
            ), name
    else:
        fused, opened = tripped(True, 25)
        reference, _ = tripped(False, 25)
        if chunked:
            without = BATCH_GRANULAR
    assert opened == [], opened
    assert _shared(fused, without=without) == _shared(reference, without=without)


# ----------------------------------------------------------------------
# guarded or not: the join kernel a context gets keeps the same rows and
# totals as the other one and as the interpreter

GUARD_TEMPLATES = (
    "key_join",
    "distinct_needed",
    "exists_probe",
    "intersect",
    "key_join_point.part",
    "key_join_point.agent",
)
GUARD_EXITS = ("exhaustion", "early close")


def _rewritten(template: str, parts_rows: int):
    """The template as the front door runs it — rewritten by the
    relational optimizer — with bindings that keep rows flowing."""
    database = _db(parts_rows)
    suppliers = parts_rows // PARTS_PER_SUPPLIER
    params = {
        "key_join": {"CITY": workloads.CITIES[0]},
        "distinct_needed": {"COLOR": workloads.COLORS[0]},
        "exists_probe": {"CITY": workloads.CITIES[0], "PNO": 1},
        "intersect": {
            "CITY": workloads.CITIES[0],
            "ACITY": workloads.AGENT_CITIES[0],
        },
        "key_join_point.part": {"SNO": 3, "PNO": 2},
        "key_join_point.agent": {"ANO": 5},
    }[template]
    if not template.startswith("key_join_point"):
        params.update(LO=1, HI=suppliers)
    query = parse_query(workloads.TEMPLATES[template].sql)
    rewritten = Optimizer.for_relational(database.catalog).optimize(query).query
    return database, rewritten, params


def _run_context(
    statement, *, compiled: bool, guarded: bool, stop_after: int | None
) -> tuple[list[tuple], Stats]:
    database, query, params = statement
    stats = Stats()
    guard = ResourceBudget(timeout=60).guard() if guarded else None
    previous = set_compilation_enabled(compiled)
    try:
        plan = Planner(database.catalog, database=database).plan(query)
        ctx = ExecContext(database, params=params, stats=stats, guard=guard)
        stream = plan.rows(ctx)
        rows = list(islice(stream, stop_after))
        stream.close()
    finally:
        set_compilation_enabled(previous)
    return rows, stats


@pytest.mark.parametrize("exit", GUARD_EXITS)
@pytest.mark.parametrize("template", GUARD_TEMPLATES)
def test_guarded_and_unguarded_kernels_keep_the_interpreters_rows_and_totals(
    per_node, template, exit
):
    # At 2 000 PARTS rows every analytic template returns over 10 rows.
    statement = _rewritten(template, SIZES[1])
    stop_after = 10 if exit == "early close" else None
    runs = {}
    for name, compiled, guarded in (
        ("unguarded", True, False),
        ("guarded", True, True),
        ("interpreter", False, False),
    ):
        del per_node[:]
        rows, stats = _run_context(
            statement, compiled=compiled, guarded=guarded, stop_after=stop_after
        )
        if compiled:
            # Both contexts ran the generated join, not the node loops.
            assert per_node == [], (name, per_node)
        runs[name] = (rows, _totals(stats))
    assert runs["unguarded"][0], "the bindings select no rows"
    assert runs["unguarded"] == runs["guarded"] == runs["interpreter"]


@pytest.mark.parametrize("template", GUARD_TEMPLATES)
def test_only_a_guarded_kernel_ticks(monkeypatch, template):
    # No guard: the context's tick does nothing, so its kernel calls none.
    statement = _rewritten(template, SIZES[0])
    sources = {}
    for guarded in (False, True):
        assembled = sources[guarded] = []

        def spy(source, _assembled=assembled):
            _assembled.append(source)
            return codegen.assemble(source)

        monkeypatch.setattr(operators_base, "assemble", spy)
        _run_context(statement, compiled=True, guarded=guarded, stop_after=None)
    joins = {
        guarded: [text for text in texts if "def join(" in text]
        for guarded, texts in sources.items()
    }
    assert joins[False] and joins[True]
    assert not any("tick(" in text for text in sources[False])
    # Guarded: a checkpoint per match, ticked TICK_CHUNK at a time.
    for text in joins[True]:
        lines = [line.strip() for line in text.splitlines()]
        at = lines.index("for b in matching(key, ()):")
        assert lines[at + 1 : at + 4] == [
            "unticked += 1",
            f"if unticked == {codegen.TICK_CHUNK}:",
            f"tick({codegen.TICK_CHUNK})",
        ]
