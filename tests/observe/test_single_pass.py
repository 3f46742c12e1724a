"""An analyzed read is the served execution, not a repeat of it.

``analyze``/``adaptive`` attach a sink to the one guarded execution:
one ``plan.execute`` span, the plan cache's own plan, one guard, actuals
that describe exactly the served rows — and nothing written to the
shared plan, so concurrent executions of it stay independent.
"""

import threading

import pytest

import repro
from repro.api import run_with_options
from repro.engine import PlanCache, Planner
from repro.observe import TRACER, set_tracing
from repro.options import ExecutionOptions
from repro.resilience.budgets import ResourceBudget
from repro.service import QueryService

DISTINCT_JOIN = (
    "SELECT DISTINCT S.SNAME FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"
)
PARTS_OF = "SELECT P.PNO, P.PNAME FROM PARTS P WHERE P.SNO = :S"


@pytest.fixture()
def traced():
    previous = set_tracing(True)
    TRACER.clear()
    yield TRACER
    set_tracing(previous)
    TRACER.clear()


@pytest.fixture()
def planned(monkeypatch):
    """Every ``Planner.plan`` call's argument (recursion included)."""
    calls = []
    original = Planner.plan

    def counting(self, query):
        calls.append(query)
        return original(self, query)

    monkeypatch.setattr(Planner, "plan", counting)
    return calls


def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)


def _span_names():
    return [span.name for root in TRACER.roots for span in root.walk()]


@pytest.mark.parametrize("option", ["analyze", "adaptive"])
def test_one_execution_span_per_analyzed_read(small_db, traced, option):
    with repro.connect(small_db, plan_cache=PlanCache()) as conn:
        cursor = conn.execute(DISTINCT_JOIN, **{option: True})
        assert cursor.analysis is not None
    names = _span_names()
    assert names.count("plan.execute") == 1
    assert names.count("query.execute_planned") == 1
    assert any(name.startswith("operator.") for name in names)


def test_warm_analyzed_read_is_served_from_the_plan_cache(small_db, planned):
    with repro.connect(small_db, plan_cache=PlanCache()) as conn:
        conn.execute(DISTINCT_JOIN)
        del planned[:]
        cursor = conn.execute(DISTINCT_JOIN, analyze=True)
    assert cursor.executed.stats["plan_cache_hits"] == 1
    assert "plan_cache_misses" not in cursor.executed.stats
    assert planned == []


def test_service_submit_analyzes_in_one_pass(small_db, traced, planned):
    service = QueryService(workers=1)
    try:
        session = service.session(small_db)
        service.submit(session, DISTINCT_JOIN).result(10)
        TRACER.clear()
        del planned[:]
        outcome = service.submit(
            session, DISTINCT_JOIN, options=ExecutionOptions(analyze=True)
        ).result(10)
    finally:
        service.shutdown()
    assert _span_names().count("plan.execute") == 1
    assert outcome.stats.plan_cache_hits == 1 and planned == []
    assert outcome.analysis.result is outcome.result


@pytest.mark.parametrize("engine_mode", ["tuple", "vectorized"])
def test_analysis_describes_the_served_rows(small_db, engine_mode):
    with repro.connect(small_db) as conn:
        cursor = conn.execute(
            DISTINCT_JOIN, analyze=True, engine_mode=engine_mode
        )
        rows = cursor.fetchall()
    outcome = cursor.outcome
    assert outcome.analysis.result is outcome.result
    assert outcome.analysis.stats is outcome.stats
    # Whatever the engine_mode spelling, each node is opened once —
    # except the build side a hash join serves from its table's index,
    # which never runs and reads [never executed].
    plan = outcome.analysis.plan
    unopened = {
        id(node)
        for join in _walk(plan)
        if getattr(join, "index", None) is not None
        for node in _walk(join.left if join.build_left else join.right)
    }
    assert unopened  # the index join is what this text plans
    for node in _walk(plan):
        loops = outcome.analysis.analysis.for_node(node).loops
        assert loops == (0 if id(node) in unopened else 1), node.label()
    assert "[never executed]" in plan.explain(
        analysis=outcome.analysis.analysis
    )
    assert cursor.analysis["plan"]["actual_rows"] == len(rows) > 0


def test_the_guard_handed_out_ticks_the_analyzed_rows(small_db, monkeypatch):
    minted = []
    original = ResourceBudget.guard

    def counting(self):
        minted.append(original(self))
        return minted[-1]

    monkeypatch.setattr(ResourceBudget, "guard", counting)
    handed = []
    outcome = run_with_options(
        DISTINCT_JOIN,
        small_db,
        options=ExecutionOptions(analyze=True, row_budget=1_000_000),
        on_guard=handed.append,
    )
    assert len(minted) == 1 and handed == minted
    analysis = outcome.analysis.analysis
    scanned = sum(
        analysis.for_node(node).rows
        for node in _walk(outcome.analysis.plan)
        if not node.children()
    )
    # Every row the analysis saw leave a scan was ticked on the one
    # guard a ticket owner can cancel.
    assert handed[0].rows_processed >= scanned > 0


def test_cached_plan_nodes_are_never_written(small_db):
    cache = PlanCache()
    with repro.connect(small_db, plan_cache=cache) as conn:
        conn.execute(DISTINCT_JOIN)
        before = None
        for mode in ("tuple", "vectorized"):
            cursor = conn.execute(
                DISTINCT_JOIN, analyze=True, engine_mode=mode
            )
            plan = cursor.outcome.analysis.plan
            state = [(id(node), dict(vars(node))) for node in _walk(plan)]
            # Same cached instance every time, same attributes as the
            # first look — no counting wrapper, no marker, nothing.
            assert before is None or state == before
            before = state
            assert not any(
                name in vars(node)
                for node in _walk(plan)
                for name in ("rows", "batches", "_rows", "_batches")
            )
    assert cache.hits == 2


def test_concurrent_analyses_of_one_cached_plan_stay_apart(tiny_db):
    cache = PlanCache()
    expected = {1: 2, 2: 1, 3: 1, 4: 1}  # PARTS rows per supplier
    with repro.connect(tiny_db, plan_cache=cache) as conn:
        plain = {
            sno: conn.execute(PARTS_OF, {"S": sno}).fetchall()
            for sno in expected
        }
    barrier = threading.Barrier(len(expected) + 1)
    failures = []

    def work(sno, analyze):
        try:
            with repro.connect(tiny_db, plan_cache=cache) as conn:
                barrier.wait(10)
                for _ in range(200):
                    cursor = conn.execute(PARTS_OF, {"S": sno}, analyze=analyze)
                    assert cursor.fetchall() == plain[sno]
                    if analyze:
                        root = cursor.analysis["plan"]
                        assert root["loops"] == 1
                        assert root["actual_rows"] == expected[sno]
        except BaseException as error:  # surfaced on the main thread
            failures.append(error)
            barrier.abort()

    threads = [
        threading.Thread(target=work, args=(sno, True)) for sno in expected
    ] + [threading.Thread(target=work, args=(1, False))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not failures, failures[0]
    assert cache.misses == 1  # all of it ran on one shared plan
