"""Behavioral tests for the embedded QueryService.

Covers the service contract end to end: results match serial execution,
sessions against different databases stay isolated, the bounded
admission queue applies backpressure (typed overload with ``wait=False``),
shutdown drains and then rejects, and the whole chaos matrix discipline
holds when queries run on service workers.
"""

import pytest

from repro import (
    ExecutionOptions,
    QueryService,
    ResourceBudget,
    clear_all_caches,
)
from repro.engine import execute_planned
from repro.cli import exit_code_for
from repro.errors import (
    ReproError,
    RowBudgetExceeded,
    ServiceOverloadedError,
    ServiceShutdownError,
)
from repro.resilience import (
    FAULTS,
    SITE_COMPILE,
    SITE_OPERATOR,
    SITE_PLAN_CACHE,
)
from repro.workloads import (
    PAPER_QUERIES,
    SupplierScale,
    build_database,
    generate,
)


@pytest.fixture(scope="module")
def db():
    return build_database(
        generate(SupplierScale(suppliers=12, parts_per_supplier=4, agents_per_supplier=2))
    )


@pytest.fixture(scope="module")
def other_db():
    return build_database(
        generate(SupplierScale(suppliers=5, parts_per_supplier=2, agents_per_supplier=1))
    )


@pytest.fixture(scope="module")
def baselines(db):
    clear_all_caches()
    return {
        query.example: execute_planned(
            query.sql, db, params=query.params
        ).multiset()
        for query in PAPER_QUERIES
    }


def test_service_results_match_serial(db, baselines):
    with QueryService(workers=4) as service:
        session = service.session(db)
        tickets = [
            service.submit(session, query.sql, query.params)
            for query in PAPER_QUERIES
        ]
        for query, ticket in zip(PAPER_QUERIES, tickets):
            outcome = ticket.result(timeout=30)
            assert outcome.result.multiset() == baselines[query.example], (
                f"E{query.example} served a different multiset"
            )
        # An uncorrelated equi-join asked for in vectorized mode runs
        # the batch kernels on a service worker, with nothing demoted.
        joined = service.submit(
            session,
            "SELECT S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P "
            "WHERE S.SNO = P.SNO",
            options=ExecutionOptions(engine_mode="vectorized"),
        ).result(timeout=30)
        assert joined.stats.vectorized_batches > 0
        assert joined.stats.vectorized_fallbacks == 0
    snapshot = session.snapshot()
    assert snapshot["completed"] == len(PAPER_QUERIES) + 1
    assert snapshot["failed"] == 0


def test_sessions_are_isolated(db, other_db):
    """Two sessions on different databases, same SQL: each must see its
    own data and its own counters — no cross-session poisoning through
    the shared plan cache."""
    sql = "SELECT SNO FROM SUPPLIER"
    expected_a = execute_planned(sql, db).multiset()
    expected_b = execute_planned(sql, other_db).multiset()
    assert expected_a != expected_b  # differently sized instances

    with QueryService(workers=4) as service:
        session_a = service.session(db)
        session_b = service.session(other_db)
        # Interleave submissions to maximize cross-talk opportunity.
        tickets = []
        for _ in range(10):
            tickets.append((session_a, service.submit(session_a, sql)))
            tickets.append((session_b, service.submit(session_b, sql)))
        for session, ticket in tickets:
            expected = expected_a if session is session_a else expected_b
            assert ticket.result(30).result.multiset() == expected

    assert session_a.snapshot()["completed"] == 10
    assert session_b.snapshot()["completed"] == 10
    # Counter isolation: each session accumulated only its own scans.
    assert session_a.stats.rows_output == 10 * len(expected_a)
    assert session_b.stats.rows_output == 10 * len(expected_b)


def test_backpressure_overload_is_typed(db):
    """A full admission queue blocks `wait=True` and raises a typed
    ServiceOverloadedError for `wait=False`."""
    # Stall the single worker inside the (serial) plan-cache lookup, so
    # the queue demonstrably backs up.
    with FAULTS.inject(SITE_PLAN_CACHE, kind="slow", delay=0.3):
        with QueryService(workers=1, queue_depth=1) as service:
            session = service.session(db)
            sql = "SELECT SNO FROM SUPPLIER"
            first = service.submit(session, sql)  # taken by the worker
            second = service.submit(session, sql)  # fills the queue
            with pytest.raises(ServiceOverloadedError):
                service.submit(session, sql, wait=False)
            assert service.metrics.value("service_rejected_total") == 1
            assert first.result(30).result is not None
            assert second.result(30).result is not None


def test_overload_maps_to_exit_code_nine():
    assert exit_code_for(ServiceOverloadedError(8)) == 9


def test_shutdown_drains_then_rejects(db):
    service = QueryService(workers=2)
    session = service.session(db)
    tickets = session.submit_many(
        ["SELECT SNO FROM SUPPLIER", "SELECT PNO FROM PARTS"]
    )
    service.shutdown(wait=True)
    for ticket in tickets:
        assert ticket.done()
        assert ticket.result() is not None  # admitted work still ran
    with pytest.raises(ServiceShutdownError):
        service.submit(session, "SELECT SNO FROM SUPPLIER")
    with pytest.raises(ServiceShutdownError):
        service.session(db)
    service.shutdown()  # idempotent


def test_query_errors_propagate_typed(db):
    with QueryService(workers=2) as service:
        session = service.session(
            db, budget=ResourceBudget(row_budget=1)
        )
        ticket = service.submit(
            session, "SELECT S.SNO FROM SUPPLIER S, PARTS P"
        )
        with pytest.raises(RowBudgetExceeded):
            ticket.result(30)
    assert session.snapshot()["failed"] == 1


#: Chaos scenarios exercised on service workers (subset of the engine
#: matrix: one cache site, one compile site, one probabilistic operator
#: fault — the shapes with distinct fallback ladders).
SERVICE_CHAOS = [
    (SITE_PLAN_CACHE, {}),
    (SITE_COMPILE, {}),
    (SITE_OPERATOR, {"probability": 0.05}),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chaos_matrix_under_service(db, baselines, seed):
    """The chaos contract holds when executions run on service workers:
    every outcome is the correct multiset or a typed ReproError."""
    for site, kwargs in SERVICE_CHAOS:
        FAULTS.seed(seed)
        clear_all_caches()
        with FAULTS.inject(site, **kwargs):
            with QueryService(workers=4) as service:
                session = service.session(db)
                tickets = [
                    service.submit(session, query.sql, query.params)
                    for query in PAPER_QUERIES
                    if query.example not in ("10", "11")
                ]
                examples = [
                    query.example
                    for query in PAPER_QUERIES
                    if query.example not in ("10", "11")
                ]
                for example, ticket in zip(examples, tickets):
                    try:
                        outcome = ticket.result(timeout=60)
                    except ReproError:
                        continue  # typed failure: acceptable outcome
                    assert outcome.result.multiset() == baselines[example], (
                        f"E{example} wrong under {site!r} fault "
                        f"(seed {seed}) on a service worker"
                    )
