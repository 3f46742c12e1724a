"""E15 — concurrent query service: throughput under simulated I/O stalls.

On one CPU with the GIL, thread parallelism buys nothing for pure
compute — the speedup a multi-worker service *can* deliver is overlap
of per-query waits (storage, network, lock handoffs).  This benchmark
models that wait with a ``slow`` fault at the plan-cache site (the
injector sleeps *outside* its lock, exactly like a real I/O stall), and
measures a mixed E10/E12 workload three ways:

* a serial loop over :func:`run_guarded` (the pre-service baseline),
* a :class:`QueryService` at increasing worker counts,
* two interleaved sessions against different databases, verifying that
  the shared plan cache never leaks rows across sessions.

Every table lands in ``benchmarks/out/BENCH_e15.json``.  The headline acceptance bar:
>= 2x throughput with 4 workers over the serial loop, with every served
row sequence identical to the serial run's.
"""

import pytest

from repro import QueryService
from repro.resilience.guarded import run_guarded
from repro.bench import ExperimentReport, speedup, timed
from repro.engine.plan_cache import PlanCache
from repro.resilience import FAULTS, SITE_PLAN_CACHE
from repro.workloads import SupplierScale, build_database, generate

from test_e12_hotpath import AUDIT_TEMPLATES, CORRELATED_QUERY

#: Simulated per-query stall (seconds): the cost of fetching a plan /
#: metadata from cold storage.  Fired once per statement at the
#: plan-cache hook; sleeps overlap across service workers.
STALL = 0.03

#: Small instance: keeps CPU time per query far below the stall, so the
#: benchmark isolates wait-overlap (the only speedup one core offers).
SERVICE_SCALE = SupplierScale(
    suppliers=60, parts_per_supplier=5, agents_per_supplier=2
)


@pytest.fixture(scope="module")
def service_db():
    return build_database(generate(SERVICE_SCALE))


@pytest.fixture(scope="module")
def other_db():
    return build_database(
        generate(SupplierScale(suppliers=20, parts_per_supplier=3))
    )


def _mixed_workload() -> list[tuple[str, dict]]:
    """24 statements: the E10 audit templates bound to constants, plus
    the E12 correlated-EXISTS probe — two rounds of each."""
    items: list[tuple[str, dict]] = []
    for sql in AUDIT_TEMPLATES:
        params = {}
        if ":C" in sql:
            params["C"] = "RED"
        if ":N" in sql:
            params["N"] = 3
        items.append((sql, params))
    items.append((CORRELATED_QUERY, {"PART-NO": 3}))
    items.append((CORRELATED_QUERY, {"PART-NO": 7}))
    return items * 2


def _run_serial(db, cache, items):
    return [
        run_guarded(sql, db, params=params, plan_cache=cache)
        for sql, params in items
    ]


def _run_service(db, cache, items, workers):
    with QueryService(workers=workers, plan_cache=cache) as service:
        session = service.session(db)
        tickets = session.submit_many(items)
        return [ticket.result(timeout=120) for ticket in tickets]


def test_e15_service_throughput(service_db):
    """The headline claim: 4 service workers deliver >= 2x the serial
    throughput on a stalled mixed workload, byte-identical rows."""
    items = _mixed_workload()
    cache = PlanCache()

    # Warm phase (unstalled): plans cached, lazy indexes built — the
    # steady state a long-running service actually operates in.
    warm = _run_serial(service_db, cache, items)
    expected = [outcome.result.rows for outcome in warm]

    rows_by_workers = {}
    with FAULTS.inject(SITE_PLAN_CACHE, kind="slow", delay=STALL):
        serial_outcomes, t_serial = timed(
            lambda: _run_serial(service_db, cache, items)
        )
        timings = {}
        for workers in (1, 2, 4):
            outcomes, elapsed = timed(
                lambda w=workers: _run_service(service_db, cache, items, w)
            )
            timings[workers] = elapsed
            rows_by_workers[workers] = [o.result.rows for o in outcomes]

    report = ExperimentReport(
        experiment="E15a: mixed E10/E12 workload, serial loop vs service",
        claim="service workers overlap per-query stalls; one core still "
        "serves >= 2x the serial throughput",
        columns=["mode", "statements", "t(s)", "qps", "speedup"],
        slug="e15",
    )
    n = len(items)
    report.add_row("serial loop", n, t_serial, n / t_serial, 1.0)
    for workers in (1, 2, 4):
        elapsed = timings[workers]
        report.add_row(
            f"service x{workers}",
            n,
            elapsed,
            n / elapsed,
            speedup(t_serial, elapsed),
        )
    report.note(
        f"{STALL * 1000:.0f}ms simulated I/O stall per statement; "
        "warm plan cache and indexes; GIL-bound compute is not sped up, "
        "only the stalls overlap"
    )
    report.show()

    # Correctness before performance: every serving mode returned the
    # exact serial row sequences, statement by statement.
    assert [o.result.rows for o in serial_outcomes] == expected
    for workers, rows in rows_by_workers.items():
        assert rows == expected, f"service x{workers} diverged from serial"

    ratio = speedup(t_serial, timings[4])
    assert ratio >= 2.0, f"4-worker service only {ratio:.2f}x serial"


def test_e15_session_isolation_under_stall(service_db, other_db):
    """Two sessions on different databases share one service and one
    plan cache while every statement stalls: zero cross-session rows."""
    items = _mixed_workload()
    cache = PlanCache()
    expected_a = [o.result.rows for o in _run_serial(service_db, cache, items)]
    expected_b = [o.result.rows for o in _run_serial(other_db, cache, items)]
    assert expected_a != expected_b  # differently sized instances

    with FAULTS.inject(SITE_PLAN_CACHE, kind="slow", delay=STALL / 2):
        with QueryService(workers=4, plan_cache=cache) as service:
            session_a = service.session(service_db, name="tenant-a")
            session_b = service.session(other_db, name="tenant-b")
            tickets = []
            for item in items:  # interleave to maximize cross-talk risk
                tickets.append(("a", service.submit(session_a, *item)))
                tickets.append(("b", service.submit(session_b, *item)))
            _, elapsed = timed(
                lambda: [t.result(timeout=120) for _, t in tickets]
            )
    served_a = [t.result().result.rows for tag, t in tickets if tag == "a"]
    served_b = [t.result().result.rows for tag, t in tickets if tag == "b"]

    report = ExperimentReport(
        experiment="E15b: two tenants, one service, one plan cache",
        claim="fingerprint-keyed shared caches cannot leak rows between "
        "sessions on different databases",
        columns=["session", "statements", "rows", "mismatches"],
        slug="e15",
    )
    mismatches_a = sum(1 for got, want in zip(served_a, expected_a) if got != want)
    mismatches_b = sum(1 for got, want in zip(served_b, expected_b) if got != want)
    report.add_row(
        "tenant-a", len(items), sum(len(r) for r in served_a), mismatches_a
    )
    report.add_row(
        "tenant-b", len(items), sum(len(r) for r in served_b), mismatches_b
    )
    report.note(
        f"{2 * len(items)} interleaved statements drained in {elapsed:.2f}s "
        "by 4 workers"
    )
    report.show()

    assert mismatches_a == 0 and mismatches_b == 0
    assert session_a.snapshot()["completed"] == len(items)
    assert session_b.snapshot()["completed"] == len(items)
