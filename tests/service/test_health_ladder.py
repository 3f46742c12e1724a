"""The degradation ladder end to end through the query service: a
storm of plan-cache faults demotes the plan cache to the bypass tier
(results stay correct), queries during the demotion never touch the
shared cache, and once the storm passes probation re-promotes."""

from __future__ import annotations

import time
from collections import Counter

import pytest

from repro import Connection, QueryService
from repro.options import ExecutionOptions
from repro.resilience import FAULTS, SITE_PLAN_CACHE
from repro.resilience.health import (
    STATE_HEALTHY,
    SUBSYSTEM_ESTIMATOR,
    SUBSYSTEM_PLAN_CACHE,
    HealthPolicy,
)
from repro.types.values import row_sort_key
from repro.workloads import SupplierScale, build_database, generate

SQL = "SELECT P.PNO, P.PNAME FROM PARTS P WHERE P.COLOR = 'RED'"

#: Tight budget and a short probation so the full demote → probe →
#: promote cycle fits in a fast test.
POLICY = HealthPolicy(
    budget=2,
    window=30.0,
    probation_delay=0.05,
    max_probation_delay=0.2,
    probe_every=1,
    promote_after=2,
)


@pytest.fixture(scope="module")
def db():
    return build_database(
        generate(SupplierScale(suppliers=12, parts_per_supplier=4))
    )


def run_one(service, session):
    return service.submit(session, SQL).result(30)


def test_fault_storm_demotes_then_probation_repromotes(db):
    with Connection.local(db) as conn:
        expected = Counter(
            row_sort_key(row) for row in conn.execute(SQL).fetchall()
        )
    with QueryService(workers=1, health_policy=POLICY) as service:
        session = service.session(db)

        # Storm: every cache lookup blows up; each query re-plans
        # (correct answers) and burns error budget.
        with FAULTS.inject(SITE_PLAN_CACHE, times=1000):
            for _ in range(POLICY.budget + 1):
                outcome = run_one(service, session)
                assert outcome.result.multiset() == expected
                assert outcome.stats.cache_skips == 1
            assert service.health.tier(SUBSYSTEM_PLAN_CACHE) == "bypass"
            faults = service.health.snapshot()[SUBSYSTEM_PLAN_CACHE][
                "faults_in_window"
            ]

            # Still demoted and still inside the storm: queries take the
            # bypass tier, so nothing they do reaches the ladder.
            outcome = run_one(service, session)
            assert outcome.result.multiset() == expected
            assert outcome.stats.plan_cache_hits == 0
            snapshot = service.health.snapshot()[SUBSYSTEM_PLAN_CACHE]
            assert snapshot["faults_in_window"] == faults

        # Storm over: wait out probation, then clean probes re-promote.
        deadline = time.monotonic() + 10.0
        while (
            service.health.state(SUBSYSTEM_PLAN_CACHE) != STATE_HEALTHY
            and time.monotonic() < deadline
        ):
            run_one(service, session)
            time.sleep(0.02)
        assert service.health.state(SUBSYSTEM_PLAN_CACHE) == STATE_HEALTHY
        assert service.health.tier(SUBSYSTEM_PLAN_CACHE) == "cache"

        # Healthy again: the shared cache serves the plan.
        outcome = run_one(service, session)
        assert outcome.stats.plan_cache_hits == 1
        assert outcome.result.multiset() == expected

    # The whole episode is on the metrics ledger.
    assert service.metrics.value(
        "health_demotions_total", subsystem=SUBSYSTEM_PLAN_CACHE
    ) >= 1
    assert service.metrics.value(
        "health_promotions_total", subsystem=SUBSYSTEM_PLAN_CACHE
    ) >= 1
    assert service.metrics.value(
        "health_degraded", subsystem=SUBSYSTEM_PLAN_CACHE
    ) == 0.0


def test_statistics_free_traffic_never_exercises_the_ladder(db):
    """Queries that do not plan from statistics must not feed the
    estimator's budget or its probation counters, whatever else fails
    under them."""
    with QueryService(workers=1, health_policy=POLICY) as service:
        session = service.session(db)
        with FAULTS.inject(SITE_PLAN_CACHE, times=1000):
            for _ in range(POLICY.budget * 3):
                service.submit(session, SQL).result(30)
        snapshot = service.health.snapshot()[SUBSYSTEM_ESTIMATOR]
        assert snapshot["state"] == STATE_HEALTHY
        assert snapshot["faults_in_window"] == 0
        assert snapshot["probes"] == 0


def test_analyze_reports_the_current_tiers(db):
    with QueryService(workers=1, health_policy=POLICY) as service:
        session = service.session(db)
        outcome = service.submit(
            session,
            SQL,
            options=ExecutionOptions.create(analyze=True),
        ).result(30)
        assert outcome.analysis is not None
        assert outcome.analysis.health is not None
        assert outcome.analysis.health[SUBSYSTEM_ESTIMATOR] in (
            "stats",
            "heuristic",
        )
        assert "health" in outcome.analysis.to_dict()
