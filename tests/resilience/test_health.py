"""The degradation ladder's state machine, on a fake clock: error
budgets, sticky demotion, probation probes, geometric backoff, and the
relevance gating that keeps irrelevant traffic off the budgets."""

from __future__ import annotations

import pytest

from repro.observe.metrics import MetricsRegistry
from repro.resilience.health import (
    LADDER,
    STATE_DEGRADED,
    STATE_HEALTHY,
    STATE_PROBATION,
    SUBSYSTEM_ESTIMATOR,
    SUBSYSTEM_OPTIMIZER,
    SUBSYSTEM_PLAN_CACHE,
    SUBSYSTEMS,
    HealthPolicy,
    HealthTracker,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


POLICY = HealthPolicy(
    budget=3,
    window=10.0,
    probation_delay=1.0,
    max_probation_delay=8.0,
    probe_every=2,
    promote_after=2,
)


def make_tracker(metrics=None):
    clock = FakeClock()
    return HealthTracker(POLICY, metrics=metrics, clock=clock), clock


def grant(tracker, subsystem):
    """One decision over a single relevant subsystem."""
    return tracker.decide({subsystem: True})


def test_policy_validation():
    with pytest.raises(ValueError):
        HealthPolicy(budget=0)
    with pytest.raises(ValueError):
        HealthPolicy(window=0.0)
    with pytest.raises(ValueError):
        HealthPolicy(max_probation_delay=0.5, probation_delay=1.0)
    with pytest.raises(ValueError):
        HealthPolicy(promote_after=0)


def test_all_rungs_start_healthy():
    tracker, _ = make_tracker()
    assert tracker.healthy()
    assert tracker.tiers() == {
        name: LADDER[name][0] for name in SUBSYSTEMS
    }


def test_budget_exhaustion_demotes():
    tracker, _ = make_tracker()
    for _ in range(POLICY.budget - 1):
        tracker.record(SUBSYSTEM_ESTIMATOR, faults=1)
        assert tracker.state(SUBSYSTEM_ESTIMATOR) == STATE_HEALTHY
    tracker.record(SUBSYSTEM_ESTIMATOR, faults=1)
    assert tracker.state(SUBSYSTEM_ESTIMATOR) == STATE_DEGRADED
    assert tracker.tier(SUBSYSTEM_ESTIMATOR) == "heuristic"
    assert not tracker.healthy()


# The budget, probation and backoff mechanics are the same for every
# rung, so the tests below run over all of LADDER rather than naming one.


def test_faults_outside_the_window_are_forgotten():
    for rung in LADDER:
        tracker, clock = make_tracker()
        tracker.record(rung, faults=POLICY.budget - 1)
        clock.advance(POLICY.window + 1.0)  # the old faults age out
        tracker.record(rung, faults=POLICY.budget - 1)
        assert tracker.state(rung) == STATE_HEALTHY, rung


def test_demotion_is_sticky_until_the_probation_delay():
    tracker, clock = make_tracker()
    tracker.record(SUBSYSTEM_OPTIMIZER, faults=POLICY.budget)
    # Inside the delay: every decision takes the degraded tier.
    decision = grant(tracker, SUBSYSTEM_OPTIMIZER)
    assert decision.use[SUBSYSTEM_OPTIMIZER] is False
    assert tracker.state(SUBSYSTEM_OPTIMIZER) == STATE_DEGRADED
    # After the delay: probation begins.
    clock.advance(POLICY.probation_delay)
    grant(tracker, SUBSYSTEM_OPTIMIZER)
    assert tracker.state(SUBSYSTEM_OPTIMIZER) == STATE_PROBATION


def test_probe_cadence_follows_probe_every():
    tracker, clock = make_tracker()
    tracker.record(SUBSYSTEM_PLAN_CACHE, faults=POLICY.budget)
    clock.advance(POLICY.probation_delay)
    # probe_every=2: odd decisions stay degraded, even ones probe.
    first = grant(tracker, SUBSYSTEM_PLAN_CACHE)
    second = grant(tracker, SUBSYSTEM_PLAN_CACHE)
    assert first.use[SUBSYSTEM_PLAN_CACHE] is False
    assert second.use[SUBSYSTEM_PLAN_CACHE] is True
    assert second.probes == {SUBSYSTEM_PLAN_CACHE: True}


def test_clean_probes_repromote_and_reset():
    tracker, clock = make_tracker()
    tracker.record(SUBSYSTEM_ESTIMATOR, faults=POLICY.budget)
    clock.advance(POLICY.probation_delay)
    promoted = 0
    while tracker.state(SUBSYSTEM_ESTIMATOR) != STATE_HEALTHY:
        decision = grant(tracker, SUBSYSTEM_ESTIMATOR)
        if decision.use.get(SUBSYSTEM_ESTIMATOR):
            tracker.record(SUBSYSTEM_ESTIMATOR, ok=True, probe=True)
            promoted += 1
    assert promoted == POLICY.promote_after
    assert tracker.tier(SUBSYSTEM_ESTIMATOR) == "stats"
    # Promotion cleared the budget: one new fault must not re-demote.
    tracker.record(SUBSYSTEM_ESTIMATOR, faults=1)
    assert tracker.state(SUBSYSTEM_ESTIMATOR) == STATE_HEALTHY


def test_dirty_probe_redemotes_with_doubled_delay():
    for rung in LADDER:
        tracker, clock = make_tracker()
        tracker.record(rung, faults=POLICY.budget)
        clock.advance(POLICY.probation_delay)
        while not grant(tracker, rung).use.get(rung):
            pass  # reach the probe slot
        tracker.record(rung, faults=1, probe=True)
        assert tracker.state(rung) == STATE_DEGRADED, rung
        # The original delay is no longer enough to re-enter probation.
        clock.advance(POLICY.probation_delay)
        grant(tracker, rung)
        assert tracker.state(rung) == STATE_DEGRADED, rung
        clock.advance(POLICY.probation_delay)  # 2x total: now it probes
        grant(tracker, rung)
        assert tracker.state(rung) == STATE_PROBATION, rung


def test_backoff_is_capped():
    for rung in LADDER:
        tracker, clock = make_tracker()
        tracker.record(rung, faults=POLICY.budget)
        # Fail many probations: delay doubles but must cap.
        for _ in range(10):
            clock.advance(POLICY.max_probation_delay)
            while not grant(tracker, rung).use.get(rung):
                pass
            tracker.record(rung, faults=1, probe=True)
        # Capped: max_probation_delay is always enough to probe again.
        clock.advance(POLICY.max_probation_delay)
        grant(tracker, rung)
        assert tracker.state(rung) == STATE_PROBATION, rung


def test_irrelevant_subsystems_never_advance_probation():
    """Traffic that cannot exercise a subsystem must not consume its
    probe slots — otherwise queries planned without statistics would
    'probe' the estimator without ever running it."""
    tracker, clock = make_tracker()
    tracker.record(SUBSYSTEM_ESTIMATOR, faults=POLICY.budget)
    clock.advance(POLICY.probation_delay)
    for _ in range(20):
        decision = tracker.decide({SUBSYSTEM_ESTIMATOR: False})
        assert SUBSYSTEM_ESTIMATOR not in decision.use
    # The probe counter never moved: the next relevant query is still
    # the first probation decision.
    first = grant(tracker, SUBSYSTEM_ESTIMATOR)
    second = grant(tracker, SUBSYSTEM_ESTIMATOR)
    assert [first.use[SUBSYSTEM_ESTIMATOR],
            second.use[SUBSYSTEM_ESTIMATOR]] == [False, True]


# -- attribution via observe() ------------------------------------------


class FakeStats:
    def __init__(self, **kwargs):
        self.estimator_fallbacks = 0
        self.stats_estimates = 0
        self.cache_skips = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.__dict__.update(kwargs)


class FakeOutcome:
    def __init__(self, mismatch=False):
        self.mismatch = mismatch


def test_observe_attributes_estimator_fallbacks():
    tracker, _ = make_tracker()
    decision = grant(tracker, SUBSYSTEM_ESTIMATOR)
    tracker.observe(decision, stats=FakeStats(estimator_fallbacks=POLICY.budget))
    assert tracker.state(SUBSYSTEM_ESTIMATOR) == STATE_DEGRADED


def test_observe_attributes_mismatch_to_the_optimizer():
    tracker, _ = make_tracker()
    for _ in range(POLICY.budget):
        decision = grant(tracker, SUBSYSTEM_OPTIMIZER)
        tracker.observe(
            decision, stats=FakeStats(), outcome=FakeOutcome(mismatch=True)
        )
    assert tracker.tier(SUBSYSTEM_OPTIMIZER) == "off"


def test_observe_attributes_cache_skips_to_the_plan_cache():
    tracker, _ = make_tracker()
    decision = grant(tracker, SUBSYSTEM_PLAN_CACHE)
    tracker.observe(decision, stats=FakeStats(cache_skips=POLICY.budget))
    assert tracker.tier(SUBSYSTEM_PLAN_CACHE) == "bypass"


def test_observe_never_blames_a_rung_that_was_not_granted():
    """Whatever went wrong, a rung the execution did not use is not at
    fault — and a bare engine error carries no rung's fault signal."""
    everything_wrong = dict(
        stats=FakeStats(
            cache_skips=POLICY.budget,
            estimator_fallbacks=POLICY.budget,
        ),
        outcome=FakeOutcome(mismatch=True),
        error=RuntimeError("boom"),
    )
    for rung in LADDER:
        tracker, _ = make_tracker()
        for _ in range(POLICY.budget):
            tracker.observe(tracker.decide({rung: False}), **everything_wrong)
            tracker.observe(
                grant(tracker, rung), stats=FakeStats(), error=RuntimeError("boom")
            )
        assert tracker.healthy(), rung


def test_metrics_counters_and_gauges():
    metrics = MetricsRegistry()
    tracker, clock = make_tracker(metrics)
    tracker.record(SUBSYSTEM_ESTIMATOR, faults=POLICY.budget)
    assert metrics.value(
        "health_demotions_total", subsystem=SUBSYSTEM_ESTIMATOR
    ) == 1
    assert metrics.value(
        "health_degraded", subsystem=SUBSYSTEM_ESTIMATOR
    ) == 1.0
    clock.advance(POLICY.probation_delay)
    while tracker.state(SUBSYSTEM_ESTIMATOR) != STATE_HEALTHY:
        decision = grant(tracker, SUBSYSTEM_ESTIMATOR)
        if decision.use.get(SUBSYSTEM_ESTIMATOR):
            tracker.record(SUBSYSTEM_ESTIMATOR, ok=True, probe=True)
    assert metrics.value(
        "health_promotions_total", subsystem=SUBSYSTEM_ESTIMATOR
    ) == 1
    assert metrics.value(
        "health_degraded", subsystem=SUBSYSTEM_ESTIMATOR
    ) == 0.0


def test_snapshot_is_json_ready():
    import json

    tracker, _ = make_tracker()
    tracker.record(SUBSYSTEM_OPTIMIZER, faults=1)
    snapshot = tracker.snapshot()
    assert set(snapshot) == set(SUBSYSTEMS)
    assert snapshot[SUBSYSTEM_OPTIMIZER]["faults_in_window"] == 1
    json.dumps(snapshot)  # must not raise
