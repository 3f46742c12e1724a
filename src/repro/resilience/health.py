"""The self-healing degradation ladder: error budgets per subsystem.

Every fast path has a verified fallback — compiled predicate →
interpreter, cached plan → replan — but each query re-trips the same
fallback from scratch: a sick subsystem fails, falls back, and is tried
again on the very next query, forever.  This module converts
*repeated* fallback events into **sticky demotions** with timed
probation, the way the QueryTorque exemplar routes an observed failure
symptom to a concrete remediation tier instead of retrying blindly.

Three rungs, one per accelerating subsystem (each demotion lands on the
verified slow-but-correct tier, so a demotion can never change an
answer, only a latency):

==============  ===============  ==============
subsystem       healthy tier     degraded tier
==============  ===============  ==============
``optimizer``   ``on``           ``off``
``plan_cache``  ``cache``        ``bypass``
``estimator``   ``stats``        ``heuristic``
==============  ===============  ==============

Error-budget math: each subsystem keeps the timestamps of its recent
fault events inside a sliding ``window`` (seconds).  While **healthy**,
reaching ``budget`` faults inside the window demotes the subsystem.
While **demoted**, every query takes the degraded tier — no fault can
even occur — until ``probation_delay`` seconds have passed; then the
subsystem enters **probation** and every ``probe_every``-th query runs
the healthy tier as a *probe*.  ``promote_after`` consecutive clean
probes re-promote (and zero the budget); a single dirty probe re-demotes
with the probation delay doubled (capped), so a persistently sick
subsystem probes geometrically less often.

The tracker is deliberately **service-scoped**, not process-global:
each :class:`~repro.service.QueryService` owns one, the HTTP server
exposes it under ``/healthz`` and Prometheus, and tests get perfect
isolation.  It never imports the engine — tier decisions are plain
strings interpreted by :func:`repro.api.run_with_options`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

# Subsystem names (the ladder's rungs).
SUBSYSTEM_OPTIMIZER = "optimizer"
SUBSYSTEM_PLAN_CACHE = "plan_cache"
SUBSYSTEM_ESTIMATOR = "estimator"

SUBSYSTEMS = (
    SUBSYSTEM_OPTIMIZER,
    SUBSYSTEM_PLAN_CACHE,
    SUBSYSTEM_ESTIMATOR,
)

#: subsystem → (healthy tier label, degraded tier label).
LADDER: dict[str, tuple[str, str]] = {
    SUBSYSTEM_OPTIMIZER: ("on", "off"),
    SUBSYSTEM_PLAN_CACHE: ("cache", "bypass"),
    SUBSYSTEM_ESTIMATOR: ("stats", "heuristic"),
}

# Health states.
STATE_HEALTHY = "healthy"
STATE_DEGRADED = "degraded"
STATE_PROBATION = "probation"


@dataclass(frozen=True)
class HealthPolicy:
    """Error-budget and probation tuning, shared by all subsystems.

    Attributes:
        budget: fault events inside the window that trigger a demotion.
        window: sliding window width in seconds.
        probation_delay: seconds a demotion stays sticky before the
            first probe; doubles after each failed probation, up to
            ``max_probation_delay``.
        probe_every: in probation, every n-th query runs the healthy
            tier as a probe (the rest stay degraded).
        promote_after: consecutive clean probes that re-promote.
    """

    budget: int = 5
    window: float = 30.0
    probation_delay: float = 2.0
    max_probation_delay: float = 60.0
    probe_every: int = 1
    promote_after: int = 3

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.window <= 0 or self.probation_delay <= 0:
            raise ValueError("window and probation_delay must be positive")
        if self.max_probation_delay < self.probation_delay:
            raise ValueError("max_probation_delay must be >= probation_delay")
        if self.probe_every < 1 or self.promote_after < 1:
            raise ValueError("probe_every and promote_after must be >= 1")


class SubsystemHealth:
    """One rung's state machine.  Not thread-safe on its own — the
    owning :class:`HealthTracker` serializes access under its lock."""

    def __init__(
        self,
        name: str,
        policy: HealthPolicy,
        clock: Callable[[], float],
    ) -> None:
        self.name = name
        self.policy = policy
        self._clock = clock
        self.state = STATE_HEALTHY
        self._faults: deque[float] = deque()
        self._demoted_at = 0.0
        self._current_delay = policy.probation_delay
        self._probe_counter = 0
        self._clean_probes = 0
        self.demotions = 0
        self.promotions = 0
        self.probes = 0

    # -- decisions ------------------------------------------------------

    def decide(self) -> tuple[bool, bool]:
        """``(use_healthy_tier, is_probe)`` for the next execution."""
        if self.state == STATE_DEGRADED:
            if self._clock() - self._demoted_at >= self._current_delay:
                self.state = STATE_PROBATION
                self._probe_counter = 0
                self._clean_probes = 0
            else:
                return False, False
        if self.state == STATE_PROBATION:
            self._probe_counter += 1
            if self._probe_counter % self.policy.probe_every == 0:
                self.probes += 1
                return True, True
            return False, False
        return True, False

    # -- observations ---------------------------------------------------

    def record_fault(self, count: int, probe: bool) -> bool:
        """Fold *count* fault events; returns True if this demoted."""
        now = self._clock()
        self._prune(now)
        for _ in range(count):
            self._faults.append(now)
        if self.state == STATE_PROBATION and probe:
            # A dirty probe: back down, and back off harder.
            self._current_delay = min(
                self._current_delay * 2.0, self.policy.max_probation_delay
            )
            self._demote(now)
            return True
        if self.state == STATE_HEALTHY and (
            len(self._faults) >= self.policy.budget
        ):
            self._demote(now)
            return True
        return False

    def record_ok(self, probe: bool) -> bool:
        """Fold one clean execution; returns True if this promoted."""
        if self.state == STATE_PROBATION and probe:
            self._clean_probes += 1
            if self._clean_probes >= self.policy.promote_after:
                self.state = STATE_HEALTHY
                self._faults.clear()
                self._current_delay = self.policy.probation_delay
                self.promotions += 1
                return True
        return False

    # -- views ----------------------------------------------------------

    @property
    def tier(self) -> str:
        healthy, degraded = LADDER[self.name]
        return healthy if self.state == STATE_HEALTHY else degraded

    def snapshot(self) -> dict[str, Any]:
        self._prune(self._clock())
        return {
            "state": self.state,
            "tier": self.tier,
            "faults_in_window": len(self._faults),
            "budget": self.policy.budget,
            "demotions": self.demotions,
            "promotions": self.promotions,
            "probes": self.probes,
            "clean_probes": self._clean_probes,
        }

    # -- internals ------------------------------------------------------

    def _demote(self, now: float) -> None:
        self.state = STATE_DEGRADED
        self._demoted_at = now
        self._clean_probes = 0
        self.demotions += 1

    def _prune(self, now: float) -> None:
        horizon = now - self.policy.window
        while self._faults and self._faults[0] < horizon:
            self._faults.popleft()


@dataclass
class HealthDecision:
    """The tiers one execution was granted, for post-hoc attribution.

    ``use`` maps subsystem → whether the healthy tier was granted;
    ``probes`` marks which of those grants were probation probes.
    Subsystems irrelevant to the execution (tuple mode requested,
    optimizer off by caller choice, ...) are absent from both, so their
    budgets never see traffic that could not have exercised them.

    ``fast`` marks a decision served from the tracker's all-healthy
    fast path: a shared, effectively-immutable grant of every relevant
    subsystem, which lets :meth:`HealthTracker.observe` skip the lock
    entirely for clean executions (a healthy ``record_ok`` is a no-op).
    """

    use: dict[str, bool] = field(default_factory=dict)
    probes: dict[str, bool] = field(default_factory=dict)
    fast: bool = False

    def granted(self, subsystem: str) -> bool:
        return self.use.get(subsystem, False)


class HealthTracker:
    """Error-budget tracker over every ladder rung, service-scoped.

    Thread-safe leaf: one lock serializes decisions and observations;
    it is never held while executing a query.  *metrics* (optional, a
    :class:`~repro.observe.metrics.MetricsRegistry`) receives demotion
    and promotion counters plus a per-subsystem degraded gauge.
    """

    def __init__(
        self,
        policy: HealthPolicy | None = None,
        *,
        metrics: Any | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy if policy is not None else HealthPolicy()
        self.metrics = metrics
        self._lock = threading.Lock()
        self._subsystems = {
            name: SubsystemHealth(name, self.policy, clock)
            for name in SUBSYSTEMS
        }
        # Fast-path state: True iff every subsystem is on its healthy
        # rung.  Read without the lock in decide()/observe() — a stale
        # True can at worst grant one more healthy-tier execution
        # during a concurrent demotion, a race the slow path has
        # anyway (decisions made just before the demoting observation
        # landed).  _fast_decisions caches one shared HealthDecision
        # per relevance combination so the healthy path allocates
        # nothing per query (benchmark E18a pins this under 5%).
        self._all_healthy = True
        self._fast_decisions: dict[tuple[str, ...], HealthDecision] = {}

    # -- decisions ------------------------------------------------------

    def decide(self, relevant: dict[str, bool]) -> HealthDecision:
        """One execution's tier grants over the *relevant* subsystems.

        *relevant* maps subsystem → whether this execution could
        exercise it at all; irrelevant subsystems are skipped entirely
        (their probation counters must not advance on traffic that
        cannot probe them).
        """
        if self._all_healthy:
            key = tuple(
                name for name, applies in relevant.items() if applies
            )
            decision = self._fast_decisions.get(key)
            if decision is None:
                decision = HealthDecision(
                    use={name: True for name in key}, fast=True
                )
                self._fast_decisions[key] = decision
            return decision
        decision = HealthDecision()
        with self._lock:
            for name, applies in relevant.items():
                if not applies:
                    continue
                use_healthy, is_probe = self._subsystems[name].decide()
                decision.use[name] = use_healthy
                if is_probe:
                    decision.probes[name] = True
                    if self.metrics is not None:
                        self.metrics.inc("health_probes_total", subsystem=name)
        return decision

    # -- observations ---------------------------------------------------

    def record(self, subsystem: str, *, faults: int = 0, ok: bool = False, probe: bool = False) -> None:
        """Feed one execution's evidence for *subsystem*."""
        self._apply([(subsystem, faults, ok, probe)])

    def _apply(
        self, evidence: list[tuple[str, int, bool, bool]]
    ) -> None:
        """Fold a batch of ``(subsystem, faults, ok, probe)`` evidence
        under one lock acquisition — the healthy path records up to
        three subsystems per query, and taking the lock once keeps that
        cost off the hot statement mix (benchmark E18a)."""
        demoted: list[str] = []
        promoted: list[str] = []
        fault_counts: list[tuple[str, int]] = []
        with self._lock:
            for subsystem, faults, ok, probe in evidence:
                sub = self._subsystems[subsystem]
                if faults > 0:
                    if sub.record_fault(faults, probe):
                        demoted.append(subsystem)
                    fault_counts.append((subsystem, faults))
                elif ok:
                    if sub.record_ok(probe):
                        promoted.append(subsystem)
            if demoted or promoted:
                self._all_healthy = all(
                    sub.state == STATE_HEALTHY
                    for sub in self._subsystems.values()
                )
        if self.metrics is not None:
            for subsystem, faults in fault_counts:
                self.metrics.inc(
                    "health_faults_total", faults, subsystem=subsystem
                )
            for subsystem in demoted:
                self.metrics.inc("health_demotions_total", subsystem=subsystem)
            for subsystem in promoted:
                self.metrics.inc("health_promotions_total", subsystem=subsystem)
            if demoted or promoted:
                with self._lock:
                    self._export_gauges()

    def observe(
        self,
        decision: HealthDecision,
        *,
        stats: Any | None = None,
        outcome: Any | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Attribute one finished execution to the subsystems it used.

        The fault signals are exactly the fallback counters the engine
        already emits, plus safe-mode mismatch events:

        * ``optimizer`` — a safe-mode mismatch (a rewrite changed the
          result and was quarantined).
        * ``plan_cache`` — ``stats.cache_skips`` (fail-closed
          fingerprint or lookup failures).
        * ``estimator`` — ``stats.estimator_fallbacks`` (statistics
          estimations demoted to the heuristic model).
        """
        if (
            decision.fast
            and error is None
            and (outcome is None or not getattr(outcome, "mismatch", False))
            and (
                stats is None
                or not (
                    getattr(stats, "cache_skips", 0)
                    or getattr(stats, "estimator_fallbacks", 0)
                )
            )
        ):
            # All-healthy decision, clean execution: every record would
            # be an ok on a healthy subsystem — a no-op.  Skip the lock.
            return
        evidence: list[tuple[str, int, bool, bool]] = []
        if decision.granted(SUBSYSTEM_OPTIMIZER):
            probe = SUBSYSTEM_OPTIMIZER in decision.probes
            if outcome is not None and getattr(outcome, "mismatch", False):
                evidence.append((SUBSYSTEM_OPTIMIZER, 1, False, probe))
            elif outcome is not None and error is None:
                evidence.append((SUBSYSTEM_OPTIMIZER, 0, True, probe))
        if decision.granted(SUBSYSTEM_PLAN_CACHE) and stats is not None:
            probe = SUBSYSTEM_PLAN_CACHE in decision.probes
            faults = getattr(stats, "cache_skips", 0)
            if faults:
                evidence.append((SUBSYSTEM_PLAN_CACHE, faults, False, probe))
            elif error is None and (
                getattr(stats, "plan_cache_hits", 0)
                + getattr(stats, "plan_cache_misses", 0)
            ):
                evidence.append((SUBSYSTEM_PLAN_CACHE, 0, True, probe))
        if decision.granted(SUBSYSTEM_ESTIMATOR) and stats is not None:
            probe = SUBSYSTEM_ESTIMATOR in decision.probes
            faults = getattr(stats, "estimator_fallbacks", 0)
            if faults:
                evidence.append((SUBSYSTEM_ESTIMATOR, faults, False, probe))
            elif error is None and getattr(stats, "stats_estimates", 0):
                evidence.append((SUBSYSTEM_ESTIMATOR, 0, True, probe))
        if evidence:
            self._apply(evidence)

    # -- views ----------------------------------------------------------

    def tier(self, subsystem: str) -> str:
        """The tier *subsystem* currently serves at."""
        with self._lock:
            return self._subsystems[subsystem].tier

    def tiers(self) -> dict[str, str]:
        """subsystem → current tier, for ``/healthz`` and EXPLAIN."""
        with self._lock:
            return {name: sub.tier for name, sub in self._subsystems.items()}

    def state(self, subsystem: str) -> str:
        with self._lock:
            return self._subsystems[subsystem].state

    def healthy(self) -> bool:
        """Whether every subsystem sits on its healthy rung."""
        with self._lock:
            return all(
                sub.state == STATE_HEALTHY
                for sub in self._subsystems.values()
            )

    def snapshot(self) -> dict[str, Any]:
        """Full JSON-ready diagnostic view of every rung."""
        with self._lock:
            return {
                name: sub.snapshot()
                for name, sub in self._subsystems.items()
            }

    # -- metrics --------------------------------------------------------

    def _export_gauges(self) -> None:
        for name, sub in self._subsystems.items():
            self.metrics.set(
                "health_degraded",
                0.0 if sub.state == STATE_HEALTHY else 1.0,
                subsystem=name,
            )

    def export(self) -> None:
        """Publish the degraded/healthy gauges (e.g. before scraping)."""
        if self.metrics is not None:
            with self._lock:
                self._export_gauges()
