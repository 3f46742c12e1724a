"""Guarded execution: fault injection, budgets, retry, verified fallback.

This package hardens the fast paths PR 1 introduced.  Three pillars,
plus the self-protection layer PR 7 added:

* :mod:`~repro.resilience.faults` — a deterministic, seedable
  :class:`FaultInjector` with named hook sites inside the plan cache,
  hash-index build, operator loops, fingerprints, Algorithm 1 verdicts,
  DL/I, the HTTP accept/read/write paths and the commit apply.
* :mod:`~repro.resilience.budgets` — per-query
  :class:`ResourceBudget`/:class:`ExecutionGuard` (wall-clock timeout,
  row budgets, cooperative cancellation) checked from operator loops.
* :mod:`~repro.resilience.guarded` — :func:`run_guarded`, the verified
  entry point: budgets threaded through execution, and ``safe_mode``
  cross-checking uniqueness-based rewrites against the unrewritten
  plan, quarantining rules and evicting poisoned cache entries on a
  mismatch.
* :mod:`~repro.resilience.deadline` /
  :mod:`~repro.resilience.admission` /
  :mod:`~repro.resilience.breaker` — end-to-end :class:`Deadline`
  propagation, priority-aware adaptive load shedding, and the
  client-side :class:`CircuitBreaker`.  A fallback handles its fault
  per query: safe mode quarantines a mismatching rewrite, the plan
  cache skips itself fail-closed, and the estimator falls back to the
  heuristic model.

Import discipline: this ``__init__`` pulls in only the leaf modules
(faults/budgets/retry/deadline/admission/breaker), which depend
on nothing but :mod:`repro.errors`.  :mod:`~repro.resilience.guarded`
imports the engine — which imports :mod:`repro.cache`, which imports
:mod:`repro.resilience.faults` — so it is exposed lazily (PEP 562) to
keep the import graph acyclic.
"""

from __future__ import annotations

from typing import Any

from .admission import (
    AdmissionController,
    PRIORITIES,
    PRIORITY_BATCH,
    PRIORITY_HEADER,
    PRIORITY_INTERACTIVE,
    SheddingPolicy,
)
from .breaker import CircuitBreaker
from .budgets import CLOCK_CHECK_INTERVAL, ExecutionGuard, ResourceBudget
from .deadline import DEADLINE_HEADER, Deadline
from .faults import (
    ALL_SITES,
    FAULTS,
    FaultInjector,
    FaultSpec,
    SITE_DLI,
    SITE_FINGERPRINT,
    SITE_INDEX_BUILD,
    SITE_NET_ACCEPT,
    SITE_NET_READ,
    SITE_NET_WRITE,
    SITE_OPERATOR,
    SITE_PLAN_CACHE,
    SITE_UNIQUENESS,
    SITE_WAL_COMMIT,
)
from .retry import RetryPolicy, call_with_retry

_LAZY = ("run_guarded", "GuardedOutcome", "reset_safe_mode_sampling")

__all__ = [
    "ALL_SITES",
    "AdmissionController",
    "CLOCK_CHECK_INTERVAL",
    "CircuitBreaker",
    "DEADLINE_HEADER",
    "Deadline",
    "ExecutionGuard",
    "FAULTS",
    "FaultInjector",
    "FaultSpec",
    "GuardedOutcome",
    "PRIORITIES",
    "PRIORITY_BATCH",
    "PRIORITY_HEADER",
    "PRIORITY_INTERACTIVE",
    "ResourceBudget",
    "RetryPolicy",
    "SITE_DLI",
    "SITE_FINGERPRINT",
    "SITE_INDEX_BUILD",
    "SITE_NET_ACCEPT",
    "SITE_NET_READ",
    "SITE_NET_WRITE",
    "SITE_OPERATOR",
    "SITE_PLAN_CACHE",
    "SITE_UNIQUENESS",
    "SITE_WAL_COMMIT",
    "SheddingPolicy",
    "call_with_retry",
    "reset_safe_mode_sampling",
    "run_guarded",
]


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from . import guarded

        return getattr(guarded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
