"""Keyed cache of physical plans.

Planning a query — parsing, conjunct classification, join-key matching,
access-path selection — costs more than executing it on small inputs,
and templated workloads (the batch audits, correlated probes, prepared
statements) plan the same text over and over.  The cache maps

    (database fingerprint, query text, planner options) -> PlanNode

Physical plans hold no per-execution state (operators allocate their
hash tables and sort buffers inside ``rows()``), so a cached plan can be
re-executed freely, including with different host-variable bindings —
``HostVar`` keys resolve at execution time.

Keying on the *database* fingerprint (not just the catalog's) means any
DDL **or row mutation** invalidates implicitly: plans embed data-derived
choices (hash-join build side) and stay honest this way, at worst
re-planning after a load.
"""

from __future__ import annotations

from ..cache import MISSING, LRUCache
from ..resilience.faults import FAULTS, SITE_PLAN_CACHE
from .operators import PlanNode


#: Entries of the process-wide plan cache (and of the rewrite memo in
#: front of it, which keeps one outcome per planned text).
PLAN_CACHE_SIZE = 256


class PlanCache:
    """LRU cache of physical plans, shared by ``execute_planned``."""

    def __init__(self, maxsize: int = PLAN_CACHE_SIZE) -> None:
        self._cache = LRUCache("plans", maxsize=maxsize)

    def lookup(self, key: tuple) -> PlanNode | None:
        """The cached plan for *key*, or None (also when disabled).

        A ``plan_cache`` fault raises here; ``execute_planned`` treats
        any lookup failure as a miss and re-plans (verified fallback).
        """
        if FAULTS.armed:
            FAULTS.check(SITE_PLAN_CACHE)
        plan = self._cache.get(key)
        return None if plan is MISSING else plan

    def store(self, key: tuple, plan: PlanNode) -> None:
        self._cache.put(key, plan)

    def clear(self) -> None:
        self._cache.clear()

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses


#: Process-wide default used by ``execute_planned``.
GLOBAL_PLAN_CACHE = PlanCache()
