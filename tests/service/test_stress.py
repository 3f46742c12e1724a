"""Multi-thread stress tests for the concurrency-safe shared state.

Eight threads hammer the plan cache and the lazy index builds — the two
shared structures a concurrent service leans on hardest — and the
assertions are exact, not statistical: counter accounting must balance
to the op count (no lost updates), and a races-to-build index must be
built exactly once (single-flight).
"""

import threading

import pytest

from repro import Database, PlannerOptions, Stats
from repro.engine import execute_planned
from repro.cache import LRUCache, MISSING
from repro.engine.plan_cache import PlanCache
from repro.errors import InjectedFaultError
from repro.resilience import FAULTS, SITE_INDEX_BUILD
from repro.workloads import SupplierScale, build_database, generate

THREADS = 8
OPS = 200


def _run_threads(worker) -> list:
    """Start THREADS copies of *worker* behind a barrier; re-raise the
    first error any of them hit."""
    barrier = threading.Barrier(THREADS)
    errors: list[BaseException] = []

    def wrapped(index: int) -> None:
        barrier.wait()
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - collected for re-raise
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return errors


def test_lru_cache_counters_balance_under_contention():
    """hits + misses must equal the exact number of lookups, and every
    stored entry must be retrievable — no lost updates, no torn LRU."""
    cache = LRUCache("stress-lru", maxsize=THREADS * OPS * 2)

    def worker(index: int) -> None:
        for op in range(OPS):
            key = (index, op)
            assert cache.get(key) is MISSING  # distinct keys: first miss
            cache.put(key, op)
            assert cache.get(key) == op  # then a guaranteed hit

    _run_threads(worker)
    stats = cache.stats()
    assert stats["misses"] == THREADS * OPS
    assert stats["hits"] == THREADS * OPS
    assert stats["entries"] == THREADS * OPS


def test_plan_cache_get_put_stress():
    """Eight threads lookup/store through the PlanCache wrapper; the
    counter ledger must balance exactly."""
    cache = PlanCache(maxsize=THREADS * OPS * 2)
    sentinel_plans = {}

    def worker(index: int) -> None:
        for op in range(OPS):
            key = ("fp", f"SELECT {index}", op)
            if cache.lookup(key) is None:
                cache.store(key, sentinel_plans.setdefault(index, object()))
            assert cache.lookup(key) is sentinel_plans[index]

    _run_threads(worker)
    # Per thread: OPS first-lookup misses + OPS verification hits.
    assert cache.misses == THREADS * OPS
    assert cache.hits == THREADS * OPS


def test_single_flight_index_build():
    """Eight threads race one lazy index build: exactly one build runs,
    everyone gets the same index object."""
    db = build_database(
        generate(SupplierScale(suppliers=200, parts_per_supplier=5))
    )
    data = db.table("PARTS")
    results: dict[int, dict] = {}

    # Slow the (single) builder down so the other threads demonstrably
    # arrive while the build is in flight and park on the event.
    with FAULTS.inject(SITE_INDEX_BUILD, kind="slow", delay=0.05, times=1):

        def worker(index: int) -> None:
            results[index] = data.hash_index(("SNO",))

        _run_threads(worker)

    assert data.index_builds == 1, "duplicate index build under race"
    first = results[0]
    assert all(results[i] is first for i in range(THREADS))
    assert data.single_flight_waits >= 1


def test_failed_index_build_does_not_wedge():
    """A builder that dies must clean up the in-flight marker so the
    next caller can build."""
    db = build_database(generate(SupplierScale(suppliers=20)))
    data = db.table("SUPPLIER")
    with FAULTS.inject(SITE_INDEX_BUILD, times=1):
        with pytest.raises(InjectedFaultError):
            data.hash_index(("SNO",))
        # Retry inside the armed window: the fault only fires once.
        index = data.hash_index(("SNO",))
    assert index is data.hash_index(("SNO",))
    assert data.index_builds == 1


def test_stats_stay_private_per_thread():
    """Concurrent executions with private Stats sinks: each execution's
    ledger must balance on its own (plan-cache hit+miss == 1 per run),
    proving no cross-thread counter bleed."""
    db = build_database(generate(SupplierScale(suppliers=30)))
    cache = PlanCache(maxsize=64)
    sql = "SELECT SNO, SNAME FROM SUPPLIER WHERE SCITY = 'Toronto'"
    per_thread: dict[int, Stats] = {}

    def worker(index: int) -> None:
        stats = Stats()
        for _ in range(20):
            execute_planned(
                sql,
                db,
                stats=stats,
                options=PlannerOptions(),
                plan_cache=cache,
            )
        per_thread[index] = stats

    _run_threads(worker)
    total = Stats()
    for stats in per_thread.values():
        assert stats.plan_cache_hits + stats.plan_cache_misses == 20
        total = total + stats
    assert total.plan_cache_hits + total.plan_cache_misses == THREADS * 20
    # The underlying shared cache saw every lookup exactly once.
    assert cache.hits + cache.misses == THREADS * 20
