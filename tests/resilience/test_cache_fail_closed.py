"""Fail-closed fingerprints: a broken fingerprint disables caching.

The regression staged here is the dangerous alternative: if fingerprint
failures fell back to some constant key, two *different* database states
would collide on one cache entry and a stale plan or verdict would be
served.  The contract is: no fingerprint, no cache — compute fresh,
serve correct, store nothing.
"""

import pytest

from repro import Stats, clear_all_caches, test_uniqueness
from repro.engine import execute_planned
from repro.cache import safe_fingerprint
from repro.core.strategy import StrategySelector
from repro.engine import Database
from repro.errors import QueryTimeout
from repro.resilience import FAULTS, SITE_FINGERPRINT

SQL = "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = 2"
DISTINCT_SQL = "SELECT DISTINCT S.SNO FROM SUPPLIER S"


class Broken:
    def fingerprint(self):
        raise RuntimeError("fingerprint storage unreadable")


class Fine:
    def fingerprint(self):
        return ("v", 1)


def test_safe_fingerprint_returns_none_on_failure():
    assert safe_fingerprint(Broken()) is None
    assert safe_fingerprint(Fine()) == ("v", 1)
    assert safe_fingerprint(object()) is None  # no method at all


def test_safe_fingerprint_never_swallows_resource_errors():
    class GuardTripped:
        def fingerprint(self):
            raise QueryTimeout(0.1, 0.2)

    with pytest.raises(QueryTimeout):
        safe_fingerprint(GuardTripped())


def test_execute_planned_skips_cache_when_fingerprint_fails(
    tiny_db, monkeypatch
):
    expected = execute_planned(SQL, tiny_db)

    # Break the schema fingerprint both key shapes build on: the
    # table-scoped key reads it directly, and the whole-database
    # fallback folds it into Database.fingerprint().
    from repro.catalog.schema import Catalog

    monkeypatch.setattr(
        Catalog,
        "fingerprint",
        lambda self: (_ for _ in ()).throw(RuntimeError("broken")),
    )
    for _ in range(2):
        stats = Stats()
        result = execute_planned(SQL, tiny_db, stats=stats)
        assert result.same_rows(expected)
        assert stats.cache_skips == 1
        # Every run replans: nothing was served from or stored in cache.
        assert stats.plan_cache_misses == 1
        assert stats.plan_cache_hits == 0


def test_fingerprint_fault_site_covers_all_consumers(tiny_db):
    expected = execute_planned(SQL, tiny_db)
    clean_verdict = test_uniqueness(DISTINCT_SQL, tiny_db.catalog).unique

    with FAULTS.inject(SITE_FINGERPRINT, times=None):
        stats = Stats()
        result = execute_planned(SQL, tiny_db, stats=stats)
        assert result.same_rows(expected)
        assert stats.cache_skips == 1

        # Algorithm 1 still answers, uncached, and twice identically.
        assert test_uniqueness(DISTINCT_SQL, tiny_db.catalog).unique is clean_verdict
        assert test_uniqueness(DISTINCT_SQL, tiny_db.catalog).unique is clean_verdict

        # Strategy selection still picks a plan.
        choice = StrategySelector(tiny_db).choose(DISTINCT_SQL)
        assert choice.candidates


def test_no_stale_entry_after_fingerprint_outage(tiny_db):
    """Nothing written during the outage may shadow the recovered state."""
    expected = execute_planned(SQL, tiny_db)
    clear_all_caches()  # forget the entry the baseline run stored
    with FAULTS.inject(SITE_FINGERPRINT):
        execute_planned(SQL, tiny_db)

    # Fingerprint works again: first run is a genuine miss (the outage
    # stored nothing), second is a hit — and both are correct.
    miss_stats = Stats()
    assert execute_planned(SQL, tiny_db, stats=miss_stats).same_rows(expected)
    hit_stats = Stats()
    assert execute_planned(SQL, tiny_db, stats=hit_stats).same_rows(expected)
    assert miss_stats.plan_cache_misses == 1
    assert hit_stats.plan_cache_hits == 1
