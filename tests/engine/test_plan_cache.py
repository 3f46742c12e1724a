"""Plan caching: hits, misses, and fingerprint-based invalidation.

The cache key is ``(database.fingerprint(), sql_text, options)``, so a
stale plan can never be returned — DDL bumps the catalog version and any
row mutation bumps a table's data version, which both move the
fingerprint and turn the next lookup into a miss.  Host-variable values
are deliberately *not* part of the key: plans are parameterized and
resolve bindings at execution time.
"""

import pytest

from repro import Database, Stats, clear_all_caches, set_caches_enabled
from repro.engine import execute_planned
from repro.engine import GLOBAL_PLAN_CACHE, PlanCache, PlannerOptions

DDL = """
CREATE TABLE S (
    SNO INT NOT NULL,
    CITY VARCHAR(20),
    PRIMARY KEY (SNO)
);
INSERT INTO S VALUES (1, 'LONDON');
INSERT INTO S VALUES (2, 'PARIS');
"""

SQL = "SELECT SNO, CITY FROM S WHERE SNO = :N"


@pytest.fixture
def db():
    return Database.from_script(DDL)


def test_repeated_statement_hits_the_cache(db):
    cache = PlanCache()
    stats = Stats()
    first = execute_planned(SQL, db, params={"N": 1}, stats=stats, plan_cache=cache)
    second = execute_planned(SQL, db, params={"N": 1}, stats=stats, plan_cache=cache)
    assert first.same_rows(second)
    assert (cache.misses, cache.hits) == (1, 1)
    assert (stats.plan_cache_misses, stats.plan_cache_hits) == (1, 1)


def test_host_variable_values_are_not_part_of_the_key(db):
    cache = PlanCache()
    london = execute_planned(SQL, db, params={"N": 1}, plan_cache=cache)
    paris = execute_planned(SQL, db, params={"N": 2}, plan_cache=cache)
    # One plan, two correct parameterized executions.
    assert (cache.misses, cache.hits) == (1, 1)
    assert [row[1] for row in london.rows] == ["LONDON"]
    assert [row[1] for row in paris.rows] == ["PARIS"]


def test_planner_options_are_part_of_the_key(db):
    cache = PlanCache()
    sql = "SELECT SNO FROM S"
    execute_planned(sql, db, plan_cache=cache)
    execute_planned(
        sql, db, plan_cache=cache, options=PlannerOptions(join_method="nested")
    )
    assert cache.misses == 2  # different options, different plans


def test_data_mutation_invalidates_cached_plans(db):
    cache = PlanCache()
    sql = "SELECT SNO FROM S WHERE CITY = 'OSLO'"
    before = execute_planned(sql, db, plan_cache=cache)
    assert before.rows == []
    db.load("S", [(3, "OSLO")])
    after = execute_planned(sql, db, plan_cache=cache)
    assert [row[0] for row in after.rows] == [3]
    assert (cache.misses, cache.hits) == (2, 0)


def test_ddl_invalidates_cached_plans(db):
    cache = PlanCache()
    sql = "SELECT SNO FROM S"
    execute_planned(sql, db, plan_cache=cache)
    db.run_script("CREATE TABLE UNRELATED (X INT, PRIMARY KEY (X))")
    execute_planned(sql, db, plan_cache=cache)
    assert (cache.misses, cache.hits) == (2, 0)


def test_disabled_caches_neither_store_nor_serve(db):
    cache = PlanCache()
    previous = set_caches_enabled(False)
    try:
        first = execute_planned(SQL, db, params={"N": 1}, plan_cache=cache)
        second = execute_planned(SQL, db, params={"N": 1}, plan_cache=cache)
    finally:
        set_caches_enabled(previous)
    assert first.same_rows(second)
    assert (cache.hits, cache.misses) == (0, 0)


def test_global_plan_cache_is_the_default(db):
    clear_all_caches()
    hits, misses = GLOBAL_PLAN_CACHE.hits, GLOBAL_PLAN_CACHE.misses
    stats = Stats()
    execute_planned(SQL, db, params={"N": 1}, stats=stats)
    execute_planned(SQL, db, params={"N": 2}, stats=stats)
    assert GLOBAL_PLAN_CACHE.misses == misses + 1
    assert GLOBAL_PLAN_CACHE.hits == hits + 1
    assert (stats.plan_cache_misses, stats.plan_cache_hits) == (1, 1)


def test_cached_plans_are_reexecutable_and_stateless(db):
    cache = PlanCache()
    sql = "SELECT SNO FROM S WHERE SNO = 1"
    runs = [execute_planned(sql, db, plan_cache=cache) for _ in range(3)]
    assert all(run.same_rows(runs[0]) for run in runs)
    assert [row[0] for row in runs[0].rows] == [1]
    assert cache.hits == 2
