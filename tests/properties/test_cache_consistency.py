"""Property tests: the acceleration layers are semantically invisible.

Caches, compiled predicates, and index probes are performance features;
none of them may change a result multiset or an analysis verdict.  Each
property runs the same random workload with a layer on and off and
demands identical answers, including after DDL mutates the catalog a
cache key was built on.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Catalog,
    clear_all_caches,
    set_caches_enabled,
    test_uniqueness,
)
from repro.engine import execute, execute_planned
from repro.engine import set_compilation_enabled
from repro.errors import ReproError
from repro.workloads import (
    GeneratorConfig,
    random_catalog,
    random_database,
    random_query,
)

CONFIG = GeneratorConfig(max_tables=2, max_columns=3, max_rows=6)
COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _workload(seed):
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    query = random_query(rng, catalog, CONFIG)
    return catalog, database, query


@settings(max_examples=75, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_caches_and_indexes_do_not_change_results(seed):
    _, database, query = _workload(seed)

    previous = set_caches_enabled(False)
    try:
        baseline = execute(query, database, use_indexes=False)
        uncached = execute_planned(query, database)
    finally:
        set_caches_enabled(previous)

    clear_all_caches()
    cold = execute_planned(query, database)  # populates the plan cache
    warm = execute_planned(query, database)  # replays the cached plan
    probed = execute(query, database, use_indexes=True)

    assert baseline.multiset() == uncached.multiset()
    assert baseline.multiset() == cold.multiset()
    assert baseline.multiset() == warm.multiset()
    assert baseline.multiset() == probed.multiset()


@settings(max_examples=75, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_compiled_predicates_do_not_change_results(seed):
    _, database, query = _workload(seed)

    previous = set_compilation_enabled(False)
    try:
        interpreted = execute_planned(query, database)
    finally:
        set_compilation_enabled(previous)
    # Same (possibly cached) plan, now with predicate compilation on:
    # the compiled and interpretive row tests must agree.
    compiled = execute_planned(query, database)

    assert interpreted.multiset() == compiled.multiset()


def _verdict(sql, catalog):
    """The uniqueness outcome as comparable data, errors included."""
    try:
        return ("ok", test_uniqueness(sql, catalog).unique)
    except ReproError as exc:
        return ("err", type(exc).__name__)


@settings(max_examples=75, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_uniqueness_cache_is_transparent(seed):
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    query = random_query(rng, catalog, CONFIG)

    previous = set_caches_enabled(False)
    try:
        cold = _verdict(query, catalog)
    finally:
        set_caches_enabled(previous)
    miss = _verdict(query, catalog)  # computes and caches
    hit = _verdict(query, catalog)  # served from the cache

    assert cold == miss == hit


KEYED = "CREATE TABLE T (A INT NOT NULL, B INT, PRIMARY KEY (A))"
UNKEYED = "CREATE TABLE T (A INT NOT NULL, B INT)"
PROJECTION = "SELECT A, B FROM T"


def test_ddl_invalidates_cached_uniqueness_verdicts():
    # Identical SQL text, same catalog object, three DDL states: the
    # verdict must track the *current* schema, never a cached one.
    catalog = Catalog.from_ddl(KEYED)
    assert test_uniqueness(PROJECTION, catalog).unique
    assert test_uniqueness(PROJECTION, catalog).unique  # warm hit

    catalog.drop("T")
    catalog.load_ddl(UNKEYED)
    assert not test_uniqueness(PROJECTION, catalog).unique

    catalog.drop("T")
    catalog.load_ddl(KEYED)
    assert test_uniqueness(PROJECTION, catalog).unique
