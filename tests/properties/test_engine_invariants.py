"""Property tests on engine invariants.

* the physical planner agrees with the reference interpreter, and so
  does the same plan with every join a nested loop,
* set operations honour the SQL2 multiset laws (min/max/sum of counts),
* the planner's DISTINCT-by-sort and the interpreter's DISTINCT agree,
* canonical row ordering is a total order.
"""

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import Database, execute_planned
from tests.engine.reference_executor import execute
from repro.catalog import CatalogBuilder
from repro.types import NULL, row_sort_key, sort_key
from repro.workloads import (
    GeneratorConfig,
    random_catalog,
    random_database,
    random_query,
)
from tests.engine.reference_nested_loops import execute_nested

CONFIG = GeneratorConfig(max_tables=2, max_columns=3, max_rows=6)
COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=100, **COMMON)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    join_method=st.sampled_from(["hash", "nested"]),
)
def test_planner_agrees_with_interpreter(seed, join_method):
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    query = random_query(rng, catalog, CONFIG)
    reference = execute(query, database)
    if join_method == "hash":
        planned = execute_planned(query, database)
    else:
        planned = execute_nested(query, database)
    assert reference.same_rows(planned)


def _value_lists(draw_values):
    return st.lists(draw_values, max_size=8)


VALUES = st.one_of(st.integers(min_value=0, max_value=3), st.just(NULL))


def _setop_db(left, right):
    catalog = (
        CatalogBuilder()
        .table("IDS")
        .column("PK")
        .column("V")
        .primary_key("PK")
        .finish()
        .table("JDS")
        .column("PK")
        .column("V")
        .primary_key("PK")
        .finish()
        .build()
    )
    database = Database(catalog)
    database.load("IDS", [(i, v) for i, v in enumerate(left)])
    database.load("JDS", [(i, v) for i, v in enumerate(right)])
    return database


def _counts(values):
    return Counter(row_sort_key((v,)) for v in values)


@settings(max_examples=100, **COMMON)
@given(left=_value_lists(VALUES), right=_value_lists(VALUES))
def test_intersect_all_is_min_of_counts(left, right):
    database = _setop_db(left, right)
    result = execute(
        "SELECT V FROM IDS INTERSECT ALL SELECT V FROM JDS", database
    )
    expected = Counter()
    right_counts = _counts(right)
    for key, j in _counts(left).items():
        copies = min(j, right_counts.get(key, 0))
        if copies:
            expected[key] = copies
    assert result.multiset() == expected


@settings(max_examples=100, **COMMON)
@given(left=_value_lists(VALUES), right=_value_lists(VALUES))
def test_except_all_is_truncated_difference(left, right):
    database = _setop_db(left, right)
    result = execute(
        "SELECT V FROM IDS EXCEPT ALL SELECT V FROM JDS", database
    )
    expected = Counter()
    right_counts = _counts(right)
    for key, j in _counts(left).items():
        copies = max(j - right_counts.get(key, 0), 0)
        if copies:
            expected[key] = copies
    assert result.multiset() == expected


@settings(max_examples=100, **COMMON)
@given(left=_value_lists(VALUES), right=_value_lists(VALUES))
def test_distinct_setops_produce_sets(left, right):
    database = _setop_db(left, right)
    for op in ("INTERSECT", "EXCEPT", "UNION"):
        result = execute(
            f"SELECT V FROM IDS {op} SELECT V FROM JDS", database
        )
        assert not result.has_duplicates()


@settings(max_examples=100, **COMMON)
@given(left=_value_lists(VALUES), right=_value_lists(VALUES))
def test_union_all_sums_counts(left, right):
    database = _setop_db(left, right)
    result = execute(
        "SELECT V FROM IDS UNION ALL SELECT V FROM JDS", database
    )
    assert result.multiset() == _counts(left) + _counts(right)


@settings(max_examples=100, **COMMON)
@given(values=_value_lists(VALUES))
def test_distinct_methods_agree(values):
    database = _setop_db(values, [])
    by_sort = execute_planned("SELECT DISTINCT V FROM IDS", database)
    interpreted = execute("SELECT DISTINCT V FROM IDS", database)
    assert by_sort.same_rows(interpreted)
    assert not by_sort.has_duplicates()


@settings(max_examples=200, **COMMON)
@given(
    a=st.one_of(st.integers(), st.text(max_size=3), st.booleans(), st.just(NULL)),
    b=st.one_of(st.integers(), st.text(max_size=3), st.booleans(), st.just(NULL)),
    c=st.one_of(st.integers(), st.text(max_size=3), st.booleans(), st.just(NULL)),
)
def test_sort_key_is_a_total_order(a, b, c):
    keys = sorted([sort_key(a), sort_key(b), sort_key(c)])
    assert keys[0] <= keys[1] <= keys[2]
    # antisymmetry on equal keys: equal keys mean ≐-equality class
    if sort_key(a) == sort_key(b):
        assert row_sort_key((a,)) == row_sort_key((b,))
