"""Property-based soundness tests.

The central claim under test: **whenever Algorithm 1 answers YES, the
query provably yields no duplicates** — checked by brute-force execution
on random instances.  Companion properties cover Theorem 2, the exact
checker and the FD-based analysis.
"""

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    ExactOptions,
    UniquenessOptions,
    check_theorem1,
    subquery_matches_at_most_one,
    test_uniqueness,
)
from tests.engine.reference_executor import execute
from tests.properties.test_rewrite_equivalence import random_exists_query
from repro.fd import is_duplicate_free_fd
from repro.sql.ast import Quantifier, SelectQuery, Star
from repro.workloads import (
    GeneratorConfig,
    random_catalog,
    random_database,
    random_query,
)

CONFIG = GeneratorConfig(max_tables=2, max_columns=3, max_rows=6)

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(max_examples=120, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_algorithm1_yes_implies_no_duplicates(seed):
    """Soundness of Algorithm 1 against brute-force execution."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    query = random_query(rng, catalog, CONFIG)

    verdict = test_uniqueness(query, catalog)
    if not verdict.unique:
        return
    all_version = query.with_quantifier(Quantifier.ALL)
    result = execute(all_version, database)
    assert not result.has_duplicates(), (
        f"Algorithm 1 wrongly said YES\nquery: {query}\n{verdict.explain()}"
    )


@settings(max_examples=120, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_algorithm1_yes_means_distinct_is_a_noop(seed):
    """If DISTINCT is 'unnecessary', both versions agree as multisets."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    query = random_query(rng, catalog, CONFIG)

    if not test_uniqueness(query, catalog).unique:
        return
    with_distinct = execute(query, database)
    without = execute(query.with_quantifier(Quantifier.ALL), database)
    assert with_distinct.same_rows(without)


@settings(max_examples=150, **COMMON)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    paper_strict=st.booleans(),
    conservative=st.booleans(),
    is_null_binding=st.booleans(),
    use_checks=st.booleans(),
)
def test_algorithm1_sound_under_every_option_combination(
    seed, paper_strict, conservative, is_null_binding, use_checks
):
    """Every documented option combination must stay sound."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    query = random_query(rng, catalog, CONFIG)
    options = UniquenessOptions(
        paper_strict=paper_strict,
        treat_is_null_as_binding=is_null_binding,
        disjunction_handling="conservative" if conservative else "paper",
        use_check_constraints=use_checks,
    )
    if not test_uniqueness(query, catalog, options).unique:
        return
    result = execute(query.with_quantifier(Quantifier.ALL), database)
    assert not result.has_duplicates()


@settings(max_examples=120, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_theorem2_yes_implies_at_most_one_match_per_outer_row(seed):
    """Soundness of Theorem 2's test: when it says the correlated EXISTS
    matches at most one inner row, no outer row matches two."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    outer = random_exists_query(rng, catalog)
    inner = outer.where.query
    verdict = subquery_matches_at_most_one(inner, outer, catalog)
    if not verdict.at_most_one:
        return
    # Every outer row joined with each inner row it matches; the outer
    # table has a primary key, so its columns name the outer row.
    pairs = SelectQuery(
        quantifier=Quantifier.ALL,
        select_list=(Star(),),
        tables=outer.tables + inner.tables,
        where=inner.where,
    )
    width = len(catalog.table(outer.tables[0].name).column_names)
    matches = Counter(row[:width] for row in execute(pairs, database).rows)
    assert max(matches.values(), default=0) <= 1, (
        f"Theorem 2 wrongly said YES\nquery: {outer}\n{verdict.witness()}"
    )


@settings(max_examples=120, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fd_analysis_sound(seed):
    """The FD-based duplicate-freeness test must also be sound."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    query = random_query(rng, catalog, CONFIG)
    if not is_duplicate_free_fd(query, catalog):
        return
    result = execute(query.with_quantifier(Quantifier.ALL), database)
    assert not result.has_duplicates()


TINY = GeneratorConfig(max_tables=2, max_columns=2, max_rows=4, domain=(0, 1))


@settings(max_examples=40, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_algorithm1_never_contradicts_exact_checker(seed):
    """Algorithm 1 YES ⇒ the exhaustive Theorem 1 search finds no
    counterexample (on tiny schemas where the search is exhaustive)."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, TINY)
    query = random_query(rng, catalog, TINY)
    if not test_uniqueness(query, catalog).unique:
        return
    exact = check_theorem1(
        query, catalog, ExactOptions(domain_size=2, max_assignments=200_000)
    )
    assert exact.unique is not False, exact.counterexample.describe()


@settings(max_examples=40, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_exact_checker_matches_brute_force_execution(seed):
    """When the exact checker says duplicates are impossible, no random
    instance may produce one."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, TINY)
    query = random_query(rng, catalog, TINY)
    exact = check_theorem1(
        query, catalog, ExactOptions(domain_size=3, max_assignments=200_000)
    )
    if exact.unique is not True:
        return
    for attempt in range(3):
        database = random_database(
            random.Random(seed * 13 + attempt), catalog, TINY
        )
        result = execute(query.with_quantifier(Quantifier.ALL), database)
        assert not result.has_duplicates()
