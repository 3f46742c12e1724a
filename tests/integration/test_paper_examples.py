"""End-to-end validation of every worked example in the paper.

For each example: run the original query, optimize it, run the rewritten
query, and assert (a) the results are multiset-identical and (b) the
expected rule fired with the paper's stated outcome.
"""

import pytest

from repro import Stats, optimize
from repro.engine import execute
from repro.core import Optimizer
from repro.workloads import PAPER_QUERIES, paper_query


@pytest.mark.parametrize("query", PAPER_QUERIES, ids=lambda q: f"ex{q.example}")
def test_rewrite_preserves_results(query, small_db):
    original = execute(query.sql, small_db, params=query.params)
    optimized = optimize(query.sql, small_db.catalog)
    rewritten = execute(optimized.query, small_db, params=query.params)
    assert original.same_rows(rewritten), optimized.explain()


@pytest.mark.parametrize(
    "query",
    [q for q in PAPER_QUERIES if q.rewrite_rule == "distinct-elimination"],
    ids=lambda q: f"ex{q.example}",
)
def test_distinct_elimination_fires(query, small_db):
    optimized = optimize(query.sql, small_db.catalog)
    assert "distinct-elimination" in [step.rule for step in optimized.steps]
    assert not optimized.query.distinct


def test_example2_distinct_survives(small_db):
    query = paper_query("2")
    optimized = optimize(query.sql, small_db.catalog)
    assert optimized.query.distinct


def test_example2_duplicates_are_real(small_db):
    """The paper's motivation: without DISTINCT Example 2 really does
    produce duplicates on data with shared supplier names."""
    query = paper_query("2")
    without = execute(query.sql.replace("DISTINCT", "ALL"), small_db)
    with_distinct = execute(query.sql, small_db)
    assert without.has_duplicates()
    assert not with_distinct.has_duplicates()


def test_example7_flattens_to_join(small_db):
    query = paper_query("7")
    optimized = optimize(query.sql, small_db.catalog)
    assert [step.rule for step in optimized.steps] == ["subquery-to-join"]
    assert "EXISTS" not in optimized.sql


def test_example8_produces_paper_form(small_db):
    query = paper_query("8")
    optimized = optimize(query.sql, small_db.catalog)
    assert optimized.sql == (
        "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S, PARTS P "
        "WHERE P.SNO = S.SNO AND P.COLOR = 'RED'"
    )


def test_example9_chains_to_distinct_join(small_db):
    query = paper_query("9")
    optimized = optimize(query.sql, small_db.catalog)
    rules = [step.rule for step in optimized.steps]
    assert rules == ["intersect-to-exists", "subquery-to-join"]


def test_examples_10_and_11_fold_for_navigational(small_db):
    optimizer = Optimizer.for_navigational(small_db.catalog)
    for example in ("10", "11"):
        query = paper_query(example)
        optimized = optimizer.optimize(query.sql)
        assert "join-to-subquery" in [step.rule for step in optimized.steps]
        original = execute(query.sql, small_db, params=query.params)
        rewritten = execute(
            optimized.query, small_db, params=query.params
        )
        assert original.same_rows(rewritten)


def test_distinct_removal_skips_the_sort(small_db):
    """The point of the whole exercise: the rewritten query does no
    duplicate-elimination work."""
    query = paper_query("1")
    with_stats, without_stats = Stats(), Stats()
    execute(query.sql, small_db, stats=with_stats)
    optimized = optimize(query.sql, small_db.catalog)
    execute(optimized.query, small_db, stats=without_stats)
    assert with_stats.sorts == 1
    assert without_stats.sorts == 0
    assert with_stats.sort_rows > 0
