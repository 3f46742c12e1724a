"""Physical planner: operator choice, pushdown, interpreter agreement."""

import pytest

from repro.engine import (
    Database,
    Planner,
    PlannerOptions,
    Stats,
    execute_planned,
)
from tests.engine.reference_executor import execute
from repro.engine.operators import (
    Filter,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    Project,
    SeqScan,
    Sort,
    SortDistinct,
    SortSetOp,
)

from .reference_nested_loops import execute_nested


DDL = """
CREATE TABLE R (A INT, B INT, PRIMARY KEY (A));
CREATE TABLE S (C INT, D INT, PRIMARY KEY (C));
INSERT INTO R VALUES (1, 10), (2, 20), (3, NULL), (4, 10);
INSERT INTO S VALUES (5, 10), (6, 20), (7, NULL), (8, 10);
"""


@pytest.fixture()
def db():
    return Database.from_script(DDL)


def plan_for(db, sql, **options):
    planner = Planner(db.catalog, PlannerOptions(**options) if options else None)
    return planner.plan(sql)


def nodes_of(plan, node_type):
    found = []

    def visit(node):
        if isinstance(node, node_type):
            found.append(node)
        for child in node.children():
            visit(child)

    visit(plan)
    return found


class TestOperatorChoice:
    def test_equi_join_uses_hash_join_by_default(self, db):
        plan = plan_for(db, "SELECT A, C FROM R, S WHERE R.B = S.D")
        assert nodes_of(plan, HashJoin)

    def test_cross_product_is_nested_loop(self, db):
        plan = plan_for(db, "SELECT A, C FROM R, S")
        assert nodes_of(plan, NestedLoopJoin)

    def test_non_equi_join_predicate_is_not_hash_joined(self, db):
        plan = plan_for(db, "SELECT A, C FROM R, S WHERE R.B < S.D")
        assert nodes_of(plan, NestedLoopJoin)
        assert not nodes_of(plan, HashJoin)

    def test_distinct_methods(self, db):
        # DISTINCT is a sort, the form the paper's cost model prices.
        for sql in ("SELECT DISTINCT B FROM R", "SELECT DISTINCT B FROM R, S"):
            assert isinstance(plan_for(db, sql), SortDistinct)

    def test_single_table_filter_pushdown(self, db):
        # B is not indexed, so the local conjunct is a Filter pushed
        # below the join, directly over the R scan.
        plan = plan_for(db, "SELECT A, C FROM R, S WHERE R.A = S.C AND R.B = 10")
        join = nodes_of(plan, HashJoin)[0]
        left_filters = nodes_of(join.left, Filter)
        assert left_filters and "R.B = 10" in left_filters[0].label()

    def test_key_equality_becomes_index_scan(self, db):
        # A is R's primary key: the local conjunct turns into a hash
        # index probe instead of SeqScan+Filter.
        plan = plan_for(db, "SELECT A, C FROM R, S WHERE R.B = S.D AND R.A = 1")
        join = nodes_of(plan, HashJoin)[0]
        scans = nodes_of(join.left, IndexScan)
        assert scans and scans[0].key_columns == ("A",)
        assert not nodes_of(join.left, Filter)

    def test_index_scans_can_be_disabled(self, db):
        plan = plan_for(
            db,
            "SELECT A, C FROM R, S WHERE R.B = S.D AND R.A = 1",
            index_scans=False,
        )
        assert not nodes_of(plan, IndexScan)
        join = nodes_of(plan, HashJoin)[0]
        left_filters = nodes_of(join.left, Filter)
        assert left_filters and "R.A = 1" in left_filters[0].label()

    def test_setop_plan(self, db):
        plan = plan_for(db, "SELECT B FROM R INTERSECT SELECT D FROM S")
        assert isinstance(plan, SortSetOp)

    def test_order_by_adds_sort(self, db):
        plan = plan_for(db, "SELECT A FROM R ORDER BY A")
        assert isinstance(plan, Sort)

    def test_explain_renders_tree(self, db):
        plan = plan_for(db, "SELECT DISTINCT A, C FROM R, S WHERE R.B = S.D")
        text = plan.explain()
        assert "Distinct(sort)" in text
        assert "HashJoin" in text
        assert "SeqScan(R)" in text


QUERIES = [
    "SELECT * FROM R",
    "SELECT A, C FROM R, S WHERE R.B = S.D",
    "SELECT A, C FROM R, S WHERE R.B = S.D AND R.A > 1",
    "SELECT DISTINCT B FROM R, S",
    "SELECT A, C FROM R, S WHERE R.B < S.D",
    "SELECT A FROM R WHERE EXISTS (SELECT * FROM S WHERE S.D = R.B)",
    "SELECT A FROM R WHERE B IN (SELECT D FROM S)",
    "SELECT B FROM R INTERSECT ALL SELECT D FROM S",
    "SELECT B FROM R EXCEPT SELECT D FROM S",
    "SELECT DISTINCT A FROM R ORDER BY A DESC",
    "SELECT A FROM R WHERE B = 10 OR B = 20",
    "SELECT R.A, X.A FROM R, R X WHERE R.B = X.B",
]


@pytest.mark.parametrize("sql", QUERIES)
@pytest.mark.parametrize("join_method", ["hash", "nested"])
def test_planner_agrees_with_interpreter(db, sql, join_method):
    """Differential test: the planned form, and the same plan with every
    join a nested loop, must equal the reference interpreter on every
    supported query shape."""
    reference = execute(sql, db)
    if join_method == "hash":
        planned = execute_planned(sql, db)
    else:
        planned = execute_nested(sql, db)
    assert reference.same_rows(planned)


def test_hash_join_skips_null_keys(db):
    stats = Stats()
    result = execute_planned(
        "SELECT A, C FROM R, S WHERE R.B = S.D", db, stats=stats
    )
    # rows with NULL join keys match nothing
    assert all(row[0] != 3 for row in result.rows)
    assert stats.hash_probes > 0


def test_subquery_runs_through_interpreter(db):
    stats = Stats()
    execute_planned(
        "SELECT A FROM R WHERE EXISTS (SELECT * FROM S WHERE S.D = R.B)",
        db,
        stats=stats,
    )
    assert stats.subquery_executions == 4  # once per R row


def test_invalid_planner_options_rejected():
    # No option picks the join or DISTINCT operator.
    with pytest.raises(TypeError):
        PlannerOptions(join_method="merge")
    with pytest.raises(TypeError):
        PlannerOptions(distinct_method="hash")


class TestNullSafeJoins:
    """The planner recognizes (a IS NULL AND b IS NULL) OR a = b as a
    null-safe join key (SQL's IS NOT DISTINCT FROM)."""

    SQL = (
        "SELECT R.A, S.C FROM R, S "
        "WHERE (R.B IS NULL AND S.D IS NULL) OR R.B = S.D"
    )

    def test_pattern_becomes_hash_join(self, db):
        plan = plan_for(db, self.SQL)
        joins = nodes_of(plan, HashJoin)
        assert joins and joins[0].null_safe == [True]

    def test_null_keys_match_under_null_safe_join(self, db):
        result = execute_planned(self.SQL, db)
        # rows (3, NULL) and (7, NULL) must pair up
        assert (3, 7) in result.rows

    def test_agrees_with_interpreter(self, db):
        reference = execute(self.SQL, db)
        assert reference.same_rows(execute_planned(self.SQL, db))
        assert reference.same_rows(execute_nested(self.SQL, db))

    def test_plain_equality_keys_stay_null_rejecting(self, db):
        plan = plan_for(db, "SELECT R.A, S.C FROM R, S WHERE R.B = S.D")
        joins = nodes_of(plan, HashJoin)
        assert joins and joins[0].null_safe == [False]

    def test_unrelated_disjunction_not_misdetected(self, db):
        plan = plan_for(
            db,
            "SELECT R.A, S.C FROM R, S "
            "WHERE (R.A IS NULL AND S.C IS NULL) OR R.B = S.D",
        )
        # null tests cover different columns than the equality: no key
        assert not nodes_of(plan, HashJoin)
