"""Cost model and cost-based strategy selection."""

import pytest

from repro.core import StrategySelector
from repro.engine import CostModel, Planner, execute_planned
from tests.engine.reference_executor import execute
from repro.workloads import SupplierScale, build_database, generate


@pytest.fixture(scope="module")
def db():
    return build_database(
        generate(SupplierScale(suppliers=60, parts_per_supplier=8))
    )


class TestCostModel:
    def plan_estimate(self, db, sql):
        plan = Planner(db.catalog).plan(sql)
        return CostModel(db).estimate(plan)

    def test_scan_cardinality_from_database(self, db):
        estimate = self.plan_estimate(db, "SELECT SNO FROM SUPPLIER")
        assert estimate.rows == 60

    def test_filter_reduces_cardinality(self, db):
        unfiltered = self.plan_estimate(db, "SELECT SNO FROM SUPPLIER")
        filtered = self.plan_estimate(
            db, "SELECT SNO FROM SUPPLIER WHERE SCITY = 'Toronto'"
        )
        assert filtered.rows < unfiltered.rows

    def test_distinct_costs_more_than_all(self, db):
        plain = self.plan_estimate(db, "SELECT SCITY FROM SUPPLIER")
        distinct = self.plan_estimate(db, "SELECT DISTINCT SCITY FROM SUPPLIER")
        assert distinct.cost > plain.cost

    def test_correlated_subquery_is_expensive(self, db):
        nested = self.plan_estimate(
            db,
            "SELECT SNO FROM SUPPLIER S WHERE EXISTS "
            "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
        )
        flat = self.plan_estimate(
            db,
            "SELECT S.SNO FROM SUPPLIER S, PARTS P WHERE P.SNO = S.SNO",
        )
        assert nested.cost > flat.cost

    def test_nested_loop_costs_more_than_hash_join(self, db):
        from repro.engine.operators import HashJoin, NestedLoopJoin
        from repro.sql import parse_condition

        sql = "SELECT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO"
        join = Planner(db.catalog).plan(sql).child
        assert isinstance(join, HashJoin)
        nested = NestedLoopJoin(join.left, join.right, parse_condition("S.SNO = P.SNO"))
        model = CostModel(db)
        assert model.estimate(nested).cost > model.estimate(join).cost

    def test_disjunction_selectivity_below_one(self, db):
        estimate = self.plan_estimate(
            db,
            "SELECT SNO FROM SUPPLIER WHERE SCITY = 'x' OR SCITY = 'y'",
        )
        assert estimate.rows < 60

    def test_estimate_str(self, db):
        estimate = self.plan_estimate(db, "SELECT SNO FROM SUPPLIER")
        assert "rows" in str(estimate) and "cost" in str(estimate)


class TestStrategySelector:
    def test_prefers_flattened_join_over_nested_exists(self, db):
        selector = StrategySelector(db)
        choice = selector.choose(
            "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
            "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :N)"
        )
        assert "EXISTS" not in choice.sql
        assert len(choice.candidates) == 2
        original, rewritten = choice.candidates
        assert original.estimate.cost > rewritten.estimate.cost

    def test_unchanged_query_is_the_only_candidate(self, db):
        selector = StrategySelector(db)
        choice = selector.choose("SELECT SNAME FROM SUPPLIER")
        assert len(choice.candidates) == 1
        assert choice.sql == "SELECT SNAME FROM SUPPLIER"

    def test_distinct_elimination_always_wins(self, db):
        selector = StrategySelector(db)
        choice = selector.choose(
            "SELECT DISTINCT SNO, SNAME FROM SUPPLIER"
        )
        assert not choice.query.distinct

    def test_chosen_query_gives_same_results(self, db):
        sql = (
            "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' "
            "AND EXISTS (SELECT * FROM PARTS P "
            "WHERE S.SNO = P.SNO AND P.COLOR = 'RED')"
        )
        selector = StrategySelector(db)
        choice = selector.choose(sql)
        assert execute(sql, db).same_rows(
            execute_planned(choice.query, db)
        )

    def test_explain_marks_winner(self, db):
        selector = StrategySelector(db)
        choice = selector.choose(
            "SELECT DISTINCT SNO FROM SUPPLIER"
        )
        text = choice.explain()
        assert "->" in text and "[original]" in text
