"""Cardinality-based cost estimation for physical plans.

The paper positions its rewrites as *strategy-space expanders*: "Once
the optimizer identifies possible transformations, it can then choose
the most appropriate strategy on the basis of its cost model" (§5).
This module supplies that cost model for the physical operators, and
:mod:`repro.core.strategy` uses it to pick among rewrite variants.

Estimates follow the textbook recipe: base-table cardinalities come
from the live :class:`~repro.engine.database.Database`; selectivities
use fixed heuristics (equality 0.1, range 0.3, default 0.5); join output
is ``|L|·|R| / max(|L|, |R|)`` for equi-joins.  Costs are abstract "row
touch" units: a scan costs its cardinality, a sort ``n·log2 n``, a
nested loop ``|L|·|R|``, and a correlated subquery its estimated cost
once per candidate row — which is exactly why flattening wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sql.expressions import (
    Between,
    Comparison,
    Exists,
    Expr,
    InList,
    InSubquery,
    IsNull,
    Not,
    And,
    Or,
    conjuncts,
)
from .database import Database
from .operators import (
    Filter,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    PlanNode,
    Project,
    SeqScan,
    Sort,
    SortDistinct,
    SortSetOp,
)
from .operators.filter import scan_pipeline

EQUALITY_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 0.3
DEFAULT_SELECTIVITY = 0.5
DISTINCT_RETENTION = 0.6  # fraction of rows surviving duplicate elimination


@dataclass(frozen=True)
class PlanEstimate:
    """Estimated output cardinality and total cost of a plan."""

    rows: float
    cost: float

    def __str__(self) -> str:
        return f"~{self.rows:.0f} rows, cost {self.cost:.0f}"


class CostModel:
    """Estimates plans against a concrete database's cardinalities."""

    def __init__(self, database: Database) -> None:
        self.database = database

    # ------------------------------------------------------------------

    def estimate(self, plan: PlanNode) -> PlanEstimate:
        """Recursively estimate *plan*."""
        if isinstance(plan, SeqScan):
            rows = float(len(self.database.table(plan.table_name)))
            return PlanEstimate(rows, rows)
        if isinstance(plan, IndexScan):
            table_rows = float(len(self.database.table(plan.table_name)))
            rows = max(
                table_rows * EQUALITY_SELECTIVITY ** len(plan.key_columns), 1.0
            )
            if plan.residual is not None:
                rows *= self.predicate_selectivity(plan.residual)
            # A hash probe touches only the matched rows, not the table.
            return PlanEstimate(rows, rows + 1.0)
        if isinstance(plan, Filter):
            child = self.estimate(plan.child)
            selectivity = self.predicate_selectivity(plan.predicate)
            cost = child.cost + child.rows
            cost += self._subquery_cost(plan.predicate) * child.rows
            return PlanEstimate(child.rows * selectivity, cost)
        if isinstance(plan, Project):
            child = self.estimate(plan.child)
            return PlanEstimate(child.rows, child.cost + child.rows)
        if isinstance(plan, SortDistinct):
            child = self.estimate(plan.child)
            return PlanEstimate(
                child.rows * DISTINCT_RETENTION, child.cost + _sort_cost(child.rows)
            )
        if isinstance(plan, Sort):
            child = self.estimate(plan.child)
            return PlanEstimate(child.rows, child.cost + _sort_cost(child.rows))
        if isinstance(plan, HashJoin):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            rows = _equi_join_rows(left.rows, right.rows)
            cost = self.hash_join_cost(plan, left, right)
            if plan.residual is not None:
                rows *= self.predicate_selectivity(plan.residual)
            return PlanEstimate(rows, cost + rows)
        if isinstance(plan, NestedLoopJoin):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            product = left.rows * right.rows
            cost = left.cost + right.cost + product
            if plan.predicate is None:
                return PlanEstimate(product, cost)
            rows = product * self.predicate_selectivity(plan.predicate)
            return PlanEstimate(rows, cost)
        if isinstance(plan, SortSetOp):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            rows = min(left.rows, right.rows) * DEFAULT_SELECTIVITY
            cost = (
                left.cost
                + right.cost
                + _sort_cost(left.rows)
                + _sort_cost(right.rows)
            )
            return PlanEstimate(rows, cost)
        # Unknown operator: pass through pessimistically.
        children = [self.estimate(child) for child in plan.children()]
        rows = max((c.rows for c in children), default=1.0)
        cost = sum(c.cost for c in children) + rows
        return PlanEstimate(rows, cost)

    def hash_join_cost(
        self, plan: HashJoin, left: PlanEstimate, right: PlanEstimate
    ) -> float:
        """Both inputs, one touch per build row and per probe row.

        A build side served from its table's hash index reads no table:
        the join costs the probe side, one index probe per probe row and
        the rows those probes fetch, estimated as the equi-join of the
        probe side with the whole (unfiltered) build table.  The planner
        picks among a join's hashed and indexed forms by this cost.
        """
        if plan.index is None:
            return left.cost + right.cost + left.rows + right.rows
        build, probe = (plan.left, right) if plan.build_left else (plan.right, left)
        table = self.estimate(scan_pipeline(build)[0]).rows
        fetched = _equi_join_rows(probe.rows, table)
        return probe.cost + probe.rows + fetched

    # ------------------------------------------------------------------

    def predicate_selectivity(self, predicate: Expr) -> float:
        """Heuristic selectivity of a search condition."""
        selectivity = 1.0
        for conjunct in conjuncts(predicate):
            selectivity *= self._atom_selectivity(conjunct)
        return max(selectivity, 1e-4)

    def _atom_selectivity(self, atom: Expr) -> float:
        if isinstance(atom, Comparison):
            return (
                EQUALITY_SELECTIVITY
                if atom.op == "="
                else RANGE_SELECTIVITY
            )
        if isinstance(atom, (Between, InList, IsNull)):
            return RANGE_SELECTIVITY
        if isinstance(atom, Or):
            combined = 1.0
            for operand in atom.operands:
                combined *= 1.0 - self._atom_selectivity(operand)
            return 1.0 - combined
        if isinstance(atom, And):
            return self.predicate_selectivity(atom)
        if isinstance(atom, Not):
            return 1.0 - self._atom_selectivity(atom.operand)
        if isinstance(atom, (Exists, InSubquery)):
            return DEFAULT_SELECTIVITY
        return DEFAULT_SELECTIVITY

    def _subquery_cost(self, predicate: Expr) -> float:
        """Estimated cost of one evaluation of embedded subqueries.

        A subquery's body runs once per candidate row; one run is
        priced as a product scan of the inner tables — the cost of the
        interpreter that used to run bodies.  A planned body probes an
        index where its correlation binds one, so this overstates
        those; pricing the body's own plan is ROADMAP item 3's.
        """
        total = 0.0
        for node in predicate.walk():
            if isinstance(node, (Exists, InSubquery)):
                total += self._query_scan_cost(node.query)
        return total

    def _query_scan_cost(self, query: object) -> float:
        from ..sql.ast import SelectQuery, SetOperation

        if isinstance(query, SetOperation):
            return self._query_scan_cost(query.left) + self._query_scan_cost(
                query.right
            )
        if not isinstance(query, SelectQuery):
            return 1.0
        cost = 1.0
        for ref in query.tables:
            if self.database.has_table(ref.name):
                cost *= max(float(len(self.database.table(ref.name))), 1.0)
        inner = 0.0
        if query.where is not None:
            inner = self._subquery_cost(query.where) * cost
        return cost + inner


def _sort_cost(rows: float) -> float:
    return rows * math.log2(rows + 2.0)


def _equi_join_rows(left: float, right: float) -> float:
    return (left * right) / max(left, right, 1.0)
