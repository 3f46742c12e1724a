"""Every join as a nested loop: the planner's plan with its hash joins
replaced by the join they stand for.

The planner makes a ``NestedLoopJoin`` only for a join with no equality
between the two sides; :class:`NestedLoopPlanner` makes one for every
join, over the same inputs and with the join's conjuncts as its
predicate, evaluated row by row.  Differential tests run it beside the
planned form, so the nested loop stays checked against the interpreter
on equi-joins and null-safe (≐) joins too.
"""

from __future__ import annotations

from repro.engine import Planner, execute_plan
from repro.engine.operators import NestedLoopJoin
from repro.sql.expressions import conjoin


class NestedLoopPlanner(Planner):
    def _join(self, left, right, applicable, qualifier_columns, right_alias):
        return NestedLoopJoin(left, right, conjoin(applicable) if applicable else None)


def execute_nested(sql, database, params=None):
    """Plan *sql* with :class:`NestedLoopPlanner` and run it."""
    plan = NestedLoopPlanner(database.catalog, database=database).plan(sql)
    return execute_plan(plan, database, params=params)
