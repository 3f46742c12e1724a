"""Three-valued expression evaluation.

The evaluator computes scalar values for operands and
:class:`~repro.types.tristate.Tristate` truth values for predicates,
honoring SQL's WHERE-clause semantics: comparisons with NULL are
UNKNOWN, and the executor keeps a row only when the whole predicate is
definitely TRUE (the false-interpretation ⌊P⌋).

Correlated subqueries (EXISTS / IN) are evaluated through a
``subquery_runner`` callback — the execution context's, which runs the
body's plan (:meth:`~repro.engine.operators.base.ExecContext.run_subquery`);
each invocation is counted in ``stats.subquery_executions``, making the
cost of naive nested-loop strategies visible to benchmarks.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..errors import ExecutionError, MissingHostVariableError
from ..sql.expressions import (
    Between,
    ColumnRef,
    Comparison,
    Exists,
    Expr,
    HostVar,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    And,
)
from ..types.tristate import FALSE, TRUE, UNKNOWN, Tristate
from ..types.values import SqlValue, compare_where, is_null
from .schema import Scope
from .stats import Stats

SubqueryRunner = Callable[[object, Scope], Iterable[tuple]]


class Evaluator:
    """Evaluates expressions against a scope.

    Attributes:
        params: host-variable bindings (name -> value).
        stats: counter sink; shared with the execution.
        subquery_runner: callback that executes a subquery AST for the
            enclosing row's scope, yielding result rows (an execution
            context's runs the body's plan).  Unset evaluators reject
            subqueries.
    """

    def __init__(
        self,
        params: dict[str, SqlValue] | None = None,
        stats: Stats | None = None,
        subquery_runner: SubqueryRunner | None = None,
    ) -> None:
        self.params = {
            key.upper(): value for key, value in (params or {}).items()
        }
        self.stats = stats or Stats()
        self.subquery_runner = subquery_runner

    # ------------------------------------------------------------------
    # scalar operands

    def value(self, expr: Expr, scope: Scope) -> SqlValue:
        """Evaluate a scalar operand to a SQL value."""
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            return scope.resolve(expr)
        if isinstance(expr, HostVar):
            if expr.name not in self.params:
                raise MissingHostVariableError(expr.name)
            return self.params[expr.name]
        raise ExecutionError(
            f"expression {type(expr).__name__} is not a scalar operand"
        )

    # ------------------------------------------------------------------
    # predicates

    def predicate(self, expr: Expr, scope: Scope) -> Tristate:
        """Evaluate a search condition to a three-valued truth value."""
        if isinstance(expr, Literal):
            if is_null(expr.value):
                return UNKNOWN
            if isinstance(expr.value, bool):
                return TRUE if expr.value else FALSE
            raise ExecutionError(
                f"literal {expr.value!r} used where a condition is required"
            )
        if isinstance(expr, Comparison):
            left = self.value(expr.left, scope)
            right = self.value(expr.right, scope)
            return compare_where(expr.op, left, right)
        if isinstance(expr, And):
            result = TRUE
            for operand in expr.operands:
                result = result & self.predicate(operand, scope)
                if result is FALSE:
                    return FALSE
            return result
        if isinstance(expr, Or):
            result = FALSE
            for operand in expr.operands:
                result = result | self.predicate(operand, scope)
                if result is TRUE:
                    return TRUE
            return result
        if isinstance(expr, Not):
            return ~self.predicate(expr.operand, scope)
        if isinstance(expr, IsNull):
            null = is_null(self.value(expr.operand, scope))
            outcome = null != expr.negated
            return TRUE if outcome else FALSE
        if isinstance(expr, Between):
            return self._between(expr, scope)
        if isinstance(expr, InList):
            return self._in_list(expr, scope)
        if isinstance(expr, Exists):
            return self._exists(expr, scope)
        if isinstance(expr, InSubquery):
            return self._in_subquery(expr, scope)
        raise ExecutionError(f"cannot evaluate {type(expr).__name__} as a condition")

    def qualifies(self, expr: Expr | None, scope: Scope) -> bool:
        """WHERE-clause row test: the false-interpretation of *expr*."""
        if expr is None:
            return True
        self.stats.predicate_evals += 1
        return self.predicate(expr, scope).false_interpreted()

    # ------------------------------------------------------------------
    # helpers

    def _between(self, expr: Between, scope: Scope) -> Tristate:
        operand = self.value(expr.operand, scope)
        low = self.value(expr.low, scope)
        high = self.value(expr.high, scope)
        result = compare_where(">=", operand, low) & compare_where(
            "<=", operand, high
        )
        return ~result if expr.negated else result

    def _in_list(self, expr: InList, scope: Scope) -> Tristate:
        operand = self.value(expr.operand, scope)
        result = FALSE
        for item in expr.items:
            result = result | compare_where("=", operand, self.value(item, scope))
            if result is TRUE:
                break
        return ~result if expr.negated else result

    def _run_subquery(self, query: object, scope: Scope) -> Iterable[tuple]:
        if self.subquery_runner is None:
            raise ExecutionError("this evaluator cannot execute subqueries")
        self.stats.subquery_executions += 1
        return self.subquery_runner(query, scope)

    def _exists(self, expr: Exists, scope: Scope) -> Tristate:
        found = False
        for _ in self._run_subquery(expr.query, scope):
            found = True
            break
        outcome = found != expr.negated
        return TRUE if outcome else FALSE

    def _in_subquery(self, expr: InSubquery, scope: Scope) -> Tristate:
        operand = self.value(expr.operand, scope)
        result = FALSE
        for row in self._run_subquery(expr.query, scope):
            if len(row) != 1:
                raise ExecutionError(
                    "IN subquery must produce exactly one column"
                )
            result = result | compare_where("=", operand, row[0])
            if result is TRUE:
                break
        return ~result if expr.negated else result
