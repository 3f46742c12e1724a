"""Conversion of predicates to negation and conjunctive normal form.

Algorithm 1 operates on a CNF view of the selection predicate; its DNF
step multiplies out only the clauses that survive filtering
(:func:`repro.core.uniqueness._dnf_terms`).  These conversions are
purely structural; they are exact under Kleene three-valued logic:

* double negation and De Morgan's laws hold in Kleene logic,
* ``NOT (a = b)`` and ``a <> b`` agree (both UNKNOWN on NULL),
* ``BETWEEN`` and ``IN`` lists are expanded into comparisons first, so
  ``X IN (5, 10)`` is visible to the algorithm as ``X = 5 OR X = 10``.

Distribution can explode exponentially; conversions raise
:class:`NormalFormOverflow` past a clause budget so callers can fall
back to a conservative answer.
"""

from __future__ import annotations

from ..errors import ReproError
from ..sql.expressions import (
    And,
    Between,
    Comparison,
    Exists,
    Expr,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    conjoin,
    disjoin,
)

#: Upper bound on the number of clauses a conversion may produce.
DEFAULT_CLAUSE_BUDGET = 512


class NormalFormOverflow(ReproError):
    """Raised when CNF distribution exceeds the clause budget."""


def expand_sugar(expr: Expr) -> Expr:
    """Expand BETWEEN and IN-list atoms into comparisons."""

    def rewrite(node: Expr) -> Expr | None:
        if isinstance(node, Between):
            return node.expand()
        if isinstance(node, InList):
            return node.expand()
        return None

    return expr.transform(rewrite)


def to_nnf(expr: Expr) -> Expr:
    """Negation normal form: NOT pushed onto atoms (and absorbed when
    the atom has an exact negation, e.g. comparisons and IS NULL)."""
    expr = expand_sugar(expr)
    return _nnf(expr, negated=False)


def _nnf(expr: Expr, negated: bool) -> Expr:
    if isinstance(expr, Not):
        return _nnf(expr.operand, not negated)
    if isinstance(expr, And):
        parts = [_nnf(op, negated) for op in expr.operands]
        return disjoin(parts) if negated else conjoin(parts)
    if isinstance(expr, Or):
        parts = [_nnf(op, negated) for op in expr.operands]
        return conjoin(parts) if negated else disjoin(parts)
    if not negated:
        return expr
    if isinstance(expr, (Comparison, IsNull, Exists)):
        return expr.negate()
    if isinstance(expr, InSubquery):
        return InSubquery(expr.operand, expr.query, not expr.negated)
    if isinstance(expr, Literal) and isinstance(expr.value, bool):
        return Literal(not expr.value)
    return Not(expr)  # opaque atom: keep the negation on it


def to_cnf_clauses(
    expr: Expr, budget: int = DEFAULT_CLAUSE_BUDGET
) -> list[list[Expr]]:
    """CNF as a list of clauses, each clause a list of atoms (disjuncts).

    Raises:
        NormalFormOverflow: if distribution would exceed *budget* clauses.
    """
    return _dedup(_distribute(to_nnf(expr), budget))


def _distribute(expr: Expr, budget: int) -> list[list[Expr]]:
    """The CNF clauses of an NNF expression: AND concatenates its
    operands' clauses, OR multiplies them out."""
    if isinstance(expr, And):
        clauses: list[list[Expr]] = []
        for operand in expr.operands:
            clauses.extend(_distribute(operand, budget))
            if len(clauses) > budget:
                raise NormalFormOverflow(
                    f"normal form exceeds {budget} clauses"
                )
        return clauses
    if isinstance(expr, Or):
        # Cartesian combination of the operands' clauses.
        product: list[list[Expr]] = [[]]
        for operand in expr.operands:
            operand_clauses = _distribute(operand, budget)
            product = [
                existing + clause
                for existing in product
                for clause in operand_clauses
            ]
            if len(product) > budget:
                raise NormalFormOverflow(
                    f"normal form exceeds {budget} clauses"
                )
        return product
    return [[expr]]


def _dedup(groups: list[list[Expr]]) -> list[list[Expr]]:
    """Remove duplicate atoms within each group and duplicate groups."""
    seen: set[frozenset[Expr]] = set()
    result: list[list[Expr]] = []
    for group in groups:
        unique: list[Expr] = []
        members: set[Expr] = set()
        for atom in group:
            if atom not in members:
                members.add(atom)
                unique.append(atom)
        key = frozenset(members)
        if key not in seen:
            seen.add(key)
            result.append(unique)
    return result


def clauses_to_expr(clauses: list[list[Expr]]) -> Expr:
    """Rebuild a CNF clause list into an expression."""
    return conjoin([disjoin(clause) for clause in clauses])
