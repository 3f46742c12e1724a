"""Predicate and scalar expression AST.

Expressions are immutable dataclasses.  ``And``/``Or`` are *n*-ary (their
operands are tuples), which keeps CNF/DNF manipulation in
``repro.analysis.normal_forms`` simple.  Every node supports:

* ``children()`` — direct sub-expressions,
* ``replace(mapping)`` — structural substitution (used by rewrite rules
  to re-qualify column references when flattening subqueries),
* structural equality and hashing (used for dedup during normalization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from ..types.values import SqlValue, format_value

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")

_NEGATED_OP = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_FLIPPED_OP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class Expr:
    """Base class for all expression nodes."""

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions of this node."""
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of this expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def replace(self, mapping: "dict[Expr, Expr]") -> "Expr":
        """Return a copy with every node found in *mapping* substituted.

        Substitution happens top-down: if this node itself is a key in
        *mapping* the replacement is returned without descending.
        """
        if self in mapping:
            return mapping[self]
        return self._rebuild(lambda child: child.replace(mapping))

    def transform(self, fn: "Callable[[Expr], Expr | None]") -> "Expr":
        """Bottom-up rewrite: *fn* may return a replacement or ``None``."""
        rebuilt = self._rebuild(lambda child: child.transform(fn))
        result = fn(rebuilt)
        return rebuilt if result is None else result

    def _rebuild(self, fn: "Callable[[Expr], Expr]") -> "Expr":
        """Rebuild this node with children mapped through *fn*."""
        return self

    def negate(self) -> "Expr":
        """Logical negation, pushed onto the node when exact."""
        return Not(self)


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value (number, string, boolean, or NULL)."""

    value: SqlValue

    def __repr__(self) -> str:
        return f"Literal({format_value(self.value)})"


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A reference to a column, optionally qualified by a table alias."""

    qualifier: str | None
    column: str

    @property
    def key(self) -> tuple[str | None, str]:
        """``(qualifier, column)`` identity pair."""
        return (self.qualifier, self.column)

    def __repr__(self) -> str:
        if self.qualifier:
            return f"Col({self.qualifier}.{self.column})"
        return f"Col({self.column})"


@dataclass(frozen=True)
class HostVar(Expr):
    """A host (program) variable, written ``:NAME`` in SQL text.

    Its value is a constant supplied at execution time; the paper's
    analysis treats equality with a host variable exactly like equality
    with a literal constant (a "Type 1" condition).
    """

    name: str

    def __repr__(self) -> str:
        return f"HostVar(:{self.name})"


@dataclass(frozen=True)
class Comparison(Expr):
    """A binary comparison ``left op right``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator: {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def _rebuild(self, fn: Callable[[Expr], Expr]) -> Expr:
        return Comparison(self.op, fn(self.left), fn(self.right))

    def negate(self) -> Expr:
        """Negate by flipping the operator (exact under 2VL; under 3VL the
        engine never relies on this for NULL-sensitive reasoning)."""
        return Comparison(_NEGATED_OP[self.op], self.left, self.right)

    def flipped(self) -> "Comparison":
        """The same comparison with operands swapped (``a < b`` → ``b > a``)."""
        return Comparison(_FLIPPED_OP[self.op], self.right, self.left)


@dataclass(frozen=True)
class And(Expr):
    """N-ary conjunction."""

    operands: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.operands

    def _rebuild(self, fn: Callable[[Expr], Expr]) -> Expr:
        return And(tuple(fn(op) for op in self.operands))


@dataclass(frozen=True)
class Or(Expr):
    """N-ary disjunction."""

    operands: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.operands

    def _rebuild(self, fn: Callable[[Expr], Expr]) -> Expr:
        return Or(tuple(fn(op) for op in self.operands))


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation."""

    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def _rebuild(self, fn: Callable[[Expr], Expr]) -> Expr:
        return Not(fn(self.operand))

    def negate(self) -> Expr:
        return self.operand


@dataclass(frozen=True)
class IsNull(Expr):
    """``operand IS [NOT] NULL`` — never evaluates to UNKNOWN."""

    operand: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def _rebuild(self, fn: Callable[[Expr], Expr]) -> Expr:
        return IsNull(fn(self.operand), self.negated)

    def negate(self) -> Expr:
        return IsNull(self.operand, not self.negated)


@dataclass(frozen=True)
class Between(Expr):
    """``operand [NOT] BETWEEN low AND high`` (inclusive bounds)."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, self.low, self.high)

    def _rebuild(self, fn: Callable[[Expr], Expr]) -> Expr:
        return Between(fn(self.operand), fn(self.low), fn(self.high), self.negated)

    def expand(self) -> Expr:
        """The equivalent conjunction ``operand >= low AND operand <= high``."""
        base = And(
            (
                Comparison(">=", self.operand, self.low),
                Comparison("<=", self.operand, self.high),
            )
        )
        return Not(base) if self.negated else base


@dataclass(frozen=True)
class InList(Expr):
    """``operand [NOT] IN (v1, v2, ...)`` with expression items."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, *self.items)

    def _rebuild(self, fn: Callable[[Expr], Expr]) -> Expr:
        return InList(fn(self.operand), tuple(fn(i) for i in self.items), self.negated)

    def expand(self) -> Expr:
        """The equivalent disjunction of equalities."""
        base = disjoin([Comparison("=", self.operand, item) for item in self.items])
        return Not(base) if self.negated else base


@dataclass(frozen=True)
class Exists(Expr):
    """``[NOT] EXISTS (subquery)``.

    The subquery is a ``repro.sql.ast.SelectQuery``; typed loosely here to
    avoid a circular import.  Exists never evaluates to UNKNOWN.
    """

    query: object
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return ()

    def negate(self) -> Expr:
        return Exists(self.query, not self.negated)

    def __hash__(self) -> int:
        return hash((id(self.query), self.negated))


@dataclass(frozen=True)
class InSubquery(Expr):
    """``operand [NOT] IN (subquery)``."""

    operand: Expr
    query: object
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def _rebuild(self, fn: Callable[[Expr], Expr]) -> Expr:
        return InSubquery(fn(self.operand), self.query, self.negated)

    def __hash__(self) -> int:
        return hash((self.operand, id(self.query), self.negated))


TRUE_LITERAL = Literal(True)
FALSE_LITERAL = Literal(False)


def conjoin(parts: Sequence[Expr]) -> Expr:
    """Build a flattened conjunction, dropping TRUE literals.

    Returns ``TRUE_LITERAL`` for an empty conjunction and unwraps a
    singleton, so callers can combine predicates without special cases.
    """
    flat: list[Expr] = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.operands)
        elif part == TRUE_LITERAL:
            continue
        else:
            flat.append(part)
    if not flat:
        return TRUE_LITERAL
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disjoin(parts: Sequence[Expr]) -> Expr:
    """Build a flattened disjunction (dual of :func:`conjoin`)."""
    flat: list[Expr] = []
    for part in parts:
        if isinstance(part, Or):
            flat.extend(part.operands)
        elif part == FALSE_LITERAL:
            continue
        else:
            flat.append(part)
    if not flat:
        return FALSE_LITERAL
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def conjuncts(expr: Expr | None) -> list[Expr]:
    """Top-level AND-components of *expr* (empty for None/TRUE)."""
    if expr is None or expr == TRUE_LITERAL:
        return []
    if isinstance(expr, And):
        result: list[Expr] = []
        for operand in expr.operands:
            result.extend(conjuncts(operand))
        return result
    return [expr]


def disjuncts(expr: Expr | None) -> list[Expr]:
    """Top-level OR-components of *expr* (empty for None/FALSE)."""
    if expr is None or expr == FALSE_LITERAL:
        return []
    if isinstance(expr, Or):
        result: list[Expr] = []
        for operand in expr.operands:
            result.extend(disjuncts(operand))
        return result
    return [expr]


def column_refs(expr: Expr | None) -> list[ColumnRef]:
    """All column references in *expr*, in traversal order."""
    if expr is None:
        return []
    return [node for node in expr.walk() if isinstance(node, ColumnRef)]


def host_vars(expr: Expr | None) -> list[HostVar]:
    """All host variables in *expr*, in traversal order."""
    if expr is None:
        return []
    return [node for node in expr.walk() if isinstance(node, HostVar)]


def contains_subquery(expr: Expr | None) -> bool:
    """Whether *expr* contains an EXISTS or IN-subquery node."""
    if expr is None:
        return False
    return any(isinstance(node, (Exists, InSubquery)) for node in expr.walk())
