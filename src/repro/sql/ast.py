"""Statement-level AST: queries, set operations, DDL, and INSERT.

The query model follows the paper's Section 2 exactly:

* a **query specification** (:class:`SelectQuery`) is
  ``SELECT [ALL|DISTINCT] A FROM R, S, ... WHERE C`` — selection,
  projection and extended Cartesian product only;
* a **query expression** (:class:`SetOperation`) combines two query
  specifications with ``INTERSECT [ALL]``, ``EXCEPT [ALL]`` or
  ``UNION [ALL]``.

Subqueries (EXISTS / IN) appear inside WHERE predicates via the
expression nodes in :mod:`repro.sql.expressions`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, Iterator

from .expressions import ColumnRef, Exists, Expr, InSubquery


@dataclass(frozen=True)
class TableRef:
    """A table in a FROM clause, with an optional correlation name.

    ``effective_name`` is how the rest of the query refers to the table:
    the alias when present, otherwise the table name itself.
    """

    name: str
    alias: str | None = None

    @property
    def effective_name(self) -> str:
        """The correlation name the query uses for this table."""
        return self.alias or self.name

    def __repr__(self) -> str:
        if self.alias:
            return f"TableRef({self.name} {self.alias})"
        return f"TableRef({self.name})"


@dataclass(frozen=True)
class SelectItem:
    """One entry of a select list: a column reference or ``*``.

    A ``None`` expression stands for a bare ``*``; a qualifier-only item
    (``S.*``) is a :class:`Star`.
    """

    expr: Expr
    alias: str | None = None

    def output_name(self) -> str:
        """The result-column name this item produces."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.column
        return "?column?"


@dataclass(frozen=True)
class Star:
    """``*`` or ``qualifier.*`` in a select list."""

    qualifier: str | None = None


class Quantifier(enum.Enum):
    """Projection duplicate-handling: the paper's ``All`` vs ``Dist``."""

    ALL = "ALL"
    DISTINCT = "DISTINCT"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY element."""

    expr: Expr
    ascending: bool = True


class _TableScoped:
    """A query whose base tables scope the cache entries keyed on it."""

    @cached_property
    def table_scope(self) -> frozenset[str]:
        """:func:`referenced_tables`, walked on first read and kept on
        the node: a frozen node's tables never change, and a memoized
        rewrite hands the same node to every warm read of its text."""
        return frozenset(referenced_tables(self))


@dataclass(frozen=True)
class SelectQuery(_TableScoped):
    """A query specification (SELECT-FROM-WHERE block).

    Attributes:
        quantifier: ALL (keep duplicates) or DISTINCT (the paper's focus).
        select_list: projection entries; ``Star`` entries expand against a
            catalog during binding.
        tables: FROM-clause tables; multiple entries form an extended
            Cartesian product, per the paper's algebra.
        where: selection predicate or None.
        order_by: optional ordering (outside the paper's algebra but
            supported by the engine for deterministic output).
    """

    quantifier: Quantifier
    select_list: tuple[SelectItem | Star, ...]
    tables: tuple[TableRef, ...]
    where: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()

    @property
    def distinct(self) -> bool:
        """Whether this block eliminates duplicates."""
        return self.quantifier is Quantifier.DISTINCT

    def with_quantifier(self, quantifier: Quantifier) -> "SelectQuery":
        """A copy of this query with a different ALL/DISTINCT setting."""
        return replace(self, quantifier=quantifier)

    def with_where(self, where: Expr | None) -> "SelectQuery":
        """A copy of this query with a different WHERE predicate."""
        return replace(self, where=where)

    def table_names(self) -> list[str]:
        """Effective (alias-resolved) names of the FROM-clause tables."""
        return [table.effective_name for table in self.tables]


class SetOpKind(enum.Enum):
    """The set operator of a query expression."""

    INTERSECT = "INTERSECT"
    EXCEPT = "EXCEPT"
    UNION = "UNION"


@dataclass(frozen=True)
class SetOperation(_TableScoped):
    """A query expression: two operands joined by a set operator.

    ``all`` selects the multiset (``... ALL``) semantics: INTERSECT ALL
    keeps ``min(j, k)`` copies of a row and EXCEPT ALL ``max(j - k, 0)``,
    exactly as Section 2.2 of the paper defines.
    """

    kind: SetOpKind
    all: bool
    left: "Query"
    right: "Query"

    @property
    def distinct(self) -> bool:
        """Whether this set operation eliminates duplicates."""
        return not self.all


Query = SelectQuery | SetOperation


def iter_select_blocks(query: Query) -> Iterator[SelectQuery]:
    """Yield every SELECT block in *query*, left to right."""
    if isinstance(query, SelectQuery):
        yield query
    else:
        yield from iter_select_blocks(query.left)
        yield from iter_select_blocks(query.right)


def map_where(
    query: Query,
    fn: Callable[[Expr, tuple], Expr | None],
    frame: Callable[[SelectQuery], Any] | None = None,
    frames: tuple = (),
) -> Query:
    """*query* with *fn* mapped bottom-up (:meth:`Expr.transform`) over
    every WHERE clause: both sides of a set operation and each EXISTS /
    IN body, however deep, which is mapped in place of handing its
    predicate to *fn*.

    With *frame*, each SELECT block pushes ``frame(block)`` in front of
    *frames*, so *fn* receives a node and the frames of its block and of
    every block it is nested in, innermost first — the order in which a
    name resolves (:meth:`~repro.engine.schema.Scope.resolve`).
    """
    if isinstance(query, SetOperation):
        return replace(
            query,
            left=map_where(query.left, fn, frame, frames),
            right=map_where(query.right, fn, frame, frames),
        )
    if query.where is None:
        return query
    if frame is not None:
        frames = (frame(query), *frames)

    def visit(node: Expr) -> Expr | None:
        if isinstance(node, Exists):
            return Exists(map_where(node.query, fn, frame, frames), node.negated)
        if isinstance(node, InSubquery):
            body = map_where(node.query, fn, frame, frames)
            return InSubquery(node.operand, body, node.negated)
        return fn(node, frames)

    return query.with_where(query.where.transform(visit))


# ----------------------------------------------------------------------
# DDL and DML statements


@dataclass(frozen=True)
class ColumnDef:
    """A column definition inside CREATE TABLE."""

    name: str
    type_name: str
    length: int | None = None
    not_null: bool = False
    check: Expr | None = None


@dataclass(frozen=True)
class PrimaryKeyClause:
    """``PRIMARY KEY (c1, ...)`` — implies NOT NULL on every column."""

    columns: tuple[str, ...]


@dataclass(frozen=True)
class UniqueClause:
    """``UNIQUE (c1, ...)`` — a candidate key; columns may be NULL.

    Following SQL2 (and the paper), NULL is treated as a single special
    value: at most one row may have NULL in the key.
    """

    columns: tuple[str, ...]


@dataclass(frozen=True)
class CheckClause:
    """``CHECK (condition)`` — must never be false for any stored row."""

    condition: Expr


@dataclass(frozen=True)
class ForeignKeyClause:
    """``FOREIGN KEY (c1, ...) REFERENCES t (d1, ...)``."""

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]


TableConstraint = PrimaryKeyClause | UniqueClause | CheckClause | ForeignKeyClause


@dataclass(frozen=True)
class CreateTable:
    """A parsed CREATE TABLE statement."""

    name: str
    columns: tuple[ColumnDef, ...]
    constraints: tuple[TableConstraint, ...] = ()


@dataclass(frozen=True)
class Insert:
    """A parsed INSERT statement with literal VALUES rows."""

    table: str
    columns: tuple[str, ...] | None
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class Assignment:
    """One ``column = expr`` pair in an UPDATE SET list.

    The value may be any scalar operand — a literal, a host variable,
    or a column reference resolved against the row being updated.
    """

    column: str
    value: Expr


@dataclass(frozen=True)
class Update:
    """A parsed ``UPDATE table SET ... [WHERE ...]`` statement."""

    table: str
    assignments: tuple[Assignment, ...]
    where: Expr | None = None


@dataclass(frozen=True)
class Delete:
    """A parsed ``DELETE FROM table [WHERE ...]`` statement."""

    table: str
    where: Expr | None = None


@dataclass(frozen=True)
class BeginTransaction:
    """``BEGIN [TRANSACTION | WORK]`` — open an explicit transaction."""


@dataclass(frozen=True)
class CommitTransaction:
    """``COMMIT [TRANSACTION | WORK]`` — publish and close."""


@dataclass(frozen=True)
class RollbackTransaction:
    """``ROLLBACK [TRANSACTION | WORK]`` — discard and close."""


Dml = Insert | Update | Delete
TransactionControl = BeginTransaction | CommitTransaction | RollbackTransaction
Statement = Query | CreateTable | Dml | TransactionControl


def referenced_tables(statement: Statement) -> set[str]:
    """Upper-cased names of every base table *statement* touches,
    subqueries (EXISTS / IN, arbitrarily nested) included.

    This is what scopes fingerprint-keyed cache entries to the tables
    they actually depend on — the invalidation granularity a commit
    uses.  Aliases do not appear (they are correlation names, not
    tables).
    """
    names: set[str] = set()
    _collect_tables(statement, names)
    return names


def _collect_tables(node, names: set[str]) -> None:
    if node is None:
        return
    if isinstance(node, SelectQuery):
        for table in node.tables:
            names.add(table.name.upper())
        _collect_expr_tables(node.where, names)
    elif isinstance(node, SetOperation):
        _collect_tables(node.left, names)
        _collect_tables(node.right, names)
    elif isinstance(node, Insert):
        names.add(node.table.upper())
    elif isinstance(node, Update):
        names.add(node.table.upper())
        _collect_expr_tables(node.where, names)
    elif isinstance(node, Delete):
        names.add(node.table.upper())
        _collect_expr_tables(node.where, names)


def _collect_expr_tables(expr, names: set[str]) -> None:
    if expr is None:
        return
    query = getattr(expr, "query", None)
    if query is not None:
        _collect_tables(query, names)
    for attr in ("left", "right", "operand", "low", "high"):
        child = getattr(expr, attr, None)
        if isinstance(child, Expr):
            _collect_expr_tables(child, names)
    for attr in ("operands", "items"):
        children = getattr(expr, attr, None)
        if children:
            for child in children:
                _collect_expr_tables(child, names)
