"""Render ASTs back to SQL text.

The printer produces canonical, re-parseable SQL.  Rewrite rules return
ASTs; :func:`to_sql` is how examples and benchmarks display the rewritten
query, and the round-trip property (`parse(to_sql(q)) == q` up to
normalization) is enforced by the test suite.

A query parsed as a :class:`~repro.sql.parser.Shape` prints its slots
as ``:$<n>``; :func:`bind_slots` writes them back as the literals, the
bytes :func:`to_sql` prints for the literal query.
"""

from __future__ import annotations

import re

from ..types.values import format_value
from .ast import (
    CheckClause,
    ColumnDef,
    CreateTable,
    ForeignKeyClause,
    Insert,
    OrderItem,
    PrimaryKeyClause,
    Quantifier,
    Query,
    SelectItem,
    SelectQuery,
    SetOperation,
    Star,
    Statement,
    TableRef,
    UniqueClause,
)
from .expressions import (
    And,
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
)
from .parser import SLOT

# Precedence levels used to decide where parentheses are required.
_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_ATOM = 4


def to_sql(node: Statement | Expr) -> str:
    """Render a statement or expression as SQL text."""
    if isinstance(node, SelectQuery):
        return _select_sql(node)
    if isinstance(node, SetOperation):
        return _setop_sql(node)
    if isinstance(node, CreateTable):
        return _create_table_sql(node)
    if isinstance(node, Insert):
        return _insert_sql(node)
    if isinstance(node, Expr):
        return _expr_sql(node, _PREC_OR)
    raise TypeError(f"cannot print {type(node).__name__}")


_SLOT = re.compile(f":({re.escape(SLOT)}[0-9]+)")


def bind_slots(text: str, values: dict) -> str:
    """*text*, printed from a shape's query, with each slot *values*
    binds written as its literal."""

    def literal(match: re.Match) -> str:
        name = match.group(1)
        return format_value(values[name]) if name in values else match.group(0)

    return _SLOT.sub(literal, text)


def _select_sql(query: SelectQuery) -> str:
    items = ", ".join(_select_item_sql(item) for item in query.select_list)
    quantifier = "DISTINCT " if query.quantifier is Quantifier.DISTINCT else ""
    tables = ", ".join(_table_ref_sql(table) for table in query.tables)
    sql = f"SELECT {quantifier}{items} FROM {tables}"
    if query.where is not None:
        sql += f" WHERE {_expr_sql(query.where, _PREC_OR)}"
    if query.order_by:
        order = ", ".join(_order_item_sql(item) for item in query.order_by)
        sql += f" ORDER BY {order}"
    return sql


def _setop_sql(operation: SetOperation) -> str:
    keyword = operation.kind.value + (" ALL" if operation.all else "")
    left = _setop_operand_sql(operation.left)
    right = _setop_operand_sql(operation.right)
    return f"{left} {keyword} {right}"


def _setop_operand_sql(query: Query) -> str:
    if isinstance(query, SetOperation):
        return f"({_setop_sql(query)})"
    return _select_sql(query)


def _select_item_sql(item: SelectItem | Star) -> str:
    if isinstance(item, Star):
        return f"{item.qualifier}.*" if item.qualifier else "*"
    text = _expr_sql(item.expr, _PREC_ATOM)
    if item.alias:
        text += f" AS {item.alias}"
    return text


def _table_ref_sql(table: TableRef) -> str:
    if table.alias:
        return f"{table.name} {table.alias}"
    return table.name


def _order_item_sql(item: OrderItem) -> str:
    text = _expr_sql(item.expr, _PREC_ATOM)
    return text if item.ascending else f"{text} DESC"


def _expr_sql(expr: Expr, parent_prec: int) -> str:
    text, prec = _expr_sql_prec(expr)
    if prec < parent_prec:
        return f"({text})"
    return text


def _expr_sql_prec(expr: Expr) -> tuple[str, int]:
    if isinstance(expr, Literal):
        return format_value(expr.value), _PREC_ATOM
    if isinstance(expr, ColumnRef):
        if expr.qualifier:
            return f"{expr.qualifier}.{expr.column}", _PREC_ATOM
        return expr.column, _PREC_ATOM
    if isinstance(expr, HostVar):
        return f":{expr.name}", _PREC_ATOM
    if isinstance(expr, Comparison):
        left = _expr_sql(expr.left, _PREC_ATOM)
        right = _expr_sql(expr.right, _PREC_ATOM)
        return f"{left} {expr.op} {right}", _PREC_ATOM
    if isinstance(expr, And):
        parts = [_expr_sql(op, _PREC_AND) for op in expr.operands]
        return " AND ".join(parts), _PREC_AND
    if isinstance(expr, Or):
        parts = [_expr_sql(op, _PREC_OR + 1) for op in expr.operands]
        return " OR ".join(parts), _PREC_OR
    if isinstance(expr, Not):
        return f"NOT {_expr_sql(expr.operand, _PREC_NOT)}", _PREC_NOT
    if isinstance(expr, IsNull):
        operand = _expr_sql(expr.operand, _PREC_ATOM)
        middle = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{operand} {middle}", _PREC_ATOM
    if isinstance(expr, Between):
        operand = _expr_sql(expr.operand, _PREC_ATOM)
        low = _expr_sql(expr.low, _PREC_ATOM)
        high = _expr_sql(expr.high, _PREC_ATOM)
        negation = "NOT " if expr.negated else ""
        return f"{operand} {negation}BETWEEN {low} AND {high}", _PREC_ATOM
    if isinstance(expr, InList):
        operand = _expr_sql(expr.operand, _PREC_ATOM)
        items = ", ".join(_expr_sql(item, _PREC_ATOM) for item in expr.items)
        negation = "NOT " if expr.negated else ""
        return f"{operand} {negation}IN ({items})", _PREC_ATOM
    if isinstance(expr, Exists):
        negation = "NOT " if expr.negated else ""
        return f"{negation}EXISTS ({to_sql(expr.query)})", _PREC_ATOM
    if isinstance(expr, InSubquery):
        operand = _expr_sql(expr.operand, _PREC_ATOM)
        negation = "NOT " if expr.negated else ""
        return f"{operand} {negation}IN ({to_sql(expr.query)})", _PREC_ATOM
    raise TypeError(f"cannot print expression {type(expr).__name__}")


def _create_table_sql(statement: CreateTable) -> str:
    elements = [_column_def_sql(column) for column in statement.columns]
    for constraint in statement.constraints:
        elements.append(_table_constraint_sql(constraint))
    body = ", ".join(elements)
    return f"CREATE TABLE {statement.name} ({body})"


def _column_def_sql(column: ColumnDef) -> str:
    type_text = column.type_name
    if column.length is not None:
        type_text += f"({column.length})"
    text = f"{column.name} {type_text}"
    if column.not_null:
        text += " NOT NULL"
    if column.check is not None:
        text += f" CHECK ({_expr_sql(column.check, _PREC_OR)})"
    return text


def _table_constraint_sql(constraint) -> str:
    if isinstance(constraint, PrimaryKeyClause):
        return f"PRIMARY KEY ({', '.join(constraint.columns)})"
    if isinstance(constraint, UniqueClause):
        return f"UNIQUE ({', '.join(constraint.columns)})"
    if isinstance(constraint, CheckClause):
        return f"CHECK ({_expr_sql(constraint.condition, _PREC_OR)})"
    if isinstance(constraint, ForeignKeyClause):
        text = f"FOREIGN KEY ({', '.join(constraint.columns)}) REFERENCES {constraint.ref_table}"
        if constraint.ref_columns:
            text += f" ({', '.join(constraint.ref_columns)})"
        return text
    raise TypeError(f"cannot print constraint {type(constraint).__name__}")


def _insert_sql(statement: Insert) -> str:
    columns = ""
    if statement.columns is not None:
        columns = f" ({', '.join(statement.columns)})"
    rows = ", ".join(
        "(" + ", ".join(format_value(value) for value in row) + ")"
        for row in statement.rows
    )
    return f"INSERT INTO {statement.table}{columns} VALUES {rows}"
