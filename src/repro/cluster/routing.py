"""Key-aware routing: the Theorem 1 single-shard fast path.

Theorem 1 of the paper: a query whose WHERE clause binds every column
of a candidate key to a constant identifies *at most one row*, so the
key's values name that row and the front end sends the request to the
one worker they hash to on the ring.  Every other query is forwarded
whole to a replica picked by hashing (session, SQL).  Each worker holds
the whole database, so both routes are correct; the point route spreads
one query text's keys across workers and keeps each key on one.

Detection is purely structural (and therefore cacheable per SQL text):
a single-table SELECT whose WHERE is a conjunction containing
``column = literal-or-host-var`` terms that fully cover one of the
table's declared candidate keys.  Extra conjuncts only filter further,
so they never invalidate the ≤1-row bound.  The *values* bound to the
key (literals, or host variables resolved against the request params)
form the routing key hashed onto the ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sql.ast import SelectQuery
from ..sql.expressions import And, ColumnRef, Comparison, Expr, HostVar, Literal

__all__ = ["PointRoute", "detect_point_route"]


@dataclass(frozen=True)
class PointRoute:
    """A compiled single-shard route for one SQL text.

    ``bindings`` pairs each key column with how its value arrives:
    ``("literal", value)`` baked into the SQL, or ``("param", name)``
    resolved from the request's host-variable params at route time.
    """

    table: str
    key_columns: tuple[str, ...]
    bindings: tuple[tuple[str, object], ...]

    def routing_key(self, params: dict | None) -> tuple | None:
        """The concrete ``(table, *values)`` key, or None when a host
        variable the key needs is absent from *params*."""
        values = []
        for kind, payload in self.bindings:
            if kind == "literal":
                values.append(payload)
            else:
                if params is None:
                    return None
                name = str(payload)
                if name in params:
                    values.append(params[name])
                elif name.upper() in params:
                    values.append(params[name.upper()])
                elif name.lower() in params:
                    values.append(params[name.lower()])
                else:
                    return None
        return (self.table, *values)


def detect_point_route(query: object, catalog: object) -> PointRoute | None:
    """Compile the Theorem 1 fast path for *query*, if it applies.

    *query* is a parsed :class:`SelectQuery` / :class:`SetOperation`;
    *catalog* supplies candidate keys.  Returns None whenever the
    uniqueness argument does not hold structurally.
    """
    if not isinstance(query, SelectQuery):
        return None
    if len(query.tables) != 1:
        return None
    ref = query.tables[0]
    table_name = ref.name.upper()
    if table_name not in catalog:
        return None
    schema = catalog.table(table_name)
    if not schema.candidate_keys:
        return None
    aliases = {table_name}
    if ref.alias:
        aliases.add(ref.alias.upper())

    bindings: dict[str, tuple[str, object]] = {}
    for conjunct in _conjuncts(query.where):
        bound = _equality_binding(conjunct, aliases, schema)
        if bound is not None:
            column, binding = bound
            bindings.setdefault(column, binding)

    for key in schema.candidate_keys:
        if all(column in bindings for column in key.columns):
            return PointRoute(
                table=table_name,
                key_columns=tuple(key.columns),
                bindings=tuple(bindings[c] for c in key.columns),
            )
    return None


def _conjuncts(where: Expr | None) -> list[Expr]:
    if where is None:
        return []
    if isinstance(where, And):
        flat: list[Expr] = []
        for operand in where.operands:
            flat.extend(_conjuncts(operand))
        return flat
    return [where]


def _equality_binding(
    expr: Expr, aliases: set[str], schema: object
) -> tuple[str, tuple[str, object]] | None:
    """``col = constant`` (either orientation) → (column, binding)."""
    if not isinstance(expr, Comparison) or expr.op != "=":
        return None
    for column_side, value_side in (
        (expr.left, expr.right),
        (expr.right, expr.left),
    ):
        if not isinstance(column_side, ColumnRef):
            continue
        qualifier = column_side.qualifier
        if qualifier is not None and qualifier.upper() not in aliases:
            continue
        column = column_side.column.upper()
        if column not in schema.column_names:
            continue
        if isinstance(value_side, Literal):
            return column, ("literal", value_side.value)
        if isinstance(value_side, HostVar):
            return column, ("param", value_side.name)
    return None
