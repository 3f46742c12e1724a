"""Rewrite-rule infrastructure: rules, steps, context, alias renaming."""

from __future__ import annotations

from dataclasses import dataclass, field

from ...catalog.schema import Catalog
from ...sql.ast import Query, SelectQuery, SetOperation, TableRef
from ...sql.expressions import ColumnRef, Exists, Expr, InSubquery
from ...sql.printer import to_sql
from ..uniqueness import UniquenessOptions


@dataclass
class RewriteStep:
    """One applied rewrite, for the optimizer's trace."""

    rule: str
    before: Query
    after: Query
    note: str

    def describe(self) -> str:
        """Render this step for the optimizer trace."""
        return (
            f"[{self.rule}] {self.note}\n"
            f"  before: {to_sql(self.before)}\n"
            f"  after:  {to_sql(self.after)}"
        )


class RewriteContext:
    """Shared state handed to rules: catalog, options, alias generator,
    and (when the optimizer attaches one) the audit trail rules record
    their theorem decisions into."""

    def __init__(
        self, catalog: Catalog, options: UniquenessOptions | None = None
    ) -> None:
        self.catalog = catalog
        self.options = options or UniquenessOptions()
        self.audit = None  # an observe.AuditTrail during optimize()

    def record(
        self,
        rule: str,
        theorem: str,
        decision: str,
        target: Query | str,
        note: str,
        witness: dict | None = None,
    ) -> None:
        """Record one theorem decision when an audit trail is attached.

        No-op otherwise, so rules stay usable outside the optimizer
        without paying for evidence they have no trail to put in.
        *target* is the query the decision is about, or its printed
        form when the rule already has one.
        """
        if self.audit is not None:
            if not isinstance(target, str):
                target = to_sql(target)
            self.audit.record(rule, theorem, decision, target, note, witness)

    def fresh_alias(self, base: str, taken: set[str]) -> str:
        """A correlation name not in *taken*, derived from *base*."""
        if base not in taken:
            return base
        counter = 1
        while f"{base}_{counter}" in taken:
            counter += 1
        return f"{base}_{counter}"


class Rule:
    """A semantic rewrite rule.

    ``apply`` returns ``(rewritten_query, note)`` when the rule fires, or
    None when it does not apply.  Rules must be semantics-preserving for
    every database instance — the property-based suite executes original
    and rewritten queries on random instances and requires multiset-equal
    results.
    """

    name: str = "rule"

    def apply(
        self, query: Query, ctx: RewriteContext
    ) -> tuple[Query, str] | None:
        raise NotImplementedError


def rename_alias(query: SelectQuery, old: str, new: str) -> SelectQuery:
    """Rename one FROM-clause correlation name throughout a block.

    Rewrites the table reference, the WHERE predicate (descending into
    subqueries unless they shadow the name), the select list, and ORDER
    BY items.
    """
    tables = tuple(
        TableRef(ref.name, new)
        if ref.effective_name == old
        else ref
        for ref in query.tables
    )
    where = _rename_in_expr(query.where, old, new) if query.where else None
    select_list = tuple(
        item
        if not hasattr(item, "expr")
        else type(item)(_rename_in_expr(item.expr, old, new), item.alias)
        for item in query.select_list
    )
    from ...sql.ast import Star

    select_list = tuple(
        Star(new) if isinstance(item, Star) and item.qualifier == old else item
        for item in select_list
    )
    order_by = tuple(
        type(item)(_rename_in_expr(item.expr, old, new), item.ascending)
        for item in query.order_by
    )
    return SelectQuery(
        quantifier=query.quantifier,
        select_list=select_list,
        tables=tables,
        where=where,
        order_by=order_by,
    )


def _rename_in_expr(expr: Expr, old: str, new: str) -> Expr:
    def rewrite(node: Expr) -> Expr | None:
        if isinstance(node, ColumnRef) and node.qualifier == old:
            return ColumnRef(new, node.column)
        if isinstance(node, Exists):
            return Exists(_rename_in_query(node.query, old, new), node.negated)
        if isinstance(node, InSubquery):
            return InSubquery(
                node.operand,  # operand already rewritten bottom-up
                _rename_in_query(node.query, old, new),
                node.negated,
            )
        return None

    return expr.transform(rewrite)


def _rename_in_query(query, old: str, new: str):
    """Rename correlated references inside a nested query.

    If the nested block declares the same correlation name, the outer
    name is shadowed and nothing inside can refer to it.
    """
    if isinstance(query, SetOperation):
        return SetOperation(
            query.kind,
            query.all,
            _rename_in_query(query.left, old, new),
            _rename_in_query(query.right, old, new),
        )
    assert isinstance(query, SelectQuery)
    if any(ref.effective_name == old for ref in query.tables):
        return query  # shadowed
    where = _rename_in_expr(query.where, old, new) if query.where else None
    return query.with_where(where)


def query_aliases(query: SelectQuery) -> set[str]:
    """The effective FROM-clause names of a block."""
    return {ref.effective_name for ref in query.tables}


def mentions_alias(expr: Expr, alias: str) -> bool:
    """Whether *expr* (including nested subqueries) references *alias*."""
    for node in expr.walk():
        if isinstance(node, ColumnRef) and node.qualifier == alias:
            return True
        if isinstance(node, (Exists, InSubquery)):
            if _query_mentions_alias(node.query, alias):
                return True
    return False


def _query_mentions_alias(query, alias: str) -> bool:
    if isinstance(query, SetOperation):
        return _query_mentions_alias(query.left, alias) or _query_mentions_alias(
            query.right, alias
        )
    assert isinstance(query, SelectQuery)
    if any(ref.effective_name == alias for ref in query.tables):
        return False  # shadowed
    return query.where is not None and mentions_alias(query.where, alias)
