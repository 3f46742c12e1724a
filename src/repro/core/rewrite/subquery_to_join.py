"""Rules: flatten positive existential subqueries into joins (§5.2).

Three justifications, tried in order for each top-level EXISTS conjunct:

* **Theorem 2** — the subquery matches at most one inner tuple per outer
  row, so the flattened join produces exactly the same multiset; the
  quantifier is preserved.
* **DISTINCT observation** — when the outer block already eliminates
  duplicates, flattening is *always* valid (extra join matches collapse).
* **Corollary 1** — when the outer block (without the subquery) is
  provably duplicate-free, the flattened join with DISTINCT projection
  is equivalent to the original ALL query.

A companion normalization rule turns positive ``IN (subquery)``
conjuncts into correlated EXISTS so the flattening rule can handle them.
"""

from __future__ import annotations

from ...analysis.binding import table_columns
from ...catalog.schema import Catalog
from ...sql.ast import Quantifier, Query, SelectItem, SelectQuery, Star, map_where
from ...sql.expressions import (
    ColumnRef,
    Comparison,
    Exists,
    Expr,
    InSubquery,
    conjoin,
    conjuncts,
)
from ..theorem2 import subquery_matches_at_most_one
from ..uniqueness import test_uniqueness
from .base import RewriteContext, Rule, query_aliases, rename_alias


class SubqueryToJoin(Rule):
    """Flatten a correlated positive EXISTS into a join."""

    name = "subquery-to-join"

    def apply(
        self, query: Query, ctx: RewriteContext
    ) -> tuple[Query, str] | None:
        if not isinstance(query, SelectQuery):
            return None
        parts = conjuncts(query.where)
        for position, conjunct in enumerate(parts):
            if not isinstance(conjunct, Exists) or conjunct.negated:
                continue
            inner = conjunct.query
            if not isinstance(inner, SelectQuery):
                continue
            if inner.order_by or inner.distinct:
                # DISTINCT/ORDER BY in an EXISTS block is semantically
                # inert but signals intent; normalize first elsewhere.
                inner = inner.with_quantifier(Quantifier.ALL)
            rest = parts[:position] + parts[position + 1 :]
            outcome = self._try_flatten(query, inner, rest, ctx)
            if outcome is not None:
                return outcome
        return None

    def _try_flatten(
        self,
        outer: SelectQuery,
        inner: SelectQuery,
        rest: list[Expr],
        ctx: RewriteContext,
    ) -> tuple[Query, str] | None:
        inner = _rename_conflicts(inner, query_aliases(outer), ctx)
        # Merged into the outer FROM, an unqualified name the outer
        # block also has would turn ambiguous: qualify the body first.
        inner = _qualified(inner, ctx.catalog)

        flattened_where = conjoin(rest + conjuncts(inner.where))
        flattened = SelectQuery(
            quantifier=outer.quantifier,
            select_list=outer.select_list,
            tables=outer.tables + inner.tables,
            where=flattened_where if flattened_where is not None else None,
            order_by=outer.order_by,
        )

        uniqueness = subquery_matches_at_most_one(
            inner, outer, ctx.catalog, ctx.options
        )
        if uniqueness.at_most_one:
            ctx.record(
                self.name,
                "Theorem 2",
                "fired",
                outer,
                "the subquery matches at most one inner tuple per outer "
                f"row ({uniqueness.reason}); flattened to a join",
                uniqueness.witness,
            )
            return flattened, (
                "Theorem 2: the subquery matches at most one inner tuple "
                f"per outer row ({uniqueness.reason})"
            )

        if outer.distinct:
            ctx.record(
                self.name,
                "DISTINCT observation (§5.2)",
                "fired",
                outer,
                "the outer block eliminates duplicates, so flattening "
                "the existential subquery is always valid",
                {"theorem2_reason": uniqueness.reason},
            )
            return flattened, (
                "outer block eliminates duplicates, so flattening the "
                "existential subquery is always valid"
            )

        outer_without = outer.with_where(conjoin(rest) if rest else None)
        outer_unique = test_uniqueness(outer_without, ctx.catalog, ctx.options)
        if outer_unique.unique:
            distinct_join = flattened.with_quantifier(Quantifier.DISTINCT)
            ctx.record(
                self.name,
                "Corollary 1",
                "fired",
                outer,
                "the outer block is duplicate-free, so the subquery "
                "converts to a DISTINCT join",
                outer_unique.witness,
            )
            return distinct_join, (
                "Corollary 1: the outer block is duplicate-free, so the "
                "subquery converts to a DISTINCT join"
            )
        ctx.record(
            self.name,
            "Theorem 2 / Corollary 1",
            "rejected",
            outer,
            "every flattening precondition broke: the subquery may match "
            f"several inner tuples ({uniqueness.reason}), the outer block "
            "is not DISTINCT, and the outer block alone is not "
            f"duplicate-free ({outer_unique.reason})",
            lambda: {
                "theorem2": uniqueness.witness(),
                "corollary1": outer_unique.witness(),
            },
        )
        return None


class InToExists(Rule):
    """Normalize a positive ``x IN (SELECT c FROM ...)`` conjunct into
    ``EXISTS (SELECT * FROM ... WHERE c = x)``.

    Exact under the false-interpretation of WHERE: both forms reject the
    row when no inner tuple definitely matches.
    """

    name = "in-to-exists"

    def apply(
        self, query: Query, ctx: RewriteContext
    ) -> tuple[Query, str] | None:
        if not isinstance(query, SelectQuery) or query.where is None:
            return None
        parts = conjuncts(query.where)
        for position, conjunct in enumerate(parts):
            if not isinstance(conjunct, InSubquery) or conjunct.negated:
                continue
            inner = conjunct.query
            if not isinstance(inner, SelectQuery):
                continue
            inner_column = _single_output_column(inner)
            if inner_column is None:
                continue
            correlation = Comparison("=", inner_column, conjunct.operand)
            exists_inner = SelectQuery(
                quantifier=Quantifier.ALL,
                select_list=(Star(),),
                tables=inner.tables,
                where=conjoin(conjuncts(inner.where) + [correlation]),
            )
            parts = list(parts)
            parts[position] = Exists(exists_inner)
            rewritten = query.with_where(conjoin(parts))
            ctx.record(
                self.name,
                "normalization",
                "fired",
                query,
                "IN (subquery) normalized to correlated EXISTS so the "
                "Theorem 2 flattening test can examine it",
            )
            return rewritten, "IN (subquery) normalized to EXISTS"
        return None


def _single_output_column(inner: SelectQuery) -> ColumnRef | None:
    if len(inner.select_list) != 1:
        return None
    item = inner.select_list[0]
    if isinstance(item, Star):
        return None
    if isinstance(item, SelectItem) and isinstance(item.expr, ColumnRef):
        return item.expr
    return None


def _qualified(query: Query, catalog: Catalog) -> Query:
    """*query* with each unqualified name its FROM, or a block nested in
    it, answers to qualified — innermost FROM first, the rule
    :meth:`~repro.engine.schema.Scope.resolve` applies at run time.  A
    name no frame answers to (an outer reference), or that one FROM
    answers to twice (ambiguous), stays as written."""

    def qualify(node: Expr, frames: tuple[dict[str, list[str]], ...]) -> Expr | None:
        if isinstance(node, ColumnRef) and node.qualifier is None:
            for columns in frames:
                owners = [
                    alias for alias, names in columns.items() if node.column in names
                ]
                if len(owners) == 1:
                    return ColumnRef(owners[0], node.column)
                if owners:
                    return None
        return None

    return map_where(query, qualify, lambda block: table_columns(block, catalog))


def _rename_conflicts(
    inner: SelectQuery, taken: set[str], ctx: RewriteContext
) -> SelectQuery:
    """Rename inner correlation names that collide with the outer block."""
    for ref in list(inner.tables):
        alias = ref.effective_name
        if alias in taken:
            fresh = ctx.fresh_alias(alias, taken | query_aliases(inner))
            inner = rename_alias(inner, alias, fresh)
    return inner
