"""Rule: convert a join into an existential subquery (§6).

The reverse of subquery flattening.  In navigational systems (IMS,
pointer-based object stores) a nested-loops strategy is the native
access pattern, and a join whose joined table contributes nothing to the
projection is better expressed as an EXISTS probe: the inner scan can
stop at the first match (the paper's Example 10 halves the DL/I calls).

The rewrite removes one FROM-clause table S when:

* no projection or ORDER BY item references S, and either
* **Theorem 2 (reversed)** — the conjuncts mentioning S bind a candidate
  key of S given the remaining tables, so at most one S-tuple matches
  and the multiset is unchanged, or
* the query projects with DISTINCT, where extra matches collapse anyway.
"""

from __future__ import annotations

from ...sql.ast import Quantifier, Query, SelectQuery, Star, TableRef
from ...sql.expressions import (
    ColumnRef,
    Exists,
    Expr,
    InSubquery,
    conjoin,
    conjuncts,
)
from ...analysis.binding import projection_attributes, qualify, table_columns
from ..theorem2 import subquery_matches_at_most_one
from .base import RewriteContext, Rule


class JoinToSubquery(Rule):
    """Fold a projection-invisible table into an EXISTS subquery."""

    name = "join-to-subquery"

    def apply(
        self, query: Query, ctx: RewriteContext
    ) -> tuple[Query, str] | None:
        if not isinstance(query, SelectQuery) or len(query.tables) < 2:
            return None
        columns = table_columns(query, ctx.catalog)
        where = (
            qualify(query.where, columns, allow_correlated=False)
            if query.where is not None
            else None
        )
        projected = {
            attribute.relation
            for attribute in projection_attributes(query, ctx.catalog)
        }
        ordered = {
            ref.qualifier
            for item in query.order_by
            for ref in [item.expr]
            if hasattr(ref, "qualifier")
        }
        for candidate in query.tables:
            alias = candidate.effective_name
            if alias in projected or alias in ordered:
                continue
            outcome = self._try_fold(query, where, candidate, ctx)
            if outcome is not None:
                return outcome
        return None

    def _try_fold(
        self,
        query: SelectQuery,
        where: Expr | None,
        candidate: TableRef,
        ctx: RewriteContext,
    ) -> tuple[Query, str] | None:
        alias = candidate.effective_name
        all_aliases = {ref.effective_name for ref in query.tables}
        inner_parts: list[Expr] = []
        outer_parts: list[Expr] = []
        for conjunct in conjuncts(where):
            if _mentions(conjunct, alias, all_aliases):
                inner_parts.append(conjunct)
            else:
                outer_parts.append(conjunct)

        inner = SelectQuery(
            quantifier=Quantifier.ALL,
            select_list=(Star(),),
            tables=(candidate,),
            where=conjoin(inner_parts) if inner_parts else None,
        )
        remaining = tuple(
            ref for ref in query.tables if ref.effective_name != alias
        )
        outer = SelectQuery(
            quantifier=query.quantifier,
            select_list=query.select_list,
            tables=remaining,
            where=conjoin(outer_parts) if outer_parts else None,
            order_by=query.order_by,
        )

        uniqueness = subquery_matches_at_most_one(
            inner, outer, ctx.catalog, ctx.options
        )
        if uniqueness.at_most_one:
            note = (
                f"Theorem 2 (reversed): at most one {alias} tuple joins with "
                "each remaining row, so the join becomes a nested EXISTS "
                "probe that can stop at the first match"
            )
            ctx.record(
                self.name,
                "Theorem 2 (reversed)",
                "fired",
                query,
                note,
                uniqueness.witness,
            )
        elif query.distinct:
            note = (
                f"the projection is DISTINCT and never mentions {alias}; "
                "folding the table into EXISTS preserves the result"
            )
            ctx.record(
                self.name,
                "DISTINCT observation (§6)",
                "fired",
                query,
                note,
                {"theorem2_reason": uniqueness.reason},
            )
        else:
            ctx.record(
                self.name,
                "Theorem 2 (reversed)",
                "rejected",
                query,
                f"several {alias} tuples may join with one remaining row "
                f"({uniqueness.reason}) and the projection keeps "
                "duplicates, so folding the join would change the "
                "multiset",
                uniqueness.witness,
            )
            return None

        new_where = conjoin(outer_parts + [Exists(inner)])
        return outer.with_where(new_where), note


def _mentions(conjunct: Expr, alias: str, all_aliases: set[str]) -> bool:
    """Whether a conjunct references *alias*, looking inside subqueries.

    Subquery predicates may reference outer columns; a qualified
    reference is attributed precisely, while an *unqualified* reference
    inside a subquery could resolve to any enclosing table, so the
    conjunct is conservatively treated as mentioning every alias.
    """
    mentioned, conservative = _conjunct_aliases(conjunct, all_aliases)
    if conservative:
        return True
    return alias in mentioned


def _conjunct_aliases(
    conjunct: Expr, outer_aliases: set[str]
) -> tuple[set[str], bool]:
    mentioned: set[str] = set()
    conservative = False
    for node in conjunct.walk():
        if isinstance(node, ColumnRef):
            if node.qualifier is not None:
                mentioned.add(node.qualifier)
            # top-level refs are qualified beforehand; an unqualified one
            # here would be a binder bug, treated conservatively below
            else:
                conservative = True
        elif isinstance(node, (Exists, InSubquery)):
            sub_mentioned, sub_conservative = _subquery_aliases(
                node.query, outer_aliases
            )
            mentioned |= sub_mentioned
            conservative |= sub_conservative
    return mentioned & outer_aliases, conservative


def _subquery_aliases(query, outer_aliases: set[str]) -> tuple[set[str], bool]:
    """Outer aliases referenced inside a nested query (shadow-aware)."""
    from ...sql.ast import SetOperation

    if isinstance(query, SetOperation):
        left = _subquery_aliases(query.left, outer_aliases)
        right = _subquery_aliases(query.right, outer_aliases)
        return left[0] | right[0], left[1] or right[1]
    assert isinstance(query, SelectQuery)
    visible = outer_aliases - {ref.effective_name for ref in query.tables}
    local = {ref.effective_name for ref in query.tables}
    mentioned: set[str] = set()
    conservative = False
    if query.where is not None:
        for node in query.where.walk():
            if isinstance(node, ColumnRef):
                if node.qualifier is None:
                    # could resolve to any enclosing table at runtime
                    conservative = True
                elif node.qualifier in visible:
                    mentioned.add(node.qualifier)
            elif isinstance(node, (Exists, InSubquery)):
                sub_mentioned, sub_conservative = _subquery_aliases(
                    node.query, visible | local
                )
                mentioned |= sub_mentioned & visible
                conservative |= sub_conservative
    return mentioned, conservative
