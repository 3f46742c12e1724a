"""Rule: remove an unnecessary DISTINCT (the paper's §5.1)."""

from __future__ import annotations

from ...sql.ast import Quantifier, Query, SelectQuery
from ...sql.printer import to_sql
from ..uniqueness import test_uniqueness
from .base import RewriteContext, Rule


class DistinctElimination(Rule):
    """Replace ``SELECT DISTINCT`` by ``SELECT ALL`` when Algorithm 1
    proves the projection duplicate-free.

    This removes the result sort entirely; benchmark E1 measures the
    effect.  The rule is the workhorse for CASE-tool/templated queries
    that specify DISTINCT defensively.
    """

    name = "distinct-elimination"

    def apply(
        self, query: Query, ctx: RewriteContext
    ) -> tuple[Query, str] | None:
        if not isinstance(query, SelectQuery) or not query.distinct:
            return None
        # One rendering serves Algorithm 1's memo key and the audit record.
        text = to_sql(query)
        result = test_uniqueness(query, ctx.catalog, ctx.options, text=text)
        if not result.unique:
            ctx.record(
                self.name,
                "Theorem 1",
                "rejected",
                text,
                f"Algorithm 1 answers NO: {result.reason}",
                result.witness,
            )
            return None
        rewritten = query.with_quantifier(Quantifier.ALL)
        ctx.record(
            self.name,
            "Theorem 1",
            "fired",
            text,
            f"Algorithm 1 answers YES: {result.reason}; DISTINCT removed",
            result.witness,
        )
        return rewritten, (
            "Theorem 1 holds (Algorithm 1: "
            + result.reason
            + "); duplicate elimination is unnecessary"
        )
