"""Rules: convert set operations to existential subqueries (§5.3).

``INTERSECT`` and ``EXCEPT`` normally sort both operands; when one
operand is provably duplicate-free the operation collapses to a
(negated) EXISTS filter over that operand, with the null-safe
correlation predicate of Theorem 3.
"""

from __future__ import annotations

from ...errors import UnsupportedQueryError
from ...sql.ast import Quantifier, Query, SelectQuery, SetOperation, SetOpKind, Star
from ...sql.expressions import Exists, conjoin, conjuncts
from ..theorem3 import correlation_predicate, projection_columns
from ..uniqueness import UniquenessResult, test_uniqueness
from .base import RewriteContext, Rule, query_aliases, rename_alias


class IntersectToExists(Rule):
    """Theorem 3 / Corollary 2: INTERSECT [ALL] -> EXISTS.

    For ``INTERSECT`` either operand being duplicate-free suffices (the
    operation is commutative); for ``INTERSECT ALL`` the duplicate-free
    operand becomes the outer block in both cases, because
    ``min(j, k)`` with one side at most 1 keeps one copy of each common
    row — exactly what the EXISTS filter over the unique side produces.
    """

    name = "intersect-to-exists"

    def apply(
        self, query: Query, ctx: RewriteContext
    ) -> tuple[Query, str] | None:
        if not isinstance(query, SetOperation):
            return None
        if query.kind is not SetOpKind.INTERSECT:
            return None
        left, right = query.left, query.right
        if not isinstance(left, SelectQuery) or not isinstance(
            right, SelectQuery
        ):
            return None

        kind = "Corollary 2 (INTERSECT ALL)" if query.all else "Theorem 3"
        left_verdict = _operand_verdict(left, ctx)
        if _duplicate_free(left_verdict):
            rewritten = _build_exists(left, right, ctx, negated=False)
            if rewritten is None:
                return None
            side = "left"
            chosen = left_verdict
        elif _duplicate_free(right_verdict := _operand_verdict(right, ctx)):
            rewritten = _build_exists(right, left, ctx, negated=False)
            if rewritten is None:
                return None
            side = "right"
            chosen = right_verdict
        else:
            ctx.record(
                self.name,
                kind,
                "rejected",
                query,
                "neither operand is provably duplicate-free, so the "
                "intersection keeps its sort-based evaluation",
                lambda: {
                    "left": _operand_witness(left_verdict),
                    "right": _operand_witness(right_verdict),
                },
            )
            return None
        ctx.record(
            self.name,
            kind,
            "fired",
            query,
            f"the {side} operand is duplicate-free, so the intersection "
            "becomes an existential subquery with null-safe matching",
            lambda: _operand_witness(chosen),
        )
        return rewritten, (
            f"{kind}: the {side} operand is duplicate-free, so the "
            "intersection becomes an existential subquery with null-safe "
            "matching"
        )


class ExceptToNotExists(Rule):
    """The EXCEPT analogue the paper mentions but omits for space.

    ``Q = π[A_R](σ_{C_R}(R)) −_d π[A_S](σ_{C_S}(S))`` rewrites to
    ``σ[C_R ∧ ¬∃(σ[C_S ∧ C_{R,S}](S))](R)`` projected on ``A_R`` when
    the **left** operand is duplicate-free (EXCEPT is not commutative;
    a duplicate-free right operand does not help: ``max(j - 1, 0)`` is
    not expressible as a per-row filter).
    """

    name = "except-to-not-exists"

    def apply(
        self, query: Query, ctx: RewriteContext
    ) -> tuple[Query, str] | None:
        if not isinstance(query, SetOperation):
            return None
        if query.kind is not SetOpKind.EXCEPT:
            return None
        left, right = query.left, query.right
        if not isinstance(left, SelectQuery) or not isinstance(
            right, SelectQuery
        ):
            return None
        left_verdict = _operand_verdict(left, ctx)
        if not _duplicate_free(left_verdict):
            ctx.record(
                self.name,
                "Theorem 3 (EXCEPT analogue)",
                "rejected",
                query,
                "the left operand is not provably duplicate-free (EXCEPT "
                "is not commutative, so only the left side can justify "
                "the rewrite)",
                lambda: {"left": _operand_witness(left_verdict)},
            )
            return None
        rewritten = _build_exists(left, right, ctx, negated=True)
        if rewritten is None:
            return None
        ctx.record(
            self.name,
            "Theorem 3 (EXCEPT analogue)",
            "fired",
            query,
            "the left operand is duplicate-free, so the difference "
            "becomes a NOT EXISTS filter with null-safe matching",
            lambda: _operand_witness(left_verdict),
        )
        return rewritten, (
            "the left operand is duplicate-free, so the difference becomes "
            "a NOT EXISTS filter with null-safe matching"
        )


def _operand_verdict(
    operand: SelectQuery, ctx: RewriteContext
) -> UniquenessResult | None:
    """Algorithm 1's verdict on one set-operation operand, or None for a
    DISTINCT block (which never produces duplicates)."""
    if operand.distinct:
        return None
    return test_uniqueness(operand, ctx.catalog, ctx.options)


def _duplicate_free(verdict: UniquenessResult | None) -> bool:
    return verdict is None or verdict.unique


def _operand_witness(verdict: UniquenessResult | None) -> dict:
    """Audit evidence for one set-operation operand's uniqueness."""
    if verdict is None:
        return {
            "duplicate_free": True,
            "reason": "DISTINCT block never produces duplicates",
        }
    payload = verdict.witness()
    payload["duplicate_free"] = verdict.unique
    payload["reason"] = verdict.reason
    return payload


def _build_exists(
    outer: SelectQuery,
    inner: SelectQuery,
    ctx: RewriteContext,
    negated: bool,
) -> SelectQuery | None:
    """``outer WHERE [NOT] EXISTS (inner with null-safe correlation)``."""
    try:
        outer_columns = projection_columns(outer, ctx.catalog)
        inner_columns = projection_columns(inner, ctx.catalog)
    except UnsupportedQueryError:
        return None
    if len(outer_columns) != len(inner_columns):
        return None

    taken = query_aliases(outer)
    renames: dict[str, str] = {}
    for ref in inner.tables:
        alias = ref.effective_name
        if alias in taken:
            fresh = ctx.fresh_alias(alias, taken | query_aliases(inner))
            renames[alias] = fresh
            inner = rename_alias(inner, alias, fresh)
    if renames:
        inner_columns = [
            (
                type(ref)(renames.get(ref.qualifier, ref.qualifier), ref.column),
                nullable,
            )
            for ref, nullable in inner_columns
        ]

    correlation = correlation_predicate(outer_columns, inner_columns)
    subquery = SelectQuery(
        quantifier=Quantifier.ALL,
        select_list=(Star(),),
        tables=inner.tables,
        where=conjoin(conjuncts(inner.where) + conjuncts(correlation)),
    )
    new_where = conjoin(
        conjuncts(outer.where) + [Exists(subquery, negated=negated)]
    )
    return outer.with_where(new_where)
