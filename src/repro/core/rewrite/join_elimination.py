"""Rule: eliminate a join entirely via an inclusion dependency.

The paper's future-work list (§8) proposes "utilizing inclusion
dependencies to prune query graphs, thus implementing King's notion of
join elimination".  This rule implements it for declared FOREIGN KEYs:

In ``SELECT A FROM R, S WHERE R.fk = S.key ∧ rest``, the table S can be
removed — not merely folded into an EXISTS — when

* no projection or ORDER BY item references S,
* the *only* conjuncts mentioning S are exactly the equalities pairing a
  declared foreign key of some other FROM table R with the key of S that
  the FK references (so S filters nothing),
* the referenced columns form a candidate key of S (each R row matches
  at most one S row), and
* the inclusion dependency guarantees each R row with a fully non-NULL
  foreign key matches at least one S row.

Rows whose foreign key contains a NULL never join; when any FK column is
nullable the rewrite adds the compensating ``fk IS NOT NULL`` conjuncts.
Unlike the join→subquery fold, this removes *all* access to S.
"""

from __future__ import annotations

from ...catalog.table import TableSchema
from ...sql.ast import Query, SelectQuery, TableRef
from ...sql.expressions import (
    ColumnRef,
    Comparison,
    Expr,
    IsNull,
    conjoin,
    conjuncts,
    contains_subquery,
)
from ...analysis.binding import projection_attributes, qualify, table_columns
from .base import RewriteContext, Rule


class JoinElimination(Rule):
    """Remove a joined table that provably contributes nothing."""

    name = "join-elimination"

    def apply(
        self, query: Query, ctx: RewriteContext
    ) -> tuple[Query, str] | None:
        if not isinstance(query, SelectQuery) or len(query.tables) < 2:
            return None
        if query.where is None:
            return None
        if contains_subquery(query.where):
            # a subquery may correlate to the candidate table; the
            # join→subquery rule's finer analysis handles those queries
            return None
        columns = table_columns(query, ctx.catalog)
        where = qualify(query.where, columns, allow_correlated=False)
        projected = {
            attribute.relation
            for attribute in projection_attributes(query, ctx.catalog)
        }
        ordered = {
            item.expr.qualifier
            for item in query.order_by
            if isinstance(item.expr, ColumnRef)
        }
        for candidate in query.tables:
            alias = candidate.effective_name
            if alias in projected or alias in ordered:
                continue
            outcome = self._try_eliminate(query, where, candidate, alias, ctx)
            if outcome is not None:
                return outcome
        return None

    def _try_eliminate(
        self,
        query: SelectQuery,
        where: Expr,
        candidate: TableRef,
        alias: str,
        ctx: RewriteContext,
    ) -> tuple[Query, str] | None:
        target_schema = ctx.catalog.table(candidate.name)

        join_pairs: list[tuple[ColumnRef, ColumnRef]] = []  # (other, S col)
        kept: list[Expr] = []
        for conjunct in conjuncts(where):
            pair = self._join_pair(conjunct, alias)
            if pair is not None:
                join_pairs.append(pair)
                continue
            if any(
                isinstance(node, ColumnRef) and node.qualifier == alias
                for node in conjunct.walk()
            ):
                return None  # S is filtered: it does affect the result
            kept.append(conjunct)
        if not join_pairs:
            return None

        # All join pairs must come from a single referencing table.
        referencing = {other.qualifier for other, _ in join_pairs}
        if len(referencing) != 1:
            return None
        other_alias = next(iter(referencing))
        other_ref = next(
            ref for ref in query.tables if ref.effective_name == other_alias
        )
        other_schema = ctx.catalog.table(other_ref.name)

        fk = self._matching_foreign_key(
            other_schema, target_schema, candidate.name, join_pairs
        )
        if fk is None:
            ctx.record(
                self.name,
                "inclusion dependency",
                "rejected",
                query,
                f"{alias} contributes nothing to the projection, but no "
                "declared FOREIGN KEY covers the join pairing exactly "
                "onto a candidate key, so a matching row is not "
                "guaranteed",
                lambda: {"join_pairing": _pairing(join_pairs, alias)},
            )
            return None

        # Compensate for nullable FK columns: NULL keys never joined.
        compensations: list[Expr] = [
            IsNull(ColumnRef(other_alias, column), negated=True)
            for column in fk
            if other_schema.column(column).nullable
        ]

        remaining = tuple(
            ref for ref in query.tables if ref.effective_name != alias
        )
        new_where = conjoin(kept + compensations)
        rewritten = SelectQuery(
            quantifier=query.quantifier,
            select_list=query.select_list,
            tables=remaining,
            where=new_where if kept or compensations else None,
            order_by=query.order_by,
        )
        ctx.record(
            self.name,
            "inclusion dependency",
            "fired",
            query,
            f"{other_alias}({', '.join(fk)}) references a candidate key "
            f"of {candidate.name}: every row matches exactly one {alias} "
            "tuple, so the join is eliminated (King's join elimination)",
            lambda: {
                "foreign_key": list(fk),
                "join_pairing": _pairing(join_pairs, alias),
                "compensations": [
                    f"{other_alias}.{column} IS NOT NULL"
                    for column in fk
                    if other_schema.column(column).nullable
                ],
            },
        )
        return rewritten, (
            f"inclusion dependency {other_alias}({', '.join(fk)}) -> "
            f"{candidate.name}: every row matches exactly one {alias} "
            "tuple, so the join is eliminated (King's join elimination)"
        )

    def _join_pair(
        self, conjunct: Expr, alias: str
    ) -> tuple[ColumnRef, ColumnRef] | None:
        """``(other_col, s_col)`` when the conjunct equates across S."""
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            return None
        a, b = conjunct.left, conjunct.right
        if not isinstance(a, ColumnRef) or not isinstance(b, ColumnRef):
            return None
        if a.qualifier == alias and b.qualifier not in (alias, None):
            return b, a
        if b.qualifier == alias and a.qualifier not in (alias, None):
            return a, b
        return None

    def _matching_foreign_key(
        self,
        other_schema: TableSchema,
        target_schema: TableSchema,
        target_name: str,
        join_pairs: list[tuple[ColumnRef, ColumnRef]],
    ) -> tuple[str, ...] | None:
        """The FK of *other_schema* whose column pairing the join uses.

        The join conjuncts must cover the FK exactly, and the referenced
        columns must cover a candidate key of the target (so the match
        is unique as well as guaranteed).
        """
        pairing = {
            (other.column, target.column) for other, target in join_pairs
        }
        for fk in other_schema.foreign_keys:
            if fk.ref_table != target_name.upper():
                continue
            ref_columns = fk.referenced_columns(target_schema)
            if ref_columns is None:
                continue
            if pairing != set(zip(fk.columns, ref_columns)):
                continue
            if target_schema.covered_key(ref_columns) is not None:
                return fk.columns
        return None


def _pairing(join_pairs: list[tuple[ColumnRef, ColumnRef]], alias: str) -> list[str]:
    """The join pairs as audit text, ``other.col = alias.col``."""
    return [
        f"{other.qualifier}.{other.column} = {alias}.{target.column}"
        for other, target in join_pairs
    ]
