"""Selection (filter) operator."""

from __future__ import annotations

from typing import Iterator

from ...sql.expressions import Expr
from ...sql.printer import to_sql
from .base import ExecContext, PlanNode, select_rows
from .scan import IndexScan, SeqScan, fused_scan


class Filter(PlanNode):
    """Keeps rows whose predicate is definitely TRUE (⌊P⌋ semantics).

    Over a ``SeqScan`` the predicate is lowered into the scan's
    generated pipeline (no per-row Scope allocation or recursive
    dispatch).  Node by node — over any other input, a predicate the
    lowering refuses (a subquery), armed faults or compilation off —
    the shared evaluator judges each row, re-executing correlated
    subqueries per input row through the reference interpreter and
    counting each invocation.
    """

    def __init__(self, child: PlanNode, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate
        self.schema = child.schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _rows(self, ctx: ExecContext) -> Iterator[tuple]:
        return select_rows(ctx, self.predicate, self.schema, self.child.rows(ctx))

    @property
    def lineage(self) -> tuple:
        return self.child.lineage

    def _fused(
        self,
        ctx: ExecContext,
        node: PlanNode | None = None,
        indices: list[int] | None = None,
    ) -> Iterator[tuple] | None:
        if isinstance(self.child, SeqScan):
            return fused_scan(ctx, node or self, self.child, self.predicate, indices)
        return None

    def label(self) -> str:
        return f"Filter({to_sql(self.predicate)})"


def scan_pipeline(node: PlanNode, indexed: bool = False) -> tuple | None:
    """*node* as a ``SeqScan`` under at most one ``Filter`` — or, if
    *indexed*, an ``IndexScan``, its residual the filter: ``(scan,
    predicate)``, the predicate ``None`` without one; ``None`` otherwise.

    Only the first is a whole table, so only it can stand for its
    table's hash index (an index join's build side)."""
    if isinstance(node, SeqScan):
        return node, None
    if isinstance(node, Filter) and isinstance(node.child, SeqScan):
        return node.child, node.predicate
    if indexed and isinstance(node, IndexScan):
        return node, node.residual
    return None
