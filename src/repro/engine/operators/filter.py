"""Selection (filter) operator."""

from __future__ import annotations

from typing import Iterator

from ...sql.expressions import Expr
from ...sql.printer import to_sql
from ..schema import Scope
from .base import ExecContext, PlanNode, select_rows
from .scan import IndexScan, SeqScan, fused_scan


class Filter(PlanNode):
    """Keeps rows whose predicate is definitely TRUE (⌊P⌋ semantics).

    Simple predicates are compiled once per execution into a generated
    row test (no per-row Scope allocation or recursive dispatch) — over
    a ``SeqScan``, into the scan's generated pipeline; predicates the
    compiler rejects — subqueries, outer references — run through the
    shared evaluator, which re-executes correlated subqueries per input
    row through the reference interpreter, counting each invocation.

    The interpretive path doubles as the verified fallback: a failure in
    compilation, or in a compiled closure mid-stream, degrades to the
    evaluator for the remaining rows with identical semantics.
    """

    def __init__(self, child: PlanNode, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate
        self.schema = child.schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        return select_rows(
            ctx, self.predicate, self.schema, self.child.rows(ctx, outer), outer
        )

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
