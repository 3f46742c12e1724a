"""Set-operation operator (INTERSECT / EXCEPT / UNION, ALL or DISTINCT).

Implements the classic strategy the paper describes for Intersect
(§5.3): materialize and sort both operands, then merge counting
occurrences — INTERSECT ALL keeps ``min(j, k)`` copies of each row,
EXCEPT ALL ``max(j - k, 0)``.  UNION ALL concatenates its operands and
UNION deduplicates the concatenation with one sort.  Rows compare under
≐ semantics (NULLs equal), as required for set operations.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from ...sql.ast import SetOpKind
from ...types.values import row_keys
from .base import ExecContext, PlanNode
from .project import sort_distinct


class SortSetOp(PlanNode):
    """Sort-both-operands implementation of a set operation."""

    def __init__(
        self, kind: SetOpKind, all_rows: bool, left: PlanNode, right: PlanNode
    ) -> None:
        self.kind = kind
        self.all_rows = all_rows
        self.left = left
        self.right = right
        self.schema = left.schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def _rows(self, ctx: ExecContext) -> Iterator[tuple]:
        if self.kind is SetOpKind.UNION and not self.all_rows:
            # The concatenation, deduplicated by one sort.
            return sort_distinct(ctx, lambda: list(self._merged(ctx)))
        return self._merged(ctx)

    def _merged(self, ctx: ExecContext) -> Iterator[tuple]:
        """UNION's concatenation, or INTERSECT / EXCEPT's merge."""
        left_rows = list(self.left.rows(ctx))
        right_rows = list(self.right.rows(ctx))
        if self.kind is SetOpKind.UNION:
            yield from left_rows + right_rows
            return

        ctx.stats.sorts += 2
        ctx.stats.sort_rows += len(left_rows) + len(right_rows)
        left_keys, right_keys = row_keys(left_rows, right_rows)
        left_counts = Counter(left_keys)
        right_counts = Counter(right_keys)
        # Written back to front, so each key keeps its first row.
        representatives = dict(zip(left_keys[::-1], left_rows[::-1]))
        for key in sorted(left_counts):
            j = left_counts[key]
            k = right_counts.get(key, 0)
            if self.kind is SetOpKind.INTERSECT:
                copies = min(j, k) if self.all_rows else (1 if min(j, k) > 0 else 0)
            else:  # EXCEPT
                copies = max(j - k, 0) if self.all_rows else (1 if k == 0 else 0)
            for _ in range(copies):
                yield representatives[key]

    def label(self) -> str:
        suffix = " ALL" if self.all_rows else ""
        return f"SetOp({self.kind.value}{suffix}, sort)"
