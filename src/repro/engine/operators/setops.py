"""Set-operation operator (INTERSECT / EXCEPT / UNION, ALL or DISTINCT).

Implements the classic strategy the paper describes for Intersect
(§5.3): materialize and sort both operands, then merge counting
occurrences — INTERSECT ALL keeps ``min(j, k)`` copies of each row,
EXCEPT ALL ``max(j - k, 0)``.  Rows compare under ≐ semantics (NULLs
equal), as required for set operations.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from ...sql.ast import SetOpKind
from ...types.values import key_extractor
from ..schema import Scope
from .base import ExecContext, PlanNode


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

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        left_rows = list(self.left.rows(ctx, outer))
        right_rows = list(self.right.rows(ctx, outer))
        ctx.stats.sorts += 2
        ctx.stats.sort_rows += len(left_rows) + len(right_rows)

        row_key = key_extractor()
        left_counts: Counter = Counter()
        representatives: dict = {}
        for row in left_rows:
            key = row_key(row)
            left_counts[key] += 1
            representatives.setdefault(key, row)
        right_counts: Counter = Counter(map(row_key, right_rows))

        if self.kind is SetOpKind.UNION:
            if self.all_rows:
                yield from left_rows
                yield from right_rows
                return
            emitted: set = set()
            duplicates = 0
            try:
                for row in left_rows + right_rows:
                    key = row_key(row)
                    if key not in emitted:
                        emitted.add(key)
                        yield row
                    else:
                        duplicates += 1
            finally:
                ctx.stats.duplicates_removed += duplicates
            return

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
