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

from ...errors import ResourceError
from ...sql.ast import SetOpKind
from ...types.values import key_extractor, row_sort_key
from ..columnar import batch_fault_check, batches_from_rows
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

    # ------------------------------------------------------------------
    # vectorized path

    def _gather(self, ctx: ExecContext, outer, child):
        """Materialize one operand as (rows, canonical keys).

        Keys come from per-batch ``sort_keys()`` vectors; a kernel
        failure demotes the remaining batches to per-row
        ``row_sort_key``, which computes the identical canonical keys.
        """
        rows: list[tuple] = []
        keys: list[tuple] = []
        demoted = False
        for batch in child.batches(ctx, outer):
            batch_rows = batch.to_rows()
            rows.extend(batch_rows)
            if not demoted:
                try:
                    batch_fault_check()
                    keys.extend(batch.sort_keys())
                    continue
                except ResourceError:
                    raise
                except Exception:
                    ctx.stats.vectorized_fallbacks += 1
                    demoted = True
            keys.extend(map(row_sort_key, batch_rows))
        return rows, keys

    def _batches(self, ctx: ExecContext, outer: Scope | None = None):
        """Set operation over canonical key vectors (same counting
        strategy as :meth:`_rows`, with the per-row key calls replaced
        by batch key vectors)."""
        stats = ctx.stats
        left_rows, left_keys = self._gather(ctx, outer, self.left)
        right_rows, right_keys = self._gather(ctx, outer, self.right)
        stats.sorts += 2
        stats.sort_rows += len(left_rows) + len(right_rows)

        left_counts: Counter = Counter()
        representatives: dict = {}
        for row, key in zip(left_rows, left_keys):
            left_counts[key] += 1
            representatives.setdefault(key, row)
        right_counts: Counter = Counter(right_keys)

        def emit():
            if self.kind is SetOpKind.UNION:
                if self.all_rows:
                    yield from left_rows
                    yield from right_rows
                    return
                emitted: set = set()
                for row, key in zip(
                    left_rows + right_rows, left_keys + right_keys
                ):
                    if key not in emitted:
                        emitted.add(key)
                        yield row
                    else:
                        stats.duplicates_removed += 1
                return
            for key in sorted(left_counts):
                j = left_counts[key]
                k = right_counts.get(key, 0)
                if self.kind is SetOpKind.INTERSECT:
                    copies = (
                        min(j, k) if self.all_rows
                        else (1 if min(j, k) > 0 else 0)
                    )
                else:  # EXCEPT
                    copies = (
                        max(j - k, 0) if self.all_rows
                        else (1 if k == 0 else 0)
                    )
                for _ in range(copies):
                    yield representatives[key]

        for out in batches_from_rows(emit(), len(self.schema), ctx.batch_rows):
            stats.vectorized_batches += 1
            stats.vectorized_rows += out.length
            yield out

    def label(self) -> str:
        suffix = " ALL" if self.all_rows else ""
        return f"SetOp({self.kind.value}{suffix}, sort)"
