"""Projection and duplicate-elimination operators."""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterator

from ...errors import ResourceError
from ...types.values import key_extractor
from ..columnar import batch_fault_check, batches_from_rows
from ..schema import ColumnInfo, RelSchema, Scope
from .base import ExecContext, PlanNode


class Project(PlanNode):
    """Projects input rows onto a list of column indices (ALL semantics)."""

    def __init__(self, child: PlanNode, indices: list[int], names: list[str]) -> None:
        self.child = child
        self.indices = indices
        self.schema = RelSchema(ColumnInfo(None, name) for name in names)
        self.batch_pipeline = child.batch_pipeline

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        indices = self.indices
        if len(indices) > 1:
            pick = itemgetter(*indices)  # a tuple, built in C
        else:
            pick = lambda row: tuple([row[i] for i in indices])  # noqa: E731
        yield from map(pick, self.child.rows(ctx, outer))

    def _batches(self, ctx: ExecContext, outer: Scope | None = None):
        """Vectorized projection: pure column slicing, zero copying."""
        stats = ctx.stats
        source = self.child.batches(ctx, outer)
        for batch in source:
            try:
                batch_fault_check()
                out = batch.project(self.indices)
            except ResourceError:
                raise
            except Exception:
                # Demote this batch and the rest to per-row projection.
                stats.vectorized_fallbacks += 1
                indices = self.indices
                remaining = (
                    tuple(row[i] for i in indices)
                    for b in chain((batch,), source)
                    for row in b.iter_rows()
                )
                yield from batches_from_rows(
                    remaining, len(self.schema), ctx.batch_rows
                )
                return
            stats.vectorized_batches += 1
            stats.vectorized_rows += out.length
            yield out

    def label(self) -> str:
        names = ", ".join(column.name for column in self.schema.columns)
        return f"Project({names})"


class SortDistinct(PlanNode):
    """Duplicate elimination by sorting — the paper's default cost model.

    This materializes and sorts its entire input; its ``sort_rows``
    charge is exactly the work the distinct-elimination rewrite avoids.
    """

    def __init__(self, child: PlanNode) -> None:
        self.child = child
        self.schema = child.schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        rows = list(self.child.rows(ctx, outer))
        ctx.stats.sorts += 1
        ctx.stats.sort_rows += len(rows)
        # Each row is canonicalised once; the stable sort on the key
        # alone keeps equal-key rows in input order.
        keyed = sorted(zip(map(key_extractor(), rows), rows), key=itemgetter(0))
        previous_key = None
        duplicates = 0
        try:
            for key, row in keyed:
                if key != previous_key:
                    previous_key = key
                    yield row
                else:
                    duplicates += 1
        finally:
            ctx.stats.duplicates_removed += duplicates

    def label(self) -> str:
        return "Distinct(sort)"


class HashDistinct(PlanNode):
    """Duplicate elimination by hashing (streams, no sort)."""

    def __init__(self, child: PlanNode) -> None:
        self.child = child
        self.schema = child.schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        row_key = key_extractor()
        seen: set[tuple] = set()
        probes = 0
        try:
            for row in self.child.rows(ctx, outer):
                key = row_key(row)
                probes += 1
                if key not in seen:
                    seen.add(key)
                    yield row
        finally:
            # Every probe either built an entry or removed a duplicate.
            stats = ctx.stats
            stats.hash_probes += probes
            stats.hash_builds += len(seen)
            stats.duplicates_removed += probes - len(seen)

    def label(self) -> str:
        return "Distinct(hash)"


class Sort(PlanNode):
    """ORDER BY operator over projected rows."""

    def __init__(
        self, child: PlanNode, key_positions: list[int], ascending: list[bool]
    ) -> None:
        self.child = child
        self.key_positions = key_positions
        self.ascending = ascending
        self.schema = child.schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        from ..executor import _Reversed  # shared DESC-order helper
        from ...types.values import sort_key

        rows = list(self.child.rows(ctx, outer))
        ctx.stats.sorts += 1
        ctx.stats.sort_rows += len(rows)

        def key_fn(row: tuple):
            parts = []
            for position, asc in zip(self.key_positions, self.ascending):
                key = sort_key(row[position])
                parts.append(key if asc else _Reversed(key))
            return tuple(parts)

        rows.sort(key=key_fn)
        yield from rows

    def label(self) -> str:
        keys = ", ".join(
            f"{self.schema.columns[p].name}{'' if asc else ' DESC'}"
            for p, asc in zip(self.key_positions, self.ascending)
        )
        return f"Sort({keys})"
