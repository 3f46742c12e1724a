"""Projection and duplicate-elimination operators."""

from __future__ import annotations

from itertools import groupby, islice
from operator import itemgetter, length_hint
from typing import Callable, Iterator

from ...types.values import order_key, row_keys
from ..codegen import ChunkedRows
from ..schema import ColumnInfo, RelSchema
from .base import ExecContext, PlanNode


class Project(PlanNode):
    """Projects input rows onto a list of column indices (ALL semantics)."""

    def __init__(self, child: PlanNode, indices: list[int], names: list[str]) -> None:
        self.child = child
        self.indices = indices
        self.schema = RelSchema(ColumnInfo(None, name) for name in names)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _rows(self, ctx: ExecContext) -> Iterator[tuple]:
        indices = self.indices
        if len(indices) > 1:
            pick = itemgetter(*indices)  # a tuple, built in C
        else:
            pick = lambda row: tuple([row[i] for i in indices])  # noqa: E731
        yield from map(pick, self.child.rows(ctx))

    def _fused(
        self,
        ctx: ExecContext,
        node: PlanNode | None = None,
        indices: list[int] | None = None,
    ) -> Iterator[tuple] | None:
        """The projection inside the kernel of what it reads.  Under a
        second ``Project`` (*node*) this one runs per node."""
        if node is not None:
            return None
        return self.child._fused(ctx, self, self.indices)

    def label(self) -> str:
        names = ", ".join(column.name for column in self.schema.columns)
        return f"Project({names})"


class SortDistinct(PlanNode):
    """Duplicate elimination by sorting — the paper's default cost model.

    This materializes and sorts its entire input; its ``sort_rows``
    charge is exactly the work the distinct-elimination rewrite avoids.
    Its rows are one list (:func:`sort_distinct`), handed out without a
    Python frame per row.
    """

    def __init__(self, child: PlanNode) -> None:
        self.child = child
        self.schema = child.schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _rows(self, ctx: ExecContext) -> Iterator[tuple]:
        return sort_distinct(ctx, lambda: list(self.child.rows(ctx)))

    def label(self) -> str:
        return "Distinct(sort)"


def sort_distinct(ctx: ExecContext, read: Callable[[], list[tuple]]) -> ChunkedRows:
    """Sort-based duplicate elimination of the list *read* returns,
    charging one sort; the input is read when the first row is asked
    for.  The stable sort on the ≐ key alone keeps equal rows in input
    order, so the first of each survives.

    The distinct rows are one list, handed out through
    :class:`~repro.engine.codegen.ChunkedRows`.  ``duplicates_removed``
    counts only what the consumer passed, as a row-at-a-time loop
    would: a consumer that leaves after its n-th row has passed the
    duplicates of the n - 1 groups before it.
    """
    return ChunkedRows(_distinct(ctx, read))


def _distinct(ctx: ExecContext, read: Callable) -> Iterator[Iterator[tuple]]:
    """The one row group of :func:`sort_distinct`."""
    rows = read()
    stats = ctx.stats
    stats.sorts += 1
    stats.sort_rows += len(rows)
    (keys,) = row_keys(rows)
    key = itemgetter(0)
    ordered = sorted(zip(keys, rows), key=key)
    distinct = [next(group)[1] for _, group in groupby(ordered, key)]
    handed = iter(distinct)
    try:
        yield handed
    except GeneratorExit:
        passed = islice(groupby(ordered, key), len(distinct) - length_hint(handed) - 1)
        stats.duplicates_removed += sum(len(list(group)) - 1 for _, group in passed)
        raise
    stats.duplicates_removed += len(rows) - len(distinct)


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

    def _rows(self, ctx: ExecContext) -> Iterator[tuple]:
        rows = list(self.child.rows(ctx))
        ctx.stats.sorts += 1
        ctx.stats.sort_rows += len(rows)
        rows.sort(key=order_key(zip(self.key_positions, self.ascending)))
        yield from rows

    def label(self) -> str:
        keys = ", ".join(
            f"{self.schema.columns[p].name}{'' if asc else ' DESC'}"
            for p, asc in zip(self.key_positions, self.ascending)
        )
        return f"Sort({keys})"
