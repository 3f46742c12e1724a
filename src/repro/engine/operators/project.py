"""Projection and duplicate-elimination operators."""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from operator import itemgetter, length_hint
from typing import Callable, Iterator

from ...types.values import census_rank, order_key, row_keys
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

    @cached_property
    def lineage(self) -> tuple:
        lineage = self.child.lineage
        return tuple(lineage[i] for i in self.indices)

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
        return sort_distinct(
            ctx, lambda: list(self.child.rows(ctx)), self.child.lineage
        )

    @property
    def lineage(self) -> tuple:
        return self.child.lineage

    def label(self) -> str:
        return "Distinct(sort)"


def sort_distinct(
    ctx: ExecContext,
    read: Callable[[], list[tuple]],
    lineage: tuple | None = None,
) -> ChunkedRows:
    """Sort-based duplicate elimination of the list *read* returns,
    charging one sort of every row; the input is read when the first
    row is asked for.  The rows are the first of each ≐ key in input
    order, in key order.

    Duplicates go first — a ``Counter`` counts each key, in first-seen
    order — and only the distinct keys are sorted: on a total key order
    that is the order, and the row, a stable sort of every row keeps
    first.  (A NaN, equal only to itself, breaks that total order; it
    still never hides an equal key from its duplicates.)
    When the type census of every column (*lineage*, read after the
    rows) shows one rank and no NULL, a row is its own key without a
    look at its values (:func:`~repro.types.values.row_keys`).

    The distinct rows are one list, handed out through
    :class:`~repro.engine.codegen.ChunkedRows`.  ``duplicates_removed``
    counts only what the consumer passed, as a row-at-a-time loop
    would: a consumer that leaves after its n-th row has passed the
    duplicates of the n - 1 keys before it.
    """
    return ChunkedRows(_distinct(ctx, read, lineage))


def _distinct(
    ctx: ExecContext, read: Callable, lineage: tuple | None
) -> Iterator[Iterator[tuple]]:
    """The one row group of :func:`sort_distinct`."""
    rows = read()
    stats = ctx.stats
    stats.sorts += 1
    stats.sort_rows += len(rows)
    if lineage is not None and census_ranked(ctx, lineage):
        keys = rows
    else:
        (keys,) = row_keys(rows)
    counts = Counter(keys)  # in first-seen order
    ordered = sorted(counts)
    if keys is rows:
        distinct = ordered
    else:
        # Written back to front, so each key keeps its first row.
        first = dict(zip(reversed(keys), reversed(rows)))
        distinct = list(map(first.__getitem__, ordered))
    handed = iter(distinct)
    try:
        yield handed
    except GeneratorExit:
        passed = ordered[: max(len(distinct) - length_hint(handed) - 1, 0)]
        stats.duplicates_removed += sum(map(counts.__getitem__, passed)) - len(passed)
        raise
    stats.duplicates_removed += len(rows) - len(distinct)


def census_ranked(ctx: ExecContext, lineage: tuple) -> bool:
    """Whether the type census of every column of *lineage* shows one
    type rank and no NULL.  Read it after the rows it is to describe."""
    table = ctx.database.table
    return all(
        source is not None
        and census_rank(table(source[0]).census[source[1]]) is not None
        for source in lineage
    )


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

    @property
    def lineage(self) -> tuple:
        return self.child.lineage

    def label(self) -> str:
        keys = ", ".join(
            f"{self.schema.columns[p].name}{'' if asc else ' DESC'}"
            for p, asc in zip(self.key_positions, self.ascending)
        )
        return f"Sort({keys})"
