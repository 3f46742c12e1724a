"""Base-table access paths: sequential scan and hash-index scan.

Both are scans of a row list — the table's, or the bucket an index
probe returns — with one per-node loop (:func:`scan_rows`) and one
fused form (:func:`fused_scan`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from ...errors import ExecutionError, MissingHostVariableError, ResourceError
from ...sql.expressions import Expr, HostVar, Literal
from ...sql.printer import to_sql
from ...types.values import is_null, key_extractor, row_sort_key
from ..codegen import TICK_CHUNK, ChunkedRows, pipeline_source
from ..schema import RelSchema
from ..stats import Stats
from .base import ExecContext, PlanNode, select_rows


class SeqScan(PlanNode):
    """Sequential scan of a stored table under a correlation name."""

    def __init__(self, table_name: str, alias: str, column_names: list[str]) -> None:
        self.table_name = table_name
        self.alias = alias
        self.schema = RelSchema.for_table(alias, column_names)

    def _rows(self, ctx: ExecContext) -> Iterator[tuple]:
        return scan_rows(ctx, self)

    @cached_property
    def lineage(self) -> tuple[tuple[str, int], ...]:
        return tuple((self.table_name, i) for i in range(len(self.schema)))

    def _source(self, ctx: ExecContext) -> list[tuple]:
        """The row list this scan reads: the whole table."""
        return ctx.database.table(self.table_name).rows

    def _fused(
        self,
        ctx: ExecContext,
        node: PlanNode | None = None,
        indices: list[int] | None = None,
    ) -> Iterator[tuple] | None:
        return fused_scan(ctx, node or self, self, None, indices)

    def label(self) -> str:
        if self.alias != self.table_name:
            return f"SeqScan({self.table_name} AS {self.alias})"
        return f"SeqScan({self.table_name})"


def scan_rows(ctx: ExecContext, scan: "SeqScan | IndexScan") -> Iterator[tuple]:
    """The per-node loop of a scan: the rows of ``scan._source(ctx)``,
    each one a scanned row and a checkpoint.

    Ticks in chunks: budgets and rows_scanned then have chunk
    granularity, and a consumer that abandons the scan mid-chunk leaves
    up to TICK_CHUNK - 1 pulled rows unaccounted.  With faults armed
    every row is a checkpoint (and an ``operator_next`` trigger
    opportunity).
    """
    tick = ctx.tick
    stats = ctx.stats
    rows = scan._source(ctx)
    if not ctx.batch_ticks:
        for row in rows:
            tick()
            stats.rows_scanned += 1
            yield row
        return
    pending = 0
    for row in rows:
        pending += 1
        if pending == TICK_CHUNK:
            tick(TICK_CHUNK)
            stats.rows_scanned += TICK_CHUNK
            pending = 0
        yield row
    if pending:
        tick(pending)
        stats.rows_scanned += pending


def fused_scan(
    ctx: ExecContext,
    node: PlanNode,
    scan: "SeqScan | IndexScan",
    predicate: Expr | None = None,
    indices: list[int] | None = None,
) -> Iterator[tuple] | None:
    """The pipeline *scan* → [``Filter`` *predicate*] → [``Project``
    *indices*] under *node*, as one generated generator over the scan's
    row list (an ``IndexScan``'s is its index bucket, its residual the
    filter).

    Each pulled chunk is ticked (under a guard) and accounted whole —
    ``rows_scanned`` and, under a filter, ``predicate_evals``.
    ``None`` when ``_lower`` refuses *predicate*.

    The filter is lowered under the scan table's type census, taken
    again after the row list: a census that grew in between (a
    concurrent write) lowers the kernel once more under the wider one.

    Under an analysis sink the pipeline is one observed unit: the nodes
    under *node* down to *scan* are credited with it, and an absorbed
    ``SeqScan`` the rows the kernel scanned, counted in the unit's own
    ``Stats``.
    """
    guarded = ctx.guard is not None
    # Without a filter the kernel reads no census.
    data = None if predicate is None else ctx.database.table(scan.table_name)
    census = None if data is None else data.census

    def generated(census):
        return node._generated(
            ctx,
            lambda test, slots: pipeline_source(test, indices, slots, guarded),
            (predicate, scan.schema, None, census),
            variant=guarded,
            census=census,
        )

    pipeline = generated(census)
    if pipeline is None:
        return None
    rows = scan._source(ctx)
    if data is not None and data.census is not census:
        # A write widened the census between the two reads: the rows
        # may hold a type the kernel was not chosen for.
        pipeline = generated(data.census)
        if pipeline is None:
            return None
    analysis = ctx.analysis
    if analysis is None:
        return ChunkedRows(pipeline(rows, ctx.tick, ctx.stats))
    absorbed = ()
    if node is not scan:
        absorbed = (scan,) if node.child is scan else (node.child, scan)
        if isinstance(scan, SeqScan):
            unit = Stats()
            chunks = ChunkedRows(pipeline(rows, ctx.tick, unit))
            return analysis.observe(node, chunks, absorbed, scan, unit, ctx.stats)
    chunks = ChunkedRows(pipeline(rows, ctx.tick, ctx.stats))
    return analysis.observe(node, chunks, absorbed)


class IndexScan(PlanNode):
    """Hash-index probe of a stored table: ``key_columns = key_exprs``.

    Replaces SeqScan + Filter when the planner finds top-level equality
    conjuncts on auto-indexed columns (key or FOREIGN KEY columns) whose
    comparands are constants or host variables.  Any remaining local
    conjuncts become the *residual*, applied to the matched rows.

    A NULL probe value yields no rows — the replaced WHERE equality is
    never TRUE against NULL, so the plans are equivalent.  Matched rows
    come back in insertion order, the order SeqScan would emit them in.

    The bucket is this scan's row list (:meth:`_source`): the per-node
    loop is ``SeqScan``'s, and the fused form the scan pipeline's with
    the residual as its filter — or, on a join's probe side, the join
    kernel's in-loop scan.
    """

    def __init__(
        self,
        table_name: str,
        alias: str,
        column_names: list[str],
        key_columns: tuple[str, ...],
        key_exprs: tuple[Expr, ...],
        residual: Expr | None = None,
    ) -> None:
        if len(key_columns) != len(key_exprs) or not key_columns:
            raise ValueError("index scan requires matching, non-empty key lists")
        self.table_name = table_name
        self.alias = alias
        self.key_columns = key_columns
        self.key_exprs = key_exprs
        self.residual = residual
        self.schema = RelSchema.for_table(alias, column_names)

    def _probe_values(self, ctx: ExecContext) -> tuple:
        values = []
        for expr in self.key_exprs:
            if isinstance(expr, Literal):
                values.append(expr.value)
            elif isinstance(expr, HostVar):
                if expr.name not in ctx.params:
                    raise MissingHostVariableError(expr.name)
                values.append(ctx.params[expr.name])
            else:
                raise ExecutionError(
                    f"index key {type(expr).__name__} is not a constant operand"
                )
        return tuple(values)

    def _scan_matches(self, data, values: tuple) -> list[tuple]:
        """``index_lookup`` semantics without the index: the verified
        fallback when the hash-index machinery fails."""
        if any(is_null(value) for value in values):
            return []
        row_key = key_extractor(
            [data.schema.column_index(name) for name in self.key_columns]
        )
        target = row_sort_key(values)
        return [row for row in data.rows if row_key(row) == target]

    def _source(self, ctx: ExecContext) -> list[tuple]:
        """The row list this scan reads: the probed bucket, one index
        probe and its rows as index rows."""
        data = ctx.database.table(self.table_name)
        values = self._probe_values(ctx)
        stats = ctx.stats
        stats.index_probes += 1
        try:
            matches = data.index_lookup(self.key_columns, values)
        except ResourceError:
            raise
        except Exception:
            stats.index_fallbacks += 1
            matches = self._scan_matches(data, values)
        stats.index_rows += len(matches)
        return matches

    def _rows(self, ctx: ExecContext) -> Iterator[tuple]:
        rows = scan_rows(ctx, self)
        if self.residual is None:
            return rows
        return select_rows(ctx, self.residual, self.schema, rows)

    @cached_property
    def lineage(self) -> tuple[tuple[str, int], ...]:
        return tuple((self.table_name, i) for i in range(len(self.schema)))

    def _fused(
        self,
        ctx: ExecContext,
        node: PlanNode | None = None,
        indices: list[int] | None = None,
    ) -> Iterator[tuple] | None:
        return fused_scan(ctx, node or self, self, self.residual, indices)

    def label(self) -> str:
        keys = ", ".join(
            f"{column} = {to_sql(expr)}"
            for column, expr in zip(self.key_columns, self.key_exprs)
        )
        name = self.table_name
        if self.alias != self.table_name:
            name = f"{self.table_name} AS {self.alias}"
        if self.residual is not None:
            return f"IndexScan({name}: {keys}; {to_sql(self.residual)})"
        return f"IndexScan({name}: {keys})"
