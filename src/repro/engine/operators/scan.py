"""Base-table access paths: sequential scan and hash-index scan."""

from __future__ import annotations

from typing import Iterator

from ...errors import ExecutionError, MissingHostVariableError, ResourceError
from ...sql.expressions import Expr, HostVar, Literal
from ...sql.printer import to_sql
from ...types.values import is_null, key_extractor, row_sort_key
from ..schema import RelSchema, Scope
from .base import ExecContext, PlanNode, select_rows

#: Rows a sequential scan accounts per guard tick when ticks may be
#: batched (divides CLOCK_CHECK_INTERVAL, so deadline checks stay on
#: schedule).  Budgets and rows_scanned then have chunk granularity: a
#: consumer that abandons the scan mid-chunk leaves up to
#: TICK_CHUNK - 1 pulled rows unaccounted.
TICK_CHUNK = 64


class SeqScan(PlanNode):
    """Sequential scan of a stored table under a correlation name."""

    batch_pipeline = True

    def __init__(self, table_name: str, alias: str, column_names: list[str]) -> None:
        self.table_name = table_name
        self.alias = alias
        self.schema = RelSchema.for_table(alias, column_names)

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        tick = ctx.tick
        if not ctx.batch_ticks:
            # Faults armed: every row is a checkpoint (and an
            # ``operator_next`` trigger opportunity).
            for row in ctx.database.table(self.table_name).rows:
                tick()
                ctx.stats.rows_scanned += 1
                yield row
            return
        stats = ctx.stats
        pending = 0
        for row in ctx.database.table(self.table_name).rows:
            pending += 1
            if pending == TICK_CHUNK:
                tick(TICK_CHUNK)
                stats.rows_scanned += TICK_CHUNK
                pending = 0
            yield row
        if pending:
            tick(pending)
            stats.rows_scanned += pending

    def _batches(self, ctx: ExecContext, outer: Scope | None = None):
        """Vectorized scan: serve the table's cached columnar batches.

        One guard tick per batch (the documented vectorized
        granularity: totals are identical to the tuple path, the
        checkpoints are just morsel-sized apart).
        """
        tick = ctx.tick
        stats = ctx.stats
        for batch in ctx.database.table(self.table_name).column_batches(
            ctx.batch_rows
        ):
            tick(batch.length)
            stats.rows_scanned += batch.length
            stats.vectorized_batches += 1
            stats.vectorized_rows += batch.length
            yield batch

    def label(self) -> str:
        if self.alias != self.table_name:
            return f"SeqScan({self.table_name} AS {self.alias})"
        return f"SeqScan({self.table_name})"


class IndexScan(PlanNode):
    """Hash-index probe of a stored table: ``key_columns = key_exprs``.

    Replaces SeqScan + Filter when the planner finds top-level equality
    conjuncts on auto-indexed columns (key or FOREIGN KEY columns) whose
    comparands are constants or host variables.  Any remaining local
    conjuncts become the *residual*, applied to the matched rows.

    A NULL probe value yields no rows — the replaced WHERE equality is
    never TRUE against NULL, so the plans are equivalent.  Matched rows
    come back in insertion order, the order SeqScan would emit them in.
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
                if expr.name not in ctx.evaluator.params:
                    raise MissingHostVariableError(expr.name)
                values.append(ctx.evaluator.params[expr.name])
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

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
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
        scanned = self._scanned(ctx, matches)
        if self.residual is None:
            yield from scanned
        else:
            yield from select_rows(
                ctx, self.residual, self.schema, scanned, outer
            )

    def _scanned(self, ctx: ExecContext, matches: list[tuple]) -> Iterator[tuple]:
        """The matched rows, each one a checkpoint and a scanned row."""
        tick = ctx.tick
        scanned = 0
        try:
            for row in matches:
                tick()
                scanned += 1
                yield row
        finally:
            ctx.stats.rows_scanned += scanned

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
