"""DML plan nodes: INSERT / UPDATE / DELETE over the MVCC engine.

DML statements plan into :class:`InsertNode` / :class:`UpdateNode` /
:class:`DeleteNode` — :class:`~repro.engine.operators.base.PlanNode`
subclasses that produce no output rows but buffer their writes into a
:class:`~repro.engine.txn.Transaction`.  UPDATE and DELETE evaluate
their WHERE clause over the *transactional view* of the target table
(snapshot-visible versions plus the transaction's own pending writes)
under both engines:

* **tuple** — the reference interpreter evaluates the predicate per
  row through the shared :class:`~repro.engine.evaluator.Evaluator`
  (three-valued ⌊P⌋ semantics, correlated subqueries included);
* **vectorized** — the WHERE clause compiles to a batch mask kernel
  (:func:`~repro.engine.columnar.compile_batch_filter`) applied over
  morsel-sized column batches of the candidate rows, falling back to
  the tuple path when the predicate is outside the kernel frontier.

Either way the *matching phase completes before any write is
buffered*, so a statement never observes its own effects — and a
constraint failure mid-statement restores the transaction to its
pre-statement state (statement atomicity) via
:meth:`Transaction.savepoint`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..errors import (
    ConstraintViolation,
    ExecutionError,
    MissingHostVariableError,
    ResourceError,
)
from ..sql.ast import Assignment, Delete, Dml, Insert, Update
from ..sql.expressions import HostVar
from ..types.values import NULL
from .columnar import batches_from_rows, compile_batch_filter
from .operators.base import ExecContext, PlanNode
from .schema import RelSchema, Scope

if TYPE_CHECKING:  # pragma: no cover
    from .txn import Transaction


class DmlNode(PlanNode):
    """Base class: a write statement as a plan node.

    ``execute`` performs the statement and returns the affected-row
    count; ``_rows`` exists for plan-protocol compatibility (EXPLAIN,
    analysis walkers) and yields nothing.
    """

    def __init__(self, table: str) -> None:
        self.table = table.upper()
        self.schema = RelSchema.for_table(self.table, [])
        self.affected = 0

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        return iter(())

    def execute(self, ctx: ExecContext, txn: "Transaction") -> int:
        raise NotImplementedError

    # -- matching helpers ------------------------------------------------

    def _candidates(self, txn: "Transaction"):
        """Every row this statement may touch, with its write handle:
        ``(version-or-None, row)`` — a version for committed rows, None
        for the transaction's own pending inserts."""
        pairs = [
            (version, version.row)
            for version in txn.visible_versions(self.table)
        ]
        pairs.extend((None, row) for row in txn.pending_inserts(self.table))
        return pairs

    def _matching(self, ctx: ExecContext, txn: "Transaction", where):
        """Candidate pairs whose WHERE verdict is definitely TRUE."""
        pairs = self._candidates(txn)
        if where is None:
            if pairs:
                ctx.tick(len(pairs))
            return pairs
        data = txn.database.table(self.table)
        schema = RelSchema.for_table(self.table, data.schema.column_names)
        matched = []
        if ctx.use_batches:
            kernel = compile_batch_filter(where, schema, ctx.evaluator.params)
            if kernel is not None:
                ctx.stats.predicates_compiled += 1
                matched, pairs = self._matching_batches(ctx, pairs, kernel)
        for pair in pairs:
            ctx.tick()
            # ``qualifies`` counts the row in ``predicate_evals``.
            if ctx.evaluator.qualifies(where, Scope(schema, pair[1])):
                matched.append(pair)
        return matched

    def _matching_batches(self, ctx: ExecContext, pairs, kernel):
        """Vectorized matching: mask kernels over candidate batches.

        Returns ``(matched, unjudged)``; *unjudged* is empty unless a
        kernel died mid-stream — then it is the failed batch and the
        rest, which the caller's evaluator loop finishes."""
        matched = []
        offset = 0
        for batch in batches_from_rows(
            (pair[1] for pair in pairs),
            len(ctx.database.table(self.table).schema.columns),
            ctx.batch_rows,
        ):
            try:
                mask = kernel(batch)
            except ResourceError:
                raise
            except Exception:
                ctx.stats.vectorized_fallbacks += 1
                return matched, pairs[offset:]
            ctx.stats.predicate_evals += batch.length
            ctx.stats.compiled_evals += batch.length
            ctx.stats.vectorized_batches += 1
            ctx.stats.vectorized_rows += batch.length
            ctx.tick(batch.length)
            if mask:
                selector = mask.to_bytes(batch.length, "little")
                matched.extend(
                    pairs[offset + i] for i, lane in enumerate(selector) if lane
                )
            offset += batch.length
        return matched, []


class InsertNode(DmlNode):
    """``INSERT INTO t [(cols)] VALUES ...`` — buffers literal rows."""

    def __init__(self, statement: Insert) -> None:
        super().__init__(statement.table)
        self.statement = statement

    def execute(self, ctx: ExecContext, txn: "Transaction") -> int:
        data = txn.database.table(self.table)
        columns = self.statement.columns
        if columns is not None:
            known = {column.name for column in data.schema.columns}
            unknown = {name.upper() for name in columns} - known
            if unknown:
                raise ConstraintViolation(
                    data.schema.name, f"unknown columns: {sorted(unknown)}"
                )
        count = 0
        for raw in self.statement.rows:
            source = tuple(
                self._resolve(ctx, value) for value in raw
            )
            if columns is None:
                row = tuple(source)
            else:
                if len(source) != len(columns):
                    raise ConstraintViolation(
                        data.schema.name,
                        f"expected {len(columns)} values, got {len(source)}",
                    )
                mapping = {
                    name.upper(): value
                    for name, value in zip(columns, source)
                }
                row = tuple(
                    mapping.get(column.name, NULL)
                    for column in data.schema.columns
                )
            ctx.tick()
            txn.insert_row(self.table, row)
            count += 1
        ctx.stats.rows_inserted += count
        self.affected = count
        return count

    @staticmethod
    def _resolve(ctx: ExecContext, value):
        """A VALUES entry: a literal as-is, a host variable bound."""
        if isinstance(value, HostVar):
            params = ctx.evaluator.params
            if value.name not in params:
                raise MissingHostVariableError(value.name)
            return params[value.name]
        return value

    def label(self) -> str:
        return f"Insert({self.table}, rows={len(self.statement.rows)})"


class DeleteNode(DmlNode):
    """``DELETE FROM t [WHERE ...]`` — buffers version deletes."""

    def __init__(self, statement: Delete) -> None:
        super().__init__(statement.table)
        self.statement = statement

    def execute(self, ctx: ExecContext, txn: "Transaction") -> int:
        matched = self._matching(ctx, txn, self.statement.where)
        count = 0
        for version, row in matched:
            if version is not None:
                if txn.delete_version(self.table, version):
                    count += 1
            elif txn.delete_pending_insert(self.table, row):
                count += 1
        ctx.stats.rows_deleted += count
        self.affected = count
        return count

    def label(self) -> str:
        where = self.statement.where
        suffix = " filtered" if where is not None else ""
        return f"Delete({self.table}{suffix})"


class UpdateNode(DmlNode):
    """``UPDATE t SET ... [WHERE ...]`` — delete + reinsert per match.

    All matches are collected first, then every matched row is deleted,
    then every replacement inserted — so a key moved *between* two rows
    in one statement (swap-style updates) validates against the
    post-statement state, not a half-applied one.
    """

    def __init__(self, statement: Update) -> None:
        super().__init__(statement.table)
        self.statement = statement

    def execute(self, ctx: ExecContext, txn: "Transaction") -> int:
        data = txn.database.table(self.table)
        schema = RelSchema.for_table(self.table, data.schema.column_names)
        positions = []
        for assignment in self.statement.assignments:
            name = assignment.column.upper()
            if not data.schema.has_column(name):
                raise ExecutionError(
                    f"UPDATE {self.table}: unknown column {assignment.column!r}"
                )
            positions.append(
                (data.schema.column_index(name), assignment.value)
            )
        matched = self._matching(ctx, txn, self.statement.where)
        replacements = []
        for _, row in matched:
            scope = Scope(schema, row)
            new_row = list(row)
            for index, expr in positions:
                new_row[index] = ctx.evaluator.value(expr, scope)
            replacements.append(tuple(new_row))
        for version, row in matched:
            if version is not None:
                txn.delete_version(self.table, version)
            else:
                txn.delete_pending_insert(self.table, row)
        for new_row in replacements:
            ctx.tick()
            txn.insert_row(self.table, new_row)
        count = len(matched)
        ctx.stats.rows_updated += count
        self.affected = count
        return count

    def label(self) -> str:
        columns = ",".join(
            assignment.column.upper()
            for assignment in self.statement.assignments
        )
        return f"Update({self.table} SET {columns})"


def plan_dml(statement: Dml) -> DmlNode:
    """The plan node for one parsed DML statement."""
    if isinstance(statement, Insert):
        return InsertNode(statement)
    if isinstance(statement, Update):
        return UpdateNode(statement)
    if isinstance(statement, Delete):
        return DeleteNode(statement)
    raise ExecutionError(
        f"not a DML statement: {type(statement).__name__}"
    )


def execute_dml(
    statement: Dml,
    txn: "Transaction",
    *,
    params=None,
    stats=None,
    guard=None,
    engine_mode: str | None = None,
    batch_rows: int | None = None,
) -> int:
    """Execute one DML statement inside *txn*; returns rows affected.

    The execution context reads through the transaction's view, so the
    statement sees the begin snapshot plus the transaction's earlier
    writes — never another transaction's uncommitted state.  On any
    error the transaction is restored to its pre-statement state.
    """
    node = plan_dml(statement)
    ctx = ExecContext(
        txn.view(),
        params=params,
        stats=stats,
        guard=guard,
        engine_mode=engine_mode,
        batch_rows=batch_rows,
    )
    state = txn.savepoint()
    try:
        return node.execute(ctx, txn)
    except BaseException:
        txn.restore(state)
        raise
