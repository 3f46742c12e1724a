"""Physical plan node base classes and execution context."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ...errors import ResourceError
from ...resilience.budgets import ExecutionGuard
from ...resilience.faults import FAULTS, SITE_OPERATOR
from ...sql.expressions import Expr
from ...types.values import SqlValue
from ..columnar import (
    DEFAULT_BATCH_ROWS,
    ColumnBatch,
    UnbatchedRows,
    batches_from_rows,
    resolve_engine_mode,
)
from ..compile import RowTest, compile_filter
from ..evaluator import Evaluator
from ..schema import RelSchema, Scope
from ..stats import Stats

if TYPE_CHECKING:  # pragma: no cover
    from ...observe.analyze import PlanAnalysis
    from ..database import Database


def _tick_noop(rows: int = 1) -> None:
    """The unguarded, fault-free checkpoint: nothing to do."""


class ExecContext:
    """Shared state for one plan execution.

    Holds the database, the host-variable bindings, the counter sink, and
    a single :class:`Evaluator` wired so correlated subqueries fall back
    to the reference interpreter (the naive nested-loop strategy — the
    cost the paper's rewrites are designed to avoid).

    When a *guard* is supplied, operators report every processed row via
    :meth:`tick`, giving the guard its cooperative checkpoints (timeout,
    row budget, cancellation) and the fault injector its
    ``operator_next`` trigger opportunities.

    *engine_mode* selects the format of the scan → filter → project
    pipelines at the leaves of the plan (see
    :mod:`repro.engine.columnar`): under ``"tuple"`` they stream rows,
    under ``"vectorized"`` they run on column batches (mask kernels,
    column slicing) and hand rows to whatever consumes them, and
    ``"auto"`` batches unless the fault injector is armed (chaos runs
    exercise the per-row trigger schedule unless a test forces the
    batch path explicitly).  Joins, duplicate elimination, set
    operations and sorts have one implementation and read rows in
    every mode — see :meth:`PlanNode.rows`.  ``None`` inherits the
    process default (:func:`repro.engine.columnar.default_engine_mode`).

    When an *analysis* sink is supplied (EXPLAIN ANALYZE, the adaptive
    loop), every node this execution opens accounts its loops, rows,
    batches and inclusive time into it — see :meth:`PlanNode.rows`.
    The sink belongs to this one execution; the plan nodes themselves
    stay untouched, so a cached plan can serve analyzed and plain
    executions concurrently.
    """

    def __init__(
        self,
        database: "Database",
        params: dict[str, SqlValue] | None = None,
        stats: Stats | None = None,
        use_indexes: bool = True,
        guard: ExecutionGuard | None = None,
        engine_mode: str | None = None,
        batch_rows: int | None = None,
        analysis: "PlanAnalysis | None" = None,
    ) -> None:
        from ..executor import Executor  # deferred to break the cycle

        self.database = database
        self.stats = stats or Stats()
        self.guard = guard
        self.analysis = analysis
        self._interpreter = Executor(
            database,
            params=params,
            stats=self.stats,
            use_indexes=use_indexes,
            guard=guard,
        )
        self.evaluator = self._interpreter.evaluator
        # Per-row cost matters here: bind the cheapest tick variant for
        # this execution up front (executions complete within one
        # execute_plan call, so the armed state cannot change mid-run).
        # batch_ticks additionally lets scans account rows in chunks;
        # with faults armed every row must remain a separate
        # ``operator_next`` trigger opportunity, so both stay per-row.
        self.batch_ticks = not FAULTS.armed
        if self.batch_ticks:
            self.tick = guard.tick if guard is not None else _tick_noop
        mode = resolve_engine_mode(engine_mode)
        self.engine_mode = mode
        self.batch_rows = (
            batch_rows if batch_rows and batch_rows > 0 else DEFAULT_BATCH_ROWS
        )
        # "vectorized" is an explicit opt-in and wins even with faults
        # armed (the vectorized_eval site needs the batch path live);
        # "auto" defers to the chaos suite's per-row schedules.
        self.use_batches = mode == "vectorized" or (
            mode == "auto" and not FAULTS.armed
        )

    def tick(self, rows: int = 1) -> None:
        """One cooperative checkpoint, called per row by operator loops.

        Budget violations raise :class:`~repro.errors.ResourceError`
        subclasses; these must never be swallowed by fallback ladders.
        """
        if self.guard is not None:
            self.guard.tick(rows)
        if FAULTS.armed:
            FAULTS.check(SITE_OPERATOR)


class PlanNode:
    """A node of a physical execution plan.

    Subclasses define ``schema`` (a :class:`RelSchema` for the rows they
    produce) and implement :meth:`_rows`; every parent reads its inputs
    through :meth:`rows`, in both engine modes.  :meth:`rows` and
    :meth:`batches` are the one place an execution's analysis sink
    hooks in.
    """

    schema: RelSchema

    #: Whether this subtree is a *batch pipeline*: a ``SeqScan``, or a
    #: ``Filter``/``Project`` over one.  Fixed from the plan shape when
    #: the node is built; only these nodes have a batch kernel.
    batch_pipeline = False

    def rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        """Open the row stream.  *outer* carries correlation bindings.

        In batch mode a batch pipeline answers from its own
        :meth:`batches` (that open is the node's one analysis
        observation); a correlated open needs the evaluator and stays on
        :meth:`_rows`, like every other node.  With an analysis sink on
        *ctx* the stream is accounted into it; without one this is two
        tests per open and nothing per row.
        """
        if self.batch_pipeline and ctx.use_batches and outer is None:
            return UnbatchedRows(self.batches(ctx))
        if ctx.analysis is None:
            return self._rows(ctx, outer)
        return ctx.analysis.observe(self, self._rows(ctx, outer), False)

    def batches(
        self, ctx: ExecContext, outer: Scope | None = None
    ) -> Iterator[ColumnBatch]:
        """Open the :class:`~repro.engine.columnar.ColumnBatch` stream."""
        if ctx.analysis is None:
            return self._batches(ctx, outer)
        return ctx.analysis.observe(self, self._batches(ctx, outer), True)

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        """Yield output rows."""
        raise NotImplementedError

    def _batches(
        self, ctx: ExecContext, outer: Scope | None = None
    ) -> Iterator[ColumnBatch]:
        """Yield output as column batches.

        The default re-batches :meth:`_rows` — a ``Filter`` whose
        predicate the batch compiler declines keeps its exact tuple
        semantics, including ticks and counters, while a batch parent
        consumes it uniformly.  Overrides (the batch pipeline:
        ``SeqScan``, ``Filter``, ``Project``) produce batches natively
        and must preserve the row sequence byte for byte.  Falling back
        through ``_rows`` (not ``rows``) keeps the node's own open
        counted once.
        """
        yield from batches_from_rows(
            self._rows(ctx, outer), len(self.schema), ctx.batch_rows
        )

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def label(self) -> str:
        """One-line description used by EXPLAIN output."""
        return type(self).__name__

    def explain(self, indent: int = 0, analysis=None) -> str:
        """A printable operator tree.

        With *analysis* (a :class:`~repro.observe.analyze.PlanAnalysis`
        recorded by an analyzed execution of this exact tree), each
        line is suffixed with actual rows/loops/time and the estimated
        cardinality's q-error — EXPLAIN ANALYZE output.
        """
        line = "  " * indent + self.label()
        if analysis is not None:
            line += analysis.annotate(self)
        lines = [line]
        for child in self.children():
            lines.append(child.explain(indent + 1, analysis))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the tuple path's row test
#
# Counter rule for every tuple row loop: count in locals, credit
# ``ctx.stats`` in ``finally`` — totals are then the same at every exit
# (exhaustion, a consumer that abandons the stream, a ResourceError, a
# mid-stream demotion).  A loop that can raise while its input is
# suspended also closes that input there, so the input's own ``finally``
# has run before anyone reads the totals.

def compile_row_test(
    ctx: ExecContext, predicate: Expr, schema: RelSchema, outer: Scope | None
) -> RowTest | None:
    """``compile_filter`` with the fallback ladder's accounting.

    ``None`` sends the caller to the evaluator: a correlated execution
    (*outer* bindings need it), a predicate the compiler refuses, or a
    compilation that blew up (counted in ``compile_fallbacks``).
    """
    if outer is not None:
        return None
    try:
        compiled = compile_filter(predicate, schema, ctx.evaluator.params)
    except ResourceError:
        raise
    except Exception:
        ctx.stats.compile_fallbacks += 1
        return None
    if compiled is not None:
        ctx.stats.predicates_compiled += 1
    return compiled


def select_rows(
    ctx: ExecContext,
    predicate: Expr,
    schema: RelSchema,
    rows: Iterator[tuple],
    outer: Scope | None,
) -> Iterator[tuple]:
    """Keep the rows of the generator *rows* whose *predicate* is
    definitely TRUE (⌊P⌋) — the selection loop of ``Filter`` and of
    ``IndexScan``'s residual.

    The compiled test runs bare in the loop; if it dies mid-stream the
    failing row and every remaining one go through the evaluator, which
    is the verified fallback with identical semantics.
    """
    compiled = compile_row_test(ctx, predicate, schema, outer)
    stats = ctx.stats
    qualifies = ctx.evaluator.qualifies
    evals = 0
    try:
        for row in rows:
            if compiled is not None:
                evals += 1
                try:
                    keep = compiled(row)
                except ResourceError:
                    raise
                except Exception:
                    # Back out this row's compiled count and degrade to
                    # the evaluator for it and every remaining row.
                    evals -= 1
                    stats.compile_fallbacks += 1
                    compiled = None
                else:
                    if keep:
                        yield row
                    continue
            if qualifies(predicate, Scope(schema, row, outer=outer)):
                yield row
    finally:
        stats.predicate_evals += evals
        stats.compiled_evals += evals
        rows.close()
