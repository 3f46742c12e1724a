"""Physical plan node base classes and execution context."""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Iterator

from ...resilience.budgets import ExecutionGuard
from ...resilience.faults import FAULTS, SITE_OPERATOR
from ...sql.expressions import Expr, host_vars
from ...types.values import NULL, SqlValue
from ..codegen import assemble
from ..compile import Census, Refill, compilation_enabled, lower_source
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

    Holds the database, the host-variable bindings (:attr:`params`,
    names upper-cased) and the counter sink.  Its :attr:`evaluator`
    is built on first use, wired so a subquery runs its body's plan
    once per call (:meth:`run_subquery`) — the naive nested-loop
    strategy, the cost the paper's rewrites are designed to avoid: an
    execution that runs only generated kernels never builds one.

    When a *guard* is supplied, operators report every processed row via
    :meth:`tick`, giving the guard its cooperative checkpoints (timeout,
    row budget, cancellation) and the fault injector its
    ``operator_next`` trigger opportunities.

    ``fuse`` says whether the row path may run generated kernels
    (:mod:`repro.engine.codegen`): a scan pipeline and a hash join
    become one function each unless faults are armed (every row must
    then be a trigger opportunity) or compilation is off.  What does
    not fuse runs node by node on the evaluator — the reference.

    When an *analysis* sink is supplied (EXPLAIN ANALYZE, the adaptive
    loop), every node this execution opens accounts its loops, rows
    and inclusive time into it — see :meth:`PlanNode.rows`.  A fused
    unit is observed as one, so the actuals come from the kernels a
    plain execution runs.  The sink belongs to this one execution; the
    plan nodes themselves stay untouched, so a cached plan can serve
    analyzed and plain executions concurrently.

    *root* is the plan this execution runs: the subquery bodies it
    plans are kept on it, so a cached plan plans each body once.
    """

    def __init__(
        self,
        database: "Database",
        params: dict[str, SqlValue] | None = None,
        stats: Stats | None = None,
        use_indexes: bool = True,
        guard: ExecutionGuard | None = None,
        analysis: "PlanAnalysis | None" = None,
        root: "PlanNode | None" = None,
    ) -> None:
        self.database = database
        self.params = {key.upper(): value for key, value in (params or {}).items()}
        self.stats = stats or Stats()
        self.use_indexes = use_indexes
        self.guard = guard
        self.analysis = analysis
        self.root = root
        # Per-row cost matters here: bind the cheapest tick variant for
        # this execution up front (executions complete within one
        # execute_plan call, so the armed state cannot change mid-run).
        # batch_ticks additionally lets scans account rows in chunks;
        # with faults armed every row must remain a separate
        # ``operator_next`` trigger opportunity, so both stay per-row.
        self.batch_ticks = not FAULTS.armed
        if self.batch_ticks:
            self.tick = guard.tick if guard is not None else _tick_noop
        self.fuse = self.batch_ticks and compilation_enabled()

    @cached_property
    def evaluator(self) -> Evaluator:
        """The evaluator over these bindings, running subqueries."""
        return Evaluator(self.params, self.stats, subquery_runner=self.run_subquery)

    def run_subquery(self, query: object, scope: Scope) -> Iterator[tuple]:
        """The rows of subquery *query* for the enclosing row *scope*.

        The body is planned on first call
        (:func:`~repro.engine.planner.plan_subquery`) and kept on
        :attr:`root`, keyed by the subquery node and ``use_indexes``.
        Each call binds the body's slots from *scope* on top of these
        bindings and runs its plan in a child context — its root that
        plan, so a nested body is kept on its parent's — which shares
        the stats and the guard and runs node by node: a chunked kernel
        would read a chunk of rows for an EXISTS that wants one.
        """
        holder = self if self.root is None else self.root
        bodies = holder.__dict__.setdefault("_bodies", {})
        key = (id(query), self.use_indexes)
        body = bodies.get(key)
        if body is None:
            from ..planner import plan_subquery  # deferred to break the cycle

            body = bodies[key] = plan_subquery(query, self.database, self.use_indexes)
        plan, slots = body
        params = dict(self.params)
        for name, ref in slots:
            params[name] = scope.resolve(ref)
        child = ExecContext(
            self.database, params, self.stats, self.use_indexes, self.guard,
            root=plan,
        )
        child.fuse = False
        return plan.rows(child)

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
    through :meth:`rows`, the one place an execution's analysis sink
    hooks in.
    """

    schema: RelSchema

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        """Open the row stream.

        When *ctx* may fuse, a node with a generated form answers from
        :meth:`_fused`, its subtree in one function; otherwise it runs
        :meth:`_rows` over its children's streams.  With an analysis
        sink on *ctx* either stream is accounted into it (a fused one by
        :meth:`_fused`, as one unit); without one this is a few tests
        per open and nothing per row.
        """
        if ctx.fuse:
            fused = self._fused(ctx)
            if fused is not None:
                return fused
        if ctx.analysis is None:
            return self._rows(ctx)
        return ctx.analysis.observe(self, self._rows(ctx))

    def _fused(
        self,
        ctx: ExecContext,
        node: "PlanNode | None" = None,
        indices: list[int] | None = None,
    ) -> Iterator[tuple] | None:
        """This subtree's rows from one generated function
        (:mod:`repro.engine.codegen`), or ``None`` — no generated form,
        or ``_lower`` refused a predicate — for the per-node path.

        A ``Project`` *node* above asks with its *indices*: the answer
        is then the projected rows, and the kernel is kept on *node*.
        Under an analysis sink the answer is observed as one unit
        (:meth:`~repro.observe.analyze.PlanAnalysis.observe`).
        """
        return None

    def _generated(
        self,
        ctx: ExecContext,
        source: Callable[..., str],
        *tests: tuple[Expr | None, RelSchema, Callable[[int], str], Census | None],
        variant: object = None,
        census: object = None,
    ) -> Callable[..., Any] | None:
        """The generated function of this node's fused form, or ``None``
        when ``_lower`` refuses a predicate (or CPython the source).

        Each of *tests* is ``(predicate, schema, column, types)``:
        ⌊predicate⌋ lowered over *schema*, columns spelled by *column*,
        its comparisons left bare where the per-position census *types*
        allows (``None``: none known), its constants numbered across all
        of them (``None``: no such test).  ``source(*fragments, slots)``
        is the kernel's text given those fragments (``None`` where a
        test is absent), reading *slots* argument slots.  *census* is
        what the *types* and anything else *source* reads of the tables'
        censuses was taken from: the censuses themselves.

        The node keeps one lowering table, ``_lowered``: per *variant*,
        the host variables its tests read and, per the type of each
        value (``NULL``'s, or unbound) and *census*, the compiled
        factory and the recipe of its slots
        (:class:`~repro.engine.compile.Refill`).  A warm execution of a
        cached plan refills the slots from its bindings and walks no
        predicate: a census that grew is a new entry, and the kernel
        chosen under it guards what the new types can trip.  A lowering
        that folded two constants on a host variable's value is redone
        every execution.
        """
        table = self.__dict__.setdefault("_lowered", {})
        names, forms = table.get(variant) or table.setdefault(
            variant, (tuple({v.name for t in tests for v in host_vars(t[0])}), {})
        )
        params = ctx.params
        # A kernel without host variables (a key lookup's pipeline, say)
        # skips the pass over the bindings.
        state = names and tuple(map(type, map(params.get, names, repeat(_UNBOUND))))
        state = state, census
        entry = forms.get(state)
        if entry is None:
            slots = Refill()
            entry = _lower_form(source, tests, params, slots)
            if not slots.volatile:
                forms[state] = entry
        else:
            slots = entry[2] and [
                value if name is None
                else params[name] if transform is None
                else transform(params[name])
                for name, transform, value in entry[2]
            ]
        make, compiled, _ = entry
        if make is None:
            return None
        ctx.stats.predicates_compiled += compiled
        return make(*slots)

    def _rows(self, ctx: ExecContext) -> Iterator[tuple]:
        """Yield output rows."""
        raise NotImplementedError

    @cached_property
    def lineage(self) -> tuple[tuple[str, int] | None, ...]:
        """Per output column, the stored ``(table, position)`` whose
        values it carries unchanged (``None``: computed, or not known) —
        where a reader finds that column's type census."""
        return (None,) * len(self.schema)

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


class _Unbound:
    """A host variable the bindings lack (``_lower`` refuses it)."""


_UNBOUND = _Unbound()


def _lower_form(
    source: Callable[..., str], tests: tuple, params: dict, slots: Refill
) -> tuple[Callable[..., Any] | None, int, tuple]:
    """``(make, predicates, recipe)`` of one fused form: the compiled
    factory (``None``: refused), how many predicates it compiles and
    its slots' recipe; *slots* holds this lowering's values."""
    fragments = []
    for predicate, schema, column, types in tests:
        if predicate is None:
            fragments.append(None)
            continue
        lowered = lower_source(predicate, schema, params, column, slots, types)
        if lowered is None:
            return None, 0, ()
        fragments.append(lowered[0])
    make = assemble(source(*fragments, len(slots)))
    return make, len(fragments) - fragments.count(None), tuple(slots.recipe)


# ----------------------------------------------------------------------
# the per-node path's selection
#
# Counter rule for every per-node row loop: count in locals, credit
# ``ctx.stats`` in ``finally`` — totals are then the same at every exit
# (exhaustion, a consumer that abandons the stream, a ResourceError).
# A loop that can raise while its input is suspended also closes that
# input there, so the input's own ``finally`` has run before anyone
# reads the totals.

def select_rows(
    ctx: ExecContext, predicate: Expr, schema: RelSchema, rows: Iterator[tuple]
) -> Iterator[tuple]:
    """Keep the rows of the generator *rows* whose *predicate* is
    definitely TRUE (⌊P⌋) — the selection loop of ``Filter`` and of
    ``IndexScan``'s residual, judged by the evaluator (which counts
    each evaluation)."""
    qualifies = ctx.evaluator.qualifies
    try:
        for row in rows:
            if qualifies(predicate, Scope(schema, row)):
                yield row
    finally:
        rows.close()
