"""EXPLAIN ANALYZE: per-operator actuals over a physical plan.

An analyzed execution is the ordinary one with a sink attached: the
execution context carries a :class:`PlanAnalysis`, and every plan node
opened through :meth:`~repro.engine.operators.base.PlanNode.rows`
accounts its loops, output rows and inclusive wall time into it.  It
runs the generated kernels a plain execution runs: a fused unit (a scan
pipeline or a hash join, with the ``Project`` above it) is observed as
one, and each node it absorbed reports the unit's loops and time.
Afterwards each node is annotated with those actuals plus the cost
model's estimate and the resulting q-error (``max(est/actual,
actual/est)``, both floored at one row — the standard
cardinality-quality measure).

The sink belongs to one execution and is keyed by node identity, so
the plan itself — usually the plan cache's shared instance — is never
written to: concurrent analyzed and plain executions of one cached plan
do not see each other.  With no sink the dispatch costs one ``is None``
test per operator open and nothing per row.

Engine imports stay inside function bodies: the engine itself imports
:mod:`repro.observe.trace`, and keeping this module lazily bound
prevents a partially-initialized-package cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable, Iterator

from ..sql.printer import bind_slots
from .trace import TRACER, Span


@dataclass
class NodeStats:
    """Actuals for one plan node across one execution."""

    loops: int = 0
    rows: int = 0
    seconds: float = 0.0  # inclusive of children, like EXPLAIN ANALYZE
    est_rows: float | None = None

    @property
    def q_error(self) -> float | None:
        """max(est/actual, actual/est) per loop, floored at one row."""
        if self.est_rows is None or self.loops == 0:
            return None
        actual = max(self.rows / self.loops, 1.0)
        estimated = max(self.est_rows, 1.0)
        return max(actual / estimated, estimated / actual)


@dataclass
class PlanAnalysis:
    """Per-node actuals of one plan execution, keyed by node id.

    ``plan`` is the root the execution ran (set by :meth:`begin`); it
    also keeps the nodes alive, so their ids stay unique for as long as
    the analysis is read.
    """

    wall_seconds: float = 0.0
    plan: Any | None = None
    _stats: dict[int, NodeStats] = field(default_factory=dict)
    _started: float = 0.0

    def register(self, node: Any) -> NodeStats:
        stats = self._stats[id(node)] = NodeStats()
        return stats

    def begin(self, plan: Any) -> None:
        """Start the clock on *plan*; every node starts at zero loops, so
        one the execution never opens reads ``[never executed]``."""
        self.plan = plan
        for node in _walk(plan):
            self.register(node)
        self._started = perf_counter()

    def finish(self) -> None:
        """Stop the clock; when tracing, hang the per-operator actuals
        under the span that is open right now."""
        self.wall_seconds = perf_counter() - self._started
        if TRACER.enabled:
            TRACER.attach(self.to_spans(self.plan))

    def observe(
        self,
        node: Any,
        source: Iterable[Any],
        absorbed: Iterable[Any] = (),
        scan: Any = None,
        unit: Any = None,
        stats: Any = None,
    ) -> Iterator[Any]:
        """Pass *source* (one open of *node*) through, accounting it.

        Time is inclusive of the node's inputs and exclusive of its
        consumer: the clock stops while a yielded item is away.

        A fused unit — *node*'s generated kernel — is observed as one.
        When the open ends, each node it *absorbed* (ran under *node*)
        is credited this open's loop and time, and *node*'s rows — but
        *scan* the rows the kernel scanned, which it counted in *unit*,
        its own ``Stats``: *source* is closed and *unit* folded into
        the execution's *stats* first.
        """
        counted = self._stats.get(id(node))
        if counted is None:
            counted = self.register(node)
        counted.loops += 1
        rows, seconds = counted.rows, counted.seconds
        start = perf_counter()
        try:
            for item in source:
                counted.seconds += perf_counter() - start
                counted.rows += 1
                yield item
                start = perf_counter()
            counted.seconds += perf_counter() - start
        except GeneratorExit:
            raise  # closed at a yield, while the clock was stopped
        except BaseException:
            counted.seconds += perf_counter() - start
            raise
        finally:
            if unit is not None:
                source.close()
                for name, value in vars(unit).items():
                    if value:
                        setattr(stats, name, getattr(stats, name) + value)
            for inner in absorbed:
                credited = self._stats.get(id(inner)) or self.register(inner)
                credited.loops += 1
                credited.seconds += counted.seconds - seconds
                if inner is scan:
                    credited.rows += unit.rows_scanned
                else:
                    credited.rows += counted.rows - rows

    def for_node(self, node: Any) -> NodeStats | None:
        return self._stats.get(id(node))

    def annotate(self, node: Any) -> str:
        """The EXPLAIN suffix for *node*: actuals, estimate, q-error."""
        stats = self.for_node(node)
        if stats is None:
            return ""
        if stats.loops == 0:
            return "  [never executed]"
        parts = [
            f"actual rows={stats.rows}",
            f"loops={stats.loops}",
            f"time={stats.seconds * 1000:.3f} ms",
        ]
        if stats.est_rows is not None:
            parts.append(f"est rows={stats.est_rows:.0f}")
            parts.append(f"q-error={stats.q_error:.2f}")
        return "  [" + " ".join(parts) + "]"

    def max_q_error(self) -> float | None:
        """The worst per-node q-error of this execution, or None.

        The per-query cardinality-quality headline: 1.0 means every
        estimate matched its actual; the adaptive loop drives this
        down across repeated analyzed runs.
        """
        errors = [
            stats.q_error
            for stats in self._stats.values()
            if stats.q_error is not None
        ]
        return max(errors) if errors else None

    def attach_estimates(self, model: Any) -> None:
        """Fill ``est_rows`` for every node of :attr:`plan` from *model*.

        *model* (any object with ``estimate(node)``) is the estimator
        the plan was actually costed with, so the reported q-error
        measures the model that made the decisions.
        """
        for node in _walk(self.plan):
            stats = self.for_node(node)
            try:
                stats.est_rows = float(model.estimate(node).rows)
            except Exception:
                stats.est_rows = None  # estimation must never break EXPLAIN

    def to_dict(self, plan: Any) -> dict[str, Any]:
        """The annotated plan as a nested JSON-ready tree."""
        stats = self.for_node(plan)
        payload: dict[str, Any] = {"operator": plan.label()}
        if stats is not None:
            payload.update(
                actual_rows=stats.rows,
                loops=stats.loops,
                time_ms=stats.seconds * 1000,
            )
            if stats.est_rows is not None:
                payload["est_rows"] = stats.est_rows
                payload["q_error"] = stats.q_error
        children = [self.to_dict(child) for child in plan.children()]
        if children:
            payload["children"] = children
        return payload

    def to_spans(self, plan: Any) -> Span:
        """Synthesize a finished span subtree mirroring the plan.

        Operator generators interleave across the plan, so live spans
        cannot nest around them; instead the recorded actuals become a
        span tree after the fact, attachable to the global tracer.
        """
        stats = self.for_node(plan)
        span = Span(f"operator.{plan.label()}")
        if stats is not None:
            span.ended = stats.seconds  # started stays 0.0: elapsed = seconds
            span.attributes = {"rows": stats.rows, "loops": stats.loops}
        for child in plan.children():
            span.children.append(self.to_spans(child))
        return span


def _walk(node: Any):
    yield node
    for child in node.children():
        yield from _walk(child)


@dataclass
class AnalyzedExecution:
    """One execution together with the per-operator actuals it recorded.

    *slots* binds the slots of a plan planned for a statement shape
    (:class:`~repro.sql.parser.Shape`): its operators are labelled with
    the literals the statement was written with.
    """

    result: Any
    analysis: PlanAnalysis
    stats: Any
    slots: dict | None = None

    @property
    def plan(self) -> Any:
        """The plan that ran — the tree :attr:`analysis` is keyed on."""
        return self.analysis.plan

    def explain(self, indent: int = 0) -> str:
        """The plan tree annotated with actuals (and estimates)."""
        text = self.plan.explain(indent, analysis=self.analysis)
        return text if self.slots is None else bind_slots(text, self.slots)

    def to_dict(self) -> dict[str, Any]:
        plan = self.analysis.to_dict(self.plan)
        if self.slots is not None:
            _bind_labels(plan, self.slots)
        payload = {
            "wall_ms": self.analysis.wall_seconds * 1000,
            "plan": plan,
            "stats": {
                name: value
                for name, value in self.stats.as_dict().items()
                if value
            },
        }
        max_q_error = self.analysis.max_q_error()
        if max_q_error is not None:
            payload["max_q_error"] = max_q_error
        return payload


def _bind_labels(node: dict[str, Any], slots: dict) -> None:
    node["operator"] = bind_slots(node["operator"], slots)
    for child in node.get("children", ()):
        _bind_labels(child, slots)


def execute_analyzed(
    query: Any,
    database: Any,
    params: dict | None = None,
    stats: Any | None = None,
    options: Any | None = None,
    use_indexes: bool = True,
    guard: Any | None = None,
) -> AnalyzedExecution:
    """:func:`~repro.engine.planner.execute_planned` with an analysis sink.

    The engine-level spelling of ``Connection.execute(..., analyze=True)``
    without rewrites or budgets: one planned execution (plan cache
    included) whose per-node loops/rows/time and the cost model's
    estimates come back beside the result.  When tracing is enabled the
    per-operator actuals also hang under the ``plan.execute`` span.
    """
    from ..engine.planner import execute_planned
    from ..engine.stats import Stats

    stats = stats if stats is not None else Stats()
    analysis = PlanAnalysis()
    result = execute_planned(
        query,
        database,
        params=params,
        stats=stats,
        options=options,
        use_indexes=use_indexes,
        guard=guard,
        analysis=analysis,
    )
    return AnalyzedExecution(result=result, analysis=analysis, stats=stats)


def explain_analyze(
    query: Any,
    database: Any,
    params: dict | None = None,
    options: Any | None = None,
) -> str:
    """One-shot convenience: execute and return the annotated plan."""
    return execute_analyzed(
        query, database, params=params, options=options
    ).explain()
