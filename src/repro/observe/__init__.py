"""Observability: trace spans, EXPLAIN ANALYZE, audit trail, metrics.

Four cooperating pieces, all zero-dependency:

* :mod:`~repro.observe.trace` — hierarchical spans with wall time and
  :class:`~repro.engine.stats.Stats` deltas, near-zero cost when off;
* :mod:`~repro.observe.analyze` — EXPLAIN ANALYZE: the sink a normal
  execution accounts into (actual rows, loops, time, per-node q-error);
* :mod:`~repro.observe.audit` — the rewrite audit trail: every
  Theorem 1/2/3 and Algorithm 1 decision with its witness;
* :mod:`~repro.observe.metrics` — a registry exporting engine, cache,
  resilience, and DL/I counters as JSON or Prometheus text.
"""

from .audit import FIRED, REJECTED, VERDICT, AuditRecord, AuditTrail
from .analyze import (
    AnalyzedExecution,
    NodeStats,
    PlanAnalysis,
    execute_analyzed,
    explain_analyze,
)
from .metrics import PROCESS_METRICS, MetricsRegistry
from .trace import NULL_SPAN, TRACER, Span, Tracer, set_tracing, tracing_enabled

__all__ = [
    "AuditRecord",
    "AuditTrail",
    "FIRED",
    "REJECTED",
    "VERDICT",
    "AnalyzedExecution",
    "NodeStats",
    "PlanAnalysis",
    "execute_analyzed",
    "explain_analyze",
    "MetricsRegistry",
    "PROCESS_METRICS",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "TRACER",
    "set_tracing",
    "tracing_enabled",
]
