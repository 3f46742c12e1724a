"""Metrics registry: engine counters, cache rates and resilience events,
exportable as JSON or Prometheus-style text.

Naming follows the Prometheus conventions: every metric is prefixed
with the ``repro_`` namespace, cumulative counters end in ``_total``,
point-in-time values are gauges, and dimensions ride in labels —
``repro_cache_hits_total{cache="plans"} 42``.  A
registry can scope one query (``for_query``-style throwaway instances)
or the whole process (:data:`PROCESS_METRICS`).
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterable

LabelKey = tuple[tuple[str, str], ...]


class MetricsRegistry:
    """A flat store of named, labelled numeric series.

    Thread-safe: ``inc``/``set`` run under a per-registry leaf lock, so
    the shared :data:`PROCESS_METRICS` (and a
    :class:`~repro.service.QueryService`'s registry, which every worker
    folds per-query counters into) never loses an update under
    concurrent recording.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._values: dict[tuple[str, LabelKey], float] = {}
        self._lock = threading.Lock()

    # -- primitives -----------------------------------------------------

    @staticmethod
    def _key(name: str, labels: dict[str, Any]) -> tuple[str, LabelKey]:
        return name, tuple(sorted((k, str(v)) for k, v in labels.items()))

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Add *value* to the counter *name* (creating it at 0)."""
        key = self._key(name, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def set(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge (or sampled cumulative counter) *name*."""
        with self._lock:
            self._values[self._key(name, labels)] = float(value)

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a series (0.0 when never touched)."""
        with self._lock:
            return self._values.get(self._key(name, labels), 0.0)

    def series(self) -> Iterable[tuple[str, LabelKey, float]]:
        """Every (name, labels, value), sorted for stable output."""
        with self._lock:
            snapshot = sorted(self._values.items())
        for (name, labels), value in snapshot:
            yield name, labels, value

    # -- recorders for the engine's own stat carriers -------------------

    def record_stats(self, stats: Any, prefix: str = "engine") -> None:
        """Fold a :class:`~repro.engine.stats.Stats` (or any object with
        ``as_dict``) into ``<prefix>_<counter>_total`` counters."""
        for counter, value in stats.as_dict().items():
            if value:
                self.inc(f"{prefix}_{counter}_total", value)

    def record_caches(self, stats: dict[str, dict[str, int]] | None = None) -> None:
        """Sample every registered cache's cumulative hit/miss counters
        and current occupancy (:func:`repro.cache.cache_stats` shape)."""
        if stats is None:
            from ..cache import cache_stats  # deferred: keeps this module cycle-free

            stats = cache_stats()
        for cache_name, counters in stats.items():
            self.set("cache_hits_total", counters["hits"], cache=cache_name)
            self.set("cache_misses_total", counters["misses"], cache=cache_name)
            self.set("cache_entries", counters["entries"], cache=cache_name)

    def record_estimator(self, stats: Any) -> None:
        """Fold one execution's cardinality-estimator counters.

        Emits ``stats_estimates_total`` (plans costed with table
        statistics), ``adaptive_corrections_total`` (observed-row
        corrections folded by the adaptive feedback loop), and
        ``estimator_fallbacks_total`` (per-query fallbacks to the
        heuristic cost model).
        """
        if stats is None:
            return
        if getattr(stats, "stats_estimates", 0):
            self.inc("stats_estimates_total", stats.stats_estimates)
        if getattr(stats, "adaptive_corrections", 0):
            self.inc(
                "adaptive_corrections_total", stats.adaptive_corrections
            )
        if getattr(stats, "estimator_fallbacks", 0):
            self.inc(
                "estimator_fallbacks_total", stats.estimator_fallbacks
            )

    def record_outcome(self, outcome: Any) -> None:
        """Fold one guarded execution's resilience events."""
        self.inc("queries_total")
        self.record_estimator(getattr(outcome, "stats", None))
        analyzed = getattr(outcome, "analysis", None)
        if analyzed is not None:
            # Most recent analyzed query's worst per-node q-error — a
            # gauge, so dashboards watch the adaptive loop converge.
            q_error = analyzed.analysis.max_q_error()
            if q_error is not None:
                self.set("query_max_q_error", q_error)
        if outcome.rewritten:
            self.inc("queries_rewritten_total")
        for rule in outcome.rules:
            self.inc("rewrites_total", 1, rule=rule)
        if outcome.verified:
            self.inc("safe_mode_checks_total")
        if outcome.mismatch:
            self.inc("safe_mode_mismatches_total")
            self.inc("cache_evictions_total", outcome.evicted)
        for rule in outcome.quarantined:
            self.inc("rules_quarantined_total", 1, rule=rule)

    def record_http(
        self, route: str, status: int, seconds: float
    ) -> None:
        """Fold one HTTP request served by :mod:`repro.net.server`."""
        self.inc("http_requests_total", route=route, status=str(status))
        self.inc("http_request_seconds_total", seconds, route=route)

    def record_audit(self, trail: Any) -> None:
        """Count an audit trail's decisions by rule and outcome."""
        for record in trail:
            self.inc(
                "rewrite_decisions_total",
                1,
                rule=record.rule,
                decision=record.decision,
            )

    # -- export ---------------------------------------------------------

    def full_name(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def as_dict(self) -> dict[str, float]:
        """Flat ``{rendered_series_name: value}`` mapping."""
        flattened: dict[str, float] = {}
        for name, labels, value in self.series():
            flattened[self._render_series(name, labels)] = value
        return flattened

    def to_json(self) -> str:
        payload = {
            "namespace": self.namespace,
            "metrics": [
                {
                    "name": self.full_name(name),
                    "labels": dict(labels),
                    "value": value,
                }
                for name, labels, value in self.series()
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (one # TYPE per metric)."""
        lines: list[str] = []
        typed: set[str] = set()
        for name, labels, value in self.series():
            full = self.full_name(name)
            if full not in typed:
                typed.add(full)
                kind = "counter" if name.endswith("_total") else "gauge"
                lines.append(f"# TYPE {full} {kind}")
            lines.append(f"{self._render_series(name, labels)} {_fmt(value)}")
        return "\n".join(lines) + "\n" if lines else ""

    def write(self, path: str) -> str:
        """Write this registry to *path*: ``.prom`` selects the
        Prometheus text format, anything else gets JSON."""
        text = (
            self.to_prometheus()
            if str(path).endswith(".prom")
            else self.to_json()
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def _render_series(self, name: str, labels: LabelKey) -> str:
        full = self.full_name(name)
        if not labels:
            return full
        rendered = ",".join(
            f'{key}="{_escape(value)}"' for key, value in labels
        )
        return f"{full}{{{rendered}}}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _fmt(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


#: Process-lifetime registry — the CLI and bench harness fold per-query
#: registries (or sample the caches) into this one.
PROCESS_METRICS = MetricsRegistry()
