"""Benchmark harness helpers: experiment records and table formatting.

Every benchmark prints a small report table (the "rows the paper would
report") in addition to pytest-benchmark's timing output, so the shape
of each claimed effect is visible directly in the bench log.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence


@dataclass
class ExperimentReport:
    """A printable result table for one experiment.

    Set *slug* to control the ``BENCH_<slug>.json`` file this table is
    written to; by default it derives from the experiment name's leading
    token ("E10: ..." -> ``BENCH_e10.json``).
    """

    experiment: str
    claim: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    slug: str | None = None
    stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    def add_row(self, *values: Any) -> None:
        """Append one data row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        """Attach a free-form footnote to the table."""
        self.notes.append(text)

    def record_stats(self, label: str, stats: Any) -> None:
        """Attach a labelled engine-counter snapshot to the report.

        Accepts a :class:`~repro.engine.stats.Stats` (anything with
        ``as_dict``) or a plain mapping; the full counter dict is kept so
        the serialized ``BENCH_*.json`` carries the measured workload's
        counters alongside its timings.
        """
        counters = stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
        self.stats[label] = dict(counters)

    def record_engine(
        self, engine_mode: str, batch_rows: int | None = None
    ) -> None:
        """Record which execution engine produced the measured numbers.

        Stamps ``engine_mode`` (and the column-batch size, when
        vectorized) into the report's metadata so a serialized
        ``BENCH_*.json`` baseline says which engine it measured —
        comparing a vectorized run against a tuple-interpreter baseline
        without noticing is exactly the mistake this prevents.
        """
        self.meta["engine_mode"] = engine_mode
        if batch_rows is not None:
            self.meta["batch_rows"] = batch_rows

    def render(self) -> str:
        """The report as an aligned ASCII table."""
        cells = [[_fmt(value) for value in row] for row in self.rows]
        widths = [len(name) for name in self.columns]
        for row in cells:
            for i, text in enumerate(row):
                widths[i] = max(widths[i], len(text))
        lines = [
            f"== {self.experiment} ==",
            f"claim: {self.claim}",
            " | ".join(
                name.ljust(widths[i]) for i, name in enumerate(self.columns)
            ),
            "-+-".join("-" * width for width in widths),
        ]
        for row in cells:
            lines.append(
                " | ".join(text.ljust(widths[i]) for i, text in enumerate(row))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def show(self) -> None:
        """Print the table and register it for the bench summary.

        pytest captures stdout, so the benchmark conftest replays every
        registered report in the terminal summary — the experiment
        tables always appear in the bench log — and serializes it to
        ``BENCH_<slug>.json`` via :func:`write_reports`.
        """
        rendered = self.render()
        RENDERED_REPORTS.append(rendered)
        REPORTS.append(self)
        print("\n" + rendered)

    def effective_slug(self) -> str:
        """The JSON file slug: explicit, else from the leading token."""
        if self.slug:
            return self.slug
        token = self.experiment.split()[0].lower().rstrip(":")
        cleaned = "".join(ch for ch in token if ch.isalnum() or ch in "-_")
        return cleaned or "report"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form of the table."""
        payload = {
            "experiment": self.experiment,
            "claim": self.claim,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }
        if self.stats:
            payload["stats"] = {
                label: dict(counters)
                for label, counters in self.stats.items()
            }
        if self.meta:
            payload["meta"] = dict(self.meta)
        return payload


#: Reports rendered during this process, replayed by the bench conftest.
RENDERED_REPORTS: list[str] = []

#: The report objects themselves, consumed by :func:`write_reports`.
REPORTS: list[ExperimentReport] = []


def write_reports(directory: str = ".") -> list[str]:
    """Serialize every shown report to ``BENCH_<slug>.json`` files.

    Reports sharing a slug land in the same file (a benchmark module may
    print several tables).  Every file records the process's engine
    configuration (default engine mode and column-batch size) so a
    baseline is never compared against a run from a different engine
    without the difference being visible.  Returns the written paths.
    """
    from ..engine.columnar import DEFAULT_BATCH_ROWS, default_engine_mode
    from ..observe.metrics import MetricsRegistry  # deferred: optional dep

    registry = MetricsRegistry()
    try:
        registry.record_caches()
    except Exception:
        pass  # a metrics snapshot must never block report writing
    metrics = registry.as_dict()
    engine = {
        "engine_mode": default_engine_mode(),
        "batch_rows": DEFAULT_BATCH_ROWS,
    }

    grouped: dict[str, list[dict[str, Any]]] = {}
    for report in REPORTS:
        grouped.setdefault(report.effective_slug(), []).append(report.to_dict())
    paths = []
    for slug, tables in sorted(grouped.items()):
        path = os.path.join(directory, f"BENCH_{slug}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "slug": slug,
                    "tables": tables,
                    "metrics": metrics,
                    "engine": engine,
                },
                handle,
                indent=2,
                default=str,
            )
            handle.write("\n")
        paths.append(path)
    return paths


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Run *fn* once, returning (result, elapsed_seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def interleaved(rounds: int, *arms: Callable[[], Any]) -> list[list[float]]:
    """Time the *arms* alternately, *rounds* times each; one list of
    elapsed seconds per arm.  Samples taken back to back see the same
    machine speed, so the median of their per-round ratios cancels a
    drift that timing each arm in a block of its own hands to one arm."""
    samples: list[list[float]] = [[] for _ in arms]
    for _ in range(rounds):
        for times, arm in zip(samples, arms):
            times.append(timed(arm)[1])
    return samples


def speedup(baseline: float, improved: float) -> float:
    """baseline / improved, guarded against zero."""
    if improved <= 0:
        return float("inf")
    return baseline / improved


def geometric_sweep(start: int, stop: int, factor: int = 2) -> list[int]:
    """Sizes ``start, start*factor, ...`` up to and including *stop*."""
    sizes = []
    size = start
    while size <= stop:
        sizes.append(size)
        size *= factor
    if sizes and sizes[-1] != stop:
        sizes.append(stop)
    return sizes
