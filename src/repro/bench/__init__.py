"""Benchmark harness utilities."""

from .harness import (
    RENDERED_REPORTS,
    REPORTS,
    ExperimentReport,
    geometric_sweep,
    interleaved,
    speedup,
    timed,
    write_reports,
)

__all__ = [
    "ExperimentReport",
    "RENDERED_REPORTS",
    "REPORTS",
    "geometric_sweep",
    "interleaved",
    "speedup",
    "timed",
    "write_reports",
]
