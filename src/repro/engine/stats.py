"""Execution statistics.

Every operator credits work to a :class:`Stats` object.  The benchmark
harness reports these counters alongside wall-clock time, because the
paper's arguments are about *work avoided* (sorts skipped, nested-loop
probes saved), which the counters expose directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields


@functools.cache
def _counter_names(cls: type) -> tuple[str, ...]:
    """The counter names of one :class:`Stats` class, resolved once.

    Keyed by the concrete class, so a subclass that adds counters gets
    its own, longer tuple.
    """
    return tuple(f.name for f in fields(cls))


@dataclass
class Stats:
    """Counters accumulated during query execution.

    Attributes:
        rows_scanned: rows produced by base-table scans.
        rows_joined: rows produced by join/product operators.
        predicate_evals: WHERE/ON predicate evaluations.
        sorts: number of sort operations performed.
        sort_rows: total rows fed to sort operators (the paper's "expensive
            sort of the query result" shows up here).
        duplicates_removed: rows dropped by duplicate elimination.
        hash_builds: rows inserted into join/distinct hash tables.
        hash_probes: hash table lookups.
        subquery_executions: number of times a correlated subquery was
            (re-)executed — the cost of a naive nested-loop strategy.
        rows_output: rows in the final result.
        predicates_compiled: predicates lowered to row closures (once
            per operator execution, not per row).
        compiled_evals: rows evaluated through a compiled predicate
            instead of the recursive interpreter.
        index_probes: hash-index lookups that replaced a full table
            scan (IndexScan keys and correlated subquery probes).
        index_rows: rows returned by those index probes — compare with
            ``rows_scanned`` to see the scan work avoided.
        plan_cache_hits: physical plans served from the plan cache.
        plan_cache_misses: plans built because the cache had no entry.
        compile_fallbacks: compiled-predicate failures recovered by
            switching (possibly mid-stream) to the interpretive
            evaluator.
        index_fallbacks: hash-index probe failures recovered by scanning
            the base table instead.
        cache_skips: cache lookups skipped fail-closed because the
            fingerprint (or the lookup itself) failed.
        vectorized_batches: column batches produced by the batch
            kernels (scan, mask-select, slice) — a join, DISTINCT or set
            operation reads rows in every mode and adds nothing here.
        vectorized_rows: rows flowing through those batches — compare
            with ``predicate_evals`` to see the per-row dispatch avoided.
        vectorized_fallbacks: batch-kernel failures recovered by
            demoting (possibly mid-stream) to the tuple interpreter.
        stats_estimates: cardinality estimates produced by the
            statistics-driven estimator (one per plan estimated).
        adaptive_corrections: plan nodes whose observed cardinality
            was folded into the adaptive correction store.
        estimator_fallbacks: statistics estimations that fell back to
            the heuristic cost model (stale/missing statistics or an
            estimation error) — the degradation ladder's evidence.
        rows_inserted: rows buffered by INSERT execution.
        rows_updated: rows rewritten by UPDATE execution.
        rows_deleted: rows removed by DELETE execution.
    """

    rows_scanned: int = 0
    rows_joined: int = 0
    predicate_evals: int = 0
    sorts: int = 0
    sort_rows: int = 0
    duplicates_removed: int = 0
    hash_builds: int = 0
    hash_probes: int = 0
    subquery_executions: int = 0
    rows_output: int = 0
    predicates_compiled: int = 0
    compiled_evals: int = 0
    index_probes: int = 0
    index_rows: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    compile_fallbacks: int = 0
    index_fallbacks: int = 0
    cache_skips: int = 0
    vectorized_batches: int = 0
    vectorized_rows: int = 0
    vectorized_fallbacks: int = 0
    stats_estimates: int = 0
    adaptive_corrections: int = 0
    estimator_fallbacks: int = 0
    rows_inserted: int = 0
    rows_updated: int = 0
    rows_deleted: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for name in _counter_names(type(self)):
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dictionary."""
        return {name: getattr(self, name) for name in _counter_names(type(self))}

    def snapshot(self) -> "Stats":
        """An independent copy of the current counter values."""
        return type(self)(**self.as_dict())

    # Arithmetic iterates type(self)'s counters and constructs
    # type(self), so a counter added later — including in a subclass —
    # participates in merging automatically instead of being silently
    # dropped.

    def __add__(self, other: "Stats") -> "Stats":
        merged = type(self)()
        for name in _counter_names(type(self)):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

    def __sub__(self, other: "Stats") -> "Stats":
        merged = type(self)()
        for name in _counter_names(type(self)):
            setattr(merged, name, getattr(self, name) - getattr(other, name))
        return merged

    def describe(self) -> str:
        """Non-zero counters as a compact single-line summary."""
        parts = [
            f"{name}={value}" for name, value in self.as_dict().items() if value
        ]
        return ", ".join(parts) if parts else "(no work recorded)"
