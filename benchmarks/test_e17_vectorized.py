"""E17 — vectorized columnar execution vs the tuple interpreter.

The columnar engine (:mod:`repro.engine.columnar`) executes plans as
morsel-sized column batches: predicates become byte-lane mask kernels,
projection becomes column slicing, and DISTINCT/joins work over
canonical key vectors.  This module pins the claimed warm-path win —
selection-dominated scans run an order of magnitude faster than the
row-at-a-time interpreter — and reports where the gain shrinks (probe
loops and distinct folds keep per-row Python work).

Every table lands in ``BENCH_e17.json``.  The baseline is the *pure*
tuple interpreter (predicate compilation off), the same reference the
verified fallback demotes to; a second row shows the compiled tuple
path so the columnar gain is not conflated with closure compilation.
"""

import gc

from repro.bench import ExperimentReport, speedup, timed

# The home-module import skips the deprecation shim: per-call warning
# machinery is real overhead at millisecond timescales under pytest's
# record-everything warning filter.
from repro.engine import (
    DEFAULT_BATCH_ROWS,
    PlanCache,
    execute_planned,
    set_compilation_enabled,
)
from repro.engine.stats import Stats
from repro.sql.parser import parse_query
from repro.workloads import SupplierScale, build_database, generate

# Selection-dominated scan: the E12d predicate shape over a predicate
# that actually passes rows (PNO is per-supplier, 1..parts_per_supplier).
SELECTION_SQL = (
    "SELECT P.PNO, P.PNAME FROM PARTS P "
    "WHERE P.COLOR = :C AND P.PNO > 5 AND P.PNAME <> 'NONE'"
)
SELECTION_PARAMS = {"C": "RED"}

JOIN_SQL = (
    "SELECT S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"
)
DISTINCT_SQL = (
    "SELECT DISTINCT S.SNAME, P.COLOR FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND P.PNO > :N"
)
DISTINCT_PARAMS = {"N": 10}

ROUNDS = 10


def _bench(sql, db, params, engine_mode, cache, batch_rows=None, stats=None):
    """Warm-path timing: prime once (plan cache, lazy columnar
    projections, hash indexes), then average ROUNDS executions.  The
    query is parsed once up front — parse time is mode-independent
    constant overhead, not part of the execution paths under test.
    Timing runs with the cyclic GC paused: the interpreted baselines
    allocate enough to trigger collections during later (millisecond)
    vectorized measurements, which would skew the ratio run-order
    dependently."""
    query = parse_query(sql) if isinstance(sql, str) else sql

    def run():
        return execute_planned(
            query,
            db,
            params=params,
            engine_mode=engine_mode,
            batch_rows=batch_rows,
            plan_cache=cache,
            stats=stats,
        )

    run()  # prime caches; the steady state is what batch workloads see
    gc.collect()
    gc.disable()
    try:
        result, elapsed = timed(lambda: [run() for _ in range(ROUNDS)])
    finally:
        gc.enable()
    return result[-1], elapsed / ROUNDS


def test_e17_selection_scan_vectorized(benchmark, bench_db):
    """The headline claim: >=10x on the warm selection path."""
    cache = PlanCache()
    interp_stats, vec_stats = Stats(), Stats()

    previous = set_compilation_enabled(False)
    try:
        interp, t_interp = _bench(
            SELECTION_SQL, bench_db, SELECTION_PARAMS, "tuple", cache,
            stats=interp_stats,
        )
    finally:
        set_compilation_enabled(previous)
    compiled, t_compiled = _bench(
        SELECTION_SQL, bench_db, SELECTION_PARAMS, "tuple", cache
    )
    vectorized, t_vec = _bench(
        SELECTION_SQL, bench_db, SELECTION_PARAMS, "vectorized", cache,
        stats=vec_stats,
    )

    report = ExperimentReport(
        experiment="E17a: selection scan, tuple interpreter vs column kernels",
        claim="batch-compiled mask predicates remove per-row dispatch "
        "from the warm selection path",
        columns=["mode", "rows", "t(ms)", "speedup"],
        slug="e17",
    )
    ratio = speedup(t_interp, t_vec)
    report.add_row("tuple interpreter", len(interp.rows), t_interp * 1e3, 1.0)
    report.add_row(
        "tuple + compiled predicates",
        len(compiled.rows),
        t_compiled * 1e3,
        speedup(t_interp, t_compiled),
    )
    report.add_row("vectorized", len(vectorized.rows), t_vec * 1e3, ratio)
    report.note(
        f"batch size {DEFAULT_BATCH_ROWS}; baseline is the verified "
        "fallback path (compilation off)"
    )
    report.record_engine("vectorized", DEFAULT_BATCH_ROWS)
    report.record_stats("tuple", interp_stats)
    report.record_stats("vectorized", vec_stats)
    report.show()

    assert vectorized.rows == interp.rows == compiled.rows  # byte-identical
    assert len(vectorized.rows) > 0  # the predicate must actually select
    assert ratio >= 10.0, f"vectorized selection only {ratio:.1f}x faster"
    # Work accounting matches the interpreter; only the path counters
    # distinguish the modes.
    assert vec_stats.vectorized_batches > 0
    assert vec_stats.vectorized_fallbacks == 0

    result = benchmark(
        lambda: execute_planned(
            SELECTION_SQL,
            bench_db,
            params=SELECTION_PARAMS,
            engine_mode="vectorized",
            plan_cache=cache,
        )
    )
    assert result.rows == vectorized.rows


def test_e17_join_and_distinct_vectorized(benchmark, bench_db):
    """Joins and DISTINCT gain less — probe loops and distinct folds
    keep per-row Python work — but must never lose to the interpreter."""
    cache = PlanCache()
    report = ExperimentReport(
        experiment="E17b: hash join and DISTINCT under column batches",
        claim="vectorized build/probe and key-vector DISTINCT beat the "
        "interpreter, short of the pure-selection gain",
        columns=[
            "query", "rows", "tuple t(ms)", "tuple + compiled t(ms)",
            "vectorized t(ms)", "speedup",
        ],
        slug="e17",
    )
    report.record_engine("vectorized", DEFAULT_BATCH_ROWS)

    for label, sql, params in (
        ("join", JOIN_SQL, None),
        ("join+distinct", DISTINCT_SQL, DISTINCT_PARAMS),
    ):
        previous = set_compilation_enabled(False)
        try:
            interp, t_interp = _bench(sql, bench_db, params, "tuple", cache)
        finally:
            set_compilation_enabled(previous)
        compiled, t_compiled = _bench(sql, bench_db, params, "tuple", cache)
        vectorized, t_vec = _bench(sql, bench_db, params, "vectorized", cache)
        ratio = speedup(t_interp, t_vec)
        report.add_row(
            label, len(interp.rows), t_interp * 1e3, t_compiled * 1e3,
            t_vec * 1e3, ratio,
        )
        assert vectorized.rows == interp.rows == compiled.rows  # sequence
        assert ratio >= 2.0, f"{label}: vectorized only {ratio:.1f}x faster"

    report.note(
        "speedup is vectorized over the interpreter (compilation off); "
        "'tuple + compiled' is the default tuple engine — the rung gap "
        "ROADMAP 5(b) judges — and is reported, not asserted"
    )
    report.show()

    result = benchmark(
        lambda: execute_planned(
            JOIN_SQL, bench_db, engine_mode="vectorized", plan_cache=cache
        )
    )
    assert len(result.rows) > 0


def test_e17_batch_size_sweep(bench_db):
    """Morsel size is a plateau, not a cliff: the default batch size
    sits on the flat part of the curve."""
    cache = PlanCache()
    report = ExperimentReport(
        experiment="E17c: column batch size sweep (selection scan)",
        claim="throughput is stable across morsel sizes once batches "
        "amortize per-batch kernel setup",
        columns=["batch_rows", "batches", "rows", "t(ms)"],
        slug="e17",
    )
    report.record_engine("vectorized", DEFAULT_BATCH_ROWS)
    baseline_rows = None
    for batch_rows in (256, DEFAULT_BATCH_ROWS, 4096):
        stats = Stats()
        result, elapsed = _bench(
            SELECTION_SQL, bench_db, SELECTION_PARAMS, "vectorized", cache,
            batch_rows=batch_rows, stats=stats,
        )
        report.add_row(
            batch_rows,
            stats.vectorized_batches // (ROUNDS + 1),
            len(result.rows),
            elapsed * 1e3,
        )
        if baseline_rows is None:
            baseline_rows = result.rows
        assert result.rows == baseline_rows  # size never changes results
    report.note("times are per-execution averages on the warm path")
    report.show()
