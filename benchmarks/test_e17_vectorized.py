"""E17 — vectorized columnar execution vs the tuple interpreter.

Column batches (:mod:`repro.engine.columnar`) are the format of
scan → filter → project pipelines: predicates become byte-lane mask
kernels, projection becomes column slicing, and where the pipeline ends
— at a join or a DISTINCT — its rows go to the one row-shaped
implementation those operators have.  This module pins the claimed
warm-path win — selection-dominated scans run an order of magnitude
faster than the row-at-a-time interpreter — and reports where the gain
shrinks (the join and the DISTINCT above the pipeline are row loops in
every mode).

Every table lands in ``BENCH_e17.json``.  The baseline is the *pure*
tuple interpreter (predicate compilation off), the same reference the
verified fallback demotes to; a second row shows the compiled tuple
path so the columnar gain is not conflated with closure compilation.

The arms of a table are timed *interleaved*, one execution each per
round, and every asserted speedup is the median of the per-round ratios:
this box switches CPU speed for seconds at a time, and arms timed in
blocks of their own hand the whole switch to one of them (the ≥ 10 ×
below read 7.5 × that way on one run in three).
"""

import gc
from statistics import median

from repro.bench import ExperimentReport, interleaved

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


def _arm(
    sql, db, params, engine_mode, cache, *, compiled=True, batch_rows=None,
    stats=None,
):
    """One warm execution as a zero-argument callable.  The query is
    parsed once up front — parse time is mode-independent constant
    overhead, not part of the execution paths under test; *compiled*
    off is the pure interpreter, switched per call so arms interleave."""
    query = parse_query(sql)

    def run():
        previous = set_compilation_enabled(compiled)
        try:
            return execute_planned(
                query,
                db,
                params=params,
                engine_mode=engine_mode,
                batch_rows=batch_rows,
                plan_cache=cache,
                stats=stats,
            )
        finally:
            set_compilation_enabled(previous)

    return run


def _bench(*arms):
    """Warm-path timing: prime every arm once (plan cache, cached column
    batches, hash indexes), then ROUNDS interleaved executions of each.
    Returns the primed results and one sample list per arm.  Timing runs
    with the cyclic GC paused: the interpreted baselines allocate enough
    to trigger collections inside a neighbouring (millisecond)
    vectorized sample."""
    results = [arm() for arm in arms]
    gc.collect()
    gc.disable()
    try:
        samples = interleaved(ROUNDS, *arms)
    finally:
        gc.enable()
    return results, samples


def _paired(baseline, improved):
    """Median per-round ``baseline / improved``."""
    return median(b / i for b, i in zip(baseline, improved))


def test_e17_selection_scan_vectorized(benchmark, bench_db):
    """The headline claim: >=10x on the warm selection path."""
    cache = PlanCache()
    interp_stats, vec_stats = Stats(), Stats()

    selection = (SELECTION_SQL, bench_db, SELECTION_PARAMS)
    (interp, compiled, vectorized), (t_interp, t_compiled, t_vec) = _bench(
        _arm(*selection, "tuple", cache, compiled=False, stats=interp_stats),
        _arm(*selection, "tuple", cache),
        _arm(*selection, "vectorized", cache, stats=vec_stats),
    )

    report = ExperimentReport(
        experiment="E17a: selection scan, tuple interpreter vs column kernels",
        claim="batch-compiled mask predicates remove per-row dispatch "
        "from the warm selection path",
        columns=["mode", "rows", "t(ms)", "speedup"],
        slug="e17",
    )
    ratio = _paired(t_interp, t_vec)
    report.add_row(
        "tuple interpreter", len(interp.rows), median(t_interp) * 1e3, 1.0
    )
    report.add_row(
        "tuple + compiled predicates",
        len(compiled.rows),
        median(t_compiled) * 1e3,
        _paired(t_interp, t_compiled),
    )
    report.add_row(
        "vectorized", len(vectorized.rows), median(t_vec) * 1e3, ratio
    )
    report.note(
        f"batch size {DEFAULT_BATCH_ROWS}; baseline is the verified "
        "fallback path (compilation off); times are medians of "
        f"{ROUNDS} interleaved executions, speedups medians of the "
        "per-round ratios"
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
        claim="a batch pipeline under the one row-shaped join / DISTINCT "
        "beats the interpreter, short of the pure-selection gain",
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
        (interp, compiled, vectorized), (t_interp, t_compiled, t_vec) = _bench(
            _arm(sql, bench_db, params, "tuple", cache, compiled=False),
            _arm(sql, bench_db, params, "tuple", cache),
            _arm(sql, bench_db, params, "vectorized", cache),
        )
        ratio = _paired(t_interp, t_vec)
        report.add_row(
            label, len(interp.rows), median(t_interp) * 1e3,
            median(t_compiled) * 1e3, median(t_vec) * 1e3, ratio,
        )
        assert vectorized.rows == interp.rows == compiled.rows  # sequence
        assert ratio >= 2.0, f"{label}: vectorized only {ratio:.1f}x faster"

    report.note(
        "speedup is vectorized over the interpreter (compilation off), "
        "the median per-round ratio of interleaved executions; 'tuple + "
        "compiled' is the default tuple engine — the rung gap ROADMAP 9 "
        "judges — and is reported, not asserted"
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
    sizes = (256, DEFAULT_BATCH_ROWS, 4096)
    counters = [Stats() for _ in sizes]
    results, samples = _bench(
        *(
            _arm(
                SELECTION_SQL, bench_db, SELECTION_PARAMS, "vectorized", cache,
                batch_rows=batch_rows, stats=stats,
            )
            for batch_rows, stats in zip(sizes, counters)
        )
    )
    for batch_rows, stats, result, times in zip(sizes, counters, results, samples):
        report.add_row(
            batch_rows,
            stats.vectorized_batches // (ROUNDS + 1),
            len(result.rows),
            median(times) * 1e3,
        )
        assert result.rows == results[0].rows  # size never changes results
    report.note(
        f"times are medians of {ROUNDS} interleaved warm executions per size"
    )
    report.show()
