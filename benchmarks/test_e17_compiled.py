"""E17 — the compiled row engine vs the tuple interpreter.

Predicates lower once per plan shape to generated row tests
(:mod:`repro.engine.compile`), and a scan → filter → project pipeline,
or a hash join with its probe-side pipeline, runs as one generated
function (:mod:`repro.engine.codegen`).  This module pins the warm-path
win — selection-dominated scans run an order of magnitude faster than
the row-at-a-time interpreter — and reports where the gain shrinks (a
join and a DISTINCT keep per-row Python work in their probe loops and
folds).

Every table lands in ``benchmarks/out/BENCH_e17.json``.  The baseline is the *pure*
tuple interpreter (predicate compilation off), the same reference a
refused predicate runs on.

The arms of a table are timed *interleaved*, one execution each per
round, and every asserted speedup is the median of the per-round ratios:
this box switches CPU speed for seconds at a time, and arms timed in
blocks of their own hand the whole switch to one of them.
"""

import gc
from statistics import median

from repro.bench import ExperimentReport, interleaved
from repro.engine import PlanCache, execute_planned, set_compilation_enabled
from repro.engine.stats import Stats
from repro.sql.parser import parse_query

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


def _arm(sql, db, params, cache, *, compiled=True, stats=None):
    """One warm execution as a zero-argument callable.  The query is
    parsed once up front — parse time is constant overhead, not part of
    the execution paths under test; *compiled* off is the pure
    interpreter, switched per call so arms interleave."""
    query = parse_query(sql)

    def run():
        previous = set_compilation_enabled(compiled)
        try:
            return execute_planned(
                query, db, params=params, plan_cache=cache, stats=stats
            )
        finally:
            set_compilation_enabled(previous)

    return run


def _bench(*arms):
    """Warm-path timing: prime every arm once (plan cache, generated
    kernels, hash indexes), then ROUNDS interleaved executions of each.
    Returns the primed results and one sample list per arm.  Timing runs
    with the cyclic GC paused: the interpreted baseline allocates enough
    to trigger collections inside a neighbouring (millisecond) compiled
    sample."""
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


def test_e17_selection_scan_compiled(benchmark, bench_db):
    """The headline claim: >=10x on the warm selection path."""
    cache = PlanCache()
    interp_stats, compiled_stats = Stats(), Stats()

    selection = (SELECTION_SQL, bench_db, SELECTION_PARAMS)
    (interp, compiled), (t_interp, t_compiled) = _bench(
        _arm(*selection, cache, compiled=False, stats=interp_stats),
        _arm(*selection, cache, stats=compiled_stats),
    )

    report = ExperimentReport(
        experiment="E17a: selection scan, tuple interpreter vs compiled rows",
        claim="a generated scan pipeline removes per-row dispatch from "
        "the warm selection path",
        columns=["engine", "rows", "t(ms)", "speedup"],
        slug="e17",
    )
    ratio = _paired(t_interp, t_compiled)
    report.add_row(
        "tuple interpreter", len(interp.rows), median(t_interp) * 1e3, 1.0
    )
    report.add_row(
        "compiled (fused pipeline)",
        len(compiled.rows),
        median(t_compiled) * 1e3,
        ratio,
    )
    report.note(
        "baseline is the verified fallback path (compilation off); times "
        f"are medians of {ROUNDS} interleaved executions, speedups medians "
        "of the per-round ratios"
    )
    report.record_stats("interpreter", interp_stats)
    report.record_stats("compiled", compiled_stats)
    report.show()

    assert compiled.rows == interp.rows  # byte-identical
    assert len(compiled.rows) > 0  # the predicate must actually select
    assert ratio >= 10.0, f"compiled selection only {ratio:.1f}x faster"
    # Every row the interpreter judged, the compiled test judged.
    assert compiled_stats.compiled_evals == compiled_stats.predicate_evals > 0

    result = benchmark(
        lambda: execute_planned(
            SELECTION_SQL, bench_db, params=SELECTION_PARAMS, plan_cache=cache
        )
    )
    assert result.rows == compiled.rows


def test_e17_join_and_distinct_compiled(benchmark, bench_db):
    """Joins and DISTINCT gain less — probe loops and distinct folds
    keep per-row Python work — but must never lose to the interpreter."""
    cache = PlanCache()
    report = ExperimentReport(
        experiment="E17b: hash join and DISTINCT, interpreter vs compiled",
        claim="a generated join over its probe-side pipeline beats the "
        "interpreter, short of the pure-selection gain",
        columns=["query", "rows", "interpreter t(ms)", "compiled t(ms)", "speedup"],
        slug="e17",
    )

    for label, sql, params in (
        ("join", JOIN_SQL, None),
        ("join+distinct", DISTINCT_SQL, DISTINCT_PARAMS),
    ):
        (interp, compiled), (t_interp, t_compiled) = _bench(
            _arm(sql, bench_db, params, cache, compiled=False),
            _arm(sql, bench_db, params, cache),
        )
        ratio = _paired(t_interp, t_compiled)
        report.add_row(
            label, len(interp.rows), median(t_interp) * 1e3,
            median(t_compiled) * 1e3, ratio,
        )
        assert compiled.rows == interp.rows  # sequence
        assert ratio >= 2.0, f"{label}: compiled only {ratio:.1f}x faster"

    report.note(
        "speedup is the compiled engine over the interpreter (compilation "
        "off), the median per-round ratio of interleaved executions"
    )
    report.show()

    result = benchmark(
        lambda: execute_planned(JOIN_SQL, bench_db, plan_cache=cache)
    )
    assert len(result.rows) > 0
