"""E14 — the price of observability on the E12 warm path.

Tracing must be cheap enough to leave compiled in and cheap enough to
turn on.  Two claims, pinned on the E13 mixed batch (templated keyed
lookups, compiled filter scans, one correlated EXISTS; warm plan and
analysis caches):

* **Disabled** tracing costs under 2%.  Every instrumented site guards
  itself with one ``TRACER.enabled`` attribute test before building any
  span arguments, so the disabled cost is (sites crossed per batch) ×
  (per-site hook cost).  The hook cost is microbenchmarked directly and
  the site count is taken from an enabled batch's span count — an upper
  bound, since a disabled site pays strictly less than a span-producing
  one.
* **Enabled** tracing costs under 15%, measured interleaved (alternating
  enabled and disabled batches pair-by-pair, median per-pair ratio) so
  machine drift hits both arms equally.

Lands in ``benchmarks/out/BENCH_e14.json`` with the batch's engine-counter deltas.
"""

from statistics import median
from time import perf_counter

from repro import Stats, clear_all_caches
from repro.engine import execute_planned
from repro.bench import ExperimentReport, interleaved
from repro.engine import PlanCache
from repro.observe import NULL_SPAN, TRACER, set_tracing

KEY_SQL = "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = :N"
SCAN_SQL = (
    "SELECT P.PNO, P.PNAME FROM PARTS P "
    "WHERE P.COLOR = 'RED' AND P.PNO > 10"
)
EXISTS_SQL = (
    "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
    "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PN)"
)

BATCH = (
    [(KEY_SQL, {"N": n}) for n in range(1, 51)]
    + [(SCAN_SQL, None)] * 20
    + [(EXISTS_SQL, {"PN": 3})]
)
REPEATS = 9
MAX_DISABLED_OVERHEAD = 0.02
MAX_ENABLED_RATIO = 1.15


def _disabled_hook_cost(iterations=200_000):
    """Seconds per instrumented site when tracing is off.

    Reproduces the exact guarded-site pattern: one attribute test, the
    conditional, entering the shared no-op context manager, and the
    ``if span`` attribute guard.
    """
    assert not TRACER.enabled
    start = perf_counter()
    for _ in range(iterations):
        traced = TRACER.enabled
        span_cm = TRACER.span("e14.hook") if traced else NULL_SPAN
        with span_cm as span:
            if span is not None:
                span.attributes["never"] = True
    return (perf_counter() - start) / iterations


def test_e14_tracing_overhead(bench_db):
    previous = set_tracing(False)
    try:
        _run_e14(bench_db)
    finally:
        set_tracing(previous)
        TRACER.clear()


def _run_e14(bench_db):
    clear_all_caches()
    cache = PlanCache()
    batch_stats = Stats()

    def disabled_batch():
        return sum(
            len(
                execute_planned(
                    sql,
                    bench_db,
                    params=p,
                    plan_cache=cache,
                    stats=batch_stats,
                ).rows
            )
            for sql, p in BATCH
        )

    def enabled_batch():
        TRACER.clear()  # fresh span budget: a full batch always fits
        set_tracing(True)
        try:
            return disabled_batch()
        finally:
            set_tracing(False)

    expected = disabled_batch()  # warms the plan + analysis caches
    assert expected > len(BATCH)
    assert enabled_batch() == expected
    spans_per_batch = sum(1 for root in TRACER.roots for _ in root.walk())
    assert spans_per_batch >= len(BATCH)  # at least one root per statement
    assert TRACER.truncated == 0

    stats_before = batch_stats.snapshot()
    disabled_times, enabled_times = interleaved(
        REPEATS, disabled_batch, enabled_batch
    )
    batch_delta = batch_stats.snapshot() - stats_before

    t_disabled = median(disabled_times)
    # Each pair ran back-to-back, so the per-pair ratio cancels machine
    # drift; the median ignores pairs hit by a load spike or GC pause.
    enabled_ratio = median(
        enabled / disabled
        for enabled, disabled in zip(enabled_times, disabled_times)
    )

    hook_cost = _disabled_hook_cost()
    disabled_overhead = spans_per_batch * hook_cost / t_disabled

    report = ExperimentReport(
        experiment="E14: tracing overhead on the E12 warm path",
        claim="disabled tracing costs <2% (guarded hook sites), enabled "
        "tracing costs <15% (median interleaved pair ratio)",
        columns=["mode", "statements/run", "t(s)", "overhead"],
        slug="e14",
    )
    report.add_row(
        "tracing disabled (median batch)", len(BATCH), t_disabled, 1.0
    )
    report.add_row(
        "disabled hook sites (computed share)",
        len(BATCH),
        spans_per_batch * hook_cost,
        1.0 + disabled_overhead,
    )
    report.add_row(
        "tracing enabled (median pair ratio)",
        len(BATCH),
        t_disabled * enabled_ratio,
        enabled_ratio,
    )
    report.record_stats("interleaved_batches", batch_delta)
    report.note(
        "batch = 50 keyed lookups + 20 filter scans + 1 correlated "
        "EXISTS; arms interleaved batch-by-batch against machine drift"
    )
    report.note(
        f"disabled share = {spans_per_batch} hook sites/batch (from the "
        f"enabled batch's span count, an upper bound) x "
        f"{hook_cost * 1e9:.0f} ns/site, against the median disabled batch"
    )
    report.show()

    assert disabled_overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled tracing hooks cost {disabled_overhead * 100:.2f}% "
        "of the warm batch"
    )
    assert enabled_ratio <= MAX_ENABLED_RATIO, (
        f"enabled tracing cost {(enabled_ratio - 1) * 100:.1f}% "
        "on the warm batch"
    )


def test_e14_enabled_batch_produces_complete_trace(bench_db):
    """Sanity anchor for the overhead claim: the enabled arm really does
    record a span tree per statement, with stats deltas attached."""
    clear_all_caches()
    cache = PlanCache()
    previous = set_tracing(True)
    TRACER.clear()
    try:
        for sql, params in BATCH[:5]:
            execute_planned(sql, bench_db, params=params, plan_cache=cache)
        assert len(TRACER.roots) == 5
        root = TRACER.last_root()
        names = {span.name for span in root.walk()}
        assert "query.execute_planned" in names
        assert "plan.execute" in names
        assert any(span.stats_delta is not None for span in root.walk())
    finally:
        set_tracing(previous)
        TRACER.clear()
