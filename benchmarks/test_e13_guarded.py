"""E13 — the price of the guard rails on the E12 warm path.

Resilience must be cheap enough to leave on: the per-row budget tick is
bound directly to ``ExecutionGuard.tick`` at context creation (one
call, a counter increment, and two attribute tests; the clock is
re-read every 256 rows), sequential scans account rows in chunks of
``TICK_CHUNK`` when no faults are armed, unarmed fault hooks reduce to
a no-op binding, and safe mode only pays for a cross-check on sampled
executions of rewritten queries.

The workload is the E12 warm path: templated keyed lookups (E12c),
compiled filter scans (E12d), and a correlated EXISTS probe (E12b),
all with warm plan/analysis caches.  Two isolated comparisons, each
measured *interleaved* (alternating the two arms batch-by-batch) so
machine drift hits both arms equally:

* ``execute_planned`` bare vs. with an armed guard — the pure tick
  overhead, as the median per-pair ratio;
* ``run_guarded`` plain vs. with budget + ``safe_mode`` — the always-on
  bookkeeping as a median per-pair ratio, plus the sampled cross-check
  (a directly timed execution of the unrewritten plan) amortized at its
  exact 1-in-25 rate, the way a long session pays it.

Both ratios must stay under 1.05.  Lands in ``BENCH_e13.json``.
"""

from statistics import median

from repro import clear_all_caches
from repro.engine import execute_planned
from repro.resilience.guarded import run_guarded
from repro.bench import ExperimentReport, interleaved, timed
from repro.engine import PlanCache
from repro.resilience import FAULTS, ResourceBudget
from repro.resilience.guarded import reset_safe_mode_sampling

KEY_SQL = "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = :N"
SCAN_SQL = (
    "SELECT P.PNO, P.PNAME FROM PARTS P "
    "WHERE P.COLOR = 'RED' AND P.PNO > 10"
)
EXISTS_SQL = (
    "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
    "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PN)"
)

# Exactly one EXISTS per batch: its text is the only one the optimizer
# rewrites, so its sampling counter advances once per safe batch and
# the cross-check schedule below is deterministic.
BATCH = (
    [(KEY_SQL, {"N": n}) for n in range(1, 51)]
    + [(SCAN_SQL, None)] * 20
    + [(EXISTS_SQL, {"PN": 3})]
)
TICK_REPEATS = 9
SAMPLE_EVERY = 25
SAFE_REPEATS = 15
BUDGET = ResourceBudget(timeout=120.0, row_budget=500_000_000)
MAX_OVERHEAD = 1.05


def test_e13_guard_and_safe_mode_overhead(bench_db):
    assert not FAULTS.armed  # nothing injected: we measure the hooks alone
    clear_all_caches()
    reset_safe_mode_sampling()
    cache = PlanCache()

    def bare_batch():
        return sum(
            len(execute_planned(sql, bench_db, params=p, plan_cache=cache).rows)
            for sql, p in BATCH
        )

    def ticked_batch():
        guard = BUDGET.guard()
        return sum(
            len(
                execute_planned(
                    sql, bench_db, params=p, plan_cache=cache, guard=guard
                ).rows
            )
            for sql, p in BATCH
        )

    def guarded_batch(**kwargs):
        return sum(
            len(
                run_guarded(
                    sql, bench_db, params=p, plan_cache=cache, **kwargs
                ).result.rows
            )
            for sql, p in BATCH
        )

    expected = bare_batch()  # warms the plan + analysis caches
    assert expected > len(BATCH)
    assert ticked_batch() == expected

    bare_times, ticked_times = interleaved(TICK_REPEATS, bare_batch, ticked_batch)
    t_bare, t_ticked = min(bare_times), min(ticked_times)
    # Each pair ran back-to-back, so the per-pair ratio cancels machine
    # drift; the median ignores pairs hit by a load spike or GC pause.
    tick_ratio = median(
        ticked / bare for ticked, bare in zip(ticked_times, bare_times)
    )

    # Safe-mode cost has two parts.  The always-on bookkeeping (budget
    # ticks, sampling counters) is measured as the median per-pair
    # ratio; the 1-in-SAMPLE_EVERY cross-check is amortized at its
    # exact rate from a directly timed reference execution (one run of
    # the unrewritten EXISTS — precisely what a sampled check executes
    # on top of the primary).
    safe_kwargs = dict(
        budget=BUDGET, safe_mode=True, sample_every=SAMPLE_EVERY
    )
    assert guarded_batch() == expected
    assert guarded_batch(**safe_kwargs) == expected  # consumes sample 0
    plain_times, safe_times = interleaved(
        SAFE_REPEATS, guarded_batch, lambda: guarded_batch(**safe_kwargs)
    )
    t_plain = median(plain_times)
    bookkeeping_ratio = median(
        safe / plain for safe, plain in zip(safe_times, plain_times)
    )
    t_reference = min(
        timed(
            lambda: execute_planned(
                EXISTS_SQL, bench_db, params={"PN": 3}, plan_cache=cache
            )
        )[1]
        for _ in range(5)
    )
    check_share = t_reference / (SAMPLE_EVERY * t_plain)
    safe_ratio = bookkeeping_ratio + check_share

    report = ExperimentReport(
        experiment="E13: guard + safe-mode overhead on the E12 warm path",
        claim="budget ticks, unarmed fault hooks, and sampled safe-mode "
        "verification each cost <5% on the warm mixed batch",
        columns=["mode", "statements/run", "t(s)", "overhead"],
        slug="e13",
    )
    report.add_row("execute_planned (min)", len(BATCH), t_bare, 1.0)
    report.add_row(
        "execute_planned + guard (min; median pair ratio)",
        len(BATCH),
        t_ticked,
        tick_ratio,
    )
    report.add_row(
        "run_guarded (median batch)", len(BATCH), t_plain, 1.0
    )
    report.add_row(
        f"run_guarded + budget + safe_mode(1/{SAMPLE_EVERY})",
        len(BATCH),
        t_plain * safe_ratio,
        safe_ratio,
    )
    report.note(
        "batch = 50 keyed lookups + 20 filter scans + 1 correlated "
        "EXISTS; arms interleaved batch-by-batch against machine drift"
    )
    report.note(
        f"safe-mode overhead = always-on bookkeeping (median pair "
        f"ratio {bookkeeping_ratio:.4f}) + one cross-check of the "
        f"rewritten EXISTS against its unrewritten plan "
        f"({t_reference * 1000:.1f} ms) amortized per {SAMPLE_EVERY} "
        f"executions"
    )
    report.show()

    assert tick_ratio <= MAX_OVERHEAD, (
        f"budget ticks cost {(tick_ratio - 1) * 100:.1f}% on the warm path"
    )
    assert safe_ratio <= MAX_OVERHEAD, (
        f"safe mode cost {(safe_ratio - 1) * 100:.1f}% over plain run_guarded"
    )


def test_e13_safe_mode_verifies_rewrites_when_sampled(bench_db):
    """Sanity anchor for the overhead claim: on a *rewritten* query the
    sampled executions really do run the cross-check."""
    clear_all_caches()
    reset_safe_mode_sampling()
    sql = (
        "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S "
        "WHERE S.SCITY = 'Toronto'"
    )
    verified = [
        run_guarded(sql, bench_db, safe_mode=True, sample_every=25).verified
        for _ in range(50)
    ]
    assert verified[0] is True and verified[25] is True
    assert sum(verified) == 2
