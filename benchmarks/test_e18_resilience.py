"""E18 — the price and the payoff of the resilience layer.

Two claims about PR 7's machinery (deadlines, the admission controller,
the degradation ladder, the client breaker):

* **E18a — the healthy path is nearly free.**  Every query now pays
  for a deadline clamp, a ladder decision over four subsystems, and a
  post-execution attribution pass.  Replaying a hot statement mix
  through the same execution core with the machinery off vs fully on
  must show under 5% overhead — resilience that taxes the common case
  would never stay enabled.
* **E18b — shedding caps batch latency under a storm.**  With the
  single worker stalled behind simulated I/O, batch clients against an
  adaptive-shedding service see a bounded p99 (rejections are instant
  and typed) while the same traffic without shedding queues behind the
  stall for multiples of that.
* **E18c — the wire pays the same nothing.**  The E16-style concurrent
  wire drive with every request carrying ``X-Deadline-Ms`` and
  ``X-Priority`` (header parse, re-anchor, admission check, clamp, and
  the per-request deadline EWMA feed) stays within 5% of the same
  drive with no resilience headers at all.

Every table lands in ``BENCH_e18.json``.
"""

from __future__ import annotations

import threading
import time
from statistics import median

import repro
from repro import QueryService
from repro.net.server import QueryServer
from repro.bench import ExperimentReport, interleaved, speedup
from repro.engine.plan_cache import PlanCache
from repro.engine.stats import Stats
from repro.errors import ReproError
from repro.options import ExecutionOptions
from repro.resilience import FAULTS, SITE_PLAN_CACHE
from repro.resilience.admission import SheddingPolicy
from repro.resilience.deadline import Deadline
from repro.resilience.health import HealthTracker
from repro.workloads import SupplierScale, build_database, generate

#: Hot-path statements: small answers, so per-query fixed costs (the
#: thing E18a measures) dominate over row processing.
HOT_STATEMENTS = [
    "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 7",
    "SELECT DISTINCT S.SCITY FROM SUPPLIER S",
    "SELECT P.PNO FROM PARTS P WHERE P.SNO = 3",
]
ROUNDS = 400

STALL = 0.05
STORM_REQUESTS = 24

E18A_SCALE = SupplierScale(suppliers=40, parts_per_supplier=5)


def _replay(db, cache, options, health):
    """One pass of the hot mix through the shared execution core."""
    from repro.api import run_with_options

    for _ in range(ROUNDS):
        for sql in HOT_STATEMENTS:
            run_with_options(
                sql,
                db,
                options=options,
                stats=Stats(),
                plan_cache=cache,
                health=health,
            )


def test_e18a_healthy_path_overhead_under_5_percent():
    from repro.api import run_with_options

    db = build_database(generate(E18A_SCALE))
    cache = PlanCache()

    bare = ExecutionOptions.create(timeout=30.0)
    armed = ExecutionOptions.create(
        timeout=30.0, deadline=Deadline.after(3600.0), priority="batch"
    )
    health = HealthTracker()

    # Warm plans and lazy indexes once, off the clock.
    _replay(db, cache, bare, None)

    def one(options, tracker):
        start = time.perf_counter()
        run_with_options(
            HOT_STATEMENTS[0],
            db,
            options=options,
            stats=Stats(),
            plan_cache=cache,
            health=tracker,
        )
        return time.perf_counter() - start

    # Statement-level ABBA pairing: each round times the same statement
    # bare and armed back to back (order alternating), so scheduler and
    # allocator drift lands on both sides equally — the only systematic
    # difference left is the machinery under measurement.  The verdict
    # is the MEDIAN of per-round paired overheads (a lucky round for
    # one mode cannot skew a paired ratio), with the collector parked
    # during rounds so its pauses don't land on either side.
    import gc

    rounds_bare, rounds_armed = [], []
    per_round = ROUNDS // 4
    gc_was_enabled = gc.isenabled()
    try:
        for round_index in range(9):
            gc.collect()
            gc.disable()
            sum_bare = sum_armed = 0.0
            if round_index % 2 == 0:
                for _ in range(per_round):
                    sum_bare += one(bare, None)
                    sum_armed += one(armed, health)
            else:
                for _ in range(per_round):
                    sum_armed += one(armed, health)
                    sum_bare += one(bare, None)
            gc.enable()
            rounds_bare.append(sum_bare)
            rounds_armed.append(sum_armed)
    finally:
        if gc_was_enabled:
            gc.enable()
    assert health.healthy()
    ratios = sorted(
        armed_sum / bare_sum
        for bare_sum, armed_sum in zip(rounds_bare, rounds_armed)
    )
    overhead = (ratios[len(ratios) // 2] - 1.0) * 100.0
    t_bare = sorted(rounds_bare)[len(rounds_bare) // 2]
    t_armed = t_bare * ratios[len(ratios) // 2]

    n = per_round
    report = ExperimentReport(
        experiment="E18a: hot statement mix, resilience machinery off vs on",
        claim="deadline clamp + ladder decision + attribution cost "
        "under 5% on the healthy path",
        columns=["mode", "statements", "t(s)", "per-stmt(us)", "overhead"],
        slug="e18",
    )
    report.add_row("machinery off", n, t_bare, t_bare / n * 1e6, "-")
    report.add_row(
        "machinery on", n, t_armed, t_armed / n * 1e6, f"{overhead:+.1f}%"
    )
    report.note(
        "per statement: one Deadline.clamp_timeout, one HealthTracker "
        "decision over four subsystems, one attribution pass; "
        "statement-level ABBA pairing, median paired overhead of 9 "
        "rounds, gc parked during rounds"
    )
    report.show()

    assert overhead < 5.0, f"healthy-path overhead {overhead:.1f}% >= 5%"


def _storm_latencies(db, shedding):
    """Batch-priority request latencies against a stalled 1-worker
    service under a sustained interactive backlog; returns sorted
    seconds (a rejection counts at its observed latency — the instant
    typed failure is the feature being measured)."""
    latencies = []
    batch = ExecutionOptions.create(priority="batch")
    with FAULTS.inject(SITE_PLAN_CACHE, kind="slow", delay=STALL):
        with QueryService(
            workers=1, queue_depth=128, shedding=shedding
        ) as service:
            session = service.session(db)
            # Build a backlog and let the controller watch a few
            # dequeues: observed waits climb one stall per position,
            # so by blocker #4 the estimate sits well past threshold.
            blockers = [
                service.submit(session, HOT_STATEMENTS[0]) for _ in range(8)
            ]
            blockers[3].result(30)
            for index in range(STORM_REQUESTS):
                # One interactive arrival per batch attempt keeps the
                # queue occupied for the whole storm, as a real mixed
                # workload would.
                service.submit(session, HOT_STATEMENTS[0])
                sql = HOT_STATEMENTS[index % len(HOT_STATEMENTS)]
                start = time.monotonic()
                try:
                    service.submit(session, sql, options=batch).result(60)
                except ReproError:
                    pass  # typed shed/overload: the fast path under storm
                latencies.append(time.monotonic() - start)
    latencies.sort()
    return latencies


def _p99(latencies):
    return latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]


def test_e18b_shedding_caps_batch_p99_under_storm():
    db = build_database(generate(E18A_SCALE))

    #: Aggressive controller: one observed wait moves the estimate.
    policy = SheddingPolicy(
        target_delay=0.2, batch_shed_at=0.5, wait_smoothing=1.0, min_queue=1
    )
    #: Control: a policy whose threshold can never trip (shed_at ~ 1,
    #: target far beyond any observable wait) — same code path, no sheds.
    unsheddable = SheddingPolicy(
        target_delay=1e6, batch_shed_at=1.0, wait_smoothing=1.0, min_queue=1
    )

    shed = _storm_latencies(db, policy)
    queued = _storm_latencies(db, unsheddable)

    report = ExperimentReport(
        experiment="E18b: batch traffic against a stalled worker, "
        "adaptive shedding vs none",
        claim="shedding converts unbounded queueing into instant typed "
        "rejections: batch p99 capped well below the queue-it-all run",
        columns=["mode", "requests", "p50(ms)", "p99(ms)", "p99 speedup"],
        slug="e18",
    )
    report.add_row(
        "queue everything",
        len(queued),
        queued[len(queued) // 2] * 1000,
        _p99(queued) * 1000,
        1.0,
    )
    report.add_row(
        "adaptive shedding",
        len(shed),
        shed[len(shed) // 2] * 1000,
        _p99(shed) * 1000,
        speedup(_p99(queued), _p99(shed)),
    )
    report.note(
        f"{STALL * 1000:.0f}ms stall per statement, 1 worker; a shed "
        "request returns in microseconds with a retryable typed error"
    )
    report.show()

    assert _p99(shed) < _p99(queued) / 2, (
        f"shedding p99 {_p99(shed):.3f}s not under half the "
        f"queue-everything p99 {_p99(queued):.3f}s"
    )


WIRE_REQUESTS = 240
WIRE_CLIENTS = 8


def _wire_drive(url, with_resilience):
    """Replay :data:`WIRE_REQUESTS` statements from concurrent
    connections, optionally attaching a deadline and priority to every
    request (the full per-request resilience path over the wire)."""
    errors = []
    hand_out = threading.Lock()
    remaining = iter(range(WIRE_REQUESTS))

    def worker():
        with repro.connect(url) as conn:
            while True:
                with hand_out:
                    index = next(remaining, None)
                if index is None:
                    return
                sql = HOT_STATEMENTS[index % len(HOT_STATEMENTS)]
                try:
                    if with_resilience:
                        conn.execute(
                            sql, deadline=30.0, priority="batch"
                        ).fetchall()
                    else:
                        conn.execute(sql).fetchall()
                except BaseException as error:  # noqa: BLE001 — reraised
                    errors.append(error)
                    return

    threads = [
        threading.Thread(target=worker, name=f"e18-client-{i}")
        for i in range(WIRE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


WIRE_ROUNDS = 15


def test_e18c_wire_overhead_under_5_percent():
    """E18c: the E16-style drive with full resilience headers on every
    request stays within 5% of the bare drive.

    Each round drives bare, armed, armed, bare back to back, and the
    verdict is the median of the per-round ratios.  One drive lasts a
    fifth of a second; on a machine that changes CPU speed for seconds
    at a time, drives timed apart (best of three per mode) read anywhere
    from -10 % to +16 % for one and the same tree."""
    db = build_database(generate(E18A_SCALE))
    with QueryServer(db, workers=2) as server:
        _wire_drive(server.url, False)  # warm plans, indexes, sessions
        _wire_drive(server.url, True)

        def bare():
            _wire_drive(server.url, False)

        def armed():
            _wire_drive(server.url, True)

        bare_1, armed_1, armed_2, bare_2 = interleaved(
            WIRE_ROUNDS, bare, armed, armed, bare
        )
    times_bare = [a + b for a, b in zip(bare_1, bare_2)]
    times_armed = [a + b for a, b in zip(armed_1, armed_2)]
    ratio = median(a / b for a, b in zip(times_armed, times_bare))
    t_bare = median(times_bare) / 2
    t_armed = t_bare * ratio

    overhead = (ratio - 1.0) * 100.0
    report = ExperimentReport(
        experiment="E18c: concurrent wire drive, resilience headers "
        "off vs on every request",
        claim="X-Deadline-Ms + X-Priority parse, re-anchor, admission "
        "check, and clamp cost under 5% of E16-style wire throughput",
        columns=["mode", "requests", "t(s)", "qps", "overhead"],
        slug="e18",
    )
    report.add_row(
        "bare requests", WIRE_REQUESTS, t_bare, WIRE_REQUESTS / t_bare, "-"
    )
    report.add_row(
        "deadline+priority",
        WIRE_REQUESTS,
        t_armed,
        WIRE_REQUESTS / t_armed,
        f"{overhead:+.1f}%",
    )
    report.note(
        f"{WIRE_CLIENTS} concurrent connections, 2 service workers; "
        f"median paired ratio of {WIRE_ROUNDS} bare/armed/armed/bare rounds"
    )
    report.show()

    assert overhead < 5.0, f"wire resilience overhead {overhead:.1f}% >= 5%"
