#!/usr/bin/env python3
"""Chaos soak: a live HTTP query server under seeded fault storms.

The harness boots a real :class:`~repro.net.server.QueryServer` (own
worker pool, bounded queue, admission controller),
drives it with mixed-priority concurrent clients — interactive ones
carrying deadlines, batch ones carrying none — while a seeded schedule
arms and disarms fault injections at every chaos site the stack owns
(plan cache, operators, request reads, accepts, response writes,
commit apply).  When the storm ends it verifies the whole-system
invariants the resilience layer promises:

1. **Correctness** — every successful response is byte-identical to
   the clean-run baseline for that statement; a fault may slow or fail
   a query, never bend its answer.
2. **Typed failure** — every failed request died with a typed,
   documented error (shed, overloaded, deadline, timeout, transient);
   anything else is a soak failure.
3. **No stranded work** — at quiescence the service ledger balances:
   ``submitted == completed + failed + abandoned + drained``.
4. **No poisoned caches** — after the storm the full statement set
   replays byte-identical against the same (shared) plan cache.
5. **Balanced ledger** — writer clients run random transfers between
   ledger accounts in real MVCC transactions throughout the storm
   (including injected ``wal_commit`` failures and lost write-write
   races); at quiescence the total balance is exactly the opening
   total and the candidate key still holds.  Because no paper query
   reads the ledger, the committed writes must not move a single read
   baseline — scoped invalidation, proven under fire.

Determinism: each soak round takes one integer seed; the fault
schedule, client workloads, and priorities all derive from it, so a
failing round replays with ``--seeds N``.

Usage::

    python scripts/chaos_soak.py --seconds 60 --seeds 0-2
    python scripts/chaos_soak.py --seconds 10 --seeds 4 --json report.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from repro.api import Connection  # noqa: E402
from repro.errors import (  # noqa: E402
    DeadlineExpiredError,
    NetworkError,
    RemoteQueryError,
    ReproError,
    TicketWaitTimeout,
    TransientNetworkError,
)
from repro.net.server import QueryServer  # noqa: E402
from repro.options import ExecutionOptions  # noqa: E402
from repro.resilience import (  # noqa: E402
    FAULTS,
    SITE_NET_ACCEPT,
    SITE_NET_READ,
    SITE_NET_WRITE,
    SITE_OPERATOR,
    SITE_PLAN_CACHE,
    SITE_WAL_COMMIT,
)
from repro.resilience.admission import SheddingPolicy  # noqa: E402
from repro.workloads import (  # noqa: E402
    PAPER_QUERIES,
    SupplierScale,
    build_database,
    generate,
)

SCALE = SupplierScale(suppliers=30, parts_per_supplier=6, agents_per_supplier=2)

#: Side table the writer clients bang on — none of the paper queries
#: reference it, so committed transfers must never move a read
#: baseline (scoped invalidation under fire).
LEDGER_ACCOUNTS = 8
LEDGER_OPENING = 100
LEDGER_DDL = "\n".join(
    ["CREATE TABLE LEDGER (ACCOUNT INT NOT NULL, BALANCE INT,"
     " PRIMARY KEY (ACCOUNT));"]
    + [
        f"INSERT INTO LEDGER VALUES ({account}, {LEDGER_OPENING});"
        for account in range(LEDGER_ACCOUNTS)
    ]
)

SHEDDING = SheddingPolicy(
    target_delay=0.5, batch_shed_at=0.5, wait_smoothing=0.5, min_queue=1
)

#: The fault menu one storm draws from: (site, kwargs) — every shape
#: the resilience layer claims to absorb.
FAULT_MENU = [
    (SITE_PLAN_CACHE, {"kind": "exception", "times": 10}),
    (SITE_PLAN_CACHE, {"kind": "slow", "delay": 0.05, "times": 20}),
    (SITE_OPERATOR, {"kind": "slow", "delay": 0.002, "times": 500}),
    (SITE_NET_READ, {"kind": "exception", "times": 5}),
    (SITE_NET_READ, {
        "kind": "corrupt",
        "corruptor": lambda data: data[: max(1, len(data) // 2)],
        "times": 3,
    }),
    (SITE_NET_ACCEPT, {"kind": "exception", "times": 5}),
    (SITE_NET_WRITE, {"kind": "exception", "times": 3}),
    # Commit apply: fails after validation, before publication — the
    # transaction must abort cleanly and the ledger must stay balanced.
    (SITE_WAL_COMMIT, {"kind": "exception", "times": 5}),
]

#: Errors a chaotic round is allowed to surface to a client.  Anything
#: outside this set fails the soak — resilience means *typed* failure.
EXPECTED_ERRORS = (
    TransientNetworkError,  # 429/503/sheds/injected accepts, breaker
    NetworkError,  # retries exhausted against a flapping listener
    DeadlineExpiredError,  # client-side fast-fail
    TicketWaitTimeout,
)

#: RemoteQueryError types a round may relay (server-side terminal).
EXPECTED_REMOTE = {
    "DeadlineExpiredError",
    "QueryTimeout",
    "QueryCancelled",
    "TicketWaitTimeout",
    "ProtocolError",  # truncated request bodies
    "InjectedFaultError",
    "ServiceShutdownError",
}

#: Additional terminal types a *writer* may see: a lost write-write
#: race is a typed 409, and a BEGIN replayed after a dropped response
#: lands inside the transaction it already opened.
EXPECTED_WRITER_REMOTE = EXPECTED_REMOTE | {
    "WriteConflictError",
    "UniquenessViolationError",
    "TransactionError",
}


class SoakFailure(AssertionError):
    pass


def _workload(db):
    """(sql, params, baseline_rows) for every paper query, from a clean
    tuple-mode run — the byte-identical reference."""
    items = []
    with Connection.local(db) as conn:
        for query in PAPER_QUERIES:
            rows = conn.execute(query.sql, query.params or None).fetchall()
            items.append((query.sql, query.params, rows))
    return items


class ClientStats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.ok = 0
        self.failed = 0
        self.transfers = 0
        self.conflicts = 0
        self.by_error: dict[str, int] = {}
        self.violations: list[str] = []

    def success(self) -> None:
        with self.lock:
            self.ok += 1

    def failure(self, error: BaseException) -> None:
        name = type(error).__name__
        with self.lock:
            self.failed += 1
            self.by_error[name] = self.by_error.get(name, 0) + 1

    def violation(self, message: str) -> None:
        with self.lock:
            self.violations.append(message)


def _client_loop(
    url: str,
    items: list,
    stats: ClientStats,
    stop: threading.Event,
    rng: random.Random,
    batch: bool,
) -> None:
    """One soak client: loop the workload until told to stop, verify
    every answer, classify every failure."""
    try:
        with repro.connect(url) as conn:
            while not stop.is_set():
                sql, params, baseline = items[rng.randrange(len(items))]
                kwargs = {}
                if batch:
                    kwargs["priority"] = "batch"
                else:
                    # Interactive clients declare real (generous)
                    # deadlines; a small minority declare hopeless ones
                    # to exercise the 504 path on purpose.
                    kwargs["deadline"] = (
                        0.001 if rng.random() < 0.05 else 10.0
                    )
                try:
                    rows = conn.execute(sql, params or None, **kwargs).fetchall()
                except EXPECTED_ERRORS as error:
                    stats.failure(error)
                except RemoteQueryError as error:
                    if error.error_type not in EXPECTED_REMOTE:
                        stats.violation(
                            f"unexpected remote error {error.error_type}: "
                            f"{error}"
                        )
                    stats.failure(error)
                except ReproError as error:
                    stats.violation(
                        f"untyped-for-chaos error {type(error).__name__}: "
                        f"{error}"
                    )
                    stats.failure(error)
                else:
                    if rows != baseline:
                        stats.violation(
                            f"result divergence on {sql[:60]!r}: "
                            f"{len(rows)} rows vs baseline {len(baseline)}"
                        )
                    stats.success()
    except BaseException as error:  # noqa: BLE001 — a dead client is a finding
        stats.violation(f"client thread died: {type(error).__name__}: {error}")


def _writer_loop(
    url: str,
    stats: ClientStats,
    stop: threading.Event,
    rng: random.Random,
) -> None:
    """One soak writer: random ledger transfers in real transactions.

    Each iteration moves a random amount between two accounts — read
    both balances, write both back — inside one transaction on its own
    server session.  Snapshot isolation makes every outcome all-or-
    nothing, so no storm (conflict, injected commit fault, dropped
    response) may unbalance the ledger.  The absolute-value UPDATEs are
    deliberately idempotent: a statement replayed by the retry loop
    after a dropped response applies the same end state.
    """
    try:
        with repro.connect(url, fresh_session=True) as conn:
            while not stop.is_set():
                source = rng.randrange(LEDGER_ACCOUNTS)
                target = (source + 1 + rng.randrange(LEDGER_ACCOUNTS - 1)) % (
                    LEDGER_ACCOUNTS
                )
                amount = rng.randint(1, 10)
                try:
                    if not conn.in_transaction:
                        conn.begin()
                    balances = {}
                    for account in (source, target):
                        rows = conn.execute(
                            "SELECT BALANCE FROM LEDGER"
                            " WHERE ACCOUNT = :ACCOUNT",
                            {"ACCOUNT": account},
                        ).fetchall()
                        balances[account] = rows[0][0]
                    for account, balance in (
                        (source, balances[source] - amount),
                        (target, balances[target] + amount),
                    ):
                        conn.execute(
                            "UPDATE LEDGER SET BALANCE = :BALANCE"
                            " WHERE ACCOUNT = :ACCOUNT",
                            {"BALANCE": balance, "ACCOUNT": account},
                        )
                    conn.commit()
                except EXPECTED_ERRORS as error:
                    stats.failure(error)
                    _writer_reset(conn, stats)
                except RemoteQueryError as error:
                    if error.error_type not in EXPECTED_WRITER_REMOTE:
                        stats.violation(
                            "unexpected remote writer error "
                            f"{error.error_type}: {error}"
                        )
                    elif error.error_type in (
                        "WriteConflictError",
                        "UniquenessViolationError",
                    ):
                        with stats.lock:
                            stats.conflicts += 1
                    stats.failure(error)
                    _writer_reset(conn, stats)
                except ReproError as error:
                    stats.violation(
                        "untyped-for-chaos writer error "
                        f"{type(error).__name__}: {error}"
                    )
                    stats.failure(error)
                    _writer_reset(conn, stats)
                else:
                    with stats.lock:
                        stats.transfers += 1
    except BaseException as error:  # noqa: BLE001 — a dead writer is a finding
        stats.violation(f"writer thread died: {type(error).__name__}: {error}")


def _writer_reset(conn, stats: ClientStats) -> None:
    """Best-effort rollback so the next transfer starts clean."""
    try:
        conn.rollback()
    except ReproError as error:
        stats.failure(error)


def _storm_loop(seconds: float, stop: threading.Event, rng: random.Random):
    """Arm random fault windows from the menu until time is up."""
    end = time.monotonic() + seconds
    storms = 0
    while time.monotonic() < end and not stop.is_set():
        site, spec = FAULT_MENU[rng.randrange(len(FAULT_MENU))]
        window = rng.uniform(0.1, 0.5)
        with FAULTS.inject(site, **spec):
            stop.wait(window)
        storms += 1
        stop.wait(rng.uniform(0.02, 0.1))  # calm between storms
    return storms


def _metric_sum(metrics, name: str) -> float:
    return sum(v for n, _labels, v in metrics.series() if n == name)


def soak_round(seed: int, seconds: float, clients: int, writers: int = 2) -> dict:
    """One seeded round; returns its report dict, raises SoakFailure."""
    FAULTS.reset()
    FAULTS.seed(seed)
    rng = random.Random(seed)
    db = build_database(generate(SCALE))
    db.run_script(LEDGER_DDL)
    items = _workload(db)
    stats = ClientStats()
    report: dict = {"seed": seed}

    with QueryServer(
        db,
        workers=2,
        queue_depth=16,
        shedding=SHEDDING,
        options=ExecutionOptions.create(timeout=10.0),
    ) as server:
        service = server.service
        stop = threading.Event()
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(
                    server.url,
                    items,
                    stats,
                    stop,
                    random.Random(seed * 1000 + i),
                    i % 3 == 0,  # every third client is batch priority
                ),
                name=f"soak-client-{i}",
            )
            for i in range(clients)
        ]
        threads.extend(
            threading.Thread(
                target=_writer_loop,
                args=(
                    server.url,
                    stats,
                    stop,
                    random.Random(seed * 7000 + i),
                ),
                name=f"soak-writer-{i}",
            )
            for i in range(writers)
        )
        for thread in threads:
            thread.start()

        storms = _storm_loop(seconds, stop, rng)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
            if thread.is_alive():
                raise SoakFailure(f"{thread.name} failed to stop")

        # -- poisoned-cache check: the storm is over, and the replay
        # must be byte-identical through the same shared plan cache.
        FAULTS.reset()
        FAULTS.seed(seed)
        with repro.connect(server.url) as conn:
            for sql, params, baseline in items:
                rows = conn.execute(sql, params or None).fetchall()
                if rows != baseline:
                    raise SoakFailure(f"post-storm divergence on {sql[:60]!r}")

        admission_snapshot = service.admission.snapshot()
        server.drain()
        metrics = service.metrics

    # -- ledger: no stranded tickets at quiescence.
    submitted = _metric_sum(metrics, "service_submitted_total")
    accounted = (
        _metric_sum(metrics, "service_completed_total")
        + _metric_sum(metrics, "service_failed_total")
        + _metric_sum(metrics, "service_abandoned_total")
        + _metric_sum(metrics, "service_drained_total")
    )
    if submitted != accounted:
        raise SoakFailure(
            f"ledger imbalance: submitted={submitted} accounted={accounted}"
        )
    if stats.violations:
        raise SoakFailure(
            f"{len(stats.violations)} invariant violation(s), first: "
            f"{stats.violations[0]}"
        )
    if stats.ok == 0:
        raise SoakFailure("no query succeeded — the round proved nothing")

    # -- balanced ledger: every transfer was all-or-nothing, so no
    # storm outcome (conflict, injected commit fault, dropped response,
    # replayed statement) may create or destroy money — and the
    # candidate key must still hold one row per account.
    ledger_rows = db.table("LEDGER").rows
    if len(ledger_rows) != LEDGER_ACCOUNTS:
        raise SoakFailure(
            f"ledger has {len(ledger_rows)} rows, expected {LEDGER_ACCOUNTS}"
        )
    balance = sum(row[1] for row in ledger_rows)
    expected = LEDGER_ACCOUNTS * LEDGER_OPENING
    if balance != expected:
        raise SoakFailure(
            f"ledger unbalanced after storm: {balance} != {expected} "
            f"({stats.transfers} transfers, {stats.conflicts} conflicts)"
        )
    if writers and stats.transfers == 0:
        raise SoakFailure("no transfer committed — the writers proved nothing")

    report.update(
        {
            "storms": storms,
            "succeeded": stats.ok,
            "failed": stats.failed,
            "transfers": stats.transfers,
            "write_conflicts": stats.conflicts,
            "ledger_balance": balance,
            "errors": dict(sorted(stats.by_error.items())),
            "submitted": submitted,
            "completed": _metric_sum(metrics, "service_completed_total"),
            "drained": _metric_sum(metrics, "service_drained_total"),
            "abandoned": _metric_sum(metrics, "service_abandoned_total"),
            "shed": _metric_sum(metrics, "service_shed_total"),
            "deadline_rejected": _metric_sum(
                metrics, "service_deadline_rejected_total"
            ),
            "admission": admission_snapshot,
        }
    )
    return report


def parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part and not part.startswith("-"):
            low, high = part.split("-", 1)
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seconds",
        type=float,
        default=30.0,
        help="total storm time, split across seeds (default 30)",
    )
    parser.add_argument(
        "--seeds",
        default="0",
        help="seed list/ranges, e.g. '0-2' or '0,3,7' (default 0)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=6,
        help="concurrent soak clients per round (default 6)",
    )
    parser.add_argument(
        "--writers",
        type=int,
        default=2,
        help="concurrent ledger-writer clients per round (default 2)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also write the full report as JSON",
    )
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    per_round = args.seconds / len(seeds)

    reports = []
    failed = False
    for seed in seeds:
        print(f"== soak round seed={seed} ({per_round:.0f}s storm) ==")
        try:
            report = soak_round(seed, per_round, args.clients, args.writers)
        except SoakFailure as failure:
            print(f"FAIL seed={seed}: {failure}", file=sys.stderr)
            reports.append({"seed": seed, "failure": str(failure)})
            failed = True
            continue
        reports.append(report)
        print(
            f"   ok={report['succeeded']} failed={report['failed']} "
            f"storms={report['storms']} shed={report['shed']:.0f} "
            f"transfers={report['transfers']} "
            f"conflicts={report['write_conflicts']}"
        )
        for name, count in report["errors"].items():
            print(f"   {name}: {count}")

    if args.json:
        Path(args.json).write_text(json.dumps(reports, indent=2, default=str))
        print(f"wrote {args.json}")
    print("chaos soak:", "FAILED" if failed else "PASSED")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
