"""E19 — the sharded cluster: process scaling and one hop per request.

Two claims about :mod:`repro.cluster` on one box:

* **E19a** — worker *processes* scale throughput past the GIL.  A
  fan-out-1 mixed workload (key-bound point lookups plus self-joins,
  each forwarded whole to one worker, stalled at the plan-cache site
  inside every worker to model per-query I/O waits) is replayed
  through the front end from concurrent HTTP clients; a 4-shard
  cluster clears >= 2.5x the 1-shard cluster's qps, identical rows at
  every shard count.
* **E19b** — fan-out is exactly 1: the front end forwards each request
  whole to one worker, so ``cluster_shard_requests_total`` summed over
  the shards moves by the request count.

Byte-identity with single-node execution (E1–E11) is pinned by the
cluster test suite; this benchmark pins the *performance* contract.  Results land
in ``benchmarks/out/BENCH_e19.json``.
"""

from __future__ import annotations

import threading
import urllib.request

import repro
from repro.bench import ExperimentReport, speedup, timed
from repro.cluster import WorkerConfig, WorkerSource, serve_cluster

#: Per-query stall (seconds) armed INSIDE each worker process at the
#: plan-cache site: the single-core CI box cannot show real CPU
#: parallelism, so — exactly as E15/E16 do for threads — the benchmark
#: measures overlap of per-query waits, which is the same scheduling
#: claim processes make on a many-core box.
STALL = 0.05

#: Concurrent client connections driving the front end.
CLIENT_THREADS = 8

#: Workers rebuild this replica in every shard process.
FACTORY = "repro.workloads.supplier:build_database"

WORKER_CONFIG = WorkerConfig(
    threads=2,
    queue_depth=64,
    faults=(
        {"site": "plan_cache", "kind": "slow", "delay": STALL},
    ),
)


def _mixed_workload() -> list[tuple[str, dict | None]]:
    """48 fan-out-1 statements: 36 key-bound point lookups (24 literal,
    12 host-var) and 12 self-joins.  Every statement goes to exactly
    one shard, so shard processes can overlap."""
    items: list[tuple[str, dict | None]] = []
    for sno in range(1, 25):
        items.append(
            (f"SELECT SNAME FROM SUPPLIER WHERE SNO = {sno}", None)
        )
    for sno in range(25, 37):
        items.append(
            ("SELECT SNAME FROM SUPPLIER WHERE SNO = :SNO", {"SNO": sno})
        )
    for sno in range(1, 13):
        items.append(
            (
                "SELECT S1.SNAME FROM SUPPLIER S1, SUPPLIER S2 "
                f"WHERE S1.SNO = S2.SNO AND S1.SNO = {sno}",
                None,
            )
        )
    return items


def _drive(url: str, items: list[tuple[str, dict | None]]) -> list:
    """Replay the workload from :data:`CLIENT_THREADS` concurrent
    connections; returns row lists indexed by statement."""
    results: list = [None] * len(items)
    errors: list[BaseException] = []
    hand_out = threading.Lock()
    remaining = iter(range(len(items)))

    def worker() -> None:
        with repro.connect(url) as conn:
            while True:
                with hand_out:
                    index = next(remaining, None)
                if index is None:
                    return
                sql, params = items[index]
                try:
                    results[index] = conn.execute(sql, params).fetchall()
                except BaseException as error:  # noqa: BLE001 — reraised
                    errors.append(error)
                    return

    threads = [
        threading.Thread(target=worker, name=f"e19-client-{i}")
        for i in range(CLIENT_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _metric(text: str, name: str, labels: str = "") -> float:
    needle = f"repro_{name}{labels}"
    for line in text.splitlines():
        if line.startswith(needle + " "):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def _metrics_text(url: str) -> str:
    with urllib.request.urlopen(url + "/metrics", timeout=10.0) as response:
        return response.read().decode("utf-8")


def test_e19_cluster_throughput_scales_with_shards():
    """E19a: >= 2.5x wire qps with 4 shard processes over 1."""
    items = _mixed_workload()
    source = WorkerSource.from_factory(FACTORY)

    # Warm phase: a stall-free single shard captures the expected row
    # sequences over the same wire path.
    with serve_cluster(
        source, shards=1, config=WorkerConfig(threads=2)
    ) as frontend:
        expected = _drive(frontend.url, items)

    # Best of two runs per shard count (shared CI box; the claim is
    # about achievable overlap, not the noisiest run).
    timings: dict[int, float] = {}
    for shards in (1, 2, 4):
        best = None
        for _ in range(2):
            with serve_cluster(
                source, shards=shards, config=WORKER_CONFIG
            ) as frontend:
                rows, elapsed = timed(
                    lambda f=frontend: _drive(f.url, items)
                )
            assert rows == expected, f"{shards}-shard run diverged"
            best = elapsed if best is None else min(best, elapsed)
        timings[shards] = best

    report = ExperimentReport(
        experiment="E19a: fan-out-1 mixed workload over the cluster",
        claim="shard processes overlap per-query waits: cluster qps "
        "scales near-linearly with worker processes",
        columns=["mode", "statements", "t(s)", "qps", "speedup"],
        slug="e19",
    )
    n = len(items)
    for shards in (1, 2, 4):
        elapsed = timings[shards]
        report.add_row(
            f"cluster x{shards}",
            n,
            elapsed,
            n / elapsed,
            speedup(timings[1], elapsed),
        )
    report.note(
        f"{STALL * 1000:.0f}ms simulated I/O stall per statement inside "
        f"every worker process; {CLIENT_THREADS} concurrent client "
        "connections; identical rows at every shard count"
    )
    report.show()

    ratio = speedup(timings[1], timings[4])
    assert ratio >= 2.5, f"4-shard cluster only {ratio:.2f}x the 1-shard"


def test_e19_point_queries_fan_out_to_one_shard():
    """E19b: every request makes exactly one worker hop — the per-shard
    request counters sum to the request count, on any number of
    shards."""
    source = WorkerSource.from_factory(FACTORY)
    shards = 4
    requests = 32
    with serve_cluster(
        source, shards=shards, config=WorkerConfig(threads=2)
    ) as frontend:
        before = _metrics_text(frontend.url)
        with repro.connect(frontend.url) as conn:
            for sno in range(1, requests + 1):
                conn.execute(
                    "SELECT SNAME FROM SUPPLIER WHERE SNO = :SNO",
                    {"SNO": sno},
                )
        after = _metrics_text(frontend.url)

    hops = sum(
        _metric(after, "cluster_shard_requests_total", '{shard="%d"}' % s)
        - _metric(before, "cluster_shard_requests_total", '{shard="%d"}' % s)
        for s in range(shards)
    )
    report = ExperimentReport(
        experiment="E19b: one worker hop per request",
        claim="the front end forwards each request whole to one shard: "
        "fan-out 1",
        columns=["workload", "requests", "worker hops"],
        slug="e19",
    )
    report.add_row("key-bound lookups", requests, int(hops))
    report.note(
        f"{shards}-shard cluster; asking every shard would have made "
        f"{requests * shards} hops"
    )
    report.show()

    assert hops == requests
