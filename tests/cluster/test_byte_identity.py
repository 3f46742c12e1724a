"""Byte-identity of cluster execution: the cluster's answer IS the
single-node answer — E1–E11 over real worker processes, serial and
under seeded worker-side faults, plus the worker-kill guarantee (typed
error or clean retry, never partial rows)."""

from __future__ import annotations

import time

import pytest

from repro.api import run_with_options
from repro.cluster import (
    ClusterCoordinator,
    ClusterFrontend,
    WorkerConfig,
    WorkerSource,
)
from repro.workloads.queries import PAPER_QUERIES

from .conftest import FACTORY, get_json, post_json


def run_single(local_db, query):
    return run_with_options(
        query.sql, database=local_db, params=query.params
    ).result.rows


def run_cluster(frontend, query, stream=False):
    payload = {"sql": query.sql}
    if query.params:
        payload["params"] = query.params
    if stream:
        payload["stream"] = True
    status, headers, body = post_json(frontend.url, "/v1/query", payload)
    return status, headers, body


class TestByteIdentitySerial:
    @pytest.mark.parametrize(
        "query", PAPER_QUERIES, ids=[q.example for q in PAPER_QUERIES]
    )
    def test_examples_match_single_node(self, cluster, local_db, query):
        status, _headers, body = run_cluster(cluster, query)
        assert status == 200, body
        expected = run_single(local_db, query)
        got = [tuple(row) for row in body["rows"]]
        assert got == expected, query.example
        assert body["row_count"] == len(expected)

    def test_streamed_forward_matches(self, cluster, local_db):
        """A streamed query's NDJSON — the worker's header, row chunks
        and footer, relayed through the front end — carries the same
        rows."""
        import json
        import urllib.request

        query = PAPER_QUERIES[0]
        payload = {"sql": query.sql, "stream": True}
        if query.params:
            payload["params"] = query.params
        request = urllib.request.Request(
            cluster.url + "/v1/query",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            assert "ndjson" in response.headers["Content-Type"]
            lines = [
                json.loads(line)
                for line in response.read().decode("utf-8").splitlines()
                if line
            ]
        assert lines[-1]["end"] is True
        rows = [
            tuple(row)
            for line in lines
            if "rows" in line
            for row in line["rows"]
        ]
        assert rows == run_single(local_db, query)
        assert lines[-1]["row_count"] == len(rows)


class TestByteIdentityUnderFaults:
    """Seeded transient net_read faults *inside* every worker: each
    shard's server occasionally fails a read with a retryable 503, the
    client retries, and the answer never changes."""

    @pytest.fixture(scope="class")
    def faulty_cluster(self):
        config = WorkerConfig(
            threads=2,
            queue_depth=32,
            fault_seed=1994,
            faults=(
                {
                    "site": "net_read",
                    "kind": "transient",
                    "probability": 0.15,
                    "status": 503,
                },
            ),
        )
        coordinator = ClusterCoordinator(
            WorkerSource.from_factory(FACTORY), shards=2, config=config
        )
        with ClusterFrontend(coordinator, owns_coordinator=True) as fe:
            yield fe

    def test_examples_survive_fault_injection(self, faulty_cluster, local_db):
        import repro

        conn = repro.connect(faulty_cluster.url)
        try:
            for query in PAPER_QUERIES:
                expected = run_single(local_db, query)
                got = conn.execute(query.sql, query.params or None).fetchall()
                assert got == expected, query.example
        finally:
            conn.close()


class TestWorkerDeath:
    """Killing a worker yields typed errors (never partial rows), the
    monitor respawns it, and the cluster heals without a restart."""

    @pytest.fixture()
    def small_cluster(self):
        coordinator = ClusterCoordinator(
            WorkerSource.from_factory(FACTORY),
            shards=2,
            config=WorkerConfig(threads=2, queue_depth=16),
            monitor_interval=0.1,
        )
        with ClusterFrontend(coordinator, owns_coordinator=True) as fe:
            yield fe

    def test_dead_shard_gives_typed_error_then_heals(self, small_cluster):
        fe = small_cluster
        coordinator = fe.coordinator
        sql = "SELECT ALL S.SNO FROM SUPPLIER S"
        shard = 0  # the rotation reaches every shard; kill this one

        status, _h, body = post_json(fe.url, "/v1/query", {"sql": sql})
        assert status == 200
        full_rows = body["rows"]

        # Suspend respawn so the dead window is observable.
        coordinator.auto_respawn = False
        killed_pid = coordinator.kill_shard(shard)
        deadline = time.time() + 5.0
        while coordinator.handle(shard).alive() and time.time() < deadline:
            time.sleep(0.05)

        saw_error = False
        for _ in range(10):
            status, _h, body = post_json(
                fe.url, "/v1/query", {"sql": sql}, timeout=10.0
            )
            if status == 200:
                # A route that avoided the dead shard must still be the
                # complete answer — never a partial row set.
                assert body["rows"] == full_rows
            else:
                saw_error = True
                assert "error" in body
                assert body["error"]["retryable"] is True
                assert body["error"]["status"] in (502, 503)
        assert saw_error, "a forwarded query must notice its dead shard"

        # Re-enable respawn: the monitor brings a fresh worker up.
        coordinator.auto_respawn = True
        deadline = time.time() + 15.0
        while time.time() < deadline:
            handle = coordinator.handle(shard)
            if handle.alive() and handle.pid != killed_pid:
                break
            time.sleep(0.1)
        handle = coordinator.handle(shard)
        assert handle.alive() and handle.pid != killed_pid
        assert handle.generation >= 1
        assert coordinator.respawn_count(shard) >= 1

        # Healed: queries succeed again and healthz shows the respawn.
        deadline = time.time() + 10.0
        while time.time() < deadline:
            status, _h, body = post_json(
                fe.url, "/v1/query", {"sql": sql}, timeout=10.0
            )
            if status == 200:
                break
            time.sleep(0.2)
        assert status == 200
        assert body["rows"] == full_rows

        health = get_json(fe.url, "/healthz")
        entry = next(s for s in health["shards"] if s["shard"] == shard)
        assert entry["respawns"] >= 1
        assert entry["alive"] is True

    def test_survivors_keep_balanced_ticket_ledger(self, small_cluster):
        """After a kill-and-heal episode every live worker's service
        ledger balances: every submitted ticket was completed, failed,
        drained, or abandoned — nothing stuck from the disruption."""
        import urllib.request

        fe = small_cluster
        sql = "SELECT ALL S.SNO FROM SUPPLIER S"
        for _ in range(5):
            post_json(fe.url, "/v1/query", {"sql": sql}, timeout=10.0)
        killed_pid = fe.coordinator.kill_shard(0)
        deadline = time.time() + 15.0
        while time.time() < deadline:
            handle = fe.coordinator.handle(0)
            if handle.alive() and handle.pid != killed_pid:
                break
            time.sleep(0.1)
        for _ in range(5):
            post_json(fe.url, "/v1/query", {"sql": sql}, timeout=10.0)

        def series_sum(text: str, name: str) -> float:
            total = 0.0
            for line in text.splitlines():
                if line.startswith(f"repro_{name}"):
                    total += float(line.rsplit(" ", 1)[1])
            return total

        health = get_json(fe.url, "/healthz")
        for entry in health["shards"]:
            assert entry["alive"], entry
            url = fe.coordinator.worker_url(entry["shard"])
            with urllib.request.urlopen(url + "/metrics", timeout=10.0) as r:
                text = r.read().decode("utf-8")
            submitted = series_sum(text, "service_submitted_total")
            settled = (
                series_sum(text, "service_completed_total")
                + series_sum(text, "service_failed_total")
                + series_sum(text, "service_drained_total")
                + series_sum(text, "service_abandoned_total")
            )
            assert submitted == settled, (entry["shard"], submitted, settled)
