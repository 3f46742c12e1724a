"""Front-end behaviours: whole-query forwarding in rotation (fan-out
exactly 1), malformed bodies answered by the worker, session broadcast
and replay onto respawned workers, kept-alive worker connections,
healthz aggregation, and resilience-header forwarding."""

from __future__ import annotations

import asyncio
import json
import time

import pytest

import repro
from repro.cluster import (
    ClusterCoordinator,
    ClusterFrontend,
    WorkerConfig,
    WorkerSource,
)
from repro.engine import execute_planned
from repro.net.server import QueryServer
from repro.workloads.queries import PAPER_QUERIES

from ..net.conftest import raw_post
from .conftest import FACTORY, get_json, get_text, post_json

#: The ``filter_scan`` template of the end-to-end benchmark
#: (benchmarks/e2e/workloads.py): a range scan no key binds.
FILTER_SCAN = (
    "SELECT P.SNO, P.PNO, P.PNAME FROM PARTS P "
    "WHERE P.COLOR = :COLOR AND P.SNO BETWEEN :LO AND :HI"
)


def metric(text: str, name: str, labels: str = "") -> float:
    needle = f"repro_{name}{labels}"
    for line in text.splitlines():
        if line.startswith(needle + " ") or line == needle:
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def shard_requests(text: str, shards: int) -> float:
    return sum(
        metric(text, "cluster_shard_requests_total", '{shard="%d"}' % s)
        for s in range(shards)
    )


class TestForwarding:
    def test_key_bound_queries_fan_out_to_exactly_one_shard(
        self, cluster, local_db
    ):
        """Every request makes exactly one worker hop: key-bound point
        queries, the benchmark's range scan and E1–E11 alike, each
        returning single-node rows."""
        points = [
            (f"SELECT SNAME FROM SUPPLIER WHERE SNO = {sno}", None)
            for sno in range(1, 13)
        ]
        reads = [(FILTER_SCAN, {"COLOR": "RED", "LO": 2, "HI": 9})]
        reads += [(query.sql, query.params or None) for query in PAPER_QUERIES]
        shards = cluster.coordinator.shards
        before_text = get_text(cluster.url, "/metrics")

        for sql, params in points + reads:
            payload = {"sql": sql, "params": params} if params else {"sql": sql}
            status, _h, body = post_json(cluster.url, "/v1/query", payload)
            assert status == 200, body
            if (sql, params) in points:
                assert len(body["rows"]) <= 1  # Theorem 1: at most one row
            else:
                expected = execute_planned(sql, local_db, params=params)
                assert body["rows"] == [list(r) for r in expected.rows], sql

        after_text = get_text(cluster.url, "/metrics")
        hops = shard_requests(after_text, shards) - shard_requests(
            before_text, shards
        )
        assert hops == len(points) + len(reads)  # one hop per request

    def test_key_bound_and_scan_texts_return_the_same_row(self, cluster):
        point = "SELECT SNAME FROM SUPPLIER WHERE SNO = 5"
        scan = "SELECT ALL S.SNAME FROM SUPPLIER S WHERE S.SNO = 5"
        _s1, _h1, body_point = post_json(
            cluster.url, "/v1/query", {"sql": point}
        )
        _s2, _h2, body_scan = post_json(
            cluster.url, "/v1/query", {"sql": scan}
        )
        assert body_point["rows"] == body_scan["rows"]

    def test_one_text_in_one_session_reaches_every_shard(self, cluster):
        """Requests go to the shards in turn, whatever their text and
        session: 2 × shards requests of one text reach each shard twice."""
        shards = cluster.coordinator.shards
        payload = {"sql": "SELECT SNAME FROM SUPPLIER WHERE SNO = 3"}
        before = get_text(cluster.url, "/metrics")
        for _ in range(2 * shards):
            status, _h, body = post_json(cluster.url, "/v1/query", payload)
            assert status == 200, body
        after = get_text(cluster.url, "/metrics")
        for shard in range(shards):
            label = '{shard="%d"}' % shard
            reached = metric(
                after, "cluster_shard_requests_total", label
            ) - metric(before, "cluster_shard_requests_total", label)
            assert reached == 2, shard

    @pytest.mark.parametrize("body", [b"not json", b'{"sql": 5}', b"{}"])
    def test_a_malformed_body_gets_the_query_servers_400(
        self, cluster, local_db, body
    ):
        """The front end forwards the body unread; the worker refuses it
        with the bytes a single ``QueryServer`` sends."""
        request_id = {"X-Request-Id": "malformed-body"}
        with QueryServer(local_db, workers=1) as single:
            status, _h, expected = raw_post(
                single.url, "/v1/query", body, headers=request_id
            )
        assert status == 400
        assert json.loads(expected)["error"]["type"] == "ProtocolError"
        got = raw_post(cluster.url, "/v1/query", body, headers=request_id)
        assert (got[0], got[2]) == (status, expected)


class TestResilienceHeaders:
    def test_deadline_forwarded_and_enforced(self, cluster):
        """An effectively-zero deadline reaches the worker and comes
        back as the typed 504 envelope."""
        status, _h, body = post_json(
            cluster.url,
            "/v1/query",
            {"sql": "SELECT ALL S.SNO FROM SUPPLIER S"},
            headers={"X-Deadline-Ms": "0.0001"},
        )
        assert status == 504
        assert body["error"]["type"] == "DeadlineExpiredError"

    def test_priority_header_validated_by_worker(self, cluster):
        status, _h, body = post_json(
            cluster.url,
            "/v1/query",
            {"sql": "SELECT ALL S.SNO FROM SUPPLIER S"},
            headers={"X-Priority": "bogus"},
        )
        assert status == 400
        assert body["error"]["type"] == "ProtocolError"


class TestSessions:
    def test_session_open_reaches_every_shard(self, cluster):
        status, _h, body = post_json(
            cluster.url,
            "/v1/session",
            {"name": "broadcast-check", "options": {"row_budget": 100000}},
        )
        assert status == 200
        assert body["session"] == "broadcast-check"
        # Every worker knows the session: any routed query under it
        # succeeds regardless of which shard it lands on.
        for sno in range(1, 7):
            status, _h, body = post_json(
                cluster.url,
                "/v1/query",
                {
                    "sql": f"SELECT SNAME FROM SUPPLIER WHERE SNO = {sno}",
                    "session": "broadcast-check",
                },
            )
            assert status == 200, body
        status, _h, body = post_json(
            cluster.url,
            "/v1/query",
            {
                "sql": "SELECT ALL S.SNO FROM SUPPLIER S",
                "session": "broadcast-check",
            },
        )
        assert status == 200, body


class TestSessionReplayAfterRespawn:
    @pytest.fixture()
    def fleet(self):
        coordinator = ClusterCoordinator(
            WorkerSource.from_factory(FACTORY),
            shards=2,
            config=WorkerConfig(threads=2, queue_depth=16),
            monitor_interval=0.1,
        )
        with ClusterFrontend(coordinator, owns_coordinator=True) as fe:
            yield fe

    def test_respawned_worker_relearns_sessions(self, fleet):
        status, _h, _b = post_json(
            fleet.url, "/v1/session", {"name": "durable"}
        )
        assert status == 200
        killed_pid = fleet.coordinator.kill_shard(0)
        deadline = time.time() + 15.0
        while time.time() < deadline:
            handle = fleet.coordinator.handle(0)
            if handle.alive() and handle.pid != killed_pid:
                break
            time.sleep(0.1)
        # Give the replay callback a moment after the respawn.
        time.sleep(0.5)
        health = get_json(fleet.url, "/healthz")
        fresh = next(s for s in health["shards"] if s["shard"] == 0)
        assert fresh["respawns"] >= 1
        assert "durable" in fresh["health"]["sessions"]

    def test_closed_sessions_are_not_replayed(self, fleet):
        post_json(fleet.url, "/v1/session", {"name": "ephemeral"})
        import urllib.request

        request = urllib.request.Request(
            fleet.url + "/v1/session/ephemeral", method="DELETE"
        )
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert response.status == 200
        killed_pid = fleet.coordinator.kill_shard(1)
        deadline = time.time() + 15.0
        while time.time() < deadline:
            handle = fleet.coordinator.handle(1)
            if handle.alive() and handle.pid != killed_pid:
                break
            time.sleep(0.1)
        time.sleep(0.5)
        health = get_json(fleet.url, "/healthz")
        fresh = next(s for s in health["shards"] if s["shard"] == 1)
        assert "ephemeral" not in fresh["health"]["sessions"]


@pytest.fixture()
def hop_connects(monkeypatch):
    """The worker port of every connection the front end opens."""
    calls: list[int] = []
    original = asyncio.open_connection

    async def spy(host, port, **kwargs):
        calls.append(port)
        return await original(host, port, **kwargs)

    monkeypatch.setattr("repro.cluster.frontend.asyncio.open_connection", spy)
    return calls


#: A host-variable point query and bindings for it.
POINT_SQL = "SELECT SNAME FROM SUPPLIER WHERE SNO = :SNO"
BINDINGS = [{"SNO": sno} for sno in range(1, 21)]


def expected_rows(local_db, sql: str, params: dict) -> list[list]:
    result = execute_planned(sql, local_db, params=params)
    return [list(row) for row in result.rows]


class TestKeptConnections:
    def test_point_queries_reuse_one_connection_per_shard(
        self, cluster, hop_connects
    ):
        with repro.connect(cluster.url) as conn:
            for sno in range(50):
                conn.execute(
                    "SELECT SNAME FROM SUPPLIER WHERE SNO = :SNO",
                    {"SNO": sno % 20 + 1},
                ).fetchall()
        assert len(hop_connects) <= cluster.coordinator.shards

    def test_streams_keep_the_hop_and_the_client_connection(
        self, cluster, hop_connects, local_db
    ):
        """A worker's chunked stream is de-chunked on a kept hop
        connection and relayed with a length, so neither hop nor
        client connection is redialled per stream."""
        with repro.connect(cluster.url, stream=True) as conn:
            for params in BINDINGS[:12]:
                rows = conn.execute(POINT_SQL, params).fetchall()
                assert [list(row) for row in rows] == expected_rows(
                    local_db, POINT_SQL, params
                )
            assert len(conn._backend._idle) == 1
        assert len(hop_connects) <= cluster.coordinator.shards

    def test_a_killed_worker_leaves_no_stale_socket(
        self, hop_connects, local_db
    ):
        coordinator = ClusterCoordinator(
            WorkerSource.from_factory(FACTORY),
            shards=2,
            config=WorkerConfig(threads=2, queue_depth=16),
            monitor_interval=0.1,
        )
        with ClusterFrontend(coordinator, owns_coordinator=True) as fe:
            for params in BINDINGS[:5]:  # warm the pool to both shards
                status, _h, body = post_json(
                    fe.url, "/v1/query", {"sql": POINT_SQL, "params": params}
                )
                assert status == 200, body
            killed_pid = coordinator.kill_shard(0)
            deadline = time.time() + 20.0
            respawned = False
            while time.time() < deadline:
                for params in BINDINGS:
                    status, _h, body = post_json(
                        fe.url, "/v1/query", {"sql": POINT_SQL, "params": params}
                    )
                    if status == 200:
                        expected = expected_rows(local_db, POINT_SQL, params)
                        assert body["rows"] == expected
                    else:  # the worker is down: retryable, never terminal
                        assert status == 503, body
                        assert body["error"]["retryable"] is True
                handle = coordinator.handle(0)
                if handle.alive() and handle.pid != killed_pid:
                    respawned = True
                    break
                time.sleep(0.05)
            assert respawned
            opened = len(hop_connects)
            for params in BINDINGS[:10]:
                status, _h, body = post_json(
                    fe.url, "/v1/query", {"sql": POINT_SQL, "params": params}
                )
                assert status == 200, body  # the new incarnation answers
                expected = expected_rows(local_db, POINT_SQL, params)
                assert body["rows"] == expected
            assert len(hop_connects) - opened <= 1

    def test_a_reply_lost_after_the_worker_ran_the_request_is_not_resent(self):
        """The worker runs an INSERT on a pooled socket, then a double
        ``net_write`` fault kills both its replies and it closes.  The
        front end answers the retryable 503 instead of sending the
        INSERT again on a fresh socket."""
        coordinator = ClusterCoordinator(
            WorkerSource.from_factory(FACTORY),
            shards=1,
            config=WorkerConfig(
                threads=1,
                faults=(
                    {"site": "net_write", "kind": "exception", "after": 1, "times": 2},
                ),
            ),
        )
        probe = {"sql": "SELECT SNO FROM SUPPLIER WHERE SNO = 498"}
        insert = {
            "sql": "INSERT INTO SUPPLIER VALUES "
            "(498, 'Lost Reply', 'Toronto', 10, 'Active')"
        }
        with ClusterFrontend(coordinator, owns_coordinator=True) as fe:
            status, _h, body = post_json(fe.url, "/v1/query", probe)
            assert (status, body["rows"]) == (200, [])  # warms the pool
            status, _h, body = post_json(fe.url, "/v1/query", insert)
            assert status == 503, body  # a resend would read 409
            assert body["error"]["retryable"] is True
            status, _h, body = post_json(fe.url, "/v1/query", probe)
            assert (status, body["rows"]) == (200, [[498]])


class TestHealthAggregation:
    def test_healthz_includes_every_shard(self, cluster):
        health = get_json(cluster.url, "/healthz")
        assert health["status"] == "ok"
        assert health["shard_count"] == cluster.coordinator.shards
        assert len(health["shards"]) == cluster.coordinator.shards
        for entry in health["shards"]:
            assert entry["alive"] is True
            assert entry["reachable"] is True
            # The embedded per-shard healthz is the worker's own body.
            assert entry["health"]["status"] == "ok"
            assert "admission" in entry["health"]

    def test_metrics_exports_shard_gauges(self, cluster):
        text = get_text(cluster.url, "/metrics")
        for shard in range(cluster.coordinator.shards):
            assert metric(
                text, "cluster_shard_up", '{shard="%d"}' % shard
            ) == 1.0

    def test_unknown_endpoint_is_404(self, cluster):
        status, _h, body = post_json(cluster.url, "/v1/nonsense", {})
        assert status == 404
        assert body["error"]["type"] == "NotFound"
