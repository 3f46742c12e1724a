"""The HTTP server's contract: round trips, streaming, backpressure,
error envelopes, request ids, sessions, and graceful drain."""

from __future__ import annotations

import json
import random
import threading
import urllib.request

import pytest

import repro
from repro.engine import execute_planned
from repro.errors import (
    RemoteQueryError,
    TransientNetworkError,
)
from repro.net.client import HttpBackend
from repro.net.server import QueryServer
from repro.resilience import FAULTS, RetryPolicy, SITE_NET_WRITE, SITE_PLAN_CACHE
from repro.types import NULL
from repro.workloads import SupplierScale, build_database, generate

from .conftest import SERVERS, raw_get, raw_post

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


# ---------------------------------------------------------------------------
# happy path


def test_query_round_trip_matches_local(server, tiny_db):
    sql = "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.BUDGET >= 50"
    with repro.connect(server.url) as conn:
        remote = conn.execute(sql).fetchall()
    local = execute_planned(sql, tiny_db)
    assert sorted(remote) == sorted(local.rows)


def test_nulls_survive_the_wire(server):
    with repro.connect(server.url) as conn:
        rows = conn.execute(
            "SELECT P.PNO, P.OEM-PNO FROM PARTS P WHERE P.SNO = 3"
        ).fetchall()
    assert rows == [(12, NULL)]
    assert rows[0][1] is NULL


def test_params_and_rewrite_trail(server):
    with repro.connect(server.url) as conn:
        cursor = conn.execute(
            "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = :N",
            {"N": 2},
        )
        assert cursor.fetchall() == [(2,)]
        assert cursor.executed.rewritten
        assert "distinct-elimination" in cursor.executed.rules


def test_request_id_round_trips(server):
    status, headers, raw = raw_post(
        server.url, "/v1/query", {"sql": "SELECT S.SNO FROM SUPPLIER S"}
    )
    assert status == 200
    body = json.loads(raw)
    assert body["request_id"] == headers["X-Request-Id"]

    request = urllib.request.Request(
        server.url + "/v1/query",
        data=json.dumps({"sql": "SELECT S.SNO FROM SUPPLIER S"}).encode(),
        method="POST",
        headers={"X-Request-Id": "trace-me-42"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        assert response.headers["X-Request-Id"] == "trace-me-42"
        assert json.loads(response.read())["request_id"] == "trace-me-42"


def test_analyze_over_the_wire(server):
    with repro.connect(server.url) as conn:
        cursor = conn.execute(
            "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 1", analyze=True
        )
        assert cursor.fetchall() == [(1,)]
        assert set(cursor.analysis) == {
            "wall_ms", "plan", "stats", "max_q_error",
        }
        assert cursor.analysis["plan"]["actual_rows"] == 1


def test_healthz_and_metrics(server):
    status, _, raw = raw_get(server.url, "/healthz")
    assert status == 200
    health = json.loads(raw)
    assert health["status"] == "ok"
    assert health["workers"] == 2

    with repro.connect(server.url) as conn:
        conn.execute("SELECT S.SNO FROM SUPPLIER S").fetchall()
    status, headers, raw = raw_get(server.url, "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    text = raw.decode()
    assert "repro_http_requests_total" in text
    assert 'route="query"' in text


def test_unknown_endpoint_is_404(server):
    status, _, raw = raw_post(server.url, "/v1/nope", {"sql": "x"})
    assert status == 404
    assert json.loads(raw)["error"]["type"] == "NotFound"


# ---------------------------------------------------------------------------
# error envelopes


def test_malformed_json_is_400(server):
    status, _, raw = raw_post(server.url, "/v1/query", b"{not json")
    assert status == 400
    envelope = json.loads(raw)["error"]
    assert envelope["type"] == "ProtocolError"
    assert not envelope["retryable"]


def test_missing_sql_is_400(server):
    status, _, raw = raw_post(server.url, "/v1/query", {"params": {}})
    assert status == 400
    assert "sql" in json.loads(raw)["error"]["message"]


def test_unknown_field_is_400(server):
    status, _, raw = raw_post(
        server.url, "/v1/query", {"sql": "SELECT 1", "bogus": True}
    )
    assert status == 400
    assert "bogus" in json.loads(raw)["error"]["message"]
    # The same strictness one level down: an option the server does not
    # have is refused, never accepted and ignored.
    for name, value in (
        ("parallel", 2),
        ("scan_ranges", {"PARTS": [0, 4]}),
        ("batch_rows", 8),
    ):
        status, _, raw = raw_post(
            server.url,
            "/v1/query",
            {"sql": "SELECT SNO FROM SUPPLIER", "options": {name: value}},
        )
        envelope = json.loads(raw)["error"]
        assert status == 400
        assert envelope["type"] == "ProtocolError"
        assert envelope["message"] == f"unknown option(s): {name}"


def test_sql_error_is_400_and_typed_client_side(server):
    status, _, raw = raw_post(
        server.url, "/v1/query", {"sql": "SELECT FROM WHERE"}
    )
    assert status == 400
    with repro.connect(server.url) as conn:
        with pytest.raises(RemoteQueryError) as excinfo:
            conn.execute("SELECT FROM WHERE")
    assert excinfo.value.status == 400


def test_row_budget_exceeded_is_413(server):
    status, _, raw = raw_post(
        server.url,
        "/v1/query",
        {
            "sql": "SELECT S.SNO FROM SUPPLIER S",
            "options": {"row_budget": 1},
        },
    )
    assert status == 413
    assert json.loads(raw)["error"]["type"] == "RowBudgetExceeded"


# ---------------------------------------------------------------------------
# streaming


@pytest.fixture(scope="module")
def big_db():
    # 500 suppliers x 21 parts = 10_500 parts rows: forces many chunks.
    return build_database(
        generate(
            SupplierScale(
                suppliers=500, parts_per_supplier=21, agents_per_supplier=0
            )
        )
    )


def test_streaming_over_ten_thousand_rows(big_db):
    sql = "SELECT P.SNO, P.PNO FROM PARTS P"
    expected = execute_planned(sql, big_db)
    assert len(expected) > 10_000
    with QueryServer(big_db, workers=2, stream_chunk_rows=512) as server:
        with repro.connect(server.url, stream=True) as conn:
            rows = conn.execute(sql).fetchall()
        chunks = server.metrics.value("http_stream_chunks_total")
    assert sorted(rows) == sorted(expected.rows)
    assert chunks >= len(expected) // 512  # genuinely chunked


def test_streamed_and_plain_responses_agree(server):
    sql = "SELECT S.SNO, S.SCITY FROM SUPPLIER S"
    with repro.connect(server.url) as plain:
        plain_rows = plain.execute(sql).fetchall()
    with repro.connect(server.url, stream=True) as streaming:
        streamed_rows = streaming.execute(sql).fetchall()
    assert sorted(plain_rows) == sorted(streamed_rows)


# ---------------------------------------------------------------------------
# backpressure: 429 + Retry-After, and a retrying client riding it out


def test_saturated_queue_is_429_with_retry_after(tiny_db):
    with QueryServer(tiny_db, workers=1, queue_depth=1) as server:
        session = server.get_session(None)
        # Stall the single worker so the admission queue stays full.
        with FAULTS.inject(SITE_PLAN_CACHE, kind="slow", delay=0.4, times=2):
            occupying = [
                session.submit("SELECT S.SNO FROM SUPPLIER S", wait=True)
                for _ in range(2)  # one running + one queued = saturated
            ]
            status, headers, raw = raw_post(
                server.url, "/v1/query", {"sql": "SELECT S.SNO FROM SUPPLIER S"}
            )
            assert status == 429
            envelope = json.loads(raw)["error"]
            assert envelope["type"] == "ServiceOverloadedError"
            assert envelope["retryable"]
            assert float(headers["Retry-After"]) > 0
        for ticket in occupying:
            ticket.result(timeout=10)


def test_retrying_client_succeeds_through_saturation(tiny_db):
    with QueryServer(tiny_db, workers=1, queue_depth=1) as server:
        session = server.get_session(None)
        policy = RetryPolicy(
            max_attempts=10, base_delay=0.1, multiplier=1.5, max_delay=0.5
        )
        with FAULTS.inject(SITE_PLAN_CACHE, kind="slow", delay=0.3, times=2):
            occupying = [
                session.submit("SELECT S.SNO FROM SUPPLIER S", wait=True)
                for _ in range(2)
            ]
            conn = repro.connect(
                server.url, retry_policy=policy, rng=random.Random(7)
            )
            rows = conn.execute(
                "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 1"
            ).fetchall()
        assert rows == [(1,)]
        backend = conn._backend
        assert isinstance(backend, HttpBackend)
        assert backend.retries >= 1  # it really did hit the 429 first
        for ticket in occupying:
            ticket.result(timeout=10)
        conn.close()


def test_retries_exhausted_is_typed(tiny_db):
    with QueryServer(tiny_db, workers=1, queue_depth=1) as server:
        session = server.get_session(None)
        policy = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02)
        with FAULTS.inject(SITE_PLAN_CACHE, kind="slow", delay=1.0, times=2):
            occupying = [
                session.submit("SELECT S.SNO FROM SUPPLIER S", wait=True)
                for _ in range(2)
            ]
            with repro.connect(server.url, retry_policy=policy) as conn:
                with pytest.raises(TransientNetworkError) as excinfo:
                    conn.execute("SELECT S.SNO FROM SUPPLIER S")
            assert excinfo.value.status == 429
        for ticket in occupying:
            ticket.result(timeout=10)


# ---------------------------------------------------------------------------
# sessions


def test_session_lifecycle(server):
    status, _, raw = raw_post(
        server.url,
        "/v1/session",
        {"name": "tenant-a", "options": {"row_budget": 100}},
    )
    assert status == 200
    body = json.loads(raw)
    assert body["session"] == "tenant-a"
    assert body["options"]["row_budget"] == 100

    with repro.connect(server.url, session="tenant-a") as conn:
        assert conn.execute(
            "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 4"
        ).fetchall() == [(4,)]

    # Duplicate open is a client error; closing forgets the name.
    status, _, _ = raw_post(server.url, "/v1/session", {"name": "tenant-a"})
    assert status == 400
    request = urllib.request.Request(
        server.url + "/v1/session/tenant-a", method="DELETE"
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        closed = json.loads(response.read())
    assert closed["closed"] == "tenant-a"
    assert closed["snapshot"]["completed"] == 1
    with pytest.raises(RemoteQueryError):
        with repro.connect(server.url, session="tenant-a") as conn:
            conn.execute("SELECT S.SNO FROM SUPPLIER S")


def test_fresh_session_is_owned_and_closed(server):
    conn = repro.connect(server.url, fresh_session=True)
    name = conn._backend.session
    assert name in conn._backend.healthz()["sessions"]
    backend = conn._backend
    conn.close()
    assert backend.session is None
    probe = HttpBackend(server.url)
    assert name not in probe.healthz()["sessions"]
    probe.close()


# ---------------------------------------------------------------------------
# graceful drain


@pytest.mark.parametrize("make_server", SERVERS, indirect=True)
def test_drain_completes_in_flight_queries(make_server):
    server = make_server()
    results: dict[str, object] = {}

    def slow_query():
        with repro.connect(server.url) as conn:
            results["rows"] = conn.execute(
                "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO <= 2"
            ).fetchall()

    # The response write also stalls, past the point where drain() used
    # to return without joining the handler that owed it.
    with FAULTS.inject(SITE_PLAN_CACHE, kind="slow", delay=0.4, times=1), \
            FAULTS.inject(SITE_NET_WRITE, kind="slow", delay=2.0, times=1):
        thread = threading.Thread(target=slow_query)
        thread.start()
        # Let the request reach the worker, then drain underneath it.
        deadline = threading.Event()
        deadline.wait(0.15)
        server.drain()
        # drain() returned: the full response is already on the wire.
        thread.join(timeout=0.5)
    assert not thread.is_alive()
    assert results["rows"] == [(1,), (2,)]  # completed, not cut off
    assert server.draining

    # The listener is gone: a new request cannot connect at all.
    with pytest.raises(Exception):
        raw_get(server.url, "/healthz", timeout=2)


@pytest.mark.parametrize("make_server", SERVERS, indirect=True)
def test_drain_is_idempotent(make_server):
    server = make_server()
    server.drain()
    server.drain()
    assert server.wait(timeout=1)
