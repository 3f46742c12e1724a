"""Deadline and priority over the wire: the ``X-Deadline-Ms`` /
``X-Priority`` headers, the 504 rejection for spent budgets, and the
liveness/admission views ``/healthz`` exposes."""

from __future__ import annotations

import json

import repro
from repro.resilience.admission import PRIORITY_HEADER
from repro.resilience.deadline import DEADLINE_HEADER

from .conftest import raw_get, raw_post

QUERY = {"sql": "SELECT SNO FROM SUPPLIER"}


def test_generous_deadline_header_executes_normally(server):
    status, _headers, body = raw_post(
        server.url, "/v1/query", QUERY, headers={DEADLINE_HEADER: "30000"}
    )
    assert status == 200
    assert json.loads(body)["row_count"] > 0


def test_spent_deadline_header_is_a_504_before_any_work(server):
    status, _headers, body = raw_post(
        server.url, "/v1/query", QUERY, headers={DEADLINE_HEADER: "0"}
    )
    envelope = json.loads(body)["error"]
    assert status == 504
    assert envelope["type"] == "DeadlineExpiredError"
    assert envelope["retryable"] is False
    # The rejection is ledgered before the queue ever saw the query.
    metrics = raw_get(server.url, "/metrics")[2].decode()
    assert "service_deadline_rejected_total" in metrics


def test_malformed_deadline_header_is_a_400(server):
    for bad in ("soon", "-100", ""):
        status, _headers, body = raw_post(
            server.url, "/v1/query", QUERY, headers={DEADLINE_HEADER: bad}
        )
        assert status == 400, f"header {bad!r} must be rejected"
        assert json.loads(body)["error"]["type"] == "ProtocolError"


def test_priority_header_is_validated(server):
    status, _headers, body = raw_post(
        server.url, "/v1/query", QUERY, headers={PRIORITY_HEADER: "urgent"}
    )
    assert status == 400
    assert "X-Priority" in json.loads(body)["error"]["message"]
    status, _headers, _body = raw_post(
        server.url, "/v1/query", QUERY, headers={PRIORITY_HEADER: "batch"}
    )
    assert status == 200


def test_headers_override_body_options(server):
    """A stale ``deadline_ms`` in the body must lose to the header —
    the header is recomputed per attempt, the body is not."""
    body_options = {"sql": QUERY["sql"], "options": {"deadline_ms": 60000.0}}
    status, _headers, body = raw_post(
        server.url,
        "/v1/query",
        body_options,
        headers={DEADLINE_HEADER: "0"},
    )
    assert status == 504
    assert json.loads(body)["error"]["type"] == "DeadlineExpiredError"


def test_client_fast_fails_an_expired_deadline_locally(server):
    """The facade must not even open a socket for a dead budget."""
    from repro.errors import DeadlineExpiredError
    from repro.resilience.deadline import Deadline

    import pytest

    with repro.connect(server.url) as conn:
        with pytest.raises(DeadlineExpiredError):
            conn.execute(QUERY["sql"], deadline=Deadline.after(-1.0))


def test_client_deadline_round_trip(server):
    with repro.connect(server.url) as conn:
        rows = conn.execute(
            QUERY["sql"], deadline=30.0, priority="batch"
        ).fetchall()
    assert len(rows) > 0


def test_healthz_exposes_liveness_and_admission_views(server):
    status, _headers, body = raw_get(server.url, "/healthz")
    assert status == 200
    payload = json.loads(body)
    assert set(payload) == {
        "status", "workers", "queue_depth", "sessions", "admission",
    }
    admission = payload["admission"]
    assert "predicted_wait_ms" in admission
    assert "shed_total" in admission
