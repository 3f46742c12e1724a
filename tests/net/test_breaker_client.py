"""The client-side circuit breaker on a real transport: consecutive
connection failures open it, an open breaker fails without touching
the network, and a live server's responses — even error envelopes —
keep it closed."""

from __future__ import annotations

import pytest

import repro
from repro.errors import NetworkError, RemoteQueryError
from repro.net.client import HttpBackend
from repro.resilience import RetryPolicy
from repro.resilience.breaker import STATE_CLOSED, STATE_OPEN, CircuitBreaker

FAST_RETRY = RetryPolicy(
    max_attempts=4, base_delay=0.001, multiplier=1.0, max_delay=0.002
)

#: A port with nothing listening: every attempt is a connection error.
DEAD_URL = "http://127.0.0.1:9"


def dead_backend(breaker):
    return HttpBackend(
        DEAD_URL, retry_policy=FAST_RETRY, timeout=0.2, breaker=breaker
    )


def test_connection_failures_open_the_breaker():
    breaker = CircuitBreaker(
        failure_threshold=3, recovery_time=60.0, max_recovery_time=60.0
    )
    backend = dead_backend(breaker)
    from repro.options import ExecutionOptions

    with pytest.raises(NetworkError):
        backend.run("SELECT 1 FROM T", None, ExecutionOptions())
    # 4 attempts > threshold 3: the breaker opened mid-request.
    assert breaker.state == STATE_OPEN
    assert breaker.opens == 1


def test_open_breaker_fails_fast_without_the_network():
    import time

    breaker = CircuitBreaker(
        failure_threshold=1, recovery_time=60.0, max_recovery_time=60.0
    )
    backend = dead_backend(breaker)
    from repro.options import ExecutionOptions

    with pytest.raises(NetworkError):
        backend.run("SELECT 1 FROM T", None, ExecutionOptions())
    assert breaker.state == STATE_OPEN
    # Now every attempt is a local CircuitOpenError: no 0.2s connect
    # timeouts, so the whole retried request returns almost instantly.
    start = time.monotonic()
    with pytest.raises(NetworkError):
        backend.run("SELECT 1 FROM T", None, ExecutionOptions())
    assert time.monotonic() - start < 0.15


def test_live_server_traffic_keeps_the_breaker_closed(server):
    with repro.connect(server.url) as conn:
        backend = conn._backend
        for _ in range(10):
            conn.execute("SELECT SNO FROM SUPPLIER").fetchall()
        assert backend.breaker.state == STATE_CLOSED
        assert backend.breaker.opens == 0


def test_terminal_envelopes_are_proof_of_life(server):
    """A 400 from a working server is that server *answering*; ten of
    them in a row must not open the breaker."""
    with repro.connect(server.url) as conn:
        backend = conn._backend
        for _ in range(10):
            with pytest.raises((RemoteQueryError, Exception)):
                conn.execute("SELECT NOPE FROM NOWHERE")
        assert backend.breaker.state == STATE_CLOSED


def test_breaker_recovers_through_a_half_open_probe(server):
    """Open the breaker against a dead port, then point the same
    breaker at the live server: after the recovery window one probe
    closes it."""
    import time

    breaker = CircuitBreaker(
        failure_threshold=1,
        recovery_time=0.05,
        max_recovery_time=0.1,
        jitter=0.0,
    )
    from repro.options import ExecutionOptions

    with pytest.raises(NetworkError):
        dead_backend(breaker).run("SELECT 1 FROM T", None, ExecutionOptions())
    assert breaker.state == STATE_OPEN
    time.sleep(0.06)
    live = HttpBackend(
        server.url, retry_policy=FAST_RETRY, timeout=5.0, breaker=breaker
    )
    executed = live.run("SELECT SNO FROM SUPPLIER", None, ExecutionOptions())
    live.close()
    assert len(executed.rows) > 0
    assert breaker.state == STATE_CLOSED
