"""A ``/v1/query`` statement runs on the thread that read its request.

The connection thread executes it through ``QueryService.execute``: no
work item enters the pool's queue.  Admission and the ``workers``
execution slots are shared with the pool in both directions, drain
answers the statement that runs and turns away the one that waits, and
no connection thread or accepted socket outlives ``drain()``.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.errors import ServiceOverloadedError
from repro.net.server import QueryServer
from repro.resilience import FAULTS, SITE_PLAN_CACHE

from .conftest import SERVERS, raw_post

SQL = "SELECT S.SNO FROM SUPPLIER S"


def _until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _post_in_thread(url: str, replies: list) -> threading.Thread:
    thread = threading.Thread(
        target=lambda: replies.append(raw_post(url, "/v1/query", {"sql": SQL}))
    )
    thread.start()
    return thread


def test_a_statement_runs_on_its_connection_thread(tiny_db, monkeypatch):
    with QueryServer(tiny_db, workers=1) as server:
        queued: list = []
        ran_on: list[str] = []
        put, execute = server.service._queue.put, server.service._execute

        def enqueue(item, *args, **kwargs):
            queued.append(item)
            return put(item, *args, **kwargs)

        def spy(*args, **kwargs):
            ran_on.append(threading.current_thread().name)
            return execute(*args, **kwargs)

        monkeypatch.setattr(server.service._queue, "put", enqueue)
        monkeypatch.setattr(server.service, "_execute", spy)
        status, _headers, body = raw_post(server.url, "/v1/query", {"sql": SQL})
        assert status == 200, body
        assert queued == []
        assert ran_on == ["repro-http-connection"]


def test_http_statements_fill_the_room_the_pool_shares(tiny_db):
    """Two stalled HTTP statements — one in the single slot, one waiting
    for it — fill ``workers=1, queue_depth=1``: the pool refuses more."""
    with QueryServer(tiny_db, workers=1, queue_depth=1) as server:
        service = server.service
        session = server.get_session(None)
        replies: list = []
        with FAULTS.inject(SITE_PLAN_CACHE, kind="slow", delay=0.4, times=2):
            threads = [_post_in_thread(server.url, replies) for _ in range(2)]
            _until(lambda: service._free == 0 and service._waiting == 1)
            with pytest.raises(ServiceOverloadedError):
                session.submit(SQL, wait=False)
        for thread in threads:
            thread.join(timeout=10)
        assert [status for status, _h, _b in replies] == [200, 200]


def test_a_wait_timeout_that_passes_before_a_slot_frees_is_a_408(tiny_db):
    """One stalled statement holds the only slot; a request whose
    ``wait_timeout`` passes while it waits is answered 408 before the
    slot frees, and counted on both ledgers."""
    with QueryServer(tiny_db, workers=1) as server:
        service = server.service
        replies: list = []
        with FAULTS.inject(SITE_PLAN_CACHE, kind="slow", delay=1.0, times=1):
            running = _post_in_thread(server.url, replies)
            _until(lambda: service._free == 0)
            started = time.monotonic()
            status, _headers, body = raw_post(
                server.url, "/v1/query", {"sql": SQL, "wait_timeout": 0.05}
            )
            assert time.monotonic() - started < 0.9
        running.join(timeout=10)
        assert not running.is_alive() and replies[0][0] == 200
        assert status == 408
        assert json.loads(body)["error"]["type"] == "TicketWaitTimeout"
        assert server.metrics.value("http_abandoned_total") == 1
        abandoned = service.metrics.value(
            "service_abandoned_total", session="default"
        )
        assert abandoned == 1


def test_drain_answers_the_running_statement_and_turns_away_the_waiting_one(
    tiny_db,
):
    server = QueryServer(tiny_db, workers=1, queue_depth=4)
    service = server.service
    replies: list = []
    try:
        with FAULTS.inject(SITE_PLAN_CACHE, kind="slow", delay=0.5, times=1):
            running = _post_in_thread(server.url, replies)
            _until(lambda: service._free == 0)
            waiting = _post_in_thread(server.url, replies)
            _until(lambda: service._waiting == 1)
            server.drain()
        running.join(timeout=10)
        waiting.join(timeout=10)
    finally:
        server.drain()
    by_status = {status: body for status, _h, body in replies}
    assert sorted(by_status) == [200, 503]
    envelope = json.loads(by_status[503])["error"]
    assert envelope["type"] == "ServiceShutdownError"
    assert envelope["retryable"]
    drained = sum(
        value
        for name, _labels, value in server.metrics.series()
        if name == "service_drained_total"
    )
    assert drained == 1


@pytest.mark.parametrize("make_server", SERVERS, indirect=True)
def test_no_connection_thread_or_socket_outlives_drain(make_server, monkeypatch):
    accepted: list[socket.socket] = []
    original = socket.socket.accept

    def spy(self):
        pair = original(self)
        accepted.append(pair[0])
        return pair

    monkeypatch.setattr(socket.socket, "accept", spy)
    server = make_server()
    name = server._serving._name
    clients = [socket.create_connection((server.host, server.port)) for _ in range(3)]
    try:
        # one idle after a request, one mid-head, one that never spoke
        body = json.dumps({"sql": SQL}).encode()
        clients[0].sendall(
            b"POST /v1/query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%b"
            % (len(body), body)
        )
        assert clients[0].recv(65536).startswith(b"HTTP/1.1 200")
        clients[1].sendall(b"GET /healthz HTTP/1.1\r\n")
        _until(lambda: len(accepted) == 3)
        server.drain()
        assert not [t for t in threading.enumerate() if t.name.startswith(name)]
        assert all(sock.fileno() == -1 for sock in accepted)
        for client in clients:
            client.settimeout(5)
            assert client.recv(65536) == b""  # the server closed it
    finally:
        for client in clients:
            client.close()
