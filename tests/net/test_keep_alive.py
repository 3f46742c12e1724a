"""Kept-alive connections: the client reuses one socket per calling
thread; both servers keep a socket open across requests without a
thread per socket, never let a request body leak into the next
request, and close after framing they cannot parse; and drain neither
waits out idle sockets nor returns before a response in flight is
written."""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import threading
import time

import pytest

import repro
from repro.engine.database import Database
from repro.errors import TransientNetworkError
from repro.net.client import HttpBackend
from repro.net import http11, serving
from repro.net.server import QueryServer
from repro.resilience import FAULTS, SITE_NET_READ, SITE_NET_WRITE, RetryPolicy
from repro.resilience.breaker import STATE_CLOSED

from .conftest import SERVERS

POINT = "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :N"


@pytest.fixture()
def connects(monkeypatch):
    """Every TCP connect an ``http.client`` connection makes."""
    calls: list[tuple[str, int]] = []
    original = http.client.HTTPConnection.connect

    def spy(self):
        calls.append((self.host, self.port))
        return original(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", spy)
    return calls


def test_statements_share_one_connection(server, connects):
    with repro.connect(server.url) as conn:
        for i in range(50):
            assert conn.execute(POINT, {"N": i % 3 + 1}).fetchall() == [
                (i % 3 + 1,)
            ]
    assert len(connects) == 1


def test_threads_sharing_a_connection_take_a_socket_each(server, connects):
    failures: list[BaseException] = []
    with repro.connect(server.url) as conn:

        def work() -> None:
            try:
                for _ in range(25):
                    assert conn.execute(POINT, {"N": 2}).fetchall() == [(2,)]
            except BaseException as error:  # noqa: BLE001 — reported below
                failures.append(error)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert 1 <= len(connects) <= 2


def test_stream_replies_are_not_reused(server, connects):
    """An NDJSON stream ends with the connection: nothing is pooled."""
    with repro.connect(server.url, stream=True) as conn:
        for _ in range(3):
            assert conn.execute(POINT, {"N": 1}).fetchall() == [(1,)]
            assert conn._backend._idle == []
    assert len(connects) == 3


def test_a_socket_closed_while_idle_is_replaced_without_a_retry(
    connects, monkeypatch
):
    """The server drops an idle socket; the client sees that before
    reusing it, so the next INSERT goes out once, on a fresh connection,
    and applies exactly once, with no retry counted and the breaker
    still closed."""
    monkeypatch.setattr(serving, "IDLE_TIMEOUT", 0.3)
    db = Database.from_script(
        "CREATE TABLE T (A INT NOT NULL, PRIMARY KEY (A));"
    )
    with QueryServer(db, workers=1) as server:
        with repro.connect(server.url) as conn:
            conn.execute("INSERT INTO T VALUES (1)")
            conn.execute("INSERT INTO T VALUES (2)")
            time.sleep(1.0)  # the handler times out and closes the socket
            assert conn.execute("INSERT INTO T VALUES (3)").rowcount == 1
            backend = conn._backend
            assert backend.retries == 0
            assert backend.breaker.state == STATE_CLOSED
            assert sorted(conn.execute("SELECT A FROM T").fetchall()) == [
                (1,), (2,), (3,),
            ]
    assert len(connects) == 2


def test_a_reply_lost_after_the_request_ran_is_not_resent_silently():
    """The server runs an INSERT on a warm socket, then a double
    ``net_write`` fault kills both the result and the error reply and
    the server closes.  The client must not resend on its own: the
    failure is a counted transient one, and the row is inserted once."""
    db = Database.from_script("CREATE TABLE T (A INT NOT NULL);")
    no_retry = RetryPolicy(max_attempts=1)
    with QueryServer(db, workers=1) as server:
        with repro.connect(server.url, retry_policy=no_retry) as conn:
            conn.execute("INSERT INTO T VALUES (1)")  # warms the socket
            with FAULTS.inject(SITE_NET_WRITE, kind="exception", times=2):
                with pytest.raises(TransientNetworkError):
                    conn.execute("INSERT INTO T VALUES (2)")
            assert conn._backend.breaker.snapshot()["consecutive_failures"] == 1
            assert sorted(conn.execute("SELECT A FROM T").fetchall()) == [
                (1,), (2,),
            ]


def test_https_urls_speak_tls(monkeypatch):
    """An https:// URL gets an HTTPSConnection, on port 443 by default;
    any other scheme is refused up front."""
    dialled: list[tuple[type, str, int]] = []

    def refuse(self):
        dialled.append((type(self), self.host, self.port))
        raise ConnectionRefusedError("not dialled in tests")

    monkeypatch.setattr(http.client.HTTPConnection, "connect", refuse)
    with pytest.raises(TransientNetworkError):
        HttpBackend("https://127.0.0.1").healthz()
    assert dialled == [(http.client.HTTPSConnection, "127.0.0.1", 443)]
    with pytest.raises(ValueError):
        HttpBackend("ftp://127.0.0.1:21")


@pytest.mark.parametrize("server", SERVERS, indirect=True)
@pytest.mark.parametrize(
    "case, path, status",
    [
        ("unknown endpoint", "/v1/nope", 404),
        ("query while draining", "/v1/query", 503),
        ("session while draining", "/v1/session", 503),
        ("net_read exception", "/v1/query", 503),
    ],
)
def test_an_unread_body_does_not_leak_into_the_next_request(
    server, case, path, status
):
    """A response sent without reading the request body ends the
    connection; left open, the body would parse as the next request."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        with contextlib.ExitStack() as stack:
            if case.endswith("draining"):
                server._draining.set()
                stack.callback(server._draining.clear)
            if case == "net_read exception":
                stack.enter_context(
                    FAULTS.inject(SITE_NET_READ, kind="exception", times=1)
                )
            connection.request(
                "POST",
                path,
                body=json.dumps({"sql": "SELECT S.SNO FROM SUPPLIER S"}),
                headers={"Content-Type": "application/json"},
            )
            first = connection.getresponse()
            first.read()
        assert first.status == status
        connection.request("GET", "/healthz")
        second = connection.getresponse()
        assert second.status == 200
        assert json.loads(second.read())["status"] == "ok"
    finally:
        connection.close()


def _until_closed(server, data: bytes) -> bytes:
    """Send *data* on a fresh socket and read until the server closes
    it; a server that keeps the socket open fails on the timeout."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize("server", SERVERS, indirect=True)
@pytest.mark.parametrize(
    "data, status",
    [
        (b"POST /v1/query HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
        (b"POST /v1/query HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        (b"GET /healthz\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.0\r\n\r\n", 200),
    ],
    ids=["negative length", "non-numeric length", "no version", "HTTP/1.0"],
)
def test_both_servers_answer_framing_alike_and_close(server, data, status):
    """A head that cannot be framed gets the 400 ``ProtocolError``
    envelope; an HTTP/1.0 request its answer.  Either way the server
    says ``Connection: close`` and closes."""
    head, _, body = _until_closed(server, data).partition(http11.HEAD_END)
    reply = http11.parse_head(head)
    assert reply.status == status
    assert reply.headers.get("Connection") == "close"
    if status == 400:
        assert json.loads(body)["error"]["type"] == "ProtocolError"


def test_idle_kept_alive_connections_hold_no_thread(server):
    before = threading.active_count()
    connections = [
        http.client.HTTPConnection(server.host, server.port, timeout=10)
        for _ in range(8)
    ]
    try:
        for connection in connections:
            connection.request("GET", "/healthz")
            assert connection.getresponse().read()
            assert connection.sock is not None  # kept alive
        assert threading.active_count() == before
    finally:
        for connection in connections:
            connection.close()


@pytest.mark.parametrize("make_server", SERVERS, indirect=True)
def test_drain_does_not_wait_out_an_idle_connection(make_server):
    server = make_server()
    conn = repro.connect(server.url)
    try:
        assert conn.execute(POINT, {"N": 1}).fetchall() == [(1,)]
        started = time.monotonic()
        server.drain()
        assert time.monotonic() - started < 2.0
    finally:
        conn.close()
