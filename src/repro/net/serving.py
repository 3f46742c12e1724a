"""Blocking HTTP/1.1 serving for both servers: a thread per connection.

:class:`Listener` accepts connections on a thread of its own and serves
each on a thread of its own through the :mod:`repro.net.http11` codec.
:class:`~repro.net.server.QueryServer` and
:class:`~repro.cluster.ClusterFrontend` each hand it one function that
answers an :class:`Exchange`; it runs on the thread that read the
request, so a statement executes where its request arrived, with no
hand-off to another thread and back.  An idle kept-alive connection
holds one thread, blocked in its read.

Per connection the thread reads a whole request, head and then its
``Content-Length`` body, before dispatch: no handler can leave a body
unread for the next request to trip on.  A head or length the codec
rejects is answered with the 400 ``ProtocolError`` envelope, and the
connection closes.  So does a connection that waits
:data:`IDLE_TIMEOUT` seconds for its next request, or for the rest of
one.

The ``net_accept``, ``net_read`` and ``net_write`` fault sites sit on
:class:`Exchange`, so both servers pass them.  They run on the
connection's thread: a ``slow`` spec there stalls only that connection.
"""

from __future__ import annotations

import contextlib
import socket
import threading
from typing import Any, Callable, Iterable

from ..errors import ProtocolError, ReproError
from ..resilience.faults import (
    FAULTS,
    SITE_NET_ACCEPT,
    SITE_NET_READ,
    SITE_NET_WRITE,
)
from . import http11, protocol
from .protocol import CONTENT_JSON, REQUEST_ID_HEADER

#: Seconds a connection may wait for its next request, or for the rest
#: of one, before it is closed: a stalled client must not hold a socket.
IDLE_TIMEOUT = 60.0

Handler = Callable[["Exchange"], int]


class Exchange:
    """One request read off a connection, and the response it is owed.

    A handler answers with :meth:`send` or :meth:`json`, or streams
    with ``send(status, None, ...)``, then :meth:`write` per piece and
    :meth:`end`; each returns the status sent.  A whole response goes
    out when the handler has returned (:meth:`flush`), so the server's
    own account of it is complete before the client can read it.  A
    stream to an HTTP/1.1 client is chunked and keeps its connection; to
    an HTTP/1.0 one it ends with the connection.
    """

    __slots__ = (
        "head",
        "raw_body",
        "request_id",
        "keep_alive",
        "status",
        "_chunked",
        "_sock",
        "_unsent",
    )

    def __init__(
        self,
        head: http11.Request | None,
        raw_body: bytes,
        sock: socket.socket,
    ) -> None:
        self.head = head
        self.raw_body = raw_body
        #: Echoed as ``X-Request-Id`` on the response when set.
        self.request_id: str | None = None
        self.keep_alive = head is not None and http11.keeps_alive(head)
        #: The status whose head went out; 0 before that.
        self.status = 0
        self._chunked = False
        self._sock = sock
        self._unsent = b""

    def body(self) -> bytes:
        """The request body, through the ``net_read`` fault site.

        An injected exception models the socket dying mid-read; a
        ``corrupt`` fault mangles or truncates the bytes the way a
        broken proxy would.  Either way the failure stays inside this
        request: a short body is a typed 400 before any session or
        execution slot is touched.
        """
        if not self.raw_body:
            return b""
        FAULTS.check(SITE_NET_READ)
        data = FAULTS.corrupt(SITE_NET_READ, self.raw_body)
        if len(data) < len(self.raw_body):
            raise ProtocolError(
                f"truncated request body: expected {len(self.raw_body)} "
                f"bytes, got {len(data)}"
            )
        return data

    def run(self, handler: Handler) -> int:
        """Answer with *handler*, or with the envelope of what it raised;
        the ``net_accept`` fault site comes first (a retryable 503)."""
        try:
            FAULTS.check(SITE_NET_ACCEPT)
            return handler(self)
        except Exception as error:  # noqa: BLE001 — the request boundary
            return self.fail(error)

    def send(
        self,
        status: int,
        body: bytes | None,
        headers: Iterable[tuple[str, str]] = (),
    ) -> int:
        """Write the head and *body*.  The ``net_write`` fault site fires
        before anything goes out, so an injected fault is still a clean
        envelope.  A None body starts a stream."""
        FAULTS.check(SITE_NET_WRITE)
        fields = list(headers)
        if self.request_id is not None:
            fields.append((REQUEST_ID_HEADER, self.request_id))
        if body is not None:
            fields.append(("Content-Length", str(len(body))))
        elif self.head.version == "HTTP/1.1":
            self._chunked = True
            fields.append(("Transfer-Encoding", "chunked"))
        else:
            self.keep_alive = False
        if not self.keep_alive:
            fields.append(("Connection", "close"))
        self.status = status
        if body is None:
            self._sock.sendall(http11.response_head(status, fields))
        else:
            self._unsent = http11.response_head(status, fields) + body
        return status

    def json(
        self,
        status: int,
        payload: dict[str, Any],
        headers: Iterable[tuple[str, str]] = (),
    ) -> int:
        headers = [("Content-Type", CONTENT_JSON), *headers]
        return self.send(status, protocol.dumps(payload), headers)

    def write(self, data: bytes) -> None:
        """More of a streamed body: one chunk of it when chunked."""
        self._sock.sendall(http11.encode_chunk(data) if self._chunked else data)

    def end(self) -> None:
        """End a streamed body."""
        if self._chunked:
            self._sock.sendall(http11.LAST_CHUNK)

    def flush(self) -> None:
        """Write the whole response :meth:`send` holds, if any; a dead
        socket ends the connection."""
        try:
            if self._unsent:
                self._sock.sendall(self._unsent)
        except OSError:
            self.keep_alive = False

    def fail(self, error: Exception) -> int:
        """Answer *error* with its :func:`~repro.net.protocol.error_envelope`
        (anything outside the library is a 500).  After the head went
        out, a terminal error line ends the stream instead, so the client
        can tell truncation from success."""
        if isinstance(error, ConnectionError):
            self.keep_alive = False
            return 499  # the client went away; nothing to send
        status, payload = protocol.error_envelope(error, self.request_id)
        try:
            if self.status:
                self.write(protocol.dumps(payload) + b"\n")
                self.end()
                return status
            retry_after = payload["error"].get("retry_after")
            extra = [("Retry-After", str(retry_after))] if retry_after else []
            return self.json(status, payload, extra)
        except (ReproError, OSError):
            # A net_write fault, or a dead socket, on the error itself.
            self.keep_alive = False
            return status


def not_found(exchange: Exchange) -> int:
    return exchange.json(
        404,
        {
            "error": {
                "type": "NotFound",
                "message": f"no such endpoint: {exchange.head.target}",
                "status": 404,
                "retryable": False,
            }
        },
    )


def route(
    routes: dict[tuple[str, str], tuple[str, Handler]], head: http11.Request
) -> tuple[str, Handler]:
    """The ``(label, handler)`` *routes* gives *head*: the entry for its
    method and path, else for the path's parent (``/v1/session/``), else
    the 404."""
    target = head.target
    return (
        routes.get((head.method, target))
        or routes.get((head.method, target[: target.rfind("/") + 1]))
        or ("unknown", not_found)
    )


class Listener:
    """A listening socket whose connections are each served, by
    *handle*, on a thread of their own.

    The constructor returns once the socket is bound, and raises what
    binding raised.  :meth:`drain` shuts it down.
    """

    def __init__(
        self,
        handle: Callable[[Exchange], Any],
        host: str,
        port: int,
        name: str,
    ) -> None:
        self._handle = handle
        self._name = name
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        # leaf: the open connections (thread → socket) and the flag
        self._lock = threading.Lock()
        self._connections: dict[threading.Thread, socket.socket] = {}
        self._closing = False
        #: Set once every connection thread has ended.
        self.stopped = threading.Event()
        self._acceptor = threading.Thread(
            target=self._accept, name=name, daemon=True
        )
        self._acceptor.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def drain(self) -> None:
        """Stop accepting, close the connections waiting for a request,
        and wait until every request already read has its response out
        and every connection thread has ended.

        Every open connection is shut for reading: a thread blocked in
        its read sees EOF now, and one answering a request writes its
        response and then sees it."""
        with self._lock:
            self._closing = True
            for sock in self._connections.values():
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RD)
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes accept()
        self._sock.close()
        self._acceptor.join()
        while self._connections:
            with self._lock:
                threads = list(self._connections)
            for thread in threads:
                thread.join()
        self.stopped.set()

    def _accept(self) -> None:
        while True:
            try:
                sock, _address = self._sock.accept()
            except OSError:
                return  # drain shut the listener
            thread = threading.Thread(
                target=self._serve,
                args=(sock,),
                name=f"{self._name}-connection",
                daemon=True,
            )
            with self._lock:
                if self._closing:
                    sock.close()
                    return
                self._connections[thread] = sock
            thread.start()

    def _serve(self, sock: socket.socket) -> None:
        reader = sock.makefile("rb")
        try:
            # A stream is several writes; don't hold one back for an ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(IDLE_TIMEOUT)
            while not self._closing:
                try:
                    request = http11.read_request(
                        reader, lambda: sock.sendall(http11.CONTINUE)
                    )
                except OSError:  # closed, reset, timed out or drained
                    return
                except ProtocolError as malformed:
                    refusal = Exchange(None, b"", sock)  # the 400
                    refusal.fail(malformed)
                    refusal.flush()
                    return
                if request is None:
                    return
                exchange = Exchange(*request, sock)
                self._handle(exchange)
                exchange.flush()
                if not exchange.keep_alive:
                    return
        finally:
            reader.close()
            sock.close()
            with self._lock:
                del self._connections[threading.current_thread()]
