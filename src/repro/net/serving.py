"""One asyncio serving loop for both HTTP servers.

:class:`ServingLoop` runs an event loop on a thread of its own and
serves HTTP/1.1 on it through the :mod:`repro.net.http11` codec.
:class:`~repro.net.server.QueryServer` and
:class:`~repro.cluster.ClusterFrontend` each hand it one coroutine that
answers an :class:`Exchange`, so an idle kept-alive connection costs a
task, not a thread.

Per connection the loop reads a whole request, head and then its
``Content-Length`` body, before dispatch: no handler can leave a body
unread for the next request to trip on.  A head or length the codec
rejects is answered with the 400 ``ProtocolError`` envelope, and the
connection closes.  So does a connection that waits
:data:`IDLE_TIMEOUT` seconds for its next request, or for the rest of
one.

The ``net_accept``, ``net_read`` and ``net_write`` fault sites sit on
:class:`Exchange`, so both servers pass them.  They run on the loop
thread: a ``slow`` spec there stalls every connection of that server.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Awaitable, Callable, Coroutine, Iterable

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

Handler = Callable[["Exchange"], Awaitable[int]]


class Exchange:
    """One request read off a connection, and the response it is owed.

    A handler answers with :meth:`send` or :meth:`json`, or streams
    with ``send(status, None, ...)``, then :meth:`write` per piece and
    :meth:`end`; each returns the status sent.  A stream to an HTTP/1.1
    client is chunked and keeps its connection; to an HTTP/1.0 one it
    ends with the connection.
    """

    __slots__ = (
        "head",
        "raw_body",
        "request_id",
        "keep_alive",
        "status",
        "_chunked",
        "_writer",
    )

    def __init__(
        self,
        head: http11.Request | None,
        raw_body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.head = head
        self.raw_body = raw_body
        #: Echoed as ``X-Request-Id`` on the response when set.
        self.request_id: str | None = None
        self.keep_alive = head is not None and http11.keeps_alive(head)
        #: The status whose head went out; 0 before that.
        self.status = 0
        self._chunked = False
        self._writer = writer

    def body(self) -> bytes:
        """The request body, through the ``net_read`` fault site.

        An injected exception models the socket dying mid-read; a
        ``corrupt`` fault mangles or truncates the bytes the way a
        broken proxy would.  Either way the failure stays inside this
        request: a short body is a typed 400 before any session or
        queue slot is touched.
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

    async def run(self, handler: Handler) -> int:
        """Answer with *handler*, or with the envelope of what it raised;
        the ``net_accept`` fault site comes first (a retryable 503)."""
        try:
            FAULTS.check(SITE_NET_ACCEPT)
            return await handler(self)
        except Exception as error:  # noqa: BLE001 — the request boundary
            return await self.fail(error)

    async def send(
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
        self._writer.write(http11.response_head(status, fields) + (body or b""))
        self.status = status
        await self._writer.drain()
        return status

    async def json(
        self,
        status: int,
        payload: dict[str, Any],
        headers: Iterable[tuple[str, str]] = (),
    ) -> int:
        headers = [("Content-Type", CONTENT_JSON), *headers]
        return await self.send(status, protocol.dumps(payload), headers)

    async def write(self, data: bytes) -> None:
        """More of a streamed body: one chunk of it when chunked."""
        self._writer.write(http11.encode_chunk(data) if self._chunked else data)
        await self._writer.drain()

    async def end(self) -> None:
        """End a streamed body."""
        if self._chunked:
            self._writer.write(http11.LAST_CHUNK)
            await self._writer.drain()

    async def fail(self, error: Exception) -> int:
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
                await self.write(protocol.dumps(payload) + b"\n")
                await self.end()
                return status
            retry_after = payload["error"].get("retry_after")
            extra = [("Retry-After", str(retry_after))] if retry_after else []
            return await self.json(status, payload, extra)
        except (ReproError, OSError):
            # A net_write fault, or a dead socket, on the error itself.
            self.keep_alive = False
            return status


async def not_found(exchange: Exchange) -> int:
    return await exchange.json(
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


class ServingLoop:
    """An event loop on its own thread, serving HTTP/1.1 with *handle*.

    The constructor returns once the socket is bound, and raises what
    binding raised.  :meth:`drain` (a coroutine, run with :meth:`call`)
    then :meth:`stop` shut it down.
    """

    def __init__(
        self,
        handle: Callable[[Exchange], Awaitable[Any]],
        host: str,
        port: int,
        name: str,
    ) -> None:
        self._handle = handle
        self._tasks: set[asyncio.Task] = set()
        # connection task → the timer that cancels it when idle too long
        self._idle: dict[asyncio.Task, asyncio.TimerHandle] = {}
        self._closing = False
        #: Set once the loop has stopped for good.
        self.stopped = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=name, daemon=True
        )
        self._thread.start()
        try:
            self._server = self.call(
                asyncio.start_server(self._accept, host, port)
            )
        except BaseException:
            self.stop()
            raise
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def call(
        self, coro: Coroutine[Any, Any, Any], timeout: float | None = None
    ) -> Any:
        """Run *coro* on the loop from another thread; its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    async def drain(self) -> None:
        """Stop accepting, close the connections waiting for a request,
        and wait until every request already read has its response out."""
        self._closing = True
        self._server.close()
        for task in self._idle:
            task.cancel()
        while self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    def stop(self) -> None:
        """Stop the loop and join its thread."""
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()
        self.stopped.set()

    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection in a task of the loop's own: handed a
        coroutine, 3.11's stream protocol logs every cancelled handler
        task as an error, and drain and the idle timeout cancel them."""
        task = self._loop.create_task(self._serve(reader, writer))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        try:
            while not self._closing:
                timer = self._loop.call_later(IDLE_TIMEOUT, task.cancel)
                self._idle[task] = timer
                try:
                    exchange = await self._read(reader, writer)
                finally:
                    self._idle.pop(task).cancel()
                if exchange is None:
                    return
                await self._handle(exchange)
                if not exchange.keep_alive:
                    return
        finally:
            writer.close()

    async def _read(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Exchange | None:
        """The next whole request; None when the connection is over.  A
        request that cannot be framed is answered here, with the 400."""
        try:
            head = http11.parse_head(await reader.readuntil(http11.HEAD_END))
            if not isinstance(head, http11.Request):
                raise ProtocolError("expected a request, got a status line")
            length = http11.body_length(head)
            expect = (head.headers.get("Expect") or "").lower()
            if length and expect == "100-continue":
                writer.write(http11.CONTINUE)
            return Exchange(head, await reader.readexactly(length), writer)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        except asyncio.LimitOverrunError:
            error = ProtocolError("request head too long")
        except ProtocolError as malformed:
            error = malformed
        await Exchange(None, b"", writer).fail(error)
        return None
