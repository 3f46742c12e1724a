"""``QueryServer`` — a threaded HTTP front end over the query service.

Architecture: one :class:`~repro.service.QueryService` (worker pool +
bounded admission queue) does all execution; HTTP handler threads only
parse requests, submit with ``wait=False`` — so a saturated admission
queue surfaces as **429 + Retry-After**, the wire form of the service's
typed backpressure — and block on the ticket.  Large results stream as
NDJSON with an incremental flush per chunk, so the first rows reach the
client while later chunks are still being encoded.

Endpoints::

    POST /v1/query            execute SQL (JSON, or NDJSON with "stream")
    POST /v1/session          open a named session with default options
    DELETE /v1/session/<name> close a session
    GET  /healthz             liveness + drain state
    GET  /metrics             Prometheus text from the metrics registry

Resilience: every request passes the ``net_accept`` fault site on entry
and every response/stream-chunk write passes ``net_write`` — the chaos
suite aims seeded faults at both; an injected accept failure is a
retryable 503, an injected write failure kills the response mid-flight
(streams carry a terminal error line so truncation is detectable).

Lifecycle: :meth:`QueryServer.drain` (wired to SIGTERM by the CLI)
stops admitting new queries (503 + Retry-After), lets every in-flight
query complete and its response flush, then stops the listener.

Connections are HTTP/1.1 keep-alive: one handler thread serves one
client socket until the peer closes it, the socket idles past
:attr:`_Handler.timeout`, or a response says ``Connection: close``
(NDJSON streams, and any request whose body was left unread).
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter
from typing import Any

from ..api import executed_from_outcome
from ..engine.database import Database
from ..engine.plan_cache import PlanCache
from ..errors import (
    ProtocolError,
    ReproError,
    ServiceShutdownError,
    TicketWaitTimeout,
)
from ..observe.metrics import MetricsRegistry
from ..observe.trace import NULL_SPAN, TRACER
from ..options import ExecutionOptions
from ..resilience.admission import (
    PRIORITIES,
    PRIORITY_HEADER,
    SheddingPolicy,
)
from ..resilience.deadline import DEADLINE_HEADER, Deadline
from ..resilience.health import HealthPolicy
from ..resilience.faults import (
    FAULTS,
    SITE_NET_ACCEPT,
    SITE_NET_READ,
    SITE_NET_WRITE,
)
from ..service import QueryService, Session
from . import protocol
from .protocol import (
    CONTENT_JSON,
    CONTENT_NDJSON,
    REQUEST_ID_HEADER,
    error_envelope,
)

#: Name of the session used when a request names none.
DEFAULT_SESSION = "default"


class QueryServer:
    """An HTTP+JSON query server fronting one :class:`QueryService`.

    Usage::

        with QueryServer(database, workers=4) as server:
            print(server.url)        # e.g. http://127.0.0.1:53211
            server.wait()            # block until drained

    Args:
        database: the database the default session queries.
        host / port: bind address (port 0 picks a free port).
        workers / queue_depth / plan_cache: forwarded to the
            underlying :class:`~repro.service.QueryService`.
        options: server-wide default
            :class:`~repro.options.ExecutionOptions`; session defaults
            and per-request options layer on top.
        metrics: registry HTTP and query counters fold into (a private
            one by default; it backs ``GET /metrics``).
        stream_chunk_rows: rows per NDJSON chunk (each chunk is one
            flushed write).
    """

    def __init__(
        self,
        database: Database,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_depth: int = 64,
        plan_cache: PlanCache | None = None,
        options: ExecutionOptions | None = None,
        metrics: MetricsRegistry | None = None,
        stream_chunk_rows: int = 1000,
        shedding: SheddingPolicy | None = None,
        health_policy: HealthPolicy | None = None,
    ) -> None:
        if stream_chunk_rows < 1:
            raise ValueError("stream_chunk_rows must be at least 1")
        self.database = database
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.default_options = (
            options if options is not None else ExecutionOptions()
        )
        self.stream_chunk_rows = stream_chunk_rows
        self.service = QueryService(
            workers=workers,
            queue_depth=queue_depth,
            plan_cache=plan_cache,
            metrics=self.metrics,
            shedding=shedding,
            health_policy=health_policy,
        )
        self._sessions: dict[str, Session] = {}
        self._sessions_lock = threading.Lock()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._request_counter = itertools.count(1)
        self._httpd = _Listener((host, port), _Handler)
        self._httpd.app = self
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-http-listener",
            daemon=True,
        )
        self._thread.start()

    # -- addressing -----------------------------------------------------

    @property
    def url(self) -> str:
        """The server's base URL."""
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        """Whether a graceful drain is in progress (or finished)."""
        return self._draining.is_set()

    # -- session registry -----------------------------------------------

    def open_session(
        self,
        name: str | None = None,
        options: ExecutionOptions | None = None,
    ) -> Session:
        """Open (and register) a named session over the default database."""
        defaults = self.default_options.merged(options)
        with self._sessions_lock:
            if name is not None and name in self._sessions:
                raise ProtocolError(f"session {name!r} already exists")
        session = self.service.session(
            self.database, name=name, options=defaults
        )
        with self._sessions_lock:
            self._sessions[session.name] = session
        return session

    def close_session(self, name: str) -> dict[str, Any]:
        """Unregister *name*; returns its final snapshot."""
        with self._sessions_lock:
            session = self._sessions.pop(name, None)
        if session is None:
            raise ProtocolError(f"unknown session {name!r}")
        return session.snapshot()

    def get_session(self, name: str | None) -> Session:
        """The named session (the lazily-created default for None)."""
        wanted = name or DEFAULT_SESSION
        with self._sessions_lock:
            session = self._sessions.get(wanted)
        if session is None:
            if name is not None and name != DEFAULT_SESSION:
                raise ProtocolError(f"unknown session {name!r}")
            session = self.open_session(DEFAULT_SESSION)
        return session

    def session_names(self) -> list[str]:
        with self._sessions_lock:
            return sorted(self._sessions)

    def next_request_id(self, provided: str | None) -> str:
        """The caller's request id, or a fresh server-generated one."""
        if provided:
            return provided[:128]
        return f"req-{next(self._request_counter):06d}-{uuid.uuid4().hex[:8]}"

    # -- lifecycle ------------------------------------------------------

    def drain(self) -> None:
        """Graceful shutdown: finish in-flight queries, then stop.

        New ``/v1/query`` requests observed after this point get a
        retryable 503.  Queries already *running* complete and their
        responses flush before this returns; queries still
        *queued* fail fast with the same retryable 503
        (``cancel_queued=True``), so a full admission queue cannot
        stretch the drain window — and the service's ledger counters
        account every one (``service_drained_total``).  Idle kept-alive
        connections are closed, not waited out.  Idempotent.
        """
        if self._draining.is_set():
            self._stopped.wait()
            return
        self._draining.set()
        self.service.shutdown(wait=True, cancel_queued=True)
        self._httpd.shutdown()
        self._httpd.server_close()  # joins handler threads
        self._stopped.set()

    #: Alias so the server can sit in a ``with`` like a Connection.
    close = drain

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server has fully drained."""
        return self._stopped.wait(timeout)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.drain()
        return False

    def __repr__(self) -> str:
        state = "draining" if self.draining else "serving"
        return f"QueryServer({self.url}, {state})"


class _Listener(ThreadingHTTPServer):
    """The threaded listener; ``app`` points back to the QueryServer.

    Handler threads are daemons — an idle kept-alive client must not
    hold the process open — and the stdlib's ``block_on_close`` joins
    no daemon thread, so the listener tracks each open request socket
    with its thread and :meth:`server_close` joins them itself.
    """

    app: QueryServer

    def __init__(self, *args: Any) -> None:
        self._handlers: dict[socket.socket, threading.Thread] = {}
        self._handlers_lock = threading.Lock()
        super().__init__(*args)

    def process_request(self, request: Any, client_address: Any) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        with self._handlers_lock:
            self._handlers[request] = thread
        thread.start()

    def process_request_thread(self, request: Any, client_address: Any) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._handlers_lock:
                self._handlers.pop(request, None)

    def server_close(self) -> None:
        """Close the listener, then wait for every handler: shutting each
        open socket for reading makes an idle kept-alive handler read EOF
        at once, while one still answering writes its response out."""
        super().server_close()
        with self._handlers_lock:
            handlers = list(self._handlers.items())
        for request, _thread in handlers:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it meanwhile
        for _request, thread in handlers:
            thread.join()


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the owning :class:`QueryServer`."""

    protocol_version = "HTTP/1.1"
    #: Socket read timeout: a stalled client must not pin a thread.
    timeout = 60
    #: A response is a head write then a body write; on a kept-alive
    #: socket Nagle would hold the body until the client's delayed ACK.
    disable_nagle_algorithm = True
    server: _Listener

    # -- routing --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        if self.path == "/healthz":
            self._route("healthz", self._handle_healthz)
        elif self.path == "/metrics":
            self._route("metrics", self._handle_metrics)
        else:
            self._route("unknown", self._handle_not_found)

    def do_POST(self) -> None:  # noqa: N802
        if self.path == "/v1/query":
            self._route("query", self._handle_query)
        elif self.path == "/v1/session":
            self._route("session", self._handle_session_open)
        else:
            self._route("unknown", self._handle_not_found)

    def do_DELETE(self) -> None:  # noqa: N802
        if self.path.startswith("/v1/session/"):
            self._route("session", self._handle_session_close)
        else:
            self._route("unknown", self._handle_not_found)

    # -- plumbing -------------------------------------------------------

    def _route(self, route: str, handler: Any) -> None:
        app = self.server.app
        started = perf_counter()
        self.request_id = app.next_request_id(
            self.headers.get(REQUEST_ID_HEADER)
        )
        self._responded = False
        # A body left unread would parse as the peer's next request.
        self._unread_body = self.headers.get("Content-Length") not in (None, "0")
        span_cm = (
            TRACER.span(
                "http.request",
                route=route,
                request_id=self.request_id,
            )
            if TRACER.enabled
            else NULL_SPAN
        )
        status = 500
        try:
            with span_cm as span:
                # The accept fault site: chaos scenarios make admission
                # itself fail; the typed result is a retryable 503.
                FAULTS.check(SITE_NET_ACCEPT)
                status = handler()
                if span is not None:
                    span.attributes["status"] = status
        except Exception as error:  # noqa: BLE001 — boundary
            status = self._send_error(error)
        finally:
            if self._unread_body:
                self.close_connection = True
            app.metrics.record_http(route, status, perf_counter() - started)

    def _read_body(self) -> bytes:
        """The request body, guarded by the ``net_read`` fault site.

        An injected exception fault models the socket dying mid-read; a
        ``corrupt`` fault mangles or truncates the bytes the way a
        broken proxy would.  Either way the failure stays *inside this
        request*: a short or unparsable body becomes a clean typed 400
        envelope before any session or queue slot is touched.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if not length:
            return b""
        FAULTS.check(SITE_NET_READ)
        data = self.rfile.read(length)
        self._unread_body = False
        data = FAULTS.corrupt(SITE_NET_READ, data)
        if len(data) < length:
            raise ProtocolError(
                f"truncated request body: expected {length} bytes, "
                f"got {len(data)}"
            )
        return data

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        extra_headers: dict[str, str] | None = None,
    ) -> int:
        body = protocol.dumps(payload)
        # The write fault site fires *before* headers go out, so an
        # injected fault surfaces as a clean typed 503 on this request.
        FAULTS.check(SITE_NET_WRITE)
        self.send_response(status)
        self.send_header("Content-Type", CONTENT_JSON)
        self.send_header("Content-Length", str(len(body)))
        self.send_header(REQUEST_ID_HEADER, self.request_id)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self._unread_body:
            self.send_header("Connection", "close")  # so the client won't reuse it
        self.end_headers()
        self._responded = True
        self.wfile.write(body)
        return status

    def _send_error(self, error: Exception) -> int:
        if not isinstance(error, ReproError):
            if isinstance(error, (BrokenPipeError, ConnectionError)):
                self.close_connection = True
                return 499  # client went away; nothing to send
            error = ReproError(f"internal error: {error!r}")
            status, payload = 500, {
                "error": {
                    "type": "InternalError",
                    "message": str(error),
                    "status": 500,
                    "retryable": False,
                    "request_id": self.request_id,
                }
            }
        else:
            status, payload = error_envelope(error, self.request_id)
        if self._responded:
            # Mid-stream failure: the headers are gone; emit a terminal
            # error line so the client can tell truncation from success.
            try:
                self.wfile.write(protocol.dumps(payload) + b"\n")
                self.wfile.flush()
            except OSError:
                pass
            self.close_connection = True
            return status
        extra = {}
        retry_after = payload["error"].get("retry_after")
        if retry_after is not None:
            extra["Retry-After"] = str(retry_after)
        try:
            return self._send_json(status, payload, extra)
        except ReproError:
            # net_write fault while sending the error itself: abort.
            self.close_connection = True
            return status

    # -- endpoints ------------------------------------------------------

    def _handle_not_found(self) -> int:
        return self._send_json(
            404,
            {
                "error": {
                    "type": "NotFound",
                    "message": f"no such endpoint: {self.path}",
                    "status": 404,
                    "retryable": False,
                }
            },
        )

    def _handle_healthz(self) -> int:
        app = self.server.app
        return self._send_json(
            200,
            {
                "status": "draining" if app.draining else "ok",
                "workers": app.service.workers,
                "queue_depth": app.service.queue_depth,
                "sessions": app.session_names(),
                # The degradation ladder: current tier per subsystem,
                # plus the full error-budget detail for operators.
                "health": app.service.health.tiers(),
                "subsystems": app.service.health.snapshot(),
                "admission": app.service.admission.snapshot(),
            },
        )

    def _handle_metrics(self) -> int:
        app = self.server.app
        app.metrics.record_caches()
        app.service.health.export()  # publish the degraded gauges
        body = app.metrics.to_prometheus().encode("utf-8")
        FAULTS.check(SITE_NET_WRITE)
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self._responded = True
        self.wfile.write(body)
        return 200

    def _handle_session_open(self) -> int:
        app = self.server.app
        if app.draining:
            raise ServiceShutdownError()
        payload = protocol.parse_json(self._read_body())
        unknown = set(payload) - {"name", "options"}
        if unknown:
            raise ProtocolError(
                f"unknown session field(s): {', '.join(sorted(unknown))}"
            )
        name = payload.get("name")
        if name is not None and (not isinstance(name, str) or not name):
            raise ProtocolError("field 'name' must be a non-empty string")
        options = ExecutionOptions.from_wire(payload.get("options"))
        session = app.open_session(name, options)
        return self._send_json(
            200,
            {
                "session": session.name,
                "options": session.options.to_wire(),
                "request_id": self.request_id,
            },
        )

    def _handle_session_close(self) -> int:
        app = self.server.app
        name = self.path[len("/v1/session/") :]
        snapshot = app.close_session(name)
        snapshot["stats"] = {
            k: v for k, v in snapshot["stats"].as_dict().items() if v
        }
        return self._send_json(
            200, {"closed": name, "snapshot": snapshot}
        )

    def _handle_query(self) -> int:
        app = self.server.app
        if app.draining:
            raise ServiceShutdownError()
        request = protocol.parse_query_request(
            protocol.parse_json(self._read_body())
        )
        options = self._apply_resilience_headers(request["options"])
        session = app.get_session(request["session"])
        # wait=False: a full admission queue is the 429 backpressure
        # signal, never a silently blocked handler thread.
        ticket = app.service.submit(
            session,
            request["sql"],
            request["params"],
            wait=False,
            options=options,
            request_id=self.request_id,
        )
        try:
            outcome = ticket.result(timeout=request["wait_timeout"])
        except TicketWaitTimeout:
            # The client's wait is over; nobody will read the answer.
            # Cancel so a queued query is dropped and a running one
            # stops at its next cooperative checkpoint, instead of
            # silently burning a worker (the abandoned-ticket leak).
            ticket.cancel(f"HTTP wait abandoned ({self.request_id})")
            app.metrics.inc("http_abandoned_total")
            raise
        executed = executed_from_outcome(outcome, self.request_id)
        if request["stream"]:
            return self._stream_result(executed)
        return self._send_json(200, protocol.query_response(executed))

    def _apply_resilience_headers(
        self, options: ExecutionOptions
    ) -> ExecutionOptions:
        """Fold ``X-Deadline-Ms`` / ``X-Priority`` into the options.

        Headers win over the body's options fields — they are the
        transport-level spelling a proxy or gateway can set without
        parsing the JSON.  The deadline header carries *remaining
        milliseconds* and is re-anchored against this process's
        monotonic clock on receipt.
        """
        changes: dict[str, Any] = {}
        raw_deadline = self.headers.get(DEADLINE_HEADER)
        if raw_deadline is not None:
            try:
                ms = float(raw_deadline)
            except ValueError:
                raise ProtocolError(
                    f"header {DEADLINE_HEADER} must be a number of "
                    f"milliseconds, got {raw_deadline!r}"
                ) from None
            if ms < 0:
                raise ProtocolError(
                    f"header {DEADLINE_HEADER} must be non-negative"
                )
            changes["deadline"] = Deadline.from_wire_ms(ms)
        raw_priority = self.headers.get(PRIORITY_HEADER)
        if raw_priority is not None:
            if raw_priority not in PRIORITIES:
                raise ProtocolError(
                    f"header {PRIORITY_HEADER} must be one of "
                    + ", ".join(repr(p) for p in PRIORITIES)
                )
            changes["priority"] = raw_priority
        # Both values are checked above: no need to validate them again.
        return options._with(changes) if changes else options

    def _stream_result(self, executed: Any) -> int:
        """NDJSON: header, chunked rows with incremental flush, footer."""
        app = self.server.app
        FAULTS.check(SITE_NET_WRITE)
        self.send_response(200)
        self.send_header("Content-Type", CONTENT_NDJSON)
        self.send_header(REQUEST_ID_HEADER, self.request_id)
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        self._responded = True
        self.wfile.write(protocol.dumps(protocol.stream_header(executed)) + b"\n")
        self.wfile.flush()
        chunk_rows = app.stream_chunk_rows
        for start in range(0, len(executed.rows), chunk_rows):
            chunk = executed.rows[start : start + chunk_rows]
            FAULTS.check(SITE_NET_WRITE)
            self.wfile.write(
                protocol.dumps(protocol.stream_chunk(chunk)) + b"\n"
            )
            self.wfile.flush()  # incremental delivery, chunk by chunk
            app.metrics.inc("http_stream_chunks_total")
        self.wfile.write(protocol.dumps(protocol.stream_footer(executed)) + b"\n")
        self.wfile.flush()
        return 200

    # -- quiet logging --------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        """Server logs ride the metrics registry, not stderr."""
