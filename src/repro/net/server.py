"""``QueryServer`` — an HTTP front end over the query service.

Architecture: one :class:`~repro.service.QueryService` (worker pool +
bounded admission queue) does all execution; the
:class:`~repro.net.serving.ServingLoop` parses requests on one asyncio
thread, submits with ``wait=False`` — so a saturated admission queue
surfaces as **429 + Retry-After**, the wire form of the service's typed
backpressure — and awaits the ticket through its completion callback,
so no thread waits per request or per connection.  Large results
stream as NDJSON, one write per chunk, so the first rows reach the
client while later chunks are still being encoded.

Endpoints::

    POST /v1/query            execute SQL (JSON, or NDJSON with "stream")
    POST /v1/session          open a named session with default options
    DELETE /v1/session/<name> close a session
    GET  /healthz             liveness + drain state
    GET  /metrics             Prometheus text from the metrics registry

Resilience: every request passes the ``net_accept`` fault site on entry,
its body the ``net_read`` site, and every response/stream-chunk write
the ``net_write`` site — the chaos suite aims seeded faults at them; an
injected accept failure is a retryable 503, an injected write failure
kills the response mid-flight (streams carry a terminal error line so
truncation is detectable).

Lifecycle: :meth:`QueryServer.drain` (wired to SIGTERM by the CLI)
stops admitting new queries (503 + Retry-After), lets every in-flight
query complete and its response flush, then stops the listener.

Connections are HTTP/1.1 keep-alive (:mod:`repro.net.http11` decides):
one socket serves requests until the peer closes it, it idles past
:data:`~repro.net.serving.IDLE_TIMEOUT`, or a response says
``Connection: close`` (NDJSON streams, HTTP/1.0, malformed framing).
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import uuid
from time import perf_counter
from typing import Any

from ..api import executed_from_outcome
from ..engine.database import Database
from ..engine.plan_cache import PlanCache
from ..errors import (
    ProtocolError,
    ServiceShutdownError,
    TicketWaitTimeout,
)
from ..observe.metrics import MetricsRegistry
from ..observe.trace import NULL_SPAN, TRACER, Span
from ..options import ExecutionOptions
from ..resilience.admission import (
    PRIORITIES,
    PRIORITY_HEADER,
    SheddingPolicy,
)
from ..resilience.deadline import DEADLINE_HEADER, Deadline
from ..resilience.health import HealthPolicy
from ..resilience.faults import FAULTS, SITE_NET_WRITE
from ..service import QueryService, Session
from ..service.core import QueryTicket
from . import protocol
from .http11 import Headers
from .protocol import CONTENT_NDJSON, CONTENT_PROMETHEUS, REQUEST_ID_HEADER
from .serving import Exchange, ServingLoop, route

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
            write).
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
        self._request_counter = itertools.count(1)
        self._endpoints = {
            ("POST", "/v1/query"): ("query", self._handle_query),
            ("POST", "/v1/session"): ("session", self._handle_session_open),
            ("DELETE", "/v1/session/"): ("session", self._handle_session_close),
            ("GET", "/healthz"): ("healthz", self._handle_healthz),
            ("GET", "/metrics"): ("metrics", self._handle_metrics),
        }
        self._serving = ServingLoop(self._handle, host, port, "repro-http")
        self.host, self.port = self._serving.host, self._serving.port

    # -- addressing -----------------------------------------------------

    @property
    def url(self) -> str:
        """The server's base URL."""
        return self._serving.url

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
            self._serving.stopped.wait()
            return
        self._draining.set()
        self.service.shutdown(wait=True, cancel_queued=True)
        self._serving.call(self._serving.drain())
        self._serving.stop()

    #: Alias so the server can sit in a ``with`` like a Connection.
    close = drain

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server has fully drained."""
        return self._serving.stopped.wait(timeout)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.drain()
        return False

    def __repr__(self) -> str:
        state = "draining" if self.draining else "serving"
        return f"QueryServer({self.url}, {state})"

    # -- requests -------------------------------------------------------

    async def _handle(self, exchange: Exchange) -> None:
        route_name, handler = route(self._endpoints, exchange.head)
        started = perf_counter()
        exchange.request_id = self.next_request_id(
            exchange.head.headers.get(REQUEST_ID_HEADER)
        )
        # Timed without the tracer, then attached as a root: requests
        # interleave on the loop thread, whose open-span stack would
        # nest one inside another.
        span = (
            Span(
                "http.request",
                {"route": route_name, "request_id": exchange.request_id},
            )
            if TRACER.enabled
            else None
        )
        with span or NULL_SPAN:
            status = await exchange.run(handler)
        if span is not None:
            span.attributes["status"] = status
            TRACER.attach(span)
        self.metrics.record_http(route_name, status, perf_counter() - started)

    async def _handle_healthz(self, exchange: Exchange) -> int:
        return await exchange.json(
            200,
            {
                "status": "draining" if self.draining else "ok",
                "workers": self.service.workers,
                "queue_depth": self.service.queue_depth,
                "sessions": self.session_names(),
                # The degradation ladder: current tier per subsystem,
                # plus the full error-budget detail for operators.
                "health": self.service.health.tiers(),
                "subsystems": self.service.health.snapshot(),
                "admission": self.service.admission.snapshot(),
            },
        )

    async def _handle_metrics(self, exchange: Exchange) -> int:
        self.metrics.record_caches()
        self.service.health.export()  # publish the degraded gauges
        body = self.metrics.to_prometheus().encode("utf-8")
        return await exchange.send(
            200, body, [("Content-Type", CONTENT_PROMETHEUS)]
        )

    async def _handle_session_open(self, exchange: Exchange) -> int:
        if self.draining:
            raise ServiceShutdownError()
        payload = protocol.parse_json(exchange.body())
        unknown = set(payload) - {"name", "options"}
        if unknown:
            raise ProtocolError(
                f"unknown session field(s): {', '.join(sorted(unknown))}"
            )
        name = payload.get("name")
        if name is not None and (not isinstance(name, str) or not name):
            raise ProtocolError("field 'name' must be a non-empty string")
        options = ExecutionOptions.from_wire(payload.get("options"))
        session = self.open_session(name, options)
        return await exchange.json(
            200,
            {
                "session": session.name,
                "options": session.options.to_wire(),
                "request_id": exchange.request_id,
            },
        )

    async def _handle_session_close(self, exchange: Exchange) -> int:
        name = exchange.head.target[len("/v1/session/") :]
        snapshot = self.close_session(name)
        snapshot["stats"] = {
            k: v for k, v in snapshot["stats"].as_dict().items() if v
        }
        return await exchange.json(200, {"closed": name, "snapshot": snapshot})

    async def _handle_query(self, exchange: Exchange) -> int:
        if self.draining:
            raise ServiceShutdownError()
        request = protocol.parse_query_request(
            protocol.parse_json(exchange.body())
        )
        options = _apply_resilience_headers(
            exchange.head.headers, request["options"]
        )
        session = self.get_session(request["session"])
        # wait=False: a full admission queue is the 429 backpressure
        # signal, never a silently blocked loop.
        ticket = self.service.submit(
            session,
            request["sql"],
            request["params"],
            wait=False,
            options=options,
            request_id=exchange.request_id,
        )
        try:
            outcome = await _settled(ticket, request["wait_timeout"])
        except TicketWaitTimeout:
            # The client's wait is over; nobody will read the answer.
            # Cancel so a queued query is dropped and a running one
            # stops at its next cooperative checkpoint, instead of
            # silently burning a worker (the abandoned-ticket leak).
            ticket.cancel(f"HTTP wait abandoned ({exchange.request_id})")
            self.metrics.inc("http_abandoned_total")
            raise
        executed = executed_from_outcome(outcome, exchange.request_id)
        if request["stream"]:
            return await self._stream_result(exchange, executed)
        return await exchange.json(200, protocol.query_response(executed))

    async def _stream_result(self, exchange: Exchange, executed: Any) -> int:
        """NDJSON: header, one write per chunk of rows, footer."""
        await exchange.send(200, None, [("Content-Type", CONTENT_NDJSON)])
        await exchange.write(
            protocol.dumps(protocol.stream_header(executed)) + b"\n"
        )
        chunk_rows = self.stream_chunk_rows
        for start in range(0, len(executed.rows), chunk_rows):
            chunk = executed.rows[start : start + chunk_rows]
            FAULTS.check(SITE_NET_WRITE)
            await exchange.write(
                protocol.dumps(protocol.stream_chunk(chunk)) + b"\n"
            )
            self.metrics.inc("http_stream_chunks_total")
        await exchange.write(
            protocol.dumps(protocol.stream_footer(executed)) + b"\n"
        )
        return 200


async def _settled(ticket: QueryTicket, timeout: float | None) -> Any:
    """The ticket's outcome, awaited: its completion callback wakes the
    loop, so no thread blocks on ``ticket.result()``."""
    loop = asyncio.get_running_loop()
    done = loop.create_future()
    ticket.on_done(lambda: loop.call_soon_threadsafe(_resolve, done))
    try:
        await asyncio.wait_for(done, timeout)
    except asyncio.TimeoutError:
        raise TicketWaitTimeout(timeout, ticket.sql) from None
    return ticket.result(0)


def _resolve(future: asyncio.Future) -> None:
    if not future.done():  # wait_for cancelled it on timeout
        future.set_result(None)


def _apply_resilience_headers(
    headers: Headers, options: ExecutionOptions
) -> ExecutionOptions:
    """Fold ``X-Deadline-Ms`` / ``X-Priority`` into the options.

    Headers win over the body's options fields — they are the
    transport-level spelling a proxy or gateway can set without
    parsing the JSON.  The deadline header carries *remaining
    milliseconds* and is re-anchored against this process's
    monotonic clock on receipt.
    """
    changes: dict[str, Any] = {}
    raw_deadline = headers.get(DEADLINE_HEADER)
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
    raw_priority = headers.get(PRIORITY_HEADER)
    if raw_priority is not None:
        if raw_priority not in PRIORITIES:
            raise ProtocolError(
                f"header {PRIORITY_HEADER} must be one of "
                + ", ".join(repr(p) for p in PRIORITIES)
            )
        changes["priority"] = raw_priority
    # Both values are checked above: no need to validate them again.
    return options._with(changes) if changes else options
