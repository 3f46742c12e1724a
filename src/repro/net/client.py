"""The HTTP client: dial a :class:`~repro.net.server.QueryServer` and
get back the exact :class:`~repro.api.Connection` facade a local
database gives you.

Transport is raw kept-alive sockets (``ssl``-wrapped for ``https://``)
framed by the :mod:`repro.net.http11` codec that both servers use: each
request's head and body go out in one ``sendall``, and a reply is read
by its ``Content-Length`` or, for an NDJSON stream, its chunks, so a
stream keeps its socket too.  A backend keeps its idle sockets in a
list (one per calling thread at most) and reuses them, so a statement
costs a round trip, not a TCP connect and teardown.  Resilience reuses
the library's own :func:`~repro.resilience.retry.call_with_retry` with
a bounded, jittered :class:`~repro.resilience.retry.RetryPolicy`: a 429
(admission queue full), a 503 (drain or injected transient fault), or a
socket or framing failure becomes a
:class:`~repro.errors.TransientNetworkError` that the
policy retries — honouring the server's ``Retry-After`` when one is
given — while every other envelope decodes to a terminal
:class:`~repro.errors.RemoteQueryError`.  NULLs survive the round trip
(JSON ``null`` ↔ the engine's NULL sentinel), so remote rows compare
``≐``-identical to local ones.
"""

from __future__ import annotations

import json
import random
import select
import socket
import ssl
import threading
import urllib.parse
from typing import Any

from ..api import Connection, ExecutedQuery
from ..errors import (
    RETRYABLE_STATUSES,
    CircuitOpenError,
    ProtocolError,
    RemoteQueryError,
    TransientNetworkError,
)
from ..options import ExecutionOptions
from ..sql.ast import (
    BeginTransaction,
    CommitTransaction,
    RollbackTransaction,
)
from ..sql.parser import parse
from ..resilience.admission import PRIORITY_HEADER, PRIORITY_INTERACTIVE
from ..resilience.breaker import CircuitBreaker
from ..resilience.deadline import DEADLINE_HEADER, Deadline
from ..resilience.retry import RetryPolicy, call_with_retry
from . import http11, protocol
from .http11 import Headers
from .protocol import CONTENT_JSON, CONTENT_NDJSON

#: Wire retries back off harder than in-process IMS retries: a drain or
#: queue-full condition clears in tenths of seconds, not microseconds.
DEFAULT_HTTP_RETRY = RetryPolicy(
    max_attempts=5, base_delay=0.05, multiplier=2.0, max_delay=1.0
)

_DEFAULT_PORTS = {"http": 80, "https": 443}


class _Wire:
    """One kept-alive socket and the buffered reader replies come off."""

    __slots__ = ("sock", "reader")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class HttpBackend:
    """A :class:`~repro.api.Connection` backend speaking the
    :mod:`repro.net.protocol` wire format.

    Args:
        url: server base URL (``http://host:port`` or ``https://…``).
        session: server-side session name queries run under (the
            server's shared default session when None).
        retry_policy: backoff schedule for retryable failures.
        stream: request NDJSON streaming responses (the assembled
            result is identical; streaming bounds server-side buffering
            for large results and exercises incremental delivery).
        timeout: socket timeout per HTTP attempt, in seconds.
        rng: randomness source for retry jitter (seedable for tests).
        breaker: the client-side
            :class:`~repro.resilience.breaker.CircuitBreaker` guarding
            this server (a default one when None).  Consecutive
            transient failures open it; an open breaker fails attempts
            locally with :class:`~repro.errors.CircuitOpenError` —
            which subclasses the retryable family carrying the time to
            the next half-open probe as ``retry_after``, so the retry
            loop sleeps exactly to the probe window instead of
            hammering a dead socket.
    """

    remote = True

    def __init__(
        self,
        url: str,
        *,
        session: str | None = None,
        retry_policy: RetryPolicy | None = None,
        stream: bool = False,
        timeout: float = 30.0,
        rng: random.Random | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.url = url.rstrip("/")
        self.session = session
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_HTTP_RETRY
        )
        self.stream = stream
        self.timeout = timeout
        self.retries = 0  # cumulative wire retries, for tests/metrics
        self._rng = rng if rng is not None else random.Random()
        self._owned_session = False
        #: Mirror of the server-side session's transaction state.  SQL
        #: ``BEGIN``/``COMMIT``/``ROLLBACK`` executes *on the server*
        #: (the session pins the snapshot there); this flag only tracks
        #: it so :class:`~repro.api.Connection` semantics — implicit
        #: begin under ``autocommit=False``, context-manager commit —
        #: work identically against a remote database.
        self.in_transaction = False
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        # Per-call resilience headers (set by run(), cleared after):
        # the deadline header is recomputed per *attempt* so a retry
        # sends the budget actually remaining, not a stale snapshot.
        self._deadline: Deadline | None = None
        self._priority: str = PRIORITY_INTERACTIVE
        parts = urllib.parse.urlsplit(self.url)
        if parts.scheme not in _DEFAULT_PORTS:
            raise ValueError(f"server URL must be http:// or https://, got {url!r}")
        self._host = parts.hostname
        self._port = parts.port or _DEFAULT_PORTS[parts.scheme]
        self._prefix = parts.path
        self._host_field = parts.netloc.rpartition("@")[2]
        self._tls = (
            ssl.create_default_context() if parts.scheme == "https" else None
        )
        # Idle kept-alive sockets; a Connection may be shared by
        # threads, so each call takes its own socket from here.
        self._idle: list[_Wire] = []
        self._idle_lock = threading.Lock()

    # -- the Connection backend interface -------------------------------

    def run(
        self, sql: str, params: dict | None, options: ExecutionOptions
    ) -> ExecutedQuery:
        control = self._transaction_control(sql)
        if (
            control is None
            and not self.in_transaction
            and not options.autocommit
        ):
            # DB-API posture with autocommit off: open the implicit
            # transaction on the server before the first statement.
            self._run_wire("BEGIN", None, options)
            self.in_transaction = True
        if control == "end":
            try:
                executed = self._run_wire(sql, params, options)
            except TransientNetworkError:
                raise  # server state unknown; keep the flag for retry
            except Exception:
                # A typed failure (conflict, uniqueness) means the
                # server rolled the session's transaction back.
                self.in_transaction = False
                raise
            self.in_transaction = False
            return executed
        executed = self._run_wire(sql, params, options)
        if control == "begin":
            self.in_transaction = True
        return executed

    @staticmethod
    def _transaction_control(sql: str) -> str | None:
        """``"begin"`` / ``"end"`` for transaction-control SQL, else None."""
        if not isinstance(sql, str):
            return None
        head = sql.strip().split(None, 1)[0].upper() if sql.strip() else ""
        if head not in ("BEGIN", "COMMIT", "ROLLBACK", "START"):
            return None
        try:
            statement = parse(sql)
        except Exception:  # noqa: BLE001 — let the server issue the error
            return None
        if isinstance(statement, BeginTransaction):
            return "begin"
        if isinstance(statement, (CommitTransaction, RollbackTransaction)):
            return "end"
        return None

    def _run_wire(
        self, sql: str, params: dict | None, options: ExecutionOptions
    ) -> ExecutedQuery:
        body: dict[str, Any] = {"sql": sql}
        if params is not None:
            body["params"] = dict(params)
        if self.session is not None:
            body["session"] = self.session
        wire_options = options.to_wire()
        # Deadline and priority ride the headers, recomputed per
        # attempt; the body copy would freeze a stale remaining-ms.
        wire_options.pop("deadline_ms", None)
        wire_options.pop("priority", None)
        if wire_options:
            body["options"] = wire_options
        if self.stream:
            body["stream"] = True
        self._deadline = options.deadline
        self._priority = options.priority
        try:
            return self._call_retrying("/v1/query", body, self._query_once)
        finally:
            self._deadline = None
            self._priority = PRIORITY_INTERACTIVE

    def begin(self) -> None:
        """Open an explicit transaction on the server-side session."""
        self.run("BEGIN", None, ExecutionOptions())

    def commit(self) -> None:
        """Publish the open server-side transaction; no-op without one."""
        if self.in_transaction:
            self.run("COMMIT", None, ExecutionOptions())

    def rollback(self) -> None:
        """Discard the open server-side transaction; no-op without one."""
        if self.in_transaction:
            self.run("ROLLBACK", None, ExecutionOptions())

    def close(self) -> None:
        """Close the server-side session if this backend opened it,
        then the idle sockets."""
        if self.in_transaction:
            try:
                self.rollback()  # abandoned handle: discard, never publish
            except Exception:  # noqa: BLE001 — best-effort cleanup
                self.in_transaction = False
        if self._owned_session and self.session is not None:
            try:
                self._request("DELETE", f"/v1/session/{self.session}", None)
            except Exception:  # noqa: BLE001 — best-effort cleanup
                pass
            self.session = None
            self._owned_session = False
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for wire in idle:
            wire.close()

    def describe(self) -> str:
        where = f"{self.url}"
        if self.session is not None:
            where += f" session={self.session}"
        return f"remote server {where}"

    # -- session lifecycle ----------------------------------------------

    def open_session(
        self,
        name: str | None = None,
        options: ExecutionOptions | None = None,
    ) -> str:
        """Open a named server-side session and bind queries to it."""
        body: dict[str, Any] = {}
        if name is not None:
            body["name"] = name
        if options is not None:
            wire = options.to_wire()
            if wire:
                body["options"] = wire
        payload = self._call_retrying(
            "/v1/session", body, self._json_once
        )
        self.session = payload["session"]
        self._owned_session = True
        return self.session

    # -- server views ----------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        """The server's ``/healthz`` document."""
        return self._request("GET", "/healthz", None)

    # -- transport -------------------------------------------------------

    def _call_retrying(self, path: str, body: dict, once: Any) -> Any:
        def on_retry(_attempt: int, _error: BaseException) -> None:
            self.retries += 1

        return call_with_retry(
            lambda: once(path, body),
            policy=self.retry_policy,
            retryable=(TransientNetworkError,),
            rng=self._rng,
            sleep=self._sleep_honouring_retry_after,
            on_retry=on_retry,
        )

    #: Set just before each retry sleep; folded into the sleep so the
    #: client never hammers a server that told it when to come back.
    _pending_retry_after: float | None = None

    def _sleep_honouring_retry_after(self, seconds: float) -> None:
        import time

        hint = self._pending_retry_after
        self._pending_retry_after = None
        # The server's hint *replaces* the backoff schedule: a shedding
        # 429 predicts when the admission queue will actually have
        # room, and that estimate beats the exponential schedule in
        # both directions (an early fixed backoff just gets shed again;
        # a late one wastes the freed slot).  Capped by the policy's
        # max_delay so a misbehaving server cannot stall the client,
        # and jittered like every other sleep so the herd of clients a
        # shedding episode rejects does not return in lockstep.
        if hint is not None:
            seconds = min(hint, self.retry_policy.max_delay)
            if self.retry_policy.jitter:
                seconds -= (
                    seconds * self.retry_policy.jitter * self._rng.random()
                )
        time.sleep(max(0.0, seconds))

    def _query_once(self, path: str, body: dict) -> ExecutedQuery:
        status, headers, raw = self._raw_request("POST", path, body)
        content_type = (headers.get("Content-Type") or "").split(";")[0]
        if content_type == CONTENT_NDJSON:
            return self._assemble_stream(raw)
        payload = self._parse_body(raw)
        return protocol.parse_query_response(payload)

    def _json_once(self, path: str, body: dict) -> dict[str, Any]:
        status, headers, raw = self._raw_request("POST", path, body)
        payload = self._parse_body(raw)
        if "error" in payload:
            raise protocol.decode_error(payload)
        return payload

    def _assemble_stream(self, raw: bytes) -> ExecutedQuery:
        """NDJSON lines → one ExecutedQuery; a missing footer or an
        error line means the stream was cut and must not pass for a
        complete result."""
        header: dict[str, Any] | None = None
        rows: list[tuple] = []
        sealed = False
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            record = self._parse_body(line)
            if "error" in record:
                raise protocol.decode_error(record)
            if header is None:
                header = record
            elif record.get("end"):
                sealed = True
                if record.get("row_count") != len(rows):
                    raise ProtocolError(
                        "stream footer row_count disagrees with rows received"
                    )
            else:
                rows.extend(protocol.decode_rows(record.get("rows", [])))
        if header is None or not sealed:
            raise TransientNetworkError(
                "result stream truncated before its footer", status=0
            )
        return protocol.executed_query(header, rows)

    def _parse_body(self, raw: bytes) -> dict[str, Any]:
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ProtocolError(
                f"malformed response from server: {error}"
            ) from None
        if not isinstance(payload, dict):
            raise ProtocolError("response body must be a JSON object")
        return payload

    def _request(self, method: str, path: str, body: dict | None) -> dict:
        status, headers, raw = self._raw_request(method, path, body)
        payload = self._parse_body(raw)
        if "error" in payload:
            raise protocol.decode_error(payload)
        return payload

    def _raw_request(
        self, method: str, path: str, body: dict | None
    ) -> tuple[int, Any, bytes]:
        """One HTTP attempt → ``(status, headers, body bytes)``.

        Error responses with a decodable envelope raise the typed
        error (transient ones pick up ``Retry-After``); socket-level
        failures become :class:`TransientNetworkError` so the retry
        policy treats a dropped connection like a 503.

        The circuit breaker gates every attempt: an open circuit fails
        here without touching the network, transient failures feed its
        counter, and any response at all — even an error envelope —
        counts as proof of life that closes it.
        """
        headers = {}
        if self._deadline is not None:
            # Fast-fail locally, before every attempt: an expired
            # deadline must not even touch the network (the server
            # would reject it anyway).
            headers[DEADLINE_HEADER] = f"{self._deadline.check() * 1000.0:.3f}"
        try:
            self.breaker.acquire()
        except CircuitOpenError as error:
            # Sleep the retry loop exactly to the half-open window.
            self._pending_retry_after = error.retry_after
            raise
        data = protocol.dumps(body) if body is not None else None
        if data is not None:
            headers["Content-Type"] = CONTENT_JSON
        if self._priority != PRIORITY_INTERACTIVE:
            headers[PRIORITY_HEADER] = self._priority
        try:
            status, reply_headers, raw = self._exchange(
                method, self._prefix + path, data, headers
            )
        except (OSError, ProtocolError) as error:
            self.breaker.record_failure()
            raise TransientNetworkError(
                f"{method} {path} failed: {error!r}", status=0
            ) from None
        if 200 <= status < 300:
            self.breaker.record_success()
            return status, reply_headers, raw
        try:
            payload = self._parse_body(raw)
            typed = protocol.decode_error(payload)
        except ProtocolError:
            typed = self._statusline_error(status, raw)
        if isinstance(typed, TransientNetworkError):
            self._pending_retry_after = typed.retry_after
            self.breaker.record_failure()
        else:
            # A typed terminal envelope is a *working* server
            # rejecting this particular request — proof of life.
            self.breaker.record_success()
        raise typed from None

    def _exchange(
        self, method: str, path: str, data: bytes | None, headers: dict
    ) -> tuple[int, Headers, bytes]:
        """One request and its whole reply on a kept-alive socket.

        The head and body go out in one write.  The request is sent
        once: any failure, on a reused socket or a fresh one, propagates
        to the counted retry path, because the server may have read and
        run it.  The socket goes back to the idle list when the reply
        was framed (by length or chunks) and does not say it will close.
        """
        fields = [("Host", self._host_field), *headers.items()]
        if data is not None:
            fields.append(("Content-Length", str(len(data))))
        request = http11.encode_head(
            http11.Request(method, path, "HTTP/1.1", Headers(fields))
        )
        wire = self._wire()
        try:
            wire.sock.sendall(request + data if data is not None else request)
            reply, raw, framed = http11.read_response(wire.reader)
        except BaseException:
            wire.close()
            raise
        if framed and http11.keeps_alive(reply):
            with self._idle_lock:
                self._idle.append(wire)
        else:
            wire.close()
        return reply.status, reply.headers, raw

    def _wire(self) -> _Wire:
        """A live idle socket, else a fresh one.

        A server closes an idle socket when its keep-alive timeout
        passes or it restarts.  An idle HTTP/1.1 socket has nothing to
        read, so one that polls readable has seen that EOF or reset (or
        holds stray bytes) and is dropped before anything is sent on it.
        """
        while True:
            with self._idle_lock:
                wire = self._idle.pop() if self._idle else None
            if wire is None:
                return self._open()
            if not select.select([wire.sock], [], [], 0)[0]:
                return wire
            wire.close()

    def _open(self) -> _Wire:
        """Dial the server: TCP, then TLS for ``https://``."""
        sock = socket.create_connection(
            (self._host, self._port), timeout=self.timeout
        )
        try:
            # A request is one write, but one longer than a segment
            # would otherwise hold its last segment back until the
            # server's delayed ACK of the ones before.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._host)
            return _Wire(sock)
        except BaseException:
            sock.close()
            raise

    @staticmethod
    def _statusline_error(code: int, raw: bytes) -> Exception:
        if code in RETRYABLE_STATUSES:
            return TransientNetworkError(
                f"HTTP {code}", status=code, retry_after=None
            )
        return RemoteQueryError("HTTPError", raw.decode("utf-8", "replace"), code)


def connect(
    url: str,
    *,
    options: ExecutionOptions | None = None,
    session: str | None = None,
    fresh_session: bool = False,
    retry_policy: RetryPolicy | None = None,
    stream: bool = False,
    timeout: float = 30.0,
    rng: random.Random | None = None,
    breaker: CircuitBreaker | None = None,
) -> Connection:
    """Dial a :class:`~repro.net.server.QueryServer`; returns the same
    :class:`~repro.api.Connection` facade a local database gives.

    Args:
        url: server base URL.
        options: default :class:`~repro.options.ExecutionOptions` for
            every cursor on this connection (sent with each request).
        session: bind queries to an existing named server session.
        fresh_session: open (and own) a new server-side session — it is
            closed again when the connection closes.
        retry_policy / timeout / rng / breaker: transport knobs, see
            :class:`HttpBackend`.
        stream: ask for NDJSON streaming responses.
    """
    backend = HttpBackend(
        url,
        session=session,
        retry_policy=retry_policy,
        stream=stream,
        timeout=timeout,
        rng=rng,
        breaker=breaker,
    )
    if fresh_session:
        backend.open_session(session, options)
    return Connection(backend, default_options=options)
