"""The cluster front end: one listening socket over N shard workers.

The front end is the cluster's only client-facing surface.  It speaks
the exact :mod:`repro.net.protocol` HTTP/JSON contract a single
:class:`~repro.net.server.QueryServer` speaks — the stock
:class:`~repro.net.client.HttpBackend` connects to it unchanged — and
serves on the same :class:`~repro.net.serving.Listener`, so each client
connection has a thread of its own, malformed framing gets the same
400, and requests pass the same ``net_*`` fault sites.

Every query makes exactly one worker hop: its body goes untouched to
the next shard in rotation.  Every worker holds the whole database, so
any worker answers exactly what a single node would — a malformed body
included, which the worker refuses with its own 400.  The worker's
reply — JSON or NDJSON stream — is passed on with its status, body,
content type, ``Retry-After`` and request id.

Resilience inheritance: the client's ``X-Deadline-Ms`` is re-anchored
here and re-emitted on the shard hop with the budget *actually
remaining* at that time, and ``X-Priority`` rides through untouched, so
each worker's admission controller sheds with the same priority lattice
and deadline awareness it has standalone.  Shard connection failures map to
retryable 503 envelopes (the worker is respawning; a client retry lands
on the fresh process).

A worker hop is a blocking exchange on the connection thread, framed
by the :mod:`repro.net.http11` codec as the client's is, on a
kept-alive connection: idle ones wait in a pool per shard, keyed on
the worker URL they reached, so a respawn — which moves the port —
strands no request on a dead incarnation's socket.  A worker's chunked
stream keeps its hop connection too: the front end de-chunks it and
relays it with a ``Content-Length``.
"""

from __future__ import annotations

import itertools
import json
import math
import socket
import threading
from typing import Any

from ..errors import ServiceShutdownError
from ..net import http11
from ..net.http11 import Headers
from ..net.protocol import (
    CONTENT_JSON,
    CONTENT_PROMETHEUS,
    REQUEST_ID_HEADER,
    dumps,
)
from ..net.client import Wire, exchange
from ..net.serving import Exchange, Listener, route
from ..observe.metrics import MetricsRegistry
from ..resilience.admission import PRIORITY_HEADER
from ..resilience.deadline import DEADLINE_HEADER, Deadline
from .coordinator import ClusterCoordinator, WorkerHandle
from .worker import WorkerConfig, WorkerSource

__all__ = ["ClusterFrontend", "serve_cluster"]

#: Per-shard-hop connect timeout (seconds).  Workers are local
#: processes; anything slower than this is a dead or wedged worker.
_CONNECT_TIMEOUT = 5.0

#: Worker reply headers the client sees.
_PASSED_ON = ("Content-Type", "Retry-After", REQUEST_ID_HEADER)

#: A worker hop's reply: its head and its whole body.
_Reply = tuple[http11.Response, bytes]


class ClusterFrontend:
    """HTTP front end over a :class:`ClusterCoordinator`.

    :meth:`start` returns once the listening port is bound;
    :meth:`drain` refuses new queries, finishes the responses in flight,
    stops the loop and (when the front end owns it) drains the
    coordinator.  Usable as a context manager.

    Args:
        coordinator: the worker fleet (started here if not already).
        host: listening interface.
        port: listening port (0 picks a free one).
        owns_coordinator: drain the coordinator on :meth:`drain`.
    """

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        owns_coordinator: bool = False,
    ) -> None:
        self.coordinator = coordinator
        self.host = host
        self.port = port
        self.owns_coordinator = owns_coordinator
        self.metrics = MetricsRegistry()
        # The next query's shard is the next of these modulo the shard
        # count (``next`` on a count is atomic).
        self._turn = itertools.count()
        # name → options wire form, replayed onto respawned workers so
        # a session survives its shard's death.
        self._sessions: dict[str, Any] = {}
        self._sessions_lock = threading.Lock()
        # shard → (the worker URL they reached, idle connections)
        self._idle: dict[int, tuple[str, list[Wire]]] = {}
        self._idle_lock = threading.Lock()  # leaf
        self._endpoints = {
            ("POST", "/v1/query"): ("query", self._handle_query),
            ("POST", "/v1/session"): ("session", self._handle_session_open),
            ("DELETE", "/v1/session/"): ("session", self._handle_session_close),
            ("GET", "/healthz"): ("healthz", self._handle_healthz),
            ("GET", "/metrics"): ("metrics", self._handle_metrics),
        }
        self._serving: Listener | None = None
        self._draining = threading.Event()
        self._drained = threading.Event()
        coordinator.on_respawn = self._replay_sessions

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ClusterFrontend":
        if self._serving is not None:
            return self
        self.coordinator.start()
        self._serving = Listener(
            self._handle, self.host, self.port, "repro-cluster-frontend"
        )
        self.port = self._serving.port
        return self

    def drain(self) -> None:
        """Refuse new queries (retryable 503), finish the responses in
        flight, stop serving; then drain the fleet if this owns it.
        Idempotent."""
        if self._draining.is_set():
            self._drained.wait()
            return
        self._draining.set()
        try:
            if self._serving is not None:
                self._serving.drain()
            with self._idle_lock:
                pools, self._idle = self._idle, {}
            for _url, pool in pools.values():
                for wire in pool:
                    wire.close()
            if self.owns_coordinator:
                self.coordinator.drain()
        finally:
            self._drained.set()

    close = drain

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the front end has fully drained."""
        return self._drained.wait(timeout)

    def __enter__(self) -> "ClusterFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.drain()
        return False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- requests -------------------------------------------------------

    def _handle(self, exchange: Exchange) -> None:
        self.metrics.inc("cluster_requests_total")
        exchange.run(route(self._endpoints, exchange.head)[1])

    def _handle_query(self, exchange: Exchange) -> int:
        """Forward the body untouched to the next shard in rotation and
        pass its reply on; a shard that cannot be reached answers with
        the retryable 503."""
        if self._draining.is_set():
            raise ServiceShutdownError()
        shard = next(self._turn) % self.coordinator.shards
        self.metrics.inc("cluster_shard_requests_total", shard=shard)
        body = exchange.body()
        try:
            reply = self._forward_to_shard(
                shard, "POST", "/v1/query", exchange.head.headers, body
            )
        except OSError as error:
            return _unreachable(exchange, shard, error)
        return _pass_on(exchange, reply)

    # -- sessions -------------------------------------------------------

    def _handle_session_open(self, exchange: Exchange) -> int:
        """Broadcast the open to every shard so whichever shard a query
        reaches knows the session; remember the spec to replay onto
        respawned workers."""
        if self._draining.is_set():
            raise ServiceShutdownError()
        replies = self._broadcast(exchange, "POST", "/v1/session", exchange.body())
        if replies is None:
            return exchange.status
        decoded = json.loads(replies[0][1])
        with self._sessions_lock:
            self._sessions[decoded["session"]] = {
                "name": decoded["session"],
                "options": decoded.get("options"),
            }
        return _pass_on(exchange, replies[0])

    def _handle_session_close(self, exchange: Exchange) -> int:
        path = exchange.head.target
        with self._sessions_lock:
            self._sessions.pop(path[len("/v1/session/") :], None)
        replies = self._broadcast(exchange, "DELETE", path, b"")
        if replies is None:
            return exchange.status
        return _pass_on(exchange, replies[0])

    def _broadcast(
        self, exchange: Exchange, method: str, path: str, body: bytes
    ) -> list[_Reply] | None:
        """Send one request to every shard, one after another.  Returns
        their replies, or None once the first unreachable shard or
        non-200 reply has been passed on to the client."""
        replies = []
        for shard in range(self.coordinator.shards):
            try:
                reply = self._forward_to_shard(
                    shard, method, path, exchange.head.headers, body
                )
            except OSError as error:
                _unreachable(exchange, shard, error)
                return None
            if reply[0].status != 200:
                _pass_on(exchange, reply)
                return None
            replies.append(reply)
        return replies

    def _replay_sessions(self, handle: WorkerHandle) -> None:
        """Coordinator respawn callback (monitor thread): re-open every
        tracked session on the fresh worker, one hop each, so the worker
        is fully usable before the rotation sends it traffic again."""
        self.metrics.inc("cluster_worker_respawns_total")
        with self._sessions_lock:
            specs = list(self._sessions.values())
        for spec in specs:
            body = dumps({key: value for key, value in spec.items() if value})
            try:
                self._forward_to_shard(
                    handle.shard_id, "POST", "/v1/session", Headers(), body
                )
            except Exception:
                pass  # the session's first query will surface the gap

    # -- health & metrics -----------------------------------------------

    def _handle_healthz(self, exchange: Exchange) -> int:
        shards = self.coordinator.snapshot()
        for entry in shards:
            probe = self._probe_health(entry["shard"])
            entry["health"] = probe
            entry["reachable"] = probe is not None
            self.metrics.set(
                "cluster_shard_up",
                1.0 if entry["reachable"] and entry["alive"] else 0.0,
                shard=entry["shard"],
            )
        all_up = all(e["alive"] and e["reachable"] for e in shards)
        return exchange.json(
            200,
            {
                "status": "ok" if all_up else "degraded",
                "shards": shards,
                "shard_count": self.coordinator.shards,
                "respawns": self.coordinator.respawn_count(),
            },
        )

    def _probe_health(self, shard: int) -> dict | None:
        try:
            reply, body = self._forward_to_shard(
                shard, "GET", "/healthz", Headers(), b""
            )
            return json.loads(body) if reply.status == 200 else None
        except Exception:  # noqa: BLE001 — any failure reads as unreachable
            return None

    def _handle_metrics(self, exchange: Exchange) -> int:
        for entry in self.coordinator.snapshot():
            self.metrics.set(
                "cluster_shard_up",
                1.0 if entry["alive"] else 0.0,
                shard=entry["shard"],
            )
        self.metrics.set(
            "cluster_worker_respawns_total",
            float(self.coordinator.respawn_count()),
        )
        body = self.metrics.to_prometheus().encode("utf-8")
        return exchange.send(200, body, [("Content-Type", CONTENT_PROMETHEUS)])

    # -- shard transport ------------------------------------------------

    def _forward_to_shard(
        self,
        shard: int,
        method: str,
        path: str,
        client_headers: Headers,
        body: bytes,
    ) -> _Reply:
        """One HTTP exchange with one worker, on a kept-alive connection
        (:func:`~repro.net.client.exchange`).

        Idle connections wait in a pool per shard, tagged with the
        worker URL they reached: a respawn moves the port, so a pool
        tagged with another URL reached a dead incarnation and is
        closed.  A chunked reply (a stream) is read whole and
        de-chunked."""
        try:
            url = self.coordinator.worker_url(shard)
        except KeyError:
            raise ConnectionError(f"unknown shard {shard}") from None
        host, _, port = url.partition("://")[2].partition(":")
        fields = [
            ("Host", f"{host}:{port}"),
            *_hop_headers(client_headers),
            ("Content-Type", CONTENT_JSON),
            ("Content-Length", str(len(body))),
        ]
        request = http11.Request(method, path, "HTTP/1.1", Headers(fields))
        with self._idle_lock:
            pooled_url, pool = self._idle.get(shard, (url, []))
            if pooled_url != url:
                for wire in pool:
                    wire.close()
                pool = []
            self._idle[shard] = (url, pool)
        return exchange(
            pool,
            self._idle_lock,
            lambda: _dial(host, int(port)),
            http11.encode_head(request) + body,
        )


def _dial(host: str, port: int) -> Wire:
    """A fresh hop connection to a worker."""
    sock = socket.create_connection((host, port), timeout=_CONNECT_TIMEOUT)
    sock.settimeout(None)  # the worker's own budgets bound a statement
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return Wire(sock)


def _hop_headers(client_headers: Headers) -> list[tuple[str, str]]:
    """Headers for one worker hop: deadline re-anchored to the budget
    remaining *now*, priority and request id passed through."""
    hop = []
    raw_deadline = client_headers.get(DEADLINE_HEADER)
    if raw_deadline is not None:
        try:
            ms = float(raw_deadline)
        except ValueError:
            ms = math.nan
        # The worker answers a malformed or non-finite value with a 400.
        if math.isfinite(ms):
            deadline = Deadline.from_wire_ms(ms)
            raw_deadline = f"{max(0.0, deadline.to_wire_ms()):.3f}"
        hop.append((DEADLINE_HEADER, raw_deadline))
    for name in (PRIORITY_HEADER, REQUEST_ID_HEADER):
        value = client_headers.get(name)
        if value is not None:
            hop.append((name, value))
    return hop


def _pass_on(exchange: Exchange, reply: _Reply) -> int:
    """Answer with one worker reply: its status, body and the headers
    in :data:`_PASSED_ON`."""
    head, body = reply
    headers = [
        (name, value)
        for name in _PASSED_ON
        if (value := head.headers.get(name)) is not None
    ]
    return exchange.send(head.status, body, headers)


def _unreachable(
    exchange: Exchange, shard: int, error: BaseException
) -> int:
    """A dead/unreachable worker → a retryable 503 with Retry-After:
    the monitor respawns it, so a client retry lands on the fresh
    process.  Never a partial result."""
    payload = {
        "error": {
            "type": "TransientNetworkError",
            "message": (
                f"shard {shard} unreachable"
                f" ({type(error).__name__}: {error})"
            ),
            "status": 503,
            "retryable": True,
            "retry_after": 0.5,
        }
    }
    return exchange.json(503, payload, [("Retry-After", "0.5")])


def serve_cluster(
    source: WorkerSource,
    shards: int,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    config: WorkerConfig | None = None,
    respawn: bool = True,
) -> ClusterFrontend:
    """Build and start a whole cluster: N workers plus the front end.

    Returns the started :class:`ClusterFrontend` (which owns the
    coordinator — draining the front end drains the fleet).  Use as a
    context manager::

        with serve_cluster(WorkerSource.from_script(sql), shards=4) as fe:
            conn = repro.connect(fe.url)
    """
    coordinator = ClusterCoordinator(
        source, shards, config=config, respawn=respawn
    )
    frontend = ClusterFrontend(
        coordinator, host=host, port=port, owns_coordinator=True
    )
    return frontend.start()
