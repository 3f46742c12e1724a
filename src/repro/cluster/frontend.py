"""The cluster front end: one listening socket over N shard workers.

The front end is the cluster's only client-facing surface.  It speaks
the exact :mod:`repro.net.protocol` HTTP/JSON contract a single
:class:`~repro.net.server.QueryServer` speaks — the stock
:class:`~repro.net.client.HttpBackend` connects to it unchanged — and
serves on the same :class:`~repro.net.serving.ServingLoop`, so client
connections share one asyncio thread, answer malformed framing with the
same 400, and pass the same ``net_*`` fault sites.

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

Worker hops are framed by the :mod:`repro.net.http11` codec and reuse
kept-alive connections: idle ones wait in a pool per shard, keyed on
the worker URL they reached, so a respawn — which moves the port —
strands no request on a dead incarnation's socket.  A worker's chunked
stream keeps its hop connection too: the front end de-chunks it and
relays it with a ``Content-Length``.
"""

from __future__ import annotations

import asyncio
import json
import math
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
from ..net.serving import Exchange, ServingLoop, route
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
        # The next query's shard is this modulo the shard count; the
        # event loop thread is the only one that touches it.
        self._turn = 0
        # name → options wire form, replayed onto respawned workers so
        # a session survives its shard's death.
        self._sessions: dict[str, Any] = {}
        self._sessions_lock = threading.Lock()
        # shard → idle (worker URL, reader, writer); the event loop
        # thread is the only one that touches it.
        self._idle: dict[
            int, list[tuple[str, asyncio.StreamReader, asyncio.StreamWriter]]
        ] = {}
        self._endpoints = {
            ("POST", "/v1/query"): ("query", self._handle_query),
            ("POST", "/v1/session"): ("session", self._handle_session_open),
            ("DELETE", "/v1/session/"): ("session", self._handle_session_close),
            ("GET", "/healthz"): ("healthz", self._handle_healthz),
            ("GET", "/metrics"): ("metrics", self._handle_metrics),
        }
        self._serving: ServingLoop | None = None
        self._draining = threading.Event()
        self._drained = threading.Event()
        coordinator.on_respawn = self._replay_sessions

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ClusterFrontend":
        if self._serving is not None:
            return self
        self.coordinator.start()
        self._serving = ServingLoop(
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
                self._serving.call(self._drain_connections())
                self._serving.stop()
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

    async def _drain_connections(self) -> None:
        await self._serving.drain()
        for pool in self._idle.values():
            for _url, _reader, writer in pool:
                writer.close()
        self._idle.clear()

    # -- requests -------------------------------------------------------

    async def _handle(self, exchange: Exchange) -> None:
        self.metrics.inc("cluster_requests_total")
        await exchange.run(route(self._endpoints, exchange.head)[1])

    async def _handle_query(self, exchange: Exchange) -> int:
        """Forward the body untouched to the next shard in rotation and
        pass its reply on; a shard that cannot be reached answers with
        the retryable 503."""
        if self._draining.is_set():
            raise ServiceShutdownError()
        shard = self._turn % self.coordinator.shards
        self._turn += 1
        self.metrics.inc("cluster_shard_requests_total", shard=shard)
        body = exchange.body()
        try:
            reply = await self._forward_to_shard(
                shard, "POST", "/v1/query", exchange.head.headers, body
            )
        except (OSError, asyncio.IncompleteReadError) as error:
            return await _unreachable(exchange, shard, error)
        return await _pass_on(exchange, reply)

    # -- sessions -------------------------------------------------------

    async def _handle_session_open(self, exchange: Exchange) -> int:
        """Broadcast the open to every shard so whichever shard a query
        reaches knows the session; remember the spec to replay onto
        respawned workers."""
        if self._draining.is_set():
            raise ServiceShutdownError()
        replies = await self._broadcast(
            exchange, "POST", "/v1/session", exchange.body()
        )
        if replies is None:
            return exchange.status
        decoded = json.loads(replies[0][1])
        with self._sessions_lock:
            self._sessions[decoded["session"]] = {
                "name": decoded["session"],
                "options": decoded.get("options"),
            }
        return await _pass_on(exchange, replies[0])

    async def _handle_session_close(self, exchange: Exchange) -> int:
        path = exchange.head.target
        with self._sessions_lock:
            self._sessions.pop(path[len("/v1/session/") :], None)
        replies = await self._broadcast(exchange, "DELETE", path, b"")
        if replies is None:
            return exchange.status
        return await _pass_on(exchange, replies[0])

    async def _broadcast(
        self, exchange: Exchange, method: str, path: str, body: bytes
    ) -> list[_Reply] | None:
        """Send one request to every shard.  Returns their replies, or
        None once the first unreachable shard or non-200 reply has
        been passed on to the client."""
        replies = await asyncio.gather(
            *[
                self._forward_to_shard(
                    shard, method, path, exchange.head.headers, body
                )
                for shard in range(self.coordinator.shards)
            ],
            return_exceptions=True,
        )
        for shard, reply in enumerate(replies):
            if isinstance(reply, BaseException):
                await _unreachable(exchange, shard, reply)
                return None
            if reply[0].status != 200:
                await _pass_on(exchange, reply)
                return None
        return replies

    def _replay_sessions(self, handle: WorkerHandle) -> None:
        """Coordinator respawn callback (monitor thread, not the event
        loop): re-open every tracked session on the fresh worker through
        the loop's own worker hop, and wait for each, so the worker is
        fully usable before the rotation sends it traffic again."""
        self.metrics.inc("cluster_worker_respawns_total")
        with self._sessions_lock:
            specs = list(self._sessions.values())
        for spec in specs:
            body = dumps({key: value for key, value in spec.items() if value})
            try:
                self._serving.call(
                    self._forward_to_shard(
                        handle.shard_id, "POST", "/v1/session", Headers(), body
                    ),
                    timeout=10.0,
                )
            except Exception:
                pass  # the session's first query will surface the gap

    # -- health & metrics -----------------------------------------------

    async def _handle_healthz(self, exchange: Exchange) -> int:
        shards = self.coordinator.snapshot()
        probes = await asyncio.gather(
            *[self._probe_health(entry["shard"]) for entry in shards]
        )
        for entry, probe in zip(shards, probes):
            entry["health"] = probe
            entry["reachable"] = probe is not None
            self.metrics.set(
                "cluster_shard_up",
                1.0 if entry["reachable"] and entry["alive"] else 0.0,
                shard=entry["shard"],
            )
        all_up = all(e["alive"] and e["reachable"] for e in shards)
        return await exchange.json(
            200,
            {
                "status": "ok" if all_up else "degraded",
                "shards": shards,
                "shard_count": self.coordinator.shards,
                "respawns": self.coordinator.respawn_count(),
            },
        )

    async def _probe_health(self, shard: int) -> dict | None:
        try:
            reply, body = await self._forward_to_shard(
                shard, "GET", "/healthz", Headers(), b""
            )
            return json.loads(body) if reply.status == 200 else None
        except Exception:  # noqa: BLE001 — any failure reads as unreachable
            return None

    async def _handle_metrics(self, exchange: Exchange) -> int:
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
        return await exchange.send(
            200, body, [("Content-Type", CONTENT_PROMETHEUS)]
        )

    # -- shard transport ------------------------------------------------

    async def _forward_to_shard(
        self,
        shard: int,
        method: str,
        path: str,
        client_headers: Headers,
        body: bytes,
    ) -> _Reply:
        """One HTTP exchange with one worker, on a kept-alive connection.

        Idle connections wait in a pool per shard, tagged with the
        worker URL they reached: a respawn moves the port, so one tagged
        with another URL reached a dead incarnation and is dropped, and
        so is one whose worker closed it while idle (its reader has seen
        EOF).  The request is sent once; a failure after that propagates,
        because the worker may have read and run it.  A chunked reply (a
        stream) is read whole and de-chunked.  A reply framed by neither
        a length nor chunks, or with ``Connection: close``, ends its
        connection."""
        try:
            url = self.coordinator.worker_url(shard)
        except KeyError:
            raise ConnectionError(f"unknown shard {shard}") from None
        host, _, port = url.partition("://")[2].partition(":")
        request = http11.Request(
            method,
            path,
            "HTTP/1.1",
            Headers(
                [
                    ("Host", f"{host}:{port}"),
                    *_hop_headers(client_headers),
                    ("Content-Type", CONTENT_JSON),
                    ("Content-Length", str(len(body))),
                ]
            ),
        )
        pool = self._idle.setdefault(shard, [])
        while pool:
            pooled_url, reader, writer = pool.pop()
            if pooled_url == url and not (
                reader.at_eof() or reader.exception() or writer.is_closing()
            ):
                break
            writer.close()
        else:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, int(port)),
                timeout=_CONNECT_TIMEOUT,
            )
        try:
            writer.write(http11.encode_head(request) + body)
            await writer.drain()
            reply = http11.parse_head(await reader.readuntil(http11.HEAD_END))
            length = http11.body_length(reply)
            if length is None:
                reply_body = await reader.read()
            elif length == http11.CHUNKED:
                reply_body = await _read_chunked(reader)
            else:
                reply_body = await reader.readexactly(length)
        except BaseException:
            writer.close()
            raise
        if length is not None and http11.keeps_alive(reply):
            pool.append((url, reader, writer))
        else:
            writer.close()
        return reply, reply_body


async def _read_chunked(reader: asyncio.StreamReader) -> bytes:
    """A chunked body, de-chunked; its trailer fields are skipped."""
    chunks = []
    while size := http11.chunk_size(await reader.readuntil(b"\r\n")):
        chunks.append(http11.chunk_data(await reader.readexactly(size + 2)))
    while await reader.readuntil(b"\r\n") != b"\r\n":
        pass
    return b"".join(chunks)


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


async def _pass_on(exchange: Exchange, reply: _Reply) -> int:
    """Answer with one worker reply: its status, body and the headers
    in :data:`_PASSED_ON`."""
    head, body = reply
    headers = [
        (name, value)
        for name in _PASSED_ON
        if (value := head.headers.get(name)) is not None
    ]
    return await exchange.send(head.status, body, headers)


async def _unreachable(
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
    return await exchange.json(503, payload, [("Retry-After", "0.5")])


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
