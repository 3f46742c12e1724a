"""The asyncio front end: one listening socket over N shard workers.

The front end is the cluster's only client-facing surface.  It speaks
the exact :mod:`repro.net.protocol` HTTP/JSON contract a single
:class:`~repro.net.server.QueryServer` speaks — the stock
:class:`~repro.net.client.HttpBackend` connects to it unchanged — and
multiplexes every client connection over one asyncio event loop, so a
thousand idle keep-alive connections cost one thread, not a thousand.

Every query makes exactly one worker hop, on one of two routes (each
SQL text's route is decided once and cached):

* **point** — the Theorem 1 fast path
  (:func:`~repro.cluster.routing.detect_point_route`): a candidate key
  fully bound by constants identifies ≤ 1 row, and the key's values
  hash onto the ring to pick the worker.  Counted in
  ``cluster_single_shard_routes_total``.
* **forward** — everything else goes whole to one replica shard chosen
  by ring-hashing the (session, SQL) pair, which spreads load while
  keeping a given query text's plan/analysis caches warm on one
  worker.  Counted in ``cluster_forward_routes_total``.

Every worker holds the whole database, so both routes answer exactly
what a single node would; the worker's reply — JSON or NDJSON stream —
is relayed verbatim.

Resilience inheritance: the client's ``X-Deadline-Ms`` is re-anchored
here and re-emitted on the shard hop with the budget *actually
remaining* at that time, and ``X-Priority`` rides through untouched, so
each worker's admission controller sheds with the same priority lattice
and deadline awareness it has standalone.  Shard connection failures map to
retryable 503 envelopes (the worker is respawning; a client retry lands
on the fresh process).

Worker hops reuse kept-alive connections: idle ones wait in a pool per
shard, keyed on the worker URL they reached, so a respawn — which moves
the port — strands no request on a dead incarnation's socket.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any

from ..observe.metrics import MetricsRegistry
from ..resilience.admission import PRIORITY_HEADER
from ..resilience.deadline import DEADLINE_HEADER, Deadline
from ..sql.parser import parse_query
from .coordinator import ClusterCoordinator, WorkerHandle
from .ring import canonical_key
from .routing import PointRoute, detect_point_route
from .worker import WorkerConfig, WorkerSource

__all__ = ["ClusterFrontend", "serve_cluster"]

#: Upper bound on compiled route templates kept per front end; SQL
#: texts are typically few (applications template their queries).
_ROUTE_CACHE_SIZE = 512

#: Per-shard-hop connect timeout (seconds).  Workers are local
#: processes; anything slower than this is a dead or wedged worker.
_CONNECT_TIMEOUT = 5.0


class _ShardReply:
    """One worker's HTTP response, undecoded."""

    __slots__ = ("status", "headers", "body")

    def __init__(self, status: int, headers: dict[str, str], body: bytes) -> None:
        self.status = status
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        return json.loads(self.body.decode("utf-8"))


class ClusterFrontend:
    """Asyncio HTTP front end over a :class:`ClusterCoordinator`.

    The event loop runs on a dedicated thread; :meth:`start` returns
    once the listening port is bound, :meth:`drain` stops accepting,
    closes the loop and (when the front end owns it) drains the
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
        # SQL text → its point route, or None for the forward route.
        self._routes: dict[str, PointRoute | None] = {}
        self._routes_lock = threading.Lock()
        # name → options wire form, replayed onto respawned workers so
        # a session survives its shard's death.
        self._sessions: dict[str, Any] = {}
        self._sessions_lock = threading.Lock()
        # shard → idle (worker URL, reader, writer); the event loop
        # thread is the only one that touches it.
        self._idle: dict[
            int, list[tuple[str, asyncio.StreamReader, asyncio.StreamWriter]]
        ] = {}
        self._clients: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._stopping = False
        coordinator.on_respawn = self._replay_sessions

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ClusterFrontend":
        if self._thread is not None:
            return self
        self.coordinator.start()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-cluster-frontend", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise TimeoutError("cluster front end did not start in 30s")
        return self

    def drain(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._begin_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        if self.owns_coordinator:
            self.coordinator.drain()

    close = drain

    def __enter__(self) -> "ClusterFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.drain()
        return False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._accept, self.host, self.port)
            )
            self._server = server
            self.port = server.sockets[0].getsockname()[1]
            self._ready.set()
            loop.run_forever()
            # _begin_shutdown stopped the loop; finish closing.
            server.close()
            loop.run_until_complete(server.wait_closed())
        except BaseException as error:  # pragma: no cover - startup race
            self._startup_error = error
            self._ready.set()
        finally:
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                loop.close()

    def _begin_shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
        for pool in self._idle.values():
            for _url, _reader, writer in pool:
                writer.close()
        self._idle.clear()
        loop = self._loop
        if loop is not None:
            loop.stop()

    # -- connection handling --------------------------------------------

    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection in a task of the front end's own:
        handed a coroutine, 3.11's stream protocol logs every cancelled
        handler task as an error, and a kept-alive client leaves its
        handler idle — to be cancelled — whenever the front end drains."""
        task = self._loop.create_task(self._serve_client(reader, writer))
        self._clients.add(task)
        task.add_done_callback(self._clients.discard)

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                close = headers.get("connection", "").lower() == "close"
                try:
                    await self._dispatch(method, path, headers, body, writer)
                except _Respond as respond:
                    await self._send_json(
                        writer,
                        respond.status,
                        respond.payload,
                        respond.extra_headers,
                    )
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except Exception as error:
                    await self._send_json(
                        writer, 500, _internal_envelope(error)
                    )
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None
        except asyncio.LimitOverrunError:
            return None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _version = lines[0].split(" ", 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _dispatch(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.metrics.inc("cluster_requests_total")
        if method == "POST" and path == "/v1/query":
            await self._handle_query(headers, body, writer)
        elif method == "POST" and path == "/v1/session":
            await self._handle_session_open(headers, body)
        elif method == "DELETE" and path.startswith("/v1/session/"):
            await self._handle_session_close(path, headers, body)
        elif method == "GET" and path == "/healthz":
            await self._handle_healthz()
        elif method == "GET" and path == "/metrics":
            await self._send_metrics(writer)
        else:
            raise _Respond(
                404,
                {
                    "error": {
                        "type": "NotFound",
                        "message": f"no such endpoint: {path}",
                        "status": 404,
                        "retryable": False,
                    }
                },
            )

    # -- query routing --------------------------------------------------

    def _route_for(self, sql: str) -> PointRoute | None:
        with self._routes_lock:
            if sql in self._routes:
                return self._routes[sql]
        route = self._compile_route(sql)
        with self._routes_lock:
            self._routes[sql] = route
            while len(self._routes) > _ROUTE_CACHE_SIZE:
                self._routes.pop(next(iter(self._routes)))
        return route

    def _compile_route(self, sql: str) -> PointRoute | None:
        try:
            query = parse_query(sql)
        except Exception:
            # Forward: the worker produces the real, typed parse error.
            return None
        return detect_point_route(query, self.coordinator.catalog)

    async def _handle_query(
        self,
        headers: dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            payload = None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("sql"), str
        ):
            # Malformed request: any shard produces the same 400.
            await self._relay_from(0, headers, body, writer)
            return

        sql = payload["sql"]
        params = payload.get("params")
        session = payload.get("session")
        route = self._route_for(sql)

        if route is not None:
            key = route.routing_key(params if isinstance(params, dict) else None)
            if key is not None:
                shard = self.coordinator.ring.lookup(key)
                self.metrics.inc("cluster_single_shard_routes_total")
                self.metrics.inc("cluster_shard_requests_total", shard=shard)
                await self._relay_from(shard, headers, body, writer)
                return
            # A host variable the key needs is missing: fall through to
            # the forward path (the worker raises the typed error).

        shard = self.coordinator.ring.lookup(
            canonical_key((session or "default", sql))
        )
        self.metrics.inc("cluster_forward_routes_total")
        self.metrics.inc("cluster_shard_requests_total", shard=shard)
        await self._relay_from(shard, headers, body, writer)

    async def _relay_from(
        self,
        shard: int,
        headers: dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Send a query to one shard and relay its reply; a shard that
        cannot be reached answers with the retryable 503."""
        try:
            reply = await self._forward_to_shard(
                shard, "POST", "/v1/query", headers, body
            )
        except (OSError, asyncio.IncompleteReadError) as error:
            raise _Respond(*_unreachable_envelope(shard, error)) from None
        await self._relay(writer, reply, headers)

    # -- sessions -------------------------------------------------------

    async def _handle_session_open(
        self, headers: dict[str, str], body: bytes
    ) -> None:
        """Broadcast the open to every shard so any route can use the
        session; remember the spec to replay onto respawned workers."""
        replies = await asyncio.gather(
            *[
                self._forward_to_shard(s, "POST", "/v1/session", headers, body)
                for s in range(self.coordinator.shards)
            ],
            return_exceptions=True,
        )
        first_ok: _ShardReply | None = None
        for shard, reply in enumerate(replies):
            if isinstance(reply, BaseException):
                raise _Respond(*_unreachable_envelope(shard, reply))
            if reply.status != 200:
                raise _Respond(reply.status, reply.json())
            if first_ok is None:
                first_ok = reply
        decoded = first_ok.json()
        with self._sessions_lock:
            self._sessions[decoded["session"]] = {
                "name": decoded["session"],
                "options": decoded.get("options"),
            }
        raise _Respond(200, decoded)

    async def _handle_session_close(
        self, path: str, headers: dict[str, str], body: bytes
    ) -> None:
        name = path[len("/v1/session/") :]
        with self._sessions_lock:
            self._sessions.pop(name, None)
        replies = await asyncio.gather(
            *[
                self._forward_to_shard(s, "DELETE", path, headers, body)
                for s in range(self.coordinator.shards)
            ],
            return_exceptions=True,
        )
        for shard, reply in enumerate(replies):
            if isinstance(reply, BaseException):
                raise _Respond(*_unreachable_envelope(shard, reply))
            if reply.status != 200:
                raise _Respond(reply.status, reply.json())
        raise _Respond(200, replies[0].json())

    def _replay_sessions(self, handle: WorkerHandle) -> None:
        """Coordinator respawn callback (monitor thread, not the event
        loop): re-open every tracked session on the fresh worker with
        blocking I/O so the worker is fully usable before routing
        resumes sending it traffic."""
        self.metrics.inc("cluster_worker_respawns_total")
        with self._sessions_lock:
            specs = list(self._sessions.values())
        if not specs:
            return
        import urllib.request

        url = self.coordinator.worker_url(handle.shard_id)
        for spec in specs:
            payload = {"name": spec["name"]}
            if spec.get("options"):
                payload["options"] = spec["options"]
            request = urllib.request.Request(
                f"{url}/v1/session",
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=10.0):
                    pass
            except Exception:
                pass  # the session's first query will surface the gap

    # -- health & metrics -----------------------------------------------

    async def _handle_healthz(self) -> None:
        shards = self.coordinator.snapshot()
        probes = await asyncio.gather(
            *[
                self._probe_health(entry["shard"])
                for entry in shards
            ],
            return_exceptions=True,
        )
        for entry, probe in zip(shards, probes):
            if isinstance(probe, BaseException) or probe is None:
                entry["health"] = None
                entry["reachable"] = False
            else:
                entry["health"] = probe
                entry["reachable"] = True
            self.metrics.set(
                "cluster_shard_up",
                1.0 if entry["reachable"] and entry["alive"] else 0.0,
                shard=entry["shard"],
            )
        all_up = all(e["alive"] and e["reachable"] for e in shards)
        raise _Respond(
            200,
            {
                "status": "ok" if all_up else "degraded",
                "shards": shards,
                "shard_count": self.coordinator.shards,
                "respawns": self.coordinator.respawn_count(),
                "ring": {
                    "vnodes": self.coordinator.ring.vnodes,
                    "seed": self.coordinator.ring.seed,
                },
            },
        )

    async def _probe_health(self, shard: int) -> dict | None:
        try:
            reply = await self._forward_to_shard(
                shard, "GET", "/healthz", {}, b""
            )
        except Exception:
            return None
        if reply.status != 200:
            return None
        return reply.json()

    async def _send_metrics(self, writer: asyncio.StreamWriter) -> None:
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
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain; version=0.0.4\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- shard transport ------------------------------------------------

    def _hop_headers(self, client_headers: dict[str, str]) -> dict[str, str]:
        """Headers for one worker hop: deadline re-anchored to the
        budget remaining *now*, priority and request id passed through."""
        hop: dict[str, str] = {}
        raw_deadline = client_headers.get(DEADLINE_HEADER.lower())
        if raw_deadline is not None:
            try:
                deadline = Deadline.from_wire_ms(float(raw_deadline))
                hop[DEADLINE_HEADER] = f"{max(0.0, deadline.to_wire_ms()):.3f}"
            except ValueError:
                hop[DEADLINE_HEADER] = raw_deadline
        priority = client_headers.get(PRIORITY_HEADER.lower())
        if priority is not None:
            hop[PRIORITY_HEADER] = priority
        request_id = client_headers.get("x-request-id")
        if request_id is not None:
            hop["X-Request-Id"] = request_id
        return hop

    async def _forward_to_shard(
        self,
        shard: int,
        method: str,
        path: str,
        client_headers: dict[str, str],
        body: bytes,
    ) -> _ShardReply:
        """One HTTP exchange with one worker, on a kept-alive connection.

        Idle connections wait in a pool per shard, tagged with the
        worker URL they reached: a respawn moves the port, so one tagged
        with another URL reached a dead incarnation and is dropped, and
        so is one whose worker closed it while idle (its reader has seen
        EOF).  The request is sent once; a failure after that propagates,
        because the worker may have read and run it.  A reply without a
        Content-Length, or with ``Connection: close``, ends its
        connection."""
        try:
            url = self.coordinator.worker_url(shard)
        except KeyError:
            raise ConnectionError(f"unknown shard {shard}") from None
        _scheme, _, rest = url.partition("://")
        host, _, port = rest.partition(":")
        lines = [f"{method} {path} HTTP/1.1", f"Host: {host}:{port}"]
        for name, value in self._hop_headers(client_headers).items():
            lines.append(f"{name}: {value}")
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
        request = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
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
            writer.write(request)
            await writer.drain()
            raw_head = await reader.readuntil(b"\r\n\r\n")
            head_lines = raw_head.decode("latin-1").split("\r\n")
            status = int(head_lines[0].split(" ", 2)[1])
            reply_headers: dict[str, str] = {}
            for line in head_lines[1:]:
                if ":" in line:
                    name, _, value = line.partition(":")
                    reply_headers[name.strip().lower()] = value.strip()
            length = reply_headers.get("content-length")
            if length is not None:
                reply_body = await reader.readexactly(int(length))
            else:
                reply_body = await reader.read()
        except BaseException:
            writer.close()
            raise
        if length is None or reply_headers.get("connection", "").lower() == "close":
            writer.close()
        else:
            pool.append((url, reader, writer))
        return _ShardReply(status, reply_headers, reply_body)

    # -- response plumbing ----------------------------------------------

    async def _relay(
        self,
        writer: asyncio.StreamWriter,
        reply: _ShardReply,
        client_headers: dict[str, str],
    ) -> None:
        """Pass one worker response through verbatim (body and the
        headers that matter: content type, retry-after, request id)."""
        passthrough = {}
        for name in ("content-type", "retry-after", "x-request-id"):
            if name in reply.headers:
                passthrough[name] = reply.headers[name]
        head_lines = [f"HTTP/1.1 {reply.status} {_reason(reply.status)}"]
        for name, value in passthrough.items():
            head_lines.append(f"{name}: {value}")
        head_lines.append(f"Content-Length: {len(reply.body)}")
        head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + reply.body)
        await writer.drain()

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, separators=(",", ":"), default=str).encode(
            "utf-8"
        )
        lines = [
            f"HTTP/1.1 {status} {_reason(status)}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


class _Respond(Exception):
    """Control-flow: a handler's final (status, payload) response."""

    def __init__(
        self,
        status: int,
        payload: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(status)
        self.status = status
        self.payload = payload
        self.extra_headers = extra_headers


def _unreachable_envelope(
    shard: int, error: BaseException
) -> tuple[int, dict, dict[str, str]]:
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
    return 503, payload, {"Retry-After": "0.5"}


def _internal_envelope(error: BaseException) -> dict:
    return {
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "status": 500,
            "retryable": False,
        }
    }


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _reason(status: int) -> str:
    return _REASONS.get(status, "Unknown")


def serve_cluster(
    source: WorkerSource,
    shards: int,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    config: WorkerConfig | None = None,
    ring_seed: int = 0,
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
        source,
        shards,
        config=config,
        ring_seed=ring_seed,
        respawn=respawn,
    )
    frontend = ClusterFrontend(
        coordinator, host=host, port=port, owns_coordinator=True
    )
    return frontend.start()
