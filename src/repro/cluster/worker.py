"""Shard worker processes: a full :class:`QueryServer` per shard.

Workers are spawned (never forked — the coordinator is threaded, and a
fork could inherit a held lock) so everything that crosses into the
child must pickle.  A :class:`Database` does not (it holds thread
locks), so the child receives a :class:`WorkerSource` — a recipe for
rebuilding the replica — plus a :class:`WorkerConfig` of plain values,
and reports its dynamically-bound port back through a spawn-context
queue.

Each worker is shard-scoped by construction: it owns its own
:class:`~repro.service.QueryService`, and therefore its own admission
controller (per-shard priority shedding), caches, and metrics registry.
The front end aggregates those over HTTP; nothing is shared between
processes.
"""

from __future__ import annotations

import importlib
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["WorkerConfig", "WorkerSource", "worker_main"]


@dataclass(frozen=True)
class WorkerSource:
    """A picklable recipe for rebuilding the worker's database replica.

    ``kind`` is ``"script"`` (``payload`` is a CREATE TABLE / INSERT
    script executed via :meth:`Database.from_script`) or ``"factory"``
    (``payload`` is a ``"module:callable"`` path; the callable takes no
    arguments and returns a :class:`Database`).  A script pins the
    replica bytes exactly; a factory is cheaper for generated workloads
    whose builders are already deterministic.
    """

    kind: str
    payload: str

    def __post_init__(self) -> None:
        if self.kind not in ("script", "factory"):
            raise ValueError("source kind must be 'script' or 'factory'")
        if self.kind == "factory" and ":" not in self.payload:
            raise ValueError("factory source must be 'module:callable'")

    @classmethod
    def from_script(cls, script: str) -> "WorkerSource":
        return cls("script", script)

    @classmethod
    def from_factory(cls, path: str) -> "WorkerSource":
        return cls("factory", path)

    def build(self):
        """Rebuild the replica (called inside the worker process)."""
        from ..engine.database import Database

        if self.kind == "script":
            return Database.from_script(self.payload)
        module_name, _, attr = self.payload.partition(":")
        factory = getattr(importlib.import_module(module_name), attr)
        return factory()


@dataclass(frozen=True)
class WorkerConfig:
    """Plain-value knobs shipped to each worker process.

    ``faults`` is a tuple of :class:`~repro.resilience.faults.FaultSpec`
    keyword dicts (picklable fields only: ``site``, ``kind``,
    ``after``, ``times``, ``probability``, ``status``, ``delay``) armed
    at worker startup, with ``fault_seed`` re-seeding the injector RNG
    first — this is how tests and benchmark E19 place deterministic
    stalls and read faults *inside* shard processes.
    """

    host: str = "127.0.0.1"
    threads: int = 2
    queue_depth: int = 64
    stream_chunk_rows: int = 1000
    options_wire: Mapping[str, Any] | None = None
    faults: tuple[Mapping[str, Any], ...] = field(default_factory=tuple)
    fault_seed: int | None = None

    def default_options(self):
        from ..options import ExecutionOptions

        if not self.options_wire:
            return None
        return ExecutionOptions.from_wire(dict(self.options_wire))


def _arm_faults(config: WorkerConfig) -> None:
    from ..resilience.faults import FAULTS, FaultSpec

    if config.fault_seed is not None:
        FAULTS.seed(config.fault_seed)
    for spec in config.faults:
        FAULTS.arm(FaultSpec(**dict(spec)))


def worker_main(
    shard_id: int,
    source: WorkerSource,
    config: WorkerConfig,
    ready_queue: Any,
) -> None:
    """Spawn entry point: build the replica, serve, wait for SIGTERM.

    Reports ``("ready", shard_id, pid, port)`` on *ready_queue* once
    the HTTP listener is bound, or ``("error", shard_id, pid, detail)``
    if startup fails — *detail* is the :class:`~repro.errors.ReproError`
    itself (a bad script's ``ParseError``), anything else its repr.  On
    SIGTERM/SIGINT the worker drains gracefully (in-flight queries
    finish, queued ones fail fast with a retryable 503) and exits 0.
    """

    stop = threading.Event()

    def _request_stop(_signum: int, _frame: Any) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)

    try:
        _arm_faults(config)
        from ..net.server import QueryServer

        database = source.build()
        server = QueryServer(
            database,
            host=config.host,
            port=0,
            workers=config.threads,
            queue_depth=config.queue_depth,
            options=config.default_options(),
            stream_chunk_rows=config.stream_chunk_rows,
        )
    except Exception as error:  # startup failure: report, don't hang
        from ..errors import ReproError

        detail = error if isinstance(error, ReproError) else repr(error)
        ready_queue.put(("error", shard_id, os.getpid(), detail))
        raise SystemExit(1)

    server.metrics.set("cluster_shard_id", float(shard_id))
    ready_queue.put(("ready", shard_id, os.getpid(), server.port))
    try:
        while not stop.wait(0.1):
            pass
    finally:
        server.drain()
