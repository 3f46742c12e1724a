"""Spawn, watch, respawn and drain the shard worker processes.

The coordinator owns cluster membership: it spawns N workers (spawn
context — see :mod:`repro.cluster.worker`), performs the ready
handshake that learns each worker's dynamically-bound port, and runs a
monitor thread that respawns any worker that dies, bumping that shard's
generation.  The front end addresses workers by *shard id*, which is
stable across respawns; only the port moves, so the front end reads
ports through :meth:`worker_url` per request.
A worker that fails to start reports its :class:`~repro.errors.ReproError`
through the handshake, and :meth:`start` raises it as it is.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ReproError
from .worker import WorkerConfig, WorkerSource, worker_main

__all__ = ["ClusterCoordinator", "WorkerHandle"]

#: Seconds to wait for a spawned worker's ready handshake.
READY_TIMEOUT = 60.0


@dataclass
class WorkerHandle:
    """One shard's live process: identity stable, incarnation mutable."""

    shard_id: int
    process: Any
    pid: int
    port: int
    generation: int

    def alive(self) -> bool:
        return self.process.is_alive()


class ClusterCoordinator:
    """Lifecycle manager for the shard worker fleet.

    Args:
        source: replica recipe shipped to every worker.
        shards: number of worker processes.
        config: per-worker knobs (threads, queue depth, seeded faults).
        respawn: automatically restart workers that die.
        monitor_interval: seconds between liveness sweeps.
        on_respawn: callback ``(handle)`` after a worker is respawned —
            the front end uses it to replay open sessions onto the
            fresh process.
    """

    def __init__(
        self,
        source: WorkerSource,
        shards: int,
        *,
        config: WorkerConfig | None = None,
        respawn: bool = True,
        monitor_interval: float = 0.2,
        on_respawn: Callable[[WorkerHandle], None] | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self.source = source
        self.shards = int(shards)
        self.config = config if config is not None else WorkerConfig()
        self.auto_respawn = respawn
        self.monitor_interval = monitor_interval
        self.on_respawn = on_respawn
        self._ctx = multiprocessing.get_context("spawn")
        self._queue = self._ctx.Queue()
        self._handles: dict[int, WorkerHandle] = {}
        self._respawns: dict[int, int] = {i: 0 for i in range(self.shards)}
        # Guards handles/respawns and serializes spawn handshakes (the
        # ready queue is shared, so only one spawn drains it at a time).
        self._lock = threading.RLock()
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ClusterCoordinator":
        """Spawn every worker, wait for all ready handshakes."""
        if self._started:
            return self
        with self._lock:
            try:
                for shard_id in range(self.shards):
                    self._spawn(shard_id, generation=0)
            except Exception:
                self._terminate_all()
                raise
        self._started = True
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def drain(self, timeout: float = 10.0) -> None:
        """Gracefully stop the fleet: SIGTERM, join, kill stragglers."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=timeout)
        self._terminate_all(timeout=timeout)

    close = drain

    def __enter__(self) -> "ClusterCoordinator":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.drain()
        return False

    def _terminate_all(self, timeout: float = 10.0) -> None:
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            if handle.alive():
                handle.process.terminate()  # SIGTERM → graceful drain
        deadline = time.monotonic() + timeout
        for handle in handles:
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if handle.alive():
                handle.process.kill()
                handle.process.join(timeout=5.0)

    # -- spawning -------------------------------------------------------

    def _spawn(self, shard_id: int, generation: int) -> WorkerHandle:
        """Spawn one worker and complete its ready handshake.

        Caller must hold the lock: the ready queue is shared across
        shards, so handshakes are serialized.
        """
        process = self._ctx.Process(
            target=worker_main,
            args=(shard_id, self.source, self.config, self._queue),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                process.kill()
                raise TimeoutError(
                    f"shard {shard_id} did not report ready in "
                    f"{READY_TIMEOUT:.0f}s"
                )
            try:
                message = self._queue.get(timeout=remaining)
            except Exception:
                continue
            status, reported_shard, pid, detail = message
            if reported_shard != shard_id:
                # A stale message from a worker killed mid-handshake;
                # nothing else spawns concurrently (lock held), so it
                # is safe to discard.
                continue
            if status == "error":
                process.join(timeout=5.0)
                if isinstance(detail, ReproError):
                    raise detail
                raise RuntimeError(
                    f"shard {shard_id} failed to start: {detail}"
                )
            handle = WorkerHandle(
                shard_id=shard_id,
                process=process,
                pid=pid,
                port=int(detail),
                generation=generation,
            )
            self._handles[shard_id] = handle
            return handle

    # -- monitoring -----------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.monitor_interval):
            if not self.auto_respawn:
                continue
            for shard_id in range(self.shards):
                if self._stopping.is_set():
                    return
                with self._lock:
                    handle = self._handles.get(shard_id)
                    if handle is None or handle.alive():
                        continue
                    try:
                        fresh = self._spawn(
                            shard_id, generation=handle.generation + 1
                        )
                        self._respawns[shard_id] += 1
                    except Exception:
                        continue  # retried on the next sweep
                if self.on_respawn is not None:
                    try:
                        self.on_respawn(fresh)
                    except Exception:
                        pass

    # -- membership operations ------------------------------------------

    def kill_shard(self, shard_id: int) -> int:
        """SIGKILL one worker mid-flight (chaos harness helper).

        Returns the killed pid.  With auto-respawn enabled the monitor
        brings a replacement up within a sweep or two.
        """
        with self._lock:
            handle = self._require(shard_id)
            pid = handle.pid
            handle.process.kill()
        return pid

    def _require(self, shard_id: int) -> WorkerHandle:
        handle = self._handles.get(shard_id)
        if handle is None:
            raise KeyError(f"unknown shard {shard_id}")
        return handle

    # -- addressing & introspection -------------------------------------

    def worker_url(self, shard_id: int) -> str:
        with self._lock:
            handle = self._require(shard_id)
            return f"http://{self.config.host}:{handle.port}"

    def handle(self, shard_id: int) -> WorkerHandle:
        with self._lock:
            return self._require(shard_id)

    def respawn_count(self, shard_id: int | None = None) -> int:
        with self._lock:
            if shard_id is not None:
                return self._respawns.get(shard_id, 0)
            return sum(self._respawns.values())

    def snapshot(self) -> list[dict[str, Any]]:
        """Per-shard liveness for ``/healthz`` aggregation."""
        with self._lock:
            return [
                {
                    "shard": shard_id,
                    "pid": handle.pid,
                    "port": handle.port,
                    "alive": handle.alive(),
                    "generation": handle.generation,
                    "respawns": self._respawns[shard_id],
                }
                for shard_id, handle in sorted(self._handles.items())
            ]
