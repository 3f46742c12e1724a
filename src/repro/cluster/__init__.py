"""Multi-process cluster: shard workers, key-aware routing, forwarding.

The GIL caps a single worker-thread :class:`~repro.service.QueryService`
at roughly one core of Python work, so scaling past it means
shared-nothing *processes*.  This package provides that layer:

* :class:`~repro.cluster.ring.HashRing` — a deterministic consistent-hash
  ring (virtual nodes, stable across process restarts) mapping keys to
  shards.
* :class:`~repro.cluster.coordinator.ClusterCoordinator` — spawns N
  worker processes, each a full :class:`~repro.net.server.QueryServer`
  over a replica of the database, monitors them, and respawns any that
  die.
* :class:`~repro.cluster.frontend.ClusterFrontend` — an HTTP front end
  on the same :mod:`repro.net.serving` loop as a ``QueryServer``,
  speaking the existing :mod:`repro.net.protocol`, so the
  stock client and CLI work unchanged.  It routes uniqueness-bound
  point queries (Theorem 1: a query bound on a candidate key identifies
  at most one row) to the worker the key's values hash to on the ring,
  and forwards every other query whole to the replica that hashing
  (session, SQL) picks — always correct, because every worker holds a
  replica.  Each query makes exactly one worker hop.
* :func:`~repro.cluster.frontend.serve_cluster` — one context manager
  building the coordinator + front end pair.
"""

from .coordinator import ClusterCoordinator, WorkerHandle
from .frontend import ClusterFrontend, serve_cluster
from .ring import HashRing
from .worker import WorkerConfig, WorkerSource

__all__ = [
    "ClusterCoordinator",
    "ClusterFrontend",
    "HashRing",
    "WorkerConfig",
    "WorkerHandle",
    "WorkerSource",
    "serve_cluster",
]
