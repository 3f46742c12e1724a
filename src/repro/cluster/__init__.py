"""Multi-process cluster: shard workers behind one forwarding front end.

The GIL caps a single worker-thread :class:`~repro.service.QueryService`
at roughly one core of Python work, so scaling past it means
shared-nothing *processes*.  This package provides that layer:

* :class:`~repro.cluster.coordinator.ClusterCoordinator` — spawns N
  worker processes, each a full :class:`~repro.net.server.QueryServer`
  over a replica of the database, monitors them, and respawns any that
  die.
* :class:`~repro.cluster.frontend.ClusterFrontend` — an HTTP front end
  on the same :mod:`repro.net.serving` loop as a ``QueryServer``,
  speaking the existing :mod:`repro.net.protocol`, so the
  stock client and CLI work unchanged.  It forwards every query whole
  to the next worker in rotation — always correct, because every
  worker holds a replica.  Each query makes exactly one worker hop.
* :func:`~repro.cluster.frontend.serve_cluster` — one context manager
  building the coordinator + front end pair.
"""

from .coordinator import ClusterCoordinator, WorkerHandle
from .frontend import ClusterFrontend, serve_cluster
from .worker import WorkerConfig, WorkerSource

__all__ = [
    "ClusterCoordinator",
    "ClusterFrontend",
    "WorkerConfig",
    "WorkerHandle",
    "WorkerSource",
    "serve_cluster",
]
