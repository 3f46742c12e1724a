"""Per-session state for the embedded query service.

A :class:`Session` binds one database handle to the
:class:`~repro.options.ExecutionOptions` its queries run under, plus
the accumulation sinks that must stay isolated between tenants: a
private :class:`~repro.engine.stats.Stats` total and a per-session
metrics label.  Two sessions of the same service can point at *different*
databases; the plan cache keys on the database fingerprint, so their
entries can never be confused, and their counters never mix because
each query executes with a fresh ``Stats`` folded into its session's
total by the worker that ran it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from ..engine.database import Database
from ..engine.stats import Stats
from ..options import DEFAULT_OPTIONS, ExecutionOptions

if TYPE_CHECKING:  # pragma: no cover
    from .core import QueryService, QueryTicket


class Session:
    """One tenant's handle on a :class:`~repro.service.QueryService`.

    Sessions are cheap: they hold no threads and no queue of their own,
    only the database handle, the per-query execution settings, and the
    session-scoped accumulators.  Create them via
    :meth:`QueryService.session`, then :meth:`submit` queries; results
    arrive through :class:`~repro.service.QueryTicket` handles.

    Attributes:
        name: the session's metrics label (unique per service).
        database: the database every query of this session runs against.
        options: the session's default
            :class:`~repro.options.ExecutionOptions`; per-query options
            passed to ``submit`` layer on top of these.
        stats: accumulated counters over every completed query.
        queries_completed / queries_failed: session-scoped outcomes.
    """

    def __init__(
        self,
        service: "QueryService",
        database: Database,
        name: str,
        options: ExecutionOptions | None = None,
    ) -> None:
        self._service = service
        self.database = database
        self.name = name
        self.options = options if options is not None else DEFAULT_OPTIONS
        self.stats = Stats()
        self.queries_completed = 0
        self.queries_failed = 0
        #: The session's open MVCC transaction, or None.  Set by the
        #: worker executing this session's ``BEGIN`` and cleared by its
        #: ``COMMIT``/``ROLLBACK``; while open, every statement of the
        #: session reads the pinned snapshot and buffers its writes.
        #: Transactional sessions must serialize their submissions
        #: (submit, wait, submit) — the protocol the HTTP client
        #: follows — since two workers racing on one session's
        #: transaction state would interleave unpredictably.
        self.transaction = None
        # Leaf lock: guards the accumulators only; never held while
        # executing a query or touching the service.
        self._lock = threading.Lock()

    # -- submission convenience ----------------------------------------

    def submit(
        self,
        sql: str,
        params: dict | None = None,
        *,
        wait: bool = True,
        options: ExecutionOptions | None = None,
        request_id: str | None = None,
    ) -> "QueryTicket":
        """Enqueue one query on the owning service.  See
        :meth:`QueryService.submit`."""
        return self._service.submit(
            self, sql, params, wait=wait, options=options, request_id=request_id
        )

    def submit_many(
        self, queries: list[str | tuple[str, dict | None]]
    ) -> list["QueryTicket"]:
        """Enqueue a batch on the owning service.  See
        :meth:`QueryService.submit_many`."""
        return self._service.submit_many(self, queries)

    # -- accounting (called by service workers) ------------------------

    def _record(self, stats: Stats | None, failed: bool) -> None:
        """Fold one finished query into the session's totals."""
        with self._lock:
            if failed:
                self.queries_failed += 1
            else:
                self.queries_completed += 1
            if stats is not None:
                self.stats = self.stats + stats

    def snapshot(self) -> dict:
        """A consistent view of the session's accumulated outcomes."""
        with self._lock:
            return {
                "name": self.name,
                "completed": self.queries_completed,
                "failed": self.queries_failed,
                "stats": self.stats.snapshot(),
            }
