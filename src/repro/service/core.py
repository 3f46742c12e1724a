"""The embeddable concurrent query service.

:class:`QueryService` owns a pool of worker threads draining a bounded
admission queue.  Callers interact through
:class:`~repro.service.Session` handles and :class:`QueryTicket`
futures; every query executes through
:func:`~repro.resilience.guarded.run_guarded`, so the service inherits
the whole resilience stack — budgets, safe-mode verification, typed
errors — without new execution code.

Concurrency design (the full locking order lives in DESIGN.md §3e):

* The **admission queue** is a bounded :class:`queue.Queue`; its
  internal lock is independent of every other lock in the process.
  ``submit(..., wait=True)`` blocks when the queue is full — that *is*
  the backpressure — while ``wait=False`` turns a full queue into a
  :class:`~repro.errors.ServiceOverloadedError` for callers that would
  rather shed load than stall.
* **Workers never hold a lock while executing a query.**  All shared
  structures a query touches (plan cache, memo caches, fault injector,
  metrics, tracer, per-table index builds) are individually
  thread-safe leaf locks, so no lock ordering between them can arise.
* **One query runs on one worker thread.**  Workers never hand work
  to each other, so a worker can never wait on its own pool.  Under
  the GIL the worker threads overlap queue and network waits, not
  compute; more cores come from the cluster's worker *processes*
  (:mod:`repro.cluster`).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable

from ..api import apply_transaction_control, run_with_options
from ..sql.ast import (
    BeginTransaction,
    CommitTransaction,
    RollbackTransaction,
)
from ..sql.parser import parse
from ..engine.database import Database
from ..engine.plan_cache import GLOBAL_PLAN_CACHE, PlanCache
from ..engine.planner import PlannerOptions
from ..engine.stats import Stats
from ..errors import (
    QueryCancelled,
    ServiceOverloadedError,
    ServiceShutdownError,
    TicketWaitTimeout,
)
from ..observe.metrics import MetricsRegistry
from ..observe.trace import NULL_SPAN, TRACER
from ..options import ExecutionOptions
from ..resilience.admission import AdmissionController, SheddingPolicy
from ..resilience.budgets import ExecutionGuard, ResourceBudget
from ..resilience.guarded import GuardedOutcome
from ..resilience.health import HealthPolicy, HealthTracker
from .session import Session


class QueryTicket:
    """A future for one submitted query.

    Workers complete the ticket exactly once; :meth:`result` blocks
    until then and either returns the
    :class:`~repro.resilience.guarded.GuardedOutcome` or re-raises the
    error the execution died with (budget violations, SQL errors, and
    shutdown all surface as their original typed exceptions).
    """

    __slots__ = (
        "sql",
        "session_name",
        "request_id",
        "_event",
        "_outcome",
        "_error",
        "_lock",
        "_guard",
        "_cancelled",
        "_cancel_reason",
        "_on_done",
    )

    def __init__(
        self, sql: str, session_name: str, request_id: str | None = None
    ) -> None:
        self.sql = sql
        self.session_name = session_name
        self.request_id = request_id
        self._event = threading.Event()
        self._outcome: GuardedOutcome | None = None
        self._error: BaseException | None = None
        # leaf: guard attach vs cancel, and callback vs completion
        self._lock = threading.Lock()
        self._guard: ExecutionGuard | None = None
        self._cancelled = False
        self._cancel_reason = ""
        self._on_done: Callable[[], None] | None = None

    def done(self) -> bool:
        """Whether the query has finished (successfully or not)."""
        return self._event.is_set()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called (the query may still
        run to completion if it was already past its last checkpoint)."""
        return self._cancelled

    def cancel(self, reason: str = "") -> None:
        """Abandon the query: stop it consuming worker time.

        Safe from any thread at any point in the ticket's life.  A
        still-queued query is dropped by the worker without executing;
        a running query is cooperatively cancelled through its
        :class:`~repro.resilience.budgets.ExecutionGuard` and fails with
        :class:`~repro.errors.QueryCancelled` at its next tick; a
        finished query is unaffected.  This is how the HTTP front end
        stops an abandoned wait (client gave up, deadline expired) from
        burning a worker on an answer nobody will read.
        """
        with self._lock:
            self._cancelled = True
            self._cancel_reason = reason
            guard = self._guard
        if guard is not None:
            guard.cancel(reason)

    def _attach_guard(self, guard: ExecutionGuard) -> None:
        """Worker-side: connect the live execution's guard, honouring a
        cancellation that raced ahead of the attach."""
        with self._lock:
            self._guard = guard
            cancelled, reason = self._cancelled, self._cancel_reason
        if cancelled:
            guard.cancel(reason)

    def result(self, timeout: float | None = None) -> GuardedOutcome:
        """Block for the outcome; re-raise the query's error if it failed.

        An expired wait raises :class:`~repro.errors.TicketWaitTimeout`
        — the *wait* timed out, not necessarily the query, which may
        still be queued or running.  (The class also subclasses
        :class:`TimeoutError` for pre-existing handlers.)
        """
        if not self._event.wait(timeout):
            raise TicketWaitTimeout(timeout, self.sql)
        if self._error is not None:
            raise self._error
        assert self._outcome is not None
        return self._outcome

    def on_done(self, callback: Callable[[], None]) -> None:
        """Call *callback* once the ticket completes: on the completing
        worker thread, or here at once if it already has.  One callback
        per ticket; this is how the HTTP server waits without a thread."""
        with self._lock:
            if not self._event.is_set():
                self._on_done = callback
                return
        callback()

    # -- completion (worker side) ---------------------------------------

    def _complete(self, outcome: GuardedOutcome) -> None:
        self._outcome = outcome
        self._settle()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._settle()

    def _settle(self) -> None:
        with self._lock:
            self._event.set()
            callback = self._on_done
        if callback is not None:
            callback()


#: Queue items are (session, ticket, sql, params, options, enqueued_at);
#: None is the shutdown sentinel (one per worker, enqueued after all
#: pending work).
_WorkItem = tuple


class QueryService:
    """An embeddable, thread-pooled SQL query service.

    Usage::

        with QueryService(workers=4) as service:
            session = service.session(database)
            tickets = session.submit_many(["SELECT ...", "SELECT ..."])
            results = [t.result() for t in tickets]

    Args:
        workers: query worker threads draining the admission queue.
        queue_depth: bound on queries admitted but not yet running;
            a full queue blocks ``submit`` (or raises with
            ``wait=False``) — the backpressure contract.
        plan_cache: plan cache shared by every session (the process
            global by default).  Safe across sessions: keys include the
            database fingerprint.
        metrics: registry the service folds per-query outcomes into
            (a private registry by default; pass
            :data:`~repro.observe.metrics.PROCESS_METRICS` to publish).
        shedding: adaptive admission tuning (a
            :class:`~repro.resilience.admission.SheddingPolicy`); batch
            queries are shed once predicted queue wait approaches
            typical deadlines, long before the hard queue bound.
        health_policy: error-budget tuning for the service's private
            :class:`~repro.resilience.health.HealthTracker` — the
            degradation ladder that converts repeated subsystem
            fallbacks into sticky demotions with timed probation.
    """

    def __init__(
        self,
        workers: int = 2,
        queue_depth: int = 64,
        *,
        plan_cache: PlanCache | None = None,
        metrics: MetricsRegistry | None = None,
        shedding: SheddingPolicy | None = None,
        health_policy: HealthPolicy | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        self.workers = workers
        self.queue_depth = queue_depth
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._plan_cache = (
            plan_cache if plan_cache is not None else GLOBAL_PLAN_CACHE
        )
        # Service-scoped on purpose: a chaos test demoting subsystems on
        # one service must never poison another service (or the tests
        # that run after it), so neither tracker is a process global.
        self.admission = AdmissionController(shedding)
        self.health = HealthTracker(health_policy, metrics=self.metrics)
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._shutdown = threading.Event()
        self._state_lock = threading.Lock()  # leaf: session naming, shutdown
        self._session_count = 0
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-query-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- sessions -------------------------------------------------------

    def session(
        self,
        database: Database,
        *,
        name: str | None = None,
        budget: ResourceBudget | None = None,
        planner_options: PlannerOptions | None = None,
        safe_mode: bool = False,
        options: ExecutionOptions | None = None,
    ) -> Session:
        """Open a session binding *database* and its execution settings.

        *options* sets the session's default
        :class:`~repro.options.ExecutionOptions` directly; the legacy
        ``budget``/``safe_mode`` arguments remain as shorthand and are
        folded into an options value when *options* is not given.
        """
        if self._shutdown.is_set():
            raise ServiceShutdownError()
        with self._state_lock:
            self._session_count += 1
            if name is None:
                name = f"session-{self._session_count}"
        return Session(
            self,
            database,
            name,
            budget=budget,
            planner_options=planner_options,
            safe_mode=safe_mode,
            options=options,
        )

    # -- submission -----------------------------------------------------

    def submit(
        self,
        session: Session,
        sql: str,
        params: dict | None = None,
        *,
        wait: bool = True,
        options: ExecutionOptions | None = None,
        request_id: str | None = None,
    ) -> QueryTicket:
        """Enqueue one query; returns a :class:`QueryTicket` immediately.

        With ``wait=True`` (default) a full admission queue blocks the
        caller until a slot frees — backpressure.  With ``wait=False`` a
        full queue raises :class:`~repro.errors.ServiceOverloadedError`
        instead, so load-shedding callers get a typed signal.

        *options* layers per-query
        :class:`~repro.options.ExecutionOptions` over the session's
        defaults (non-default fields win).  *request_id* tags the
        ticket and the worker's trace span — the HTTP front end passes
        the caller's ``X-Request-Id`` through here.

        Admission order (each gate rejects before any work is queued):
        shutdown → expired deadline
        (:class:`~repro.errors.DeadlineExpiredError` — the budget is
        already gone, so executing would waste a worker on a dead
        answer) → adaptive shedding
        (:class:`~repro.errors.LoadShedError` for batch traffic when
        predicted queue wait approaches typical deadlines) → the hard
        queue bound.
        """
        if self._shutdown.is_set():
            raise ServiceShutdownError()
        effective = session.options.merged(options)
        if effective.deadline is not None:
            remaining = effective.deadline.remaining()
            if remaining <= 0:
                self.metrics.inc(
                    "service_deadline_rejected_total", session=session.name
                )
                effective.deadline.check()  # raises DeadlineExpiredError
            self.admission.observe_deadline(remaining)
        try:
            self.admission.admit(
                effective.priority, self._queue.qsize(), self.queue_depth
            )
        except ServiceOverloadedError:
            self.metrics.inc(
                "service_shed_total", priority=effective.priority
            )
            raise
        ticket = QueryTicket(sql, session.name, request_id)
        item = (session, ticket, sql, params, effective, time.monotonic())
        if wait:
            self._queue.put(item)
        else:
            try:
                self._queue.put_nowait(item)
            except queue.Full:
                self.metrics.inc("service_rejected_total")
                raise ServiceOverloadedError(self.queue_depth) from None
        self.metrics.inc("service_submitted_total", session=session.name)
        return ticket

    def submit_many(
        self,
        session: Session,
        queries: list[str | tuple[str, dict | None]],
    ) -> list[QueryTicket]:
        """Enqueue a batch; returns one ticket per query, in order.

        Each entry is either SQL text or a ``(sql, params)`` pair.
        Submission applies backpressure per query (``wait=True``), so a
        batch larger than the queue depth simply trickles in as workers
        drain it.
        """
        tickets = []
        for entry in queries:
            if isinstance(entry, tuple):
                sql, params = entry
            else:
                sql, params = entry, None
            tickets.append(self.submit(session, sql, params))
        return tickets

    # -- lifecycle ------------------------------------------------------

    def shutdown(self, wait: bool = True, *, cancel_queued: bool = False) -> None:
        """Stop accepting work, drain pending queries, stop the workers.

        With ``cancel_queued=False`` (default) queries already admitted
        still execute before the workers exit.  With
        ``cancel_queued=True`` — the graceful-drain contract the HTTP
        server uses on SIGTERM — only queries already *running* finish;
        everything still queued fails immediately with
        :class:`~repro.errors.ServiceShutdownError` (HTTP 503, which is
        retryable) so a full queue cannot stretch the drain window.
        Either way no ticket is stranded: every admitted query ends
        completed, failed, or drained, and the
        ``service_drained_total`` counter accounts the drained ones.
        Idempotent.
        """
        with self._state_lock:
            if self._shutdown.is_set():
                return
            self._shutdown.set()
        if cancel_queued:
            self._fail_stranded()
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join()
            self._fail_stranded()

    def _fail_stranded(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is None:
                continue
            ticket = item[1]
            self.metrics.inc(
                "service_drained_total", session=ticket.session_name
            )
            ticket._fail(ServiceShutdownError())

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown(wait=True)
        return False

    # -- worker loop ----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            session, ticket, sql, params, effective, enqueued_at = item
            # The observed queue wait is the shedding controller's
            # ground truth — and the slice of the client's deadline the
            # queue already spent.
            waited = time.monotonic() - enqueued_at
            self.admission.observe_wait(waited)
            if ticket.cancelled:
                # The caller abandoned the wait while we were queued:
                # don't burn a worker on an answer nobody will read.
                self.metrics.inc(
                    "service_abandoned_total", session=session.name
                )
                ticket._fail(QueryCancelled(ticket._cancel_reason))
                continue
            if effective.deadline is not None:
                try:
                    # Queue wait spent the budget: reject with zero
                    # work, annotated with where the time went.
                    effective.deadline.check(waited=waited)
                except BaseException as error:
                    self.metrics.inc(
                        "service_deadline_expired_total", session=session.name
                    )
                    self.metrics.inc(
                        "service_failed_total",
                        session=session.name,
                        error=type(error).__name__,
                    )
                    session._record(Stats(), failed=True)
                    ticket._fail(error)
                    continue
            stats = Stats()
            # Request-id propagation: the span carries the id the HTTP
            # layer (or any submitter) attached, so one request can be
            # followed socket -> queue -> worker in the trace tree.
            span_cm = (
                TRACER.span(
                    "service.query",
                    stats=stats,
                    session=session.name,
                    **(
                        {"request_id": ticket.request_id}
                        if ticket.request_id
                        else {}
                    ),
                )
                if TRACER.enabled
                else NULL_SPAN
            )
            # Session-scoped transaction control: BEGIN/COMMIT/ROLLBACK
            # flip the session's transaction; everything else executes
            # inside it while it is open.  This is the request's one
            # parse: a malformed statement fails the ticket from here,
            # everything else travels down as the AST plus its text.
            try:
                with span_cm:
                    statement = parse(sql)
                    if isinstance(
                        statement,
                        (
                            BeginTransaction,
                            CommitTransaction,
                            RollbackTransaction,
                        ),
                    ):
                        outcome = apply_transaction_control(
                            statement, session, session.database, stats
                        )
                    else:
                        outcome = run_with_options(
                            statement,
                            session.database,
                            sql_text=sql,
                            params=params,
                            options=effective,
                            stats=stats,
                            planner_options=session.planner_options,
                            plan_cache=self._plan_cache,
                            health=self.health,
                            on_guard=ticket._attach_guard,
                            transaction=session.transaction,
                        )
            except BaseException as error:
                session._record(stats, failed=True)
                self.metrics.inc(
                    "service_failed_total",
                    session=session.name,
                    error=type(error).__name__,
                )
                ticket._fail(error)
            else:
                session._record(outcome.stats, failed=False)
                self.metrics.inc(
                    "service_completed_total", session=session.name
                )
                self.metrics.record_outcome(outcome)
                ticket._complete(outcome)
