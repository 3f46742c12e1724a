"""The embeddable concurrent query service.

:class:`QueryService` owns a pool of worker threads draining an
admission queue, and ``workers`` execution slots that the pool and the
blocking :meth:`QueryService.execute` share.  Callers interact through
:class:`~repro.service.Session` handles and :class:`QueryTicket`
futures, or run a statement on their own thread with ``execute`` (the
HTTP servers do, on the thread that read the request); every query
executes through :func:`~repro.resilience.guarded.run_guarded`, so the
service inherits the whole resilience stack — budgets, safe-mode
verification, typed errors — without new execution code.

Concurrency design (the full locking order lives in DESIGN.md §3e):

* **Admission is bounded.**  At most ``queue_depth`` statements wait
  for a slot at once, queued for the pool or blocked in ``execute``.
  ``submit(..., wait=True)`` blocks while that room is full — that *is*
  the backpressure — while ``submit(wait=False)`` and ``execute`` turn
  a full room into a :class:`~repro.errors.ServiceOverloadedError` for
  callers that would rather shed load than stall.
* **At most ``workers`` statements run at once**, however they
  arrived: each holds one of the ``workers`` slots while it runs.  The
  slot count and the waiting count sit under one leaf lock, never held
  while a statement runs; the queue's own lock is independent of it.
* **Nothing holds a lock while executing a query.**  All shared
  structures a query touches (plan cache, memo caches, fault injector,
  metrics, tracer, per-table index builds) are individually
  thread-safe leaf locks, so no lock ordering between them can arise.
* **One query runs on one thread.**  Nothing hands work to another
  thread mid-statement, so no thread can wait on its own pool.  Under
  the GIL the threads overlap queue and network waits, not compute;
  more cores come from the cluster's worker *processes*
  (:mod:`repro.cluster`).
"""

from __future__ import annotations

import queue
import threading
import time

from ..api import apply_transaction_control, parse_at_door, run_with_options
from ..sql.ast import (
    BeginTransaction,
    CommitTransaction,
    RollbackTransaction,
)
from ..engine.database import Database
from ..engine.plan_cache import GLOBAL_PLAN_CACHE, PlanCache
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
from ..resilience.budgets import ExecutionGuard
from ..resilience.guarded import GuardedOutcome
from .session import Session


class QueryTicket:
    """One admitted statement — its session, SQL, parameters and
    effective options — and a future for its outcome.

    Workers complete the ticket exactly once; :meth:`result` blocks
    until then and either returns the
    :class:`~repro.resilience.guarded.GuardedOutcome` or re-raises the
    error the execution died with (budget violations, SQL errors, and
    shutdown all surface as their original typed exceptions).
    """

    __slots__ = (
        "session",
        "sql",
        "params",
        "options",
        "request_id",
        "admitted_at",
        "_event",
        "_outcome",
        "_error",
        "_lock",
        "_guard",
        "_cancelled",
        "_cancel_reason",
    )

    def __init__(
        self,
        session: Session,
        sql: str,
        params: dict | None,
        options: ExecutionOptions,
        request_id: str | None,
    ) -> None:
        self.session = session
        self.sql = sql
        self.params = params
        self.options = options
        self.request_id = request_id
        self.admitted_at = time.monotonic()
        self._event = threading.Event()
        self._outcome: GuardedOutcome | None = None
        self._error: BaseException | None = None
        # leaf: guard attach vs cancel
        self._lock = threading.Lock()
        self._guard: ExecutionGuard | None = None
        self._cancelled = False
        self._cancel_reason = ""

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
        finished query is unaffected.  This is how
        :meth:`QueryService.execute` stops an abandoned wait (its
        ``wait_timeout`` passed) from burning a slot on an answer nobody
        will read.
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

    # -- completion (worker side) ---------------------------------------

    def _complete(self, outcome: GuardedOutcome) -> None:
        self._outcome = outcome
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class QueryService:
    """An embeddable, thread-pooled SQL query service.

    Usage::

        with QueryService(workers=4) as service:
            session = service.session(database)
            tickets = session.submit_many(["SELECT ...", "SELECT ..."])
            results = [t.result() for t in tickets]

    Args:
        workers: query worker threads draining the admission queue, and
            the number of statements that run at once (pool and
            :meth:`execute` callers together).
        queue_depth: bound on queries admitted but not yet running;
            a full room blocks ``submit`` (or raises with
            ``wait=False``, and in :meth:`execute`) — the backpressure
            contract.
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
    """

    def __init__(
        self,
        workers: int = 2,
        queue_depth: int = 64,
        *,
        plan_cache: PlanCache | None = None,
        metrics: MetricsRegistry | None = None,
        shedding: SheddingPolicy | None = None,
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
        self.admission = AdmissionController(shedding)
        self._queue: queue.Queue = queue.Queue()
        self._shutdown = threading.Event()
        self._state_lock = threading.Lock()  # leaf: session naming, shutdown
        self._session_count = 0
        # leaf: free slots, statements waiting for one, and whether a
        # drain turns the waiting ones away
        slots = threading.Lock()
        self._slot_free = threading.Condition(slots)
        self._room = threading.Condition(slots)
        self._free = workers
        self._waiting = 0
        self._draining = False
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
        options: ExecutionOptions | None = None,
    ) -> Session:
        """Open a session binding *database* and its default
        :class:`~repro.options.ExecutionOptions`."""
        if self._shutdown.is_set():
            raise ServiceShutdownError()
        with self._state_lock:
            self._session_count += 1
            if name is None:
                name = f"session-{self._session_count}"
        return Session(self, database, name, options=options)

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

        With ``wait=True`` (default) a full admission room blocks the
        caller until a place frees — backpressure.  With ``wait=False`` a
        full room raises :class:`~repro.errors.ServiceOverloadedError`
        instead, so load-shedding callers get a typed signal.

        *options* layers per-query
        :class:`~repro.options.ExecutionOptions` over the session's
        defaults (non-default fields win).  *request_id* tags the
        ticket and the worker's trace span.

        Admission order (each gate rejects before any work is queued):
        shutdown → expired deadline
        (:class:`~repro.errors.DeadlineExpiredError` — the budget is
        already gone, so executing would waste a worker on a dead
        answer) → adaptive shedding
        (:class:`~repro.errors.LoadShedError` for batch traffic when
        predicted queue wait approaches typical deadlines) → the hard
        ``queue_depth`` bound.
        """
        effective = self._admit(session, options, wait)
        ticket = QueryTicket(session, sql, params, effective, request_id)
        # None is the shutdown sentinel (one per worker, after all work).
        self._queue.put(ticket)
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

    def execute(
        self,
        session: Session,
        sql: str,
        params: dict | None = None,
        *,
        options: ExecutionOptions | None = None,
        request_id: str | None = None,
        wait_timeout: float | None = None,
    ) -> GuardedOutcome:
        """Run one query on the calling thread: its outcome, or its
        error raised.

        Admission is :meth:`submit`'s with ``wait=False``, and the
        statement waits for one of the ``workers`` execution slots the
        pool uses too.  Once *wait_timeout* seconds pass, while it waits
        or runs, it is cancelled — a running statement stops at its next
        checkpoint — and :class:`~repro.errors.TicketWaitTimeout` is
        raised.
        """
        effective = self._admit(session, options, wait=False)
        ticket = QueryTicket(session, sql, params, effective, request_id)
        if wait_timeout is None:
            return self._run(ticket)
        timer = threading.Timer(wait_timeout, ticket.cancel, ("wait abandoned",))
        timer.start()
        try:
            outcome = self._run(ticket, wait_timeout)
        except QueryCancelled:
            if not ticket.cancelled:
                raise
        finally:
            timer.cancel()
        if ticket.cancelled:  # nobody waits for this answer any more
            raise TicketWaitTimeout(wait_timeout, sql)
        return outcome

    def _admit(
        self, session: Session, options: ExecutionOptions | None, wait: bool
    ) -> ExecutionOptions:
        """Pass :meth:`submit`'s gates and take a place among the
        statements waiting for a slot; the statement's effective
        options."""
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
            self.admission.admit(effective.priority, self._waiting, self.queue_depth)
        except ServiceOverloadedError:
            self.metrics.inc("service_shed_total", priority=effective.priority)
            raise
        with self._room:
            if wait:
                self._room.wait_for(
                    lambda: self._waiting < self.queue_depth or self._shutdown.is_set()
                )
            admitted = self._waiting < self.queue_depth and not self._shutdown.is_set()
            if admitted:
                self._waiting += 1
        if not admitted:
            if self._shutdown.is_set():
                raise ServiceShutdownError()
            self.metrics.inc("service_rejected_total")
            raise ServiceOverloadedError(self.queue_depth)
        self.metrics.inc("service_submitted_total", session=session.name)
        return effective

    # -- lifecycle ------------------------------------------------------

    def shutdown(self, wait: bool = True, *, cancel_queued: bool = False) -> None:
        """Stop accepting work, drain pending queries, stop the workers.

        With ``cancel_queued=False`` (default) queries already admitted
        still execute before the workers exit.  With
        ``cancel_queued=True`` — the graceful-drain contract the HTTP
        server uses on SIGTERM — only queries already *running* finish;
        everything still waiting for a slot, queued or in
        :meth:`execute`, fails immediately with
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
        with self._slot_free:
            self._draining = cancel_queued
            self._slot_free.notify_all()
            self._room.notify_all()
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
                ticket = self._queue.get_nowait()
            except queue.Empty:
                return
            if ticket is None:
                continue
            with self._room:
                self._waiting -= 1
                self._room.notify()
            self.metrics.inc("service_drained_total", session=ticket.session.name)
            ticket._fail(ServiceShutdownError())

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown(wait=True)
        return False

    # -- execution ------------------------------------------------------

    def _worker_loop(self) -> None:
        while (ticket := self._queue.get()) is not None:
            try:
                outcome = self._run(ticket)
            except BaseException as error:
                ticket._fail(error)
            else:
                ticket._complete(outcome)

    def _run(
        self, ticket: QueryTicket, timeout: float | None = None
    ) -> GuardedOutcome:
        """Wait for an execution slot, then run the statement in it.

        A drain that turns the waiting statements away fails it with
        :class:`~repro.errors.ServiceShutdownError`, and *timeout*
        passing first with :class:`~repro.errors.TicketWaitTimeout`;
        both are counted."""
        with self._slot_free:
            ready = self._slot_free.wait_for(
                lambda: self._free > 0 or self._draining, timeout
            )
            self._waiting -= 1
            self._room.notify()
            start = ready and not self._draining
            if start:
                self._free -= 1
        if not start:
            name = ticket.session.name
            if ready:
                self.metrics.inc("service_drained_total", session=name)
                raise ServiceShutdownError()
            self.metrics.inc("service_abandoned_total", session=name)
            raise TicketWaitTimeout(timeout, ticket.sql)
        try:
            return self._execute(ticket, time.monotonic() - ticket.admitted_at)
        finally:
            with self._slot_free:
                self._free += 1
                self._slot_free.notify()

    def _execute(self, ticket: QueryTicket, waited: float) -> GuardedOutcome:
        """The one execution body, run in a slot for the pool and for
        :meth:`execute` alike: parse, run, record the outcome on the
        session and the metrics, and trace it."""
        session, effective = ticket.session, ticket.options
        # The observed wait is the shedding controller's ground truth —
        # and the slice of the client's deadline admission already spent.
        self.admission.observe_wait(waited)
        if ticket.cancelled:
            # The caller abandoned the wait before a slot came free:
            # don't burn one on an answer nobody will read.
            self.metrics.inc("service_abandoned_total", session=session.name)
            raise QueryCancelled(ticket._cancel_reason)
        stats = Stats()
        try:
            if effective.deadline is not None:
                try:
                    # The wait spent the budget: reject with zero work,
                    # annotated with where the time went.
                    effective.deadline.check(waited=waited)
                except BaseException:
                    self.metrics.inc(
                        "service_deadline_expired_total", session=session.name
                    )
                    raise
            # Request-id propagation: the span carries the id the HTTP
            # layer (or any submitter) attached, so one request can be
            # followed socket -> statement in the trace tree.
            tags = {"request_id": ticket.request_id} if ticket.request_id else {}
            span_cm = (
                TRACER.span("service.query", stats=stats, session=session.name, **tags)
                if TRACER.enabled
                else NULL_SPAN
            )
            # Session-scoped transaction control: BEGIN/COMMIT/ROLLBACK
            # flip the session's transaction; everything else executes
            # inside it while it is open.  This is the request's one
            # parse: a malformed statement fails from here, everything
            # else travels down as the AST plus its text.
            with span_cm:
                statement = parse_at_door(ticket.sql, effective)
                if isinstance(
                    statement,
                    (BeginTransaction, CommitTransaction, RollbackTransaction),
                ):
                    outcome = apply_transaction_control(
                        statement, session, session.database, stats
                    )
                else:
                    outcome = run_with_options(
                        statement,
                        session.database,
                        sql_text=ticket.sql,
                        params=ticket.params,
                        options=effective,
                        stats=stats,
                        plan_cache=self._plan_cache,
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
            raise
        session._record(outcome.stats, failed=False)
        self.metrics.inc("service_completed_total", session=session.name)
        self.metrics.record_outcome(outcome)
        return outcome
