"""The unified ``Connection``/``Cursor`` facade — one way to execute.

A DB-API-flavored facade over the engine's layered functions
(:func:`~repro.engine.planner.execute_planned` under
:func:`~repro.resilience.guarded.run_guarded`):

* :func:`connect` — open a :class:`Connection` from a
  :class:`~repro.engine.database.Database`, a SQL-script path, or an
  ``http(s)://`` URL of a :mod:`repro.net` server.  Local and remote
  connections expose the identical interface.
* :class:`Cursor` — ``execute(sql, ...)`` with every knob expressed
  through one frozen :class:`~repro.options.ExecutionOptions`, then
  ``fetchone``/``fetchmany``/``fetchall`` or plain iteration.
* :func:`run_with_options` — the execution core both the local backend
  and the :class:`~repro.service.QueryService` workers call: guarded
  execution (budgets, safe-mode verification) plus optional EXPLAIN
  ANALYZE, driven entirely by an options value.

Quickstart::

    import repro

    conn = repro.connect(database)           # or repro.connect(url)
    cursor = conn.execute(
        "SELECT DISTINCT SNO FROM PARTS WHERE COLOR = 'RED'",
        timeout=5.0, safe_mode=True,
    )
    for row in cursor:
        ...
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Sequence

from .core.rewrite.engine import Optimizer
from .engine.database import Database
from .engine.plan_cache import PlanCache
from .engine.result import Result
from .engine.stats import Stats
from .errors import (
    CatalogError,
    ProtocolError,
    ReproError,
    ResourceError,
    SqlError,
    TransactionError,
)
from .observe.analyze import AnalyzedExecution, PlanAnalysis
from .observe.trace import NULL_SPAN, TRACER
from .options import ExecutionOptions
from .resilience.guarded import GuardedOutcome, run_guarded
from .resilience.health import (
    SUBSYSTEM_ESTIMATOR,
    SUBSYSTEM_OPTIMIZER,
    SUBSYSTEM_PLAN_CACHE,
    SUBSYSTEM_VECTORIZED,
)
from .sql.ast import (
    BeginTransaction,
    CommitTransaction,
    Delete,
    Insert,
    RollbackTransaction,
    Statement,
    Update,
)
from .sql.parser import parse, require_query


def run_with_options(
    query: Any,
    database: Database,
    *,
    params: dict | None = None,
    options: ExecutionOptions | None = None,
    stats: Stats | None = None,
    plan_cache: PlanCache | None = None,
    planner_options: Any | None = None,
    health: Any | None = None,
    on_guard: Any | None = None,
    transaction: Any | None = None,
    sql_text: str | None = None,
) -> GuardedOutcome:
    """Execute *query* under one :class:`ExecutionOptions` value.

    This is the single execution core behind the :class:`Connection`
    facade, :meth:`repro.service.QueryService.submit`, and the HTTP
    server: guarded execution with the options' budget and safe mode,
    rewrites disabled when ``options.optimize`` is False, and — with
    ``options.analyze`` or ``options.adaptive`` — that same execution's
    per-operator actuals (EXPLAIN ANALYZE) attached as
    :attr:`~repro.resilience.guarded.GuardedOutcome.analysis`.  There
    is one execution either way: the analysis describes the rows that
    were served, under the one guard *on_guard* was handed.

    Deadline semantics: when ``options.deadline`` is set, the effective
    execution timeout is the smaller of ``options.timeout`` and the
    deadline's remaining budget, and an already-expired deadline raises
    :class:`~repro.errors.DeadlineExpiredError` here — before parsing,
    planning, or touching a single operator.

    *health* (a :class:`~repro.resilience.health.HealthTracker`) clamps
    the execution to the ladder's current tiers — a demoted subsystem's
    fast path is simply not requested — and is fed the outcome's fault
    and success signals afterwards.  *on_guard* is forwarded to
    :func:`~repro.resilience.guarded.run_guarded` so the caller can
    cooperatively cancel mid-flight.

    *transaction* (an open :class:`~repro.engine.txn.Transaction`) runs
    the statement inside that transaction: reads go through its pinned
    snapshot view, DML buffers into it without committing.  Without
    one, reads execute against the latest committed state and DML runs
    in an implicit single-statement transaction that commits before
    returning.  ``BEGIN``/``COMMIT``/``ROLLBACK`` are *not* accepted
    here — transaction lifetime belongs to the owner of the transaction
    handle (a :class:`Connection` or a service session), so control
    statements must go through :func:`apply_transaction_control`.

    *query* is SQL text — parsed once, here — or a statement a front
    door already parsed, in which case *sql_text* carries the caller's
    original text down beside it (``GuardedOutcome.sql`` of a DML
    statement, the safe-mode sampling key, span attributes).  Nothing
    below this function lexes or parses again.
    """
    options = options if options is not None else ExecutionOptions()
    if isinstance(query, str):
        sql_text, statement = query, parse(query)
    else:
        statement = query
    if isinstance(statement, (Insert, Update, Delete)):
        return run_dml_with_options(
            statement,
            sql_text,
            database,
            transaction,
            params=params,
            options=options,
            stats=stats,
        )
    if isinstance(
        statement, (BeginTransaction, CommitTransaction, RollbackTransaction)
    ):
        raise ProtocolError(
            "transaction control must go through a Connection or a "
            "service session (see apply_transaction_control)"
        )
    if transaction is not None:
        # Pin every read to the transaction's snapshot + its own writes.
        database = transaction.view()
    # Raises DeadlineExpiredError when nothing is left: queue wait or
    # network transit already spent the client's whole budget.
    budget = options.budget()
    optimize = options.optimize
    engine_mode = options.engine_mode
    use_stats = options.stats or options.adaptive
    adaptive = options.adaptive
    decision = None
    if health is not None:
        decision = health.decide(
            {
                SUBSYSTEM_VECTORIZED: engine_mode != "tuple",
                SUBSYSTEM_OPTIMIZER: optimize,
                SUBSYSTEM_PLAN_CACHE: True,
                SUBSYSTEM_ESTIMATOR: use_stats,
            }
        )
        if not decision.granted(SUBSYSTEM_VECTORIZED) and engine_mode != "tuple":
            engine_mode = "tuple"
        if not decision.granted(SUBSYSTEM_OPTIMIZER):
            optimize = False
        if not decision.granted(SUBSYSTEM_PLAN_CACHE):
            # Bypass tier: a throwaway cache keeps the execution path
            # identical while never reading or writing the shared one.
            plan_cache = PlanCache()
        if not decision.granted(SUBSYSTEM_ESTIMATOR):
            # Heuristic tier: a misbehaving estimator plans like PR 1
            # again — rule join order, fixed selectivities.
            use_stats = adaptive = False
    if use_stats:
        planner_options = _stats_planner_options(
            planner_options, database, adaptive
        )
    optimizer = None
    if not optimize:
        # An empty rule list turns run_guarded into plain planned
        # execution: no rewrite can fire, so safe mode has nothing to
        # cross-check and the audit trail stays empty.
        optimizer = Optimizer(database.catalog, rules=[])
    # Adaptive mode always analyzes: observed actuals are the feedback
    # the correction store folds.
    sink = PlanAnalysis() if options.analyze or adaptive else None
    try:
        outcome = run_guarded(
            require_query(statement),
            database,
            params=params,
            budget=budget,
            optimizer=optimizer,
            safe_mode=options.safe_mode,
            stats=stats,
            plan_cache=plan_cache,
            planner_options=planner_options,
            engine_mode=engine_mode,
            batch_rows=options.batch_rows,
            on_guard=on_guard,
            original_text=sql_text,
            analysis=sink,
        )
    except ReproError as error:
        # Budget violations and user errors (bad SQL, unknown tables)
        # say nothing about subsystem health; engine-level failures do.
        if (
            health is not None
            and decision is not None
            and not isinstance(error, (ResourceError, SqlError, CatalogError))
        ):
            health.observe(decision, stats=stats, error=error)
        raise
    if health is not None and decision is not None:
        health.observe(decision, stats=outcome.stats, outcome=outcome)
    if sink is not None and not outcome.mismatch:
        # After a mismatch the served rows are the reference run's, which
        # the sink did not observe — so no analysis rides along.
        outcome.analysis = AnalyzedExecution(
            result=outcome.result,
            analysis=sink,
            stats=outcome.stats,
            health=health.tiers() if health is not None else None,
        )
        if adaptive:
            from .stats.adaptive import fold_analysis

            fold_analysis(database, sink.plan, sink, stats=outcome.stats)
    return outcome


def run_dml_with_options(
    statement: Any,
    sql_text: str | None,
    database: Database,
    transaction: Any | None,
    *,
    params: dict | None = None,
    options: ExecutionOptions | None = None,
    stats: Stats | None = None,
) -> GuardedOutcome:
    """Execute one parsed DML statement under the options' budget.

    With *transaction* the writes buffer into it (visible to the
    transaction's own later statements, published only by its commit);
    without one the statement runs in an implicit single-statement
    transaction — begin, execute, commit — so autocommit DML is atomic
    and conflict-checked exactly like an explicit block.  The outcome's
    :attr:`~repro.resilience.guarded.GuardedOutcome.rowcount` carries
    the affected-row count; the result set is empty.
    """
    from .engine.dml import execute_dml

    options = options if options is not None else ExecutionOptions()
    stats = stats if stats is not None else Stats()
    budget = options.budget()
    guard = budget.guard() if budget is not None else None
    if sql_text is None:
        sql_text = f"{type(statement).__name__.upper()} {statement.table}"
    own = transaction is None
    txn = database.begin() if own else transaction
    span_cm = (
        TRACER.span("dml.execute", stats=stats, sql=sql_text, xid=txn.xid)
        if TRACER.enabled
        else NULL_SPAN
    )
    try:
        with span_cm:
            count = execute_dml(
                statement,
                txn,
                params=params,
                stats=stats,
                guard=guard,
                engine_mode=options.engine_mode,
                batch_rows=options.batch_rows,
            )
            if own:
                txn.commit()
    except BaseException:
        if own:
            txn.rollback()  # no-op when the commit already aborted
        raise
    return GuardedOutcome(
        result=Result([], []),
        sql=sql_text,
        rewritten=False,
        rules=[],
        stats=stats,
        rowcount=count,
    )


def apply_transaction_control(
    statement: Any, host: Any, database: Database, stats: Stats | None = None
) -> GuardedOutcome:
    """Apply ``BEGIN``/``COMMIT``/``ROLLBACK`` to a transaction *host*.

    *host* is whatever owns the connection-scoped transaction — a local
    backend or a service session — and must expose a writable
    ``transaction`` attribute.  ``BEGIN`` inside an open transaction is
    an error (no nesting); ``COMMIT``/``ROLLBACK`` outside one are
    no-ops, so a DB-API ``commit()`` on a fresh connection is always
    safe.  The host's transaction slot is cleared *before* the commit
    is attempted: a failed commit (conflict, injected fault) leaves the
    session outside any transaction, with the aborted transaction's
    writes discarded.
    """
    stats = stats if stats is not None else Stats()

    def outcome(label: str) -> GuardedOutcome:
        return GuardedOutcome(
            result=Result([], []),
            sql=label,
            rewritten=False,
            rules=[],
            stats=stats,
        )

    if isinstance(statement, BeginTransaction):
        if getattr(host, "transaction", None) is not None:
            raise TransactionError(
                "a transaction is already open (nested BEGIN is not supported)"
            )
        host.transaction = database.begin()
        return outcome("BEGIN")
    txn = getattr(host, "transaction", None)
    if isinstance(statement, CommitTransaction):
        if txn is not None:
            host.transaction = None
            txn.commit()
        return outcome("COMMIT")
    if isinstance(statement, RollbackTransaction):
        if txn is not None:
            host.transaction = None
            txn.rollback()
        return outcome("ROLLBACK")
    raise ProtocolError(
        f"not a transaction-control statement: {type(statement).__name__}"
    )


def _stats_planner_options(
    planner_options: Any | None,
    database: Database,
    adaptive: bool,
) -> Any:
    """Planner options carrying the statistics/adaptive flags.

    Also makes ``run --stats`` self-serve: a database without fresh
    statistics is ANALYZEd once here (single-flight, skipped for
    transaction views — a view is a per-transaction object, so
    collecting on it would re-pay the pass every statement; the
    estimator falls back instead and counts ``estimator_fallbacks``).
    """
    from dataclasses import replace

    from .engine.planner import PlannerOptions

    if not getattr(database, "is_transaction_view", False):
        try:
            from .stats import ensure_statistics

            ensure_statistics(database)
        except Exception:
            pass  # fail-soft: estimator_for falls back and counts it
    if planner_options is None:
        return PlannerOptions(use_stats=True, adaptive=adaptive)
    return replace(planner_options, use_stats=True, adaptive=adaptive)


@dataclass
class ExecutedQuery:
    """The normalized record of one executed statement.

    Both backends produce this shape, so a :class:`Cursor` reads the
    same fields whether the query ran in-process or across the wire.

    Attributes:
        columns: output column names, in order.
        rows: the result rows as tuples (NULLs as the library's NULL
            sentinel, identical local and remote).
        sql: the SQL that produced the rows (rewritten form if a rule
            fired; the original after a safe-mode mismatch).
        rewritten / rules / mismatch: the rewrite trail.
        stats: non-zero execution counters.
        analysis: EXPLAIN ANALYZE plan dict when requested, else None.
        request_id: the server-assigned request id (remote only).
        outcome: the full :class:`GuardedOutcome` (local only).
        rowcount: rows affected by a DML statement, or the result-row
            count for reads (the DB-API cursor reports this value).
    """

    columns: list[str]
    rows: list[tuple]
    sql: str
    rewritten: bool = False
    rules: list[str] = field(default_factory=list)
    mismatch: bool = False
    stats: dict[str, Any] = field(default_factory=dict)
    analysis: dict[str, Any] | None = None
    request_id: str | None = None
    outcome: GuardedOutcome | None = None
    rowcount: int = -1


def executed_from_outcome(
    outcome: GuardedOutcome, request_id: str | None = None
) -> ExecutedQuery:
    """Fold a :class:`GuardedOutcome` into the normalized record."""
    return ExecutedQuery(
        columns=list(outcome.result.columns),
        rows=list(outcome.result.rows),
        sql=outcome.sql,
        rewritten=outcome.rewritten,
        rules=list(outcome.rules),
        mismatch=outcome.mismatch,
        stats={
            name: value
            for name, value in outcome.stats.as_dict().items()
            if value
        },
        analysis=(
            outcome.analysis.to_dict() if outcome.analysis is not None else None
        ),
        request_id=request_id,
        outcome=outcome,
        rowcount=(
            outcome.rowcount
            if outcome.rowcount >= 0
            else len(outcome.result.rows)
        ),
    )


class _LocalBackend:
    """Executes on an in-process :class:`Database` via the guarded core.

    Owns the connection's transaction state: SQL-level
    ``BEGIN``/``COMMIT``/``ROLLBACK`` flip :attr:`transaction`, and —
    with ``autocommit`` off — an implicit transaction opens lazily
    before the first statement, exactly the DB-API 2.0 posture.
    """

    remote = False

    def __init__(
        self, database: Database, plan_cache: PlanCache | None = None
    ) -> None:
        self.database = database
        self.plan_cache = plan_cache
        self.transaction = None

    @staticmethod
    def parse_statement(sql: Any) -> Statement:
        """The door's one parse; an already-parsed statement passes."""
        return parse(sql) if isinstance(sql, str) else sql

    def run(
        self,
        sql: str,
        params: dict | None,
        options: ExecutionOptions,
        statement: Statement | None = None,
    ) -> ExecutedQuery:
        """Execute *sql*; *statement* is :meth:`parse_statement` of it when the
        caller already holds one (``executemany`` parses once per batch)."""
        if statement is None:
            statement = self.parse_statement(sql)
        if isinstance(
            statement,
            (BeginTransaction, CommitTransaction, RollbackTransaction),
        ):
            return executed_from_outcome(
                apply_transaction_control(statement, self, self.database)
            )
        if self.transaction is None and not options.autocommit:
            self.transaction = self.database.begin()
        outcome = run_with_options(
            statement,
            self.database,
            params=params,
            options=options,
            plan_cache=self.plan_cache,
            transaction=self.transaction,
            sql_text=sql if isinstance(sql, str) else None,
        )
        return executed_from_outcome(outcome)

    @property
    def in_transaction(self) -> bool:
        return self.transaction is not None

    def begin(self) -> None:
        apply_transaction_control(BeginTransaction(), self, self.database)

    def commit(self) -> None:
        apply_transaction_control(CommitTransaction(), self, self.database)

    def rollback(self) -> None:
        apply_transaction_control(RollbackTransaction(), self, self.database)

    def close(self) -> None:
        # An open transaction dies with the connection — rollback, the
        # only safe default for an abandoned handle.
        if self.transaction is not None:
            transaction, self.transaction = self.transaction, None
            transaction.rollback()

    def describe(self) -> str:
        return f"local database {self.database!r}"


class Cursor:
    """A DB-API-flavored cursor over one :class:`Connection`.

    ``execute`` returns the cursor itself, so the fluent spelling
    ``conn.cursor().execute(sql).fetchall()`` works; iteration yields
    the remaining unfetched rows.
    """

    def __init__(self, connection: "Connection") -> None:
        self.connection = connection
        self._executed: ExecutedQuery | None = None
        self._position = 0

    # -- execution ------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: dict | None = None,
        *,
        options: ExecutionOptions | None = None,
        **overrides: Any,
    ) -> "Cursor":
        """Execute *sql* with the connection's options plus overrides.

        Precedence: an explicit ``options=`` value replaces the
        connection defaults wholesale; individual keyword arguments —
        ``timeout``, ``row_budget``, ``budget``, ``safe_mode``,
        ``analyze``, ``optimize``, ``stats``, ``adaptive``,
        ``engine_mode``, ``batch_rows``, ``deadline``, ``priority`` —
        are then layered on top of whichever base applies, with the
        shorthands of :meth:`ExecutionOptions.override
        <repro.options.ExecutionOptions.override>`.
        """
        resolved = self._resolve(options, **overrides)
        self._executed = self.connection._backend.run(sql, params, resolved)
        self._position = 0
        return self

    def _resolve(
        self, options: ExecutionOptions | None = None, **overrides: Any
    ) -> ExecutionOptions:
        """The connection's options (or *options*) plus *overrides*."""
        base = (
            options
            if options is not None
            else self.connection.default_options
        )
        return base.override(**overrides)

    # -- DB-API style access --------------------------------------------

    @property
    def description(self) -> list[tuple] | None:
        """DB-API column descriptors (name plus six Nones) or None."""
        if self._executed is None:
            return None
        return [
            (name, None, None, None, None, None, None)
            for name in self._executed.columns
        ]

    @property
    def rowcount(self) -> int:
        """Rows affected by DML, rows returned by a read, or -1 before
        any execute (DB-API semantics)."""
        return -1 if self._executed is None else self._executed.rowcount

    def executemany(
        self,
        sql: str,
        seq_of_params: "Sequence[dict | None]",
        **kwargs: Any,
    ) -> "Cursor":
        """Execute *sql* once per parameter set (DB-API ``executemany``).

        After the call :attr:`rowcount` is the *sum* of the per-set
        affected rows and the fetchable result is the last execution's.
        The statements are not implicitly atomic — open a transaction
        (``autocommit = False`` or ``BEGIN``) to make the batch
        all-or-nothing.

        A local connection parses *sql* once for the whole batch; a
        remote one sends the text per set, as :meth:`execute` does.
        """
        backend = self.connection._backend
        parse_once = getattr(backend, "parse_statement", None)
        parsed: tuple = ()
        total = 0
        last: ExecutedQuery | None = None
        for params in seq_of_params:
            if parse_once is not None and not parsed:
                # Inside the loop: an empty batch parses nothing.
                parsed = (parse_once(sql),)
            last = backend.run(sql, params, self._resolve(**kwargs), *parsed)
            self._executed = last
            total += max(last.rowcount, 0)
        if last is None:  # zero parameter sets: a completed empty batch
            last = ExecutedQuery(columns=[], rows=[], sql=sql)
        last.rowcount = total
        self._executed = last
        self._position = 0
        return self

    def fetchone(self) -> tuple | None:
        """The next row, or None when the result is exhausted."""
        rows = self._rows()
        if self._position >= len(rows):
            return None
        row = rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: int = 1) -> list[tuple]:
        """Up to *size* further rows."""
        rows = self._rows()
        chunk = rows[self._position : self._position + max(size, 0)]
        self._position += len(chunk)
        return chunk

    def fetchall(self) -> list[tuple]:
        """Every remaining row."""
        rows = self._rows()
        chunk = rows[self._position :]
        self._position = len(rows)
        return chunk

    def __iter__(self) -> Iterator[tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- result metadata ------------------------------------------------

    @property
    def columns(self) -> list[str]:
        """Output column names of the current result."""
        return [] if self._executed is None else list(self._executed.columns)

    @property
    def executed(self) -> ExecutedQuery:
        """The normalized record of the last execution."""
        if self._executed is None:
            raise ReproError("no query has been executed on this cursor")
        return self._executed

    @property
    def outcome(self) -> GuardedOutcome | None:
        """The full :class:`GuardedOutcome` (None on remote connections)."""
        return self.executed.outcome

    @property
    def analysis(self) -> dict[str, Any] | None:
        """EXPLAIN ANALYZE plan dict when ``analyze`` was requested."""
        return self.executed.analysis

    def close(self) -> None:
        """Forget the current result (cursors hold no server state)."""
        self._executed = None
        self._position = 0

    def _rows(self) -> list[tuple]:
        return self.executed.rows

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class Connection:
    """One handle on a query engine — in-process or across the wire.

    Attributes:
        default_options: the :class:`ExecutionOptions` every
            ``execute`` starts from (per-call overrides layer on top).
    """

    def __init__(
        self,
        backend: Any,
        default_options: ExecutionOptions | None = None,
    ) -> None:
        self._backend = backend
        self.default_options = (
            default_options if default_options is not None else ExecutionOptions()
        )
        self._closed = False

    # -- factories ------------------------------------------------------

    @classmethod
    def local(
        cls,
        database: Database,
        *,
        options: ExecutionOptions | None = None,
        plan_cache: PlanCache | None = None,
    ) -> "Connection":
        """A connection executing directly against *database*."""
        return cls(_LocalBackend(database, plan_cache), options)

    # -- properties -----------------------------------------------------

    @property
    def remote(self) -> bool:
        """Whether this connection crosses the network."""
        return bool(getattr(self._backend, "remote", False))

    @property
    def closed(self) -> bool:
        return self._closed

    # -- transactions ----------------------------------------------------

    @property
    def autocommit(self) -> bool:
        """Whether each statement commits on its own (default True).

        Set to False for the DB-API 2.0 posture: an implicit MVCC
        transaction opens before the next statement and stays open
        until :meth:`commit` or :meth:`rollback`.  Flipping the flag is
        only allowed outside an open transaction.
        """
        return self.default_options.autocommit

    @autocommit.setter
    def autocommit(self, value: bool) -> None:
        if self.in_transaction:
            raise TransactionError(
                "cannot change autocommit inside an open transaction; "
                "commit() or rollback() first"
            )
        self.default_options = replace(
            self.default_options, autocommit=bool(value)
        )

    @property
    def in_transaction(self) -> bool:
        """Whether an explicit or implicit transaction is open."""
        return bool(getattr(self._backend, "in_transaction", False))

    def begin(self) -> None:
        """Open an explicit transaction (same as executing ``BEGIN``)."""
        self._check_open()
        self._backend.begin()

    def commit(self) -> None:
        """Publish the open transaction's writes; no-op without one.

        Raises the transaction's typed error —
        :class:`~repro.errors.WriteConflictError` or
        :class:`~repro.errors.UniquenessViolationError` — when a
        concurrent committer won; the transaction is then rolled back
        and the connection is back in autocommit-per-statement mode.
        """
        self._check_open()
        self._backend.commit()

    def rollback(self) -> None:
        """Discard the open transaction's writes; no-op without one."""
        self._check_open()
        self._backend.rollback()

    # -- execution ------------------------------------------------------

    def cursor(self) -> Cursor:
        """A fresh cursor on this connection."""
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str, params: dict | None = None, **kwargs: Any) -> Cursor:
        """Convenience: ``cursor().execute(...)`` in one call."""
        self._check_open()
        return self.cursor().execute(sql, params, **kwargs)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release the backend (idempotent)."""
        if not self._closed:
            self._backend.close()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("connection is closed")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # DB-API context semantics: a clean exit commits any open
        # transaction, an exception rolls it back; either way the
        # connection closes.  Pre-transaction call sites are unaffected
        # — without an open transaction both calls are no-ops.
        try:
            if not self._closed and self.in_transaction:
                if exc_type is None:
                    self.commit()
                else:
                    self.rollback()
        finally:
            self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else self._backend.describe()
        return f"Connection({state})"


def connect(
    source: "Database | str",
    *,
    options: ExecutionOptions | None = None,
    plan_cache: PlanCache | None = None,
    **kwargs: Any,
) -> Connection:
    """Open a :class:`Connection` — the single documented entrypoint.

    *source* selects the backend:

    * a :class:`~repro.engine.database.Database` — execute in-process;
    * an ``http://`` or ``https://`` URL — talk to a
      :mod:`repro.net` server (extra keyword arguments such as
      ``retry_policy`` and ``default_session`` are forwarded to
      :func:`repro.net.client.connect`);
    * any other string — a path to a SQL script of CREATE TABLE /
      INSERT statements the database is built from.

    The returned object behaves identically either way: rewrite wins,
    budgets, safe mode, and EXPLAIN ANALYZE all flow through the same
    :class:`~repro.options.ExecutionOptions`.
    """
    if isinstance(source, Database):
        if kwargs:
            raise TypeError(
                f"unexpected arguments for a local connection: "
                f"{', '.join(sorted(kwargs))}"
            )
        return Connection.local(
            source, options=options, plan_cache=plan_cache
        )
    if isinstance(source, str):
        if source.startswith(("http://", "https://")):
            from .net.client import connect as http_connect

            return http_connect(source, options=options, **kwargs)
        if kwargs:
            raise TypeError(
                f"unexpected arguments for a local connection: "
                f"{', '.join(sorted(kwargs))}"
            )
        with open(source, encoding="utf-8") as handle:
            database = Database.from_script(handle.read())
        return Connection.local(
            database, options=options, plan_cache=plan_cache
        )
    raise ProtocolError(
        f"cannot connect to {type(source).__name__!r}: expected a Database, "
        f"a script path, or an http(s) URL"
    )


__all__ = [
    "Connection",
    "Cursor",
    "ExecutedQuery",
    "ExecutionOptions",
    "apply_transaction_control",
    "connect",
    "executed_from_outcome",
    "run_dml_with_options",
    "run_with_options",
]
