"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Subsystems raise the most
specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""

    def __reduce__(self):
        # Subclass constructors take other arguments than the ``args``
        # they store, so rebuild without calling them: every error
        # pickles, and a cluster worker can hand its startup error to
        # the coordinator.
        return _rebuild_error, (type(self), self.args, self.__dict__)


def _rebuild_error(cls: type, args: tuple, state: dict) -> ReproError:
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error


class SqlError(ReproError):
    """Base class for errors raised while processing SQL text."""


class LexerError(SqlError):
    """Raised when the lexer encounters an unrecognizable character.

    Attributes:
        position: zero-based character offset of the offending input.
        line: one-based line number.
        column: one-based column number.
    """

    def __init__(self, message: str, position: int, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column


class ParseError(SqlError):
    """Raised when a token stream does not form a valid statement."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class CatalogError(ReproError):
    """Raised for inconsistent schema definitions or unknown objects."""


class UnknownTableError(CatalogError):
    """Raised when a query references a table absent from the catalog."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown table: {name!r}")
        self.name = name


class UnknownColumnError(CatalogError):
    """Raised when a query references a column absent from its table."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"unknown column: {table!r}.{column!r}")
        self.table = table
        self.column = column


class AmbiguousColumnError(CatalogError):
    """Raised when an unqualified column name matches several tables."""

    def __init__(self, column: str, candidates: list[str]) -> None:
        names = ", ".join(sorted(candidates))
        super().__init__(f"ambiguous column {column!r}: matches {names}")
        self.column = column
        self.candidates = list(candidates)


class ConstraintViolation(ReproError):
    """Raised when an insert/update violates a declared constraint."""

    def __init__(self, constraint: str, detail: str) -> None:
        super().__init__(f"constraint {constraint!r} violated: {detail}")
        self.constraint = constraint
        self.detail = detail


class UniquenessViolationError(ConstraintViolation):
    """A write would duplicate a declared candidate key.

    Keys are what make the paper's Theorem 1/2/3 rewrites sound, so
    violating one is a first-class typed outcome rather than a generic
    constraint failure: HTTP maps it to 409 Conflict, the CLI to exit
    code 13, and the retrying client treats it as terminal.

    Attributes:
        table: the table whose key was violated.
        key: the human-readable key description (e.g. ``PRIMARY KEY
            (SNO)``).
    """

    def __init__(self, table: str, key: str, detail: str = "") -> None:
        extra = f": {detail}" if detail else ""
        super().__init__(table, f"duplicate value for {key}{extra}")
        self.table = table
        self.key = key


class TransactionError(ReproError):
    """Base class for transaction-lifecycle errors (already closed,
    commit of an aborted transaction, BEGIN inside a transaction)."""


class WriteConflictError(TransactionError):
    """First-committer-wins conflict: this transaction tried to commit
    a change to a row version that a concurrent transaction already
    committed a change to.  The losing transaction is rolled back; the
    caller may retry it against the new state.  HTTP maps it to 409
    Conflict, the CLI to exit code 13 — and the client does *not*
    auto-retry, because the statement may no longer make sense.

    Attributes:
        table: the table carrying the contended row version.
    """

    def __init__(self, table: str, detail: str = "") -> None:
        extra = f": {detail}" if detail else ""
        super().__init__(
            f"write-write conflict on {table!r}"
            f" (a concurrent transaction committed first){extra}"
        )
        self.table = table


class ExecutionError(ReproError):
    """Raised when query execution fails (type errors, missing host vars)."""


class MissingHostVariableError(ExecutionError):
    """Raised when a query references a host variable with no binding."""

    def __init__(self, name: str) -> None:
        super().__init__(f"no binding supplied for host variable :{name}")
        self.name = name


class ResourceError(ExecutionError):
    """Base class for per-query resource-budget violations.

    Guards raise the most specific subclass; callers that only care that
    *some* budget was exhausted can catch this base class.
    """


class QueryTimeout(ResourceError):
    """Raised when a query exceeds its wall-clock budget."""

    def __init__(self, limit: float, elapsed: float) -> None:
        super().__init__(
            f"query exceeded its {limit:.3f}s timeout after {elapsed:.3f}s"
        )
        self.limit = limit
        self.elapsed = elapsed


class RowBudgetExceeded(ResourceError):
    """Raised when a query processes more rows than its budget allows."""

    def __init__(self, budget: int, processed: int) -> None:
        super().__init__(
            f"query processed {processed} rows, exceeding its budget of "
            f"{budget}"
        )
        self.budget = budget
        self.processed = processed


class QueryCancelled(ResourceError):
    """Raised at the next cooperative checkpoint after a cancellation."""

    def __init__(self, reason: str = "") -> None:
        detail = f": {reason}" if reason else ""
        super().__init__(f"query cancelled{detail}")
        self.reason = reason


class DeadlineExpiredError(ResourceError):
    """Raised when a query's end-to-end deadline has already passed
    *before* execution begins — queue wait (or network transit) consumed
    the whole budget, so running the query would only produce an answer
    nobody is still waiting for.

    Distinct from :class:`QueryTimeout`: a timeout fires *during*
    execution; an expired deadline is rejected up front without touching
    a single operator.  HTTP maps it to 504, the CLI to exit code 12.

    Attributes:
        remaining_ms: milliseconds left on the deadline when it was
            checked (zero or negative).
        waited: seconds the query spent queued before the check, when
            the rejection happened after admission (None otherwise).
    """

    def __init__(self, remaining_ms: float, waited: float | None = None) -> None:
        where = (
            f" after waiting {waited * 1000:.0f}ms in the admission queue"
            if waited is not None
            else ""
        )
        super().__init__(
            f"deadline expired {max(0.0, -remaining_ms):.0f}ms before "
            f"execution began{where}"
        )
        self.remaining_ms = remaining_ms
        self.waited = waited


class RewriteError(ReproError):
    """Raised when a rewrite rule is applied to an unsupported query."""


class RewriteMismatchError(ReproError):
    """Raised when safe mode catches a rewrite changing a result multiset.

    Attributes:
        rules: names of the rewrite rules that produced the bad plan.
        sql: the original (unrewritten) query text.
    """

    def __init__(self, rules: list[str], sql: str) -> None:
        names = ", ".join(rules) if rules else "(unknown rule)"
        super().__init__(
            f"rewrite mismatch detected by safe mode: {names} changed the "
            f"result of {sql!r}; rule(s) quarantined"
        )
        self.rules = list(rules)
        self.sql = sql


class TransientError(ReproError):
    """A retryable failure: the same request may succeed if sent again.

    The ``transient`` fault kind raises it at any site, and the IMS
    gateway retries it with bounded exponential backoff.  ``status`` is
    the transient status code the failure carries (a DL/I lock timeout
    is ``"GG"``, a buffer shortage ``"GL"``).
    """

    def __init__(self, status: str = "GG", detail: str = "") -> None:
        extra = f" ({detail})" if detail else ""
        super().__init__(f"transient failure, status {status!r}{extra}")
        self.status = status
        self.detail = detail


class InjectedFaultError(ReproError):
    """The typed error raised by the fault injector's default faults."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at site {site!r}")
        self.site = site


class UnsupportedQueryError(ReproError):
    """Raised when a query falls outside the subset a component handles."""


class ImsError(ReproError):
    """Base class for errors raised by the IMS/DL-I simulator."""


class OodbError(ReproError):
    """Base class for errors raised by the object-store simulator."""


class ServiceError(ReproError):
    """Base class for errors raised by the embedded query service."""


class ServiceOverloadedError(ServiceError):
    """Raised when the admission queue is full and the caller asked not
    to wait (``submit(..., wait=False)``) — the backpressure signal."""

    def __init__(self, depth: int) -> None:
        super().__init__(
            f"service admission queue is full ({depth} queries pending)"
        )
        self.depth = depth


class LoadShedError(ServiceOverloadedError):
    """Raised when the adaptive admission controller sheds a query
    because predicted queue delay is approaching typical deadlines.

    Subclasses :class:`ServiceOverloadedError`, so it keeps the 429 /
    ``Retry-After`` wire mapping and exit code 9 — shedding is the
    *adaptive* form of the same backpressure contract, fired before the
    queue is physically full and aimed at batch traffic first.

    Attributes:
        priority: the shed query's priority class.
        predicted_wait: the controller's queue-delay estimate (seconds).
    """

    def __init__(self, priority: str, predicted_wait: float, depth: int) -> None:
        ServiceError.__init__(
            self,
            f"load shed: {priority} query rejected, predicted queue wait "
            f"{predicted_wait * 1000:.0f}ms approaches typical deadlines",
        )
        self.priority = priority
        self.predicted_wait = predicted_wait
        self.depth = depth


class ServiceShutdownError(ServiceError):
    """Raised when work is submitted to a service that has shut down."""

    def __init__(self) -> None:
        super().__init__("the query service has been shut down")


class TicketWaitTimeout(ServiceError, TimeoutError):
    """Raised when waiting on a :class:`~repro.service.QueryTicket`
    outlives the caller's patience.

    Distinct from :class:`QueryTimeout`: the *query* may still be
    running (or queued) — only the caller's wait expired.  Subclasses
    :class:`TimeoutError` too, so pre-existing ``except TimeoutError``
    handlers keep working.
    """

    def __init__(self, timeout: float | None, sql: str) -> None:
        super().__init__(
            f"query did not complete within {timeout}s: {sql!r}"
        )
        self.timeout = timeout
        self.sql = sql


class NetworkError(ReproError):
    """Base class for errors crossing the HTTP query protocol."""


class ProtocolError(NetworkError):
    """A malformed request or response (bad JSON, unknown fields)."""


class TransientNetworkError(NetworkError):
    """A retryable network-layer failure (connection reset, injected
    accept/write fault, 429/503 from a saturated or draining server).

    The HTTP client retries these under its
    :class:`~repro.resilience.retry.RetryPolicy`; after the final
    attempt the error propagates with the last response's detail.

    Attributes:
        status: HTTP status code when the failure was a response
            (0 for socket-level failures).
        retry_after: the server's Retry-After hint in seconds, if any.
    """

    def __init__(
        self,
        message: str,
        status: int = 0,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class CircuitOpenError(TransientNetworkError):
    """Raised by the client-side circuit breaker when the target server
    has failed enough consecutive attempts that further requests are
    pointless until a probe succeeds.

    Subclasses :class:`TransientNetworkError` so the retry policy treats
    an open circuit like any other transient condition — but the failure
    is produced *without touching the network*, which is the point: a
    sick server stops being hammered the moment the breaker opens.

    Attributes:
        retry_in: seconds until the breaker will allow a half-open probe.
    """

    def __init__(self, retry_in: float) -> None:
        super().__init__(
            f"circuit breaker open: next probe allowed in {retry_in:.3f}s",
            status=0,
            retry_after=retry_in,
        )
        self.retry_in = retry_in


class RemoteQueryError(NetworkError):
    """A typed error relayed from the server's error envelope.

    Attributes:
        error_type: the server-side exception class name (from the
            errors taxonomy, e.g. ``"QueryTimeout"``).
        status: the HTTP status the server mapped the error to.
    """

    def __init__(self, error_type: str, message: str, status: int) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.status = status


# ---------------------------------------------------------------------------
# The error taxonomy: CLI exit codes and HTTP statuses

#: Each typed outcome's CLI exit code and HTTP status, matched
#: subclass-first — the one table the CLI, its ``--help`` epilogs, the
#: HTTP envelope, the client and ``docs/`` all read.  An exit code of
#: None means the class has none of its own: locally it takes the next
#: matching row's, and relayed by name it exits 2.  Any other library
#: error exits 2 with status 400, and anything else is a 500.  Codes
#: 0–2 are structural (success, a ``check`` NO verdict, the fallback).
ERROR_TABLE: list[tuple[type[ReproError], int | None, int]] = [
    (ServiceOverloadedError, 9, 429),  # includes LoadShedError
    (ServiceShutdownError, None, 503),
    (TicketWaitTimeout, 10, 408),
    (DeadlineExpiredError, 12, 504),  # budget gone before execution began
    (QueryTimeout, 4, 504),
    (RowBudgetExceeded, 5, 413),
    (QueryCancelled, 6, 503),
    (ResourceError, 3, 400),
    (TransientError, 7, 503),
    (InjectedFaultError, None, 503),
    (RewriteMismatchError, 8, 500),
    # A write lost to a concurrent committer is never retried by the
    # transport: replaying it is a decision only the application can make.
    (UniquenessViolationError, 13, 409),
    (WriteConflictError, 13, 409),
    (ProtocolError, None, 400),
    (NetworkError, 11, 502),
]

#: The statuses a client may retry: backpressure and drain/transient
#: infrastructure.  An error is retryable exactly when its status is.
RETRYABLE_STATUSES = frozenset({429, 503})

#: The classes with an exit code of their own, and that code.
CLI_EXIT_CODES: list[tuple[type[ReproError], int]] = [
    (cls, code) for cls, code, _status in ERROR_TABLE if code is not None
]


def exit_code_for(error: BaseException) -> int:
    """The CLI exit code for *error* (2 when no row matches).  An error
    relayed over the wire maps by its original type name: a remote
    row-budget violation still exits 5."""
    if isinstance(error, RemoteQueryError):
        for cls, code in CLI_EXIT_CODES:
            if cls.__name__ == error.error_type:
                return code
        return 2
    for cls, code in CLI_EXIT_CODES:
        if isinstance(error, cls):
            return code
    return 2


def status_for_error(error: BaseException) -> int:
    """The HTTP status for *error*: its table row's, 400 for other
    library errors (the request was unprocessable), 500 otherwise."""
    for cls, _code, status in ERROR_TABLE:
        if isinstance(error, cls):
            return status
    return 400 if isinstance(error, ReproError) else 500


def exit_code_summary() -> str:
    """One-line-per-code text for CLI ``--help`` epilogs."""
    lines = ["exit codes:"]
    for cls, code in sorted(CLI_EXIT_CODES, key=lambda pair: pair[1]):
        lines.append(f"  {code:>2}  {cls.__name__}")
    lines.append("   2  any other ReproError")
    return "\n".join(lines)
