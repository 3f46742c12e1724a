"""The HTTP+JSON query protocol: schemas, value codec, error mapping.

The contract both ends share:

* **Values.**  SQL values are JSON scalars; the NULL sentinel crosses
  the wire as JSON ``null`` and is restored on receipt, so a row that
  travelled the socket compares ``≐``-identical to one produced
  in-process.  Rows are JSON arrays, restored to tuples.
* **Requests.**  ``POST /v1/query`` carries ``{"sql": ..., "params":
  {...}, "session": ..., "options": {...}, "stream": bool,
  "wait_timeout": seconds}`` where ``options`` is the wire form of
  :class:`~repro.options.ExecutionOptions` — the same frozen value the
  local facade and the service use.
* **Errors.**  Failures travel as an *envelope* ``{"error": {"type",
  "message", "status", "retryable", "retry_after"?}}``; the status code
  comes from the errors-taxonomy table below (subclass-first, like the
  CLI exit codes).  A client must retry only when ``retryable`` is true
  (429 backpressure, 503 drain/transient faults) and must honour
  ``Retry-After``.  Write conflicts — a candidate key taken or a
  write-write race lost to a concurrent committer — are ``409
  Conflict`` and never transport-retryable.
* **Streaming.**  With ``"stream": true`` the response is NDJSON
  (``application/x-ndjson``): a header object, ``{"rows": [...]}``
  chunk objects flushed incrementally, and a final
  ``{"end": true, ...}`` summary — or ``{"error": envelope}`` if the
  query dies mid-stream, so a truncated result is never mistaken for a
  complete one.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from ..errors import (
    CatalogError,
    DeadlineExpiredError,
    ExecutionError,
    InjectedFaultError,
    NetworkError,
    ProtocolError,
    QueryCancelled,
    QueryTimeout,
    ReproError,
    RewriteMismatchError,
    RowBudgetExceeded,
    ServiceOverloadedError,
    ServiceShutdownError,
    SqlError,
    TicketWaitTimeout,
    TransientImsError,
    UniquenessViolationError,
    UnsupportedQueryError,
    WriteConflictError,
)
from ..resilience.admission import PRIORITY_HEADER
from ..resilience.deadline import DEADLINE_HEADER
from ..types.values import NULL

#: Content types both ends agree on.
CONTENT_JSON = "application/json"
CONTENT_NDJSON = "application/x-ndjson"
CONTENT_PROMETHEUS = "text/plain; version=0.0.4"

#: Header carrying the request id end to end.
REQUEST_ID_HEADER = "X-Request-Id"

#: Errors taxonomy → HTTP status, matched subclass-first (mirrors the
#: CLI exit-code table in :mod:`repro.cli`).  429/503 are the two
#: retryable families: backpressure and drain/transient infrastructure.
ERROR_STATUS: list[tuple[type[BaseException], int]] = [
    (ServiceOverloadedError, 429),  # includes LoadShedError (shedding)
    (ServiceShutdownError, 503),
    (TicketWaitTimeout, 408),
    (DeadlineExpiredError, 504),  # budget gone before execution began
    (QueryTimeout, 504),
    (RowBudgetExceeded, 413),
    (QueryCancelled, 503),
    (TransientImsError, 503),
    (InjectedFaultError, 503),
    (RewriteMismatchError, 500),
    # Write conflicts: the request was well-formed but lost to a
    # concurrent committer.  409 is deliberately NOT retryable at the
    # transport level — blindly replaying a conflicting write is a
    # correctness decision only the application can make.
    (UniquenessViolationError, 409),
    (WriteConflictError, 409),
    (ProtocolError, 400),
    (NetworkError, 502),
    (SqlError, 400),
    (CatalogError, 400),
    (UnsupportedQueryError, 400),
    (ExecutionError, 400),
]

#: Default Retry-After (seconds) attached to retryable statuses.
ERROR_RETRY_AFTER = 1.0

#: Ceiling on the advertised Retry-After, whatever the error reports.
#: A shedding controller under a pathological spike can predict queue
#: waits far beyond anything a client should sleep on one attempt.
ERROR_RETRY_AFTER_CAP = 5.0

#: Statuses a client may retry (with the envelope's ``retryable`` flag
#: as the authoritative signal when an envelope is present).
RETRYABLE_STATUSES = frozenset({429, 503})


def status_for_error(error: BaseException) -> int:
    """The HTTP status for *error*: taxonomy first, 400 for other
    library errors (the request was unprocessable), 500 otherwise."""
    for cls, status in ERROR_STATUS:
        if isinstance(error, cls):
            return status
    if isinstance(error, ReproError):
        return 400
    return 500


def retry_after_for_error(error: BaseException) -> float:
    """The Retry-After hint (seconds) to advertise for *error*.

    A :class:`~repro.errors.LoadShedError` carries the admission
    controller's own queue-delay prediction — the single best estimate
    of when retrying will actually succeed — so that is what the 429
    advertises (capped; a pathological spike can predict waits no
    client should sleep through in one attempt).  Everything else gets
    the fixed default.
    """
    predicted = getattr(error, "predicted_wait", None)
    if isinstance(predicted, (int, float)) and predicted > 0:
        return round(min(float(predicted), ERROR_RETRY_AFTER_CAP), 3)
    return ERROR_RETRY_AFTER


def error_envelope(
    error: BaseException, request_id: str | None = None
) -> tuple[int, dict[str, Any]]:
    """``(status, envelope_dict)`` for one failure."""
    status = status_for_error(error)
    body: dict[str, Any] = {
        "type": type(error).__name__,
        "message": str(error),
        "status": status,
        "retryable": status in RETRYABLE_STATUSES,
    }
    if status in RETRYABLE_STATUSES:
        body["retry_after"] = retry_after_for_error(error)
    if request_id:
        body["request_id"] = request_id
    return status, {"error": body}


# ---------------------------------------------------------------------------
# value codec


def encode_value(value: Any) -> Any:
    """One SQL value → its JSON form (NULL → ``null``)."""
    return None if value is NULL else value


def decode_value(value: Any) -> Any:
    """One JSON value → its SQL form (``null`` → NULL)."""
    return NULL if value is None else value


def encode_rows(rows: Iterable[tuple]) -> list[list[Any]]:
    """Result rows → JSON arrays."""
    return [[encode_value(value) for value in row] for row in rows]


def decode_rows(rows: Iterable[Iterable[Any]]) -> list[tuple]:
    """JSON arrays → result rows (tuples, NULLs restored)."""
    return [tuple(decode_value(value) for value in row) for row in rows]


def encode_params(params: Mapping[str, Any] | None) -> dict[str, Any] | None:
    """Host-variable bindings → their JSON form."""
    if params is None:
        return None
    return {name: encode_value(value) for name, value in params.items()}


def decode_params(params: Any) -> dict[str, Any] | None:
    """JSON host-variable bindings → SQL values, validated."""
    if params is None:
        return None
    if not isinstance(params, Mapping):
        raise ProtocolError("params must be a JSON object")
    decoded: dict[str, Any] = {}
    for name, value in params.items():
        if not isinstance(name, str):
            raise ProtocolError("param names must be strings")
        if value is not None and not isinstance(value, (int, float, str)):
            raise ProtocolError(
                f"param {name!r} must be a scalar or null"
            )
        decoded[name] = decode_value(value)
    return decoded


# ---------------------------------------------------------------------------
# request parsing (server side)


def parse_json(raw: bytes) -> dict[str, Any]:
    """Decode a request body; malformed JSON is a typed 400."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"malformed JSON body: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    return payload


def parse_query_request(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Validate a ``/v1/query`` body into its typed pieces.

    Returns a dict with keys ``sql``, ``params``, ``session``,
    ``options`` (an :class:`~repro.options.ExecutionOptions`),
    ``stream``, and ``wait_timeout``.
    """
    from ..options import ExecutionOptions

    known = {"sql", "params", "session", "options", "stream", "wait_timeout"}
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(
            f"unknown request field(s): {', '.join(sorted(unknown))}"
        )
    sql = payload.get("sql")
    if not isinstance(sql, str) or not sql.strip():
        raise ProtocolError("field 'sql' must be a non-empty string")
    session = payload.get("session")
    if session is not None and not isinstance(session, str):
        raise ProtocolError("field 'session' must be a string")
    stream = payload.get("stream", False)
    if not isinstance(stream, bool):
        raise ProtocolError("field 'stream' must be a boolean")
    wait_timeout = payload.get("wait_timeout")
    if wait_timeout is not None and (
        not isinstance(wait_timeout, (int, float))
        or isinstance(wait_timeout, bool)
        or wait_timeout <= 0
    ):
        raise ProtocolError("field 'wait_timeout' must be a positive number")
    return {
        "sql": sql,
        "params": decode_params(payload.get("params")),
        "session": session,
        "options": ExecutionOptions.from_wire(payload.get("options")),
        "stream": stream,
        "wait_timeout": float(wait_timeout) if wait_timeout else None,
    }


# ---------------------------------------------------------------------------
# response building (server side) / parsing (client side)


def query_response(executed: Any) -> dict[str, Any]:
    """The non-streamed ``/v1/query`` response body for an
    :class:`~repro.api.ExecutedQuery`."""
    body: dict[str, Any] = {
        "request_id": executed.request_id,
        "columns": list(executed.columns),
        "rows": encode_rows(executed.rows),
        "row_count": len(executed.rows),
        "rowcount": executed.rowcount,
        "final_sql": executed.sql,
        "rewritten": executed.rewritten,
        "rules": list(executed.rules),
        "mismatch": executed.mismatch,
        "stats": dict(executed.stats),
    }
    if executed.analysis is not None:
        body["analysis"] = executed.analysis
    return body


def stream_header(executed: Any) -> dict[str, Any]:
    """First NDJSON line: everything known before the rows."""
    body = query_response(executed)
    del body["rows"]
    del body["row_count"]
    return body


def stream_chunk(rows: list[tuple]) -> dict[str, Any]:
    """One NDJSON rows chunk."""
    return {"rows": encode_rows(rows)}


def stream_footer(executed: Any) -> dict[str, Any]:
    """Final NDJSON line: the row count seals the stream as complete."""
    return {"end": True, "row_count": len(executed.rows)}


def parse_query_response(payload: Mapping[str, Any]) -> "Any":
    """A response body → an :class:`~repro.api.ExecutedQuery`."""
    from ..api import ExecutedQuery

    if "error" in payload:
        raise decode_error(payload)
    try:
        rows = decode_rows(payload["rows"])
        rowcount = payload.get("rowcount")
        return ExecutedQuery(
            columns=list(payload["columns"]),
            rows=rows,
            sql=payload.get("final_sql", ""),
            rewritten=bool(payload.get("rewritten", False)),
            rules=list(payload.get("rules", [])),
            mismatch=bool(payload.get("mismatch", False)),
            stats=dict(payload.get("stats", {})),
            analysis=payload.get("analysis"),
            request_id=payload.get("request_id"),
            rowcount=(
                int(rowcount)
                if isinstance(rowcount, int) and not isinstance(rowcount, bool)
                else len(rows)
            ),
        )
    except (KeyError, TypeError) as error:
        raise ProtocolError(f"malformed query response: {error}") from None


def decode_error(payload: Mapping[str, Any]) -> ReproError:
    """An error envelope → the typed client-side exception."""
    from ..errors import RemoteQueryError, TransientNetworkError

    envelope = payload.get("error")
    if not isinstance(envelope, Mapping):
        raise ProtocolError("malformed error envelope")
    error_type = str(envelope.get("type", "ReproError"))
    message = str(envelope.get("message", ""))
    status = int(envelope.get("status", 500))
    if envelope.get("retryable"):
        retry_after = envelope.get("retry_after")
        return TransientNetworkError(
            f"{error_type}: {message}",
            status=status,
            retry_after=float(retry_after) if retry_after else None,
        )
    return RemoteQueryError(error_type, message, status)


def dumps(payload: Mapping[str, Any]) -> bytes:
    """Canonical JSON bytes for one body or NDJSON line."""
    return json.dumps(payload, separators=(",", ":"), default=str).encode(
        "utf-8"
    )
