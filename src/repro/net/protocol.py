"""The HTTP+JSON query protocol: schemas, value codec, error mapping.

The contract both ends share:

* **Values.**  SQL values are JSON scalars; the NULL sentinel crosses
  the wire as JSON ``null`` and is restored on receipt, so a row that
  travelled the socket compares ``≐``-identical to one produced
  in-process.  Rows are JSON arrays, restored to tuples; a response
  whose rows are not an array of arrays is a :class:`ProtocolError`.
  ``json`` writes the engine's row tuples itself (NULL through
  :func:`dumps`' fallback), and the decoder rebuilds only the rows that
  hold a ``null``, so neither end runs a Python frame per value.
* **Requests.**  ``POST /v1/query`` carries ``{"sql": ..., "params":
  {...}, "session": ..., "options": {...}, "stream": bool,
  "wait_timeout": seconds}`` where ``options`` is the wire form of
  :class:`~repro.options.ExecutionOptions` — the same frozen value the
  local facade and the service use.
* **Errors.**  Failures travel as an *envelope* ``{"error": {"type",
  "message", "status", "retryable", "retry_after"?}}``; the status code
  comes from :data:`repro.errors.ERROR_TABLE`, the table that also
  holds the CLI exit codes.  A client must retry only when
  ``retryable`` is true (429 backpressure, 503 drain/transient faults)
  and must honour ``Retry-After``.  Write conflicts — a candidate key
  taken or a write-write race lost to a concurrent committer — are
  ``409 Conflict`` and never transport-retryable.
* **Streaming.**  With ``"stream": true`` the response is NDJSON
  (``application/x-ndjson``): a header object, ``{"rows": [...]}``
  chunk objects flushed incrementally, and a final
  ``{"end": true, ...}`` summary — or ``{"error": envelope}`` if the
  query dies mid-stream, so a truncated result is never mistaken for a
  complete one.
"""

from __future__ import annotations

import json
from itertools import compress, count, repeat
from operator import contains
from typing import Any, Mapping

from ..errors import (
    RETRYABLE_STATUSES,
    ProtocolError,
    ReproError,
    status_for_error,
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

#: Default Retry-After (seconds) attached to retryable statuses.
ERROR_RETRY_AFTER = 1.0

#: Ceiling on the advertised Retry-After, whatever the error reports.
#: A shedding controller under a pathological spike can predict queue
#: waits far beyond anything a client should sleep on one attempt.
ERROR_RETRY_AFTER_CAP = 5.0


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
    retryable = status in RETRYABLE_STATUSES
    body: dict[str, Any] = {
        "type": type(error).__name__,
        "message": str(error),
        "status": status,
        "retryable": retryable,
    }
    if retryable:
        body["retry_after"] = retry_after_for_error(error)
    if request_id:
        body["request_id"] = request_id
    return status, {"error": body}


# ---------------------------------------------------------------------------
# value codec


def _wire_value(value: Any) -> Any:
    """``json``'s fallback for what it cannot write: NULL is ``null``,
    any other object its ``str`` text."""
    return None if value is NULL else str(value)


#: No cycle check: a body is a fresh tree of dicts and lists over row
#: tuples of scalars, and the check's per-container bookkeeping was half
#: of encoding a 4 000-row result.
_ENCODER = json.JSONEncoder(
    separators=(",", ":"), default=_wire_value, check_circular=False
)


def decode_rows(rows: Any, nulls: bool = True) -> list[tuple]:
    """JSON arrays → result rows (tuples, NULLs restored).

    *rows* must be an array of arrays.  Rows become tuples, and the rows
    holding a ``null`` are found, in C-level passes; only those are
    rebuilt with NULL.  ``nulls=False`` says the JSON text the rows came
    from holds no ``null`` token, so no row can hold one and that pass
    is skipped (a string holding the text ``null`` only costs the pass).
    """
    if not isinstance(rows, list) or not {list}.issuperset(map(type, rows)):
        raise ProtocolError("response rows must be an array of arrays")
    decoded = list(map(tuple, rows))
    if not nulls:
        return decoded
    for at in compress(count(), map(contains, decoded, repeat(None))):
        decoded[at] = tuple([NULL if v is None else v for v in decoded[at]])
    return decoded


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
        decoded[name] = NULL if value is None else value
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
        "rows": executed.rows,
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
    return {"rows": rows}


def stream_footer(executed: Any) -> dict[str, Any]:
    """Final NDJSON line: the row count seals the stream as complete."""
    return {"end": True, "row_count": len(executed.rows)}


def parse_query_response(payload: Mapping[str, Any], nulls: bool = True) -> "Any":
    """A response body → an :class:`~repro.api.ExecutedQuery` (*nulls*
    as for :func:`decode_rows`)."""
    if "error" in payload:
        raise decode_error(payload)
    return executed_query(payload, decode_rows(payload.get("rows"), nulls))


def executed_query(header: Mapping[str, Any], rows: list[tuple]) -> "Any":
    """A response's fields and its decoded *rows* → an
    :class:`~repro.api.ExecutedQuery` (a stream's rows arrive apart from
    its header)."""
    from ..api import ExecutedQuery

    try:
        rowcount = header.get("rowcount")
        return ExecutedQuery(
            columns=list(header["columns"]),
            rows=rows,
            sql=header.get("final_sql", ""),
            rewritten=bool(header.get("rewritten", False)),
            rules=list(header.get("rules", [])),
            mismatch=bool(header.get("mismatch", False)),
            stats=dict(header.get("stats", {})),
            analysis=header.get("analysis"),
            request_id=header.get("request_id"),
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
    """Canonical JSON bytes for one body or NDJSON line (row tuples are
    arrays, NULL is ``null``)."""
    return _ENCODER.encode(payload).encode("utf-8")
