"""The per-value row codec that ``repro.net.protocol`` replaced.

Kept unchanged as the oracle of ``test_row_codec.py``: one Python call
per value on both ends, NULL mapped to ``None`` before ``json`` sees a
row, and ``str`` for anything else ``json`` cannot write.  The bytes it
produces are the wire format; the new codec must produce the same ones.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from repro.types.values import NULL


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


def stream_chunk(rows: list[tuple]) -> dict[str, Any]:
    """One NDJSON rows chunk."""
    return {"rows": encode_rows(rows)}


def dumps(payload: Mapping[str, Any]) -> bytes:
    """Canonical JSON bytes for one body or NDJSON line."""
    return json.dumps(payload, separators=(",", ":"), default=str).encode(
        "utf-8"
    )
