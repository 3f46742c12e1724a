"""The network layer: an HTTP+JSON query protocol over the service.

Five stdlib-only modules put a wire in front of the optimizer, so the
paper's rewrite wins (§6's Example 10 gateway argument: halving the
call count halves the *remote* cost) become end-to-end latency and
throughput wins measurable at the socket:

* :mod:`~repro.net.protocol` — the request/response schemas, the row
  codec (``json`` writes the engine's tuples, NULL ↔ ``null``; rows
  must be arrays of arrays, restored to tuples), and the
  errors-taxonomy → HTTP status mapping with its retryability contract;
* :mod:`~repro.net.http11` — the sans-IO HTTP/1.1 codec both ends
  use: heads, ``Content-Length`` and chunked framing and the
  keep-alive decision, as pure functions over bytes;
* :mod:`~repro.net.serving` — the blocking listener both servers run
  on (this one and the cluster front end): a thread per connection,
  which reads whole requests before dispatch and runs each on itself,
  the 400 for malformed framing, the idle timeout, the ``net_*`` fault
  sites, drain;
* :mod:`~repro.net.server` — :class:`QueryServer`, the front end over
  :class:`~repro.service.QueryService`: ``POST /v1/query`` (JSON or
  streamed NDJSON), ``POST /v1/session`` lifecycle, ``GET /healthz``,
  ``GET /metrics`` (Prometheus text), request-id propagation, typed 429
  backpressure, graceful drain;
* :mod:`~repro.net.client` — :func:`~repro.net.client.connect`, giving
  back the same :class:`~repro.api.Connection` facade as a local
  database over kept-alive raw sockets (one write per request), with
  bounded jittered retry on 429/transient faults.

Everything is importable lazily — ``import repro`` does not pay for the
HTTP machinery until a URL is actually dialed.
"""

from .client import HttpBackend, connect
from .protocol import (
    ERROR_RETRY_AFTER,
    decode_rows,
    error_envelope,
    status_for_error,
)
from .server import QueryServer

__all__ = [
    "ERROR_RETRY_AFTER",
    "HttpBackend",
    "QueryServer",
    "connect",
    "decode_rows",
    "error_envelope",
    "status_for_error",
]
