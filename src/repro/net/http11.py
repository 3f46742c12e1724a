"""HTTP/1.1 heads and framing as pure functions over bytes.

Nothing here touches a socket.  Both servers
(:class:`~repro.net.server.QueryServer` and
:class:`~repro.cluster.ClusterFrontend`, through
:mod:`repro.net.serving`) and the front end's worker hop call these
functions, so a head is parsed, a body framed and a connection kept or
closed by one set of rules:

* a head is a request line or status line plus ``Name: value`` fields,
  ended by a blank line; anything else is a
  :class:`~repro.errors.ProtocolError` (HTTP/0.9 request lines and
  folded fields included);
* a body is ``Content-Length`` bytes.  A request without the field has
  none; a response without it runs to the end of the connection.  A
  negative or non-numeric length, or a request that names a transfer
  coding, is a :class:`~repro.errors.ProtocolError`;
* only HTTP/1.1 keeps a connection, and only while neither side says
  ``Connection: close``.
"""

from __future__ import annotations

from http import HTTPStatus
from typing import Iterable, NamedTuple

from ..errors import ProtocolError

#: The blank line that ends a head.
HEAD_END = b"\r\n\r\n"

#: The interim reply a client that sent ``Expect: 100-continue`` waits for.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

_VERSIONS = ("HTTP/1.1", "HTTP/1.0")
_PHRASES = {status.value: status.phrase for status in HTTPStatus}


class Headers(tuple):
    """``(name, value)`` pairs in wire order.  :meth:`get` compares
    names case-insensitively, as HTTP does."""

    __slots__ = ()

    def get(self, name: str, default: str | None = None) -> str | None:
        """The first value of field *name*, else *default*."""
        name = name.lower()
        for key, value in self:
            if key.lower() == name:
                return value
        return default


class Request(NamedTuple):
    method: str
    target: str
    version: str
    headers: Headers


class Response(NamedTuple):
    version: str
    status: int
    reason: str
    headers: Headers


def parse_head(data: bytes) -> Request | Response:
    """One head, with or without its blank line, as a request or a
    response (a first line that starts with ``HTTP/`` is a status line)."""
    if data.endswith(HEAD_END):
        data = data[: -len(HEAD_END)]
    first, *fields = data.decode("latin-1").split("\r\n")
    parts = first.split(" ", 2)
    headers = Headers(_field(line) for line in fields)
    if first.startswith("HTTP/"):
        status = _digits(parts[1]) if len(parts) > 1 else None
        if parts[0] not in _VERSIONS or status is None:
            raise ProtocolError(f"malformed status line {first!r}")
        reason = parts[2] if len(parts) == 3 else ""
        return Response(parts[0], status, reason, headers)
    if len(parts) != 3 or parts[2] not in _VERSIONS or not all(parts):
        raise ProtocolError(f"malformed request line {first!r}")
    return Request(parts[0], parts[1], parts[2], headers)


def _field(line: str) -> tuple[str, str]:
    name, colon, value = line.partition(":")
    if not colon or not name or name != name.strip(" \t"):
        raise ProtocolError(f"malformed header line {line!r}")
    return name, value.strip(" \t")


def _digits(text: str) -> int | None:
    """*text* as a non-negative ASCII decimal, else None."""
    return int(text) if text.isascii() and text.isdigit() else None


def body_length(head: Request | Response) -> int | None:
    """How many body bytes follow *head*: None means "up to EOF"."""
    raw = head.headers.get("Content-Length")
    if raw is None:
        if isinstance(head, Response):
            return None
        if head.headers.get("Transfer-Encoding") is not None:
            raise ProtocolError("request transfer codings are not supported")
        return 0
    length = _digits(raw)
    if length is None:
        raise ProtocolError(f"malformed Content-Length {raw!r}")
    return length


def keeps_alive(head: Request | Response) -> bool:
    """Whether the connection carries another message after this one."""
    tokens = (head.headers.get("Connection") or "").lower().split(",")
    return head.version == "HTTP/1.1" and "close" not in map(str.strip, tokens)


def encode_head(head: Request | Response) -> bytes:
    """The wire form of *head*, blank line included."""
    if isinstance(head, Request):
        first = f"{head.method} {head.target} {head.version}"
    else:
        first = f"{head.version} {head.status} {head.reason}"
    lines = [first, *(f"{name}: {value}" for name, value in head.headers)]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def response_head(status: int, headers: Iterable[tuple[str, str]]) -> bytes:
    """An HTTP/1.1 status line with the standard phrase, and *headers*."""
    return encode_head(
        Response("HTTP/1.1", status, _PHRASES.get(status, ""), Headers(headers))
    )
