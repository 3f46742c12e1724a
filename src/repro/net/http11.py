"""HTTP/1.1 heads and framing as pure functions over bytes.

Nothing here opens, polls or writes a socket; :func:`read_request` and
:func:`read_response` read one message off a blocking stream they are
handed.  Both servers (:class:`~repro.net.server.QueryServer` and
:class:`~repro.cluster.ClusterFrontend`, through
:mod:`repro.net.serving`), the front end's worker hop and the client
call these functions, so a head is parsed, a body framed and a
connection kept or closed by one set of rules:

* a head is a request line or status line plus ``Name: value`` fields,
  ended by a blank line; anything else is a
  :class:`~repro.errors.ProtocolError` (HTTP/0.9 request lines and
  folded fields included);
* a body is ``Content-Length`` bytes, or, in a response, chunks
  (``Transfer-Encoding: chunked``: :func:`encode_chunk` frames one,
  :data:`LAST_CHUNK` ends the body, :func:`chunk_size` and
  :func:`chunk_data` read one back).  A request without the field has
  none; a response without either runs to the end of the connection.
  A negative or non-numeric length, or a request that names a transfer
  coding, is a :class:`~repro.errors.ProtocolError`;
* only HTTP/1.1 keeps a connection, and only while neither side says
  ``Connection: close``.

:func:`parse_head` reads the fields in one pass, and the head's
:class:`Headers` answers every later lookup from the index built there.
"""

from __future__ import annotations

from http import HTTPStatus
from io import BufferedReader
from typing import BinaryIO, Callable, Iterable, NamedTuple

from ..errors import ProtocolError

#: The blank line that ends a head.
HEAD_END = b"\r\n\r\n"

#: The chunk that ends a chunked body (no trailer fields).
LAST_CHUNK = b"0\r\n\r\n"

#: What :func:`body_length` returns for a chunked response body.
CHUNKED = -1

#: The interim reply a client that sent ``Expect: 100-continue`` waits for.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

_VERSIONS = ("HTTP/1.1", "HTTP/1.0")
#: The longest head or chunk-size line, and the most head lines, that
#: :func:`read_request` and :func:`read_response` accept.
_MAX_LINE = 65536
_MAX_LINES = 100

_HEX_DIGITS = frozenset(b"0123456789abcdefABCDEF")
_PHRASES = {status.value: status.phrase for status in HTTPStatus}


class Headers(tuple):
    """``(name, value)`` pairs in wire order.  :meth:`get` compares
    names case-insensitively, as HTTP does, through an index of
    lower-cased names (the first value of each) that :func:`parse_head`
    builds in its pass and any other head builds on its first lookup."""

    def __new__(
        cls,
        fields: Iterable[tuple[str, str]] = (),
        index: dict[str, str] | None = None,
    ) -> "Headers":
        self = super().__new__(cls, fields)
        self._index = index
        return self

    def get(self, name: str, default: str | None = None) -> str | None:
        """The first value of field *name*, else *default*."""
        index = self._index
        if index is None:
            index = self._index = {}
            for key, value in self:
                index.setdefault(key.lower(), value)
        return index.get(name.lower(), default)


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
    first, *lines = data.decode("latin-1").split("\r\n")
    parts = first.split(" ", 2)
    fields = []
    index: dict[str, str] = {}
    for line in lines:
        name, colon, value = line.partition(":")
        if not colon or not name or name != name.strip(" \t"):
            raise ProtocolError(f"malformed header line {line!r}")
        value = value.strip(" \t")
        fields.append((name, value))
        index.setdefault(name.lower(), value)
    headers = Headers(fields, index)
    if first.startswith("HTTP/"):
        status = _digits(parts[1]) if len(parts) > 1 else None
        if parts[0] not in _VERSIONS or status is None:
            raise ProtocolError(f"malformed status line {first!r}")
        reason = parts[2] if len(parts) == 3 else ""
        return Response(parts[0], status, reason, headers)
    if len(parts) != 3 or parts[2] not in _VERSIONS or not all(parts):
        raise ProtocolError(f"malformed request line {first!r}")
    return Request(parts[0], parts[1], parts[2], headers)


def _digits(text: str) -> int | None:
    """*text* as a non-negative ASCII decimal, else None."""
    return int(text) if text.isascii() and text.isdigit() else None


def body_length(head: Request | Response) -> int | None:
    """How many body bytes follow *head*: None means "up to EOF", and
    :data:`CHUNKED` a chunked response body."""
    headers = head.headers
    raw = headers.get("content-length")
    if raw is None:
        coding = headers.get("transfer-encoding")
        if isinstance(head, Response):
            if coding is None:
                return None
            if coding.lower() != "chunked":
                raise ProtocolError(f"unsupported transfer coding {coding!r}")
            return CHUNKED
        if coding is not None:
            raise ProtocolError("request transfer codings are not supported")
        return 0
    length = _digits(raw)
    if length is None:
        raise ProtocolError(f"malformed Content-Length {raw!r}")
    return length


def keeps_alive(head: Request | Response) -> bool:
    """Whether the connection carries another message after this one."""
    if head.version != "HTTP/1.1":
        return False
    value = head.headers.get("connection")
    return value is None or "close" not in map(str.strip, value.lower().split(","))


def encode_chunk(data: bytes) -> bytes:
    """*data* as one chunk of a chunked body (empty data would end it, so
    it is refused)."""
    if not data:
        raise ValueError("an empty chunk ends the body; send LAST_CHUNK")
    return b"%x\r\n%b\r\n" % (len(data), data)


def chunk_size(line: bytes) -> int:
    """The size a chunk's size line announces (extensions ignored)."""
    digits = line.split(b";", 1)[0].strip(b" \t\r\n")
    if not digits or not _HEX_DIGITS.issuperset(digits):
        raise ProtocolError(f"malformed chunk size line {line!r}")
    return int(digits, 16)


def chunk_data(framed: bytes) -> bytes:
    """A chunk's data, given the ``size + 2`` bytes that follow its size
    line (the data and its closing CRLF)."""
    if not framed.endswith(b"\r\n"):
        raise ProtocolError("chunk data not followed by CRLF")
    return framed[:-2]


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


def read_request(
    reader: BufferedReader, on_continue: Callable[[], None]
) -> tuple[Request, bytes] | None:
    """One request off *reader*, a blocking binary stream: its head and
    its ``Content-Length`` body; None when the connection ended before
    the request began.  *on_continue* runs before the body of a request
    that sent ``Expect: 100-continue`` is read (it sends
    :data:`CONTINUE`).  A request cut short is a
    :class:`ConnectionError`; one that cannot be framed a
    :class:`~repro.errors.ProtocolError`."""
    if not reader.peek(1):
        return None
    head = _read_head(reader)
    if not isinstance(head, Request):
        raise ProtocolError("expected a request, got a status line")
    length = body_length(head)
    if not length:
        return head, b""
    if (head.headers.get("expect") or "").lower() == "100-continue":
        on_continue()
    return head, _read_exactly(reader, length)


def read_response(reader: BinaryIO) -> tuple[Response, bytes, bool]:
    """One response off *reader*, a blocking binary stream (a socket's
    ``makefile("rb")``): its head, its whole body (de-chunked) and
    whether the body was framed, so the connection can carry another
    message.  A response cut short is a :class:`ConnectionError`; one
    that cannot be framed a :class:`~repro.errors.ProtocolError`."""
    reply = _read_head(reader)
    if not isinstance(reply, Response):
        raise ProtocolError("expected a status line, got a request")
    length = body_length(reply)
    if length is None:
        return reply, reader.read(), False
    if length == CHUNKED:
        chunks = []
        while size := chunk_size(_read_line(reader)):
            chunks.append(chunk_data(_read_exactly(reader, size + 2)))
        while _read_line(reader) != b"\r\n":
            pass  # trailer fields
        return reply, b"".join(chunks), True
    return reply, _read_exactly(reader, length), True


def _read_head(reader: BinaryIO) -> Request | Response:
    lines = []
    while (line := _read_line(reader)) != b"\r\n":
        lines.append(line)
        if len(lines) > _MAX_LINES:
            raise ProtocolError("head too long")
    return parse_head(b"".join(lines) + b"\r\n")


def _read_line(reader: BinaryIO) -> bytes:
    line = reader.readline(_MAX_LINE)
    if not line.endswith(b"\r\n"):
        if len(line) < _MAX_LINE and not line.endswith(b"\n"):
            raise ConnectionError("connection closed mid-message")
        raise ProtocolError(f"malformed line {line[:80]!r}")
    return line


def _read_exactly(reader: BinaryIO, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise ConnectionError("connection closed mid-message")
    return data
