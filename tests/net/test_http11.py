"""The HTTP/1.1 codec: how a head frames its body and whether its
connection carries another message, what it refuses, head and chunk
round trips, and field names compared without regard to case."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net import http11
from repro.net.http11 import Headers, Request, Response


def request(*fields: tuple[str, str], version: str = "HTTP/1.1") -> Request:
    return Request("POST", "/v1/query", version, Headers(fields))


def response(*fields: tuple[str, str]) -> Response:
    return Response("HTTP/1.1", 200, "OK", Headers(fields))


@pytest.mark.parametrize(
    "head, length, keeps_alive",
    [
        (request(("Content-Length", "17")), 17, True),
        (request(), 0, True),
        (request(("Connection", "close")), 0, False),
        (request(("Connection", "keep-alive, close")), 0, False),
        (request(version="HTTP/1.0"), 0, False),
        (request(("Connection", "keep-alive"), version="HTTP/1.0"), 0, False),
        (response(("Content-Length", "5")), 5, True),
        (response(), None, True),  # the body runs to EOF
        (response(("Connection", "close")), None, False),
        (response(("Transfer-Encoding", "chunked")), http11.CHUNKED, True),
        (response(("transfer-encoding", "Chunked")), http11.CHUNKED, True),
    ],
    ids=[
        "length",
        "no length",
        "close",
        "close among tokens",
        "HTTP/1.0",
        "HTTP/1.0 keep-alive",
        "reply length",
        "reply without length",
        "reply close",
        "reply chunked",
        "reply chunked, lower case",
    ],
)
def test_framing(head, length, keeps_alive):
    assert http11.body_length(head) == length
    assert http11.keeps_alive(head) is keeps_alive


@pytest.mark.parametrize("value", ["-1", "abc", "", "1.5", "0x10", "1 2", "²"])
def test_a_malformed_content_length_is_refused(value):
    with pytest.raises(ProtocolError):
        http11.body_length(request(("Content-Length", value)))


def test_a_request_transfer_coding_is_refused():
    with pytest.raises(ProtocolError):
        http11.body_length(request(("Transfer-Encoding", "chunked")))


def test_a_reply_coding_other_than_chunked_is_refused():
    with pytest.raises(ProtocolError):
        http11.body_length(response(("Transfer-Encoding", "gzip, chunked")))


@pytest.mark.parametrize(
    "line", [b"\r\n", b"zz\r\n", b"-1\r\n", b"0x10\r\n", b"1_0\r\n", b"+5\r\n"]
)
def test_a_malformed_chunk_size_is_refused(line):
    with pytest.raises(ProtocolError):
        http11.chunk_size(line)


def test_chunk_size_lines_read_hex_and_skip_extensions():
    assert http11.chunk_size(b"1F\r\n") == 31
    assert http11.chunk_size(b"a;name=value\r\n") == 10
    assert http11.chunk_size(b"0\r\n") == 0


def test_chunk_data_needs_its_crlf():
    assert http11.chunk_data(b"abc\r\n") == b"abc"
    with pytest.raises(ProtocolError):
        http11.chunk_data(b"abcd")
    with pytest.raises(ValueError):
        http11.encode_chunk(b"")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=300), max_size=5))
def test_chunks_round_trip(pieces):
    body = b"".join(map(http11.encode_chunk, pieces)) + http11.LAST_CHUNK
    got, rest = [], body
    while True:
        line, _, rest = rest.partition(b"\r\n")
        size = http11.chunk_size(line + b"\r\n")
        if not size:
            break
        got.append(http11.chunk_data(rest[: size + 2]))
        rest = rest[size + 2 :]
    assert got == pieces and rest == b"\r\n"


@pytest.mark.parametrize(
    "data",
    [
        b"GET /healthz\r\n\r\n",  # an HTTP/0.9 request line
        b"GET /healthz HTTP/2.0\r\n\r\n",
        b"GET  /healthz HTTP/1.1\r\n\r\n",
        b"\r\n\r\n",
        b"GET / HTTP/1.1\r\nNo-Colon\r\n\r\n",
        b"GET / HTTP/1.1\r\n Folded: x\r\n\r\n",
        b"GET / HTTP/1.1\r\nName : x\r\n\r\n",
        b"HTTP/1.1 OK\r\n\r\n",
    ],
)
def test_a_malformed_head_is_refused(data):
    with pytest.raises(ProtocolError):
        http11.parse_head(data)


def test_field_names_compare_case_insensitively():
    head = http11.parse_head(
        b"POST / HTTP/1.1\r\ncontent-LENGTH: 3\r\nCONNECTION: Close\r\n\r\n"
    )
    assert head.headers.get("Content-Length") == "3"
    assert http11.body_length(head) == 3
    assert not http11.keeps_alive(head)
    assert head.headers == (("content-LENGTH", "3"), ("CONNECTION", "Close"))


def test_the_first_value_of_a_repeated_field_wins():
    parsed = http11.parse_head(b"GET / HTTP/1.1\r\nX-A: 1\r\nx-a: 2\r\n\r\n")
    built = request(("X-A", "1"), ("x-a", "2"))
    assert parsed.headers.get("x-A") == built.headers.get("x-A") == "1"
    assert parsed.headers.get("missing", "none") == "none"


def test_a_response_head_carries_the_standard_phrase():
    head = http11.parse_head(http11.response_head(429, [("Retry-After", "1.0")]))
    assert head == Response(
        "HTTP/1.1", 429, "Too Many Requests", Headers([("Retry-After", "1.0")])
    )


_TOKEN = st.text(
    alphabet="abcXYZ019-!#$%&'*+.^_`|~", min_size=1, max_size=12
)
_VISIBLE = st.characters(min_codepoint=0x21, max_codepoint=0x7E)
# Field values and reasons: visible ASCII and inner spaces (a parser
# strips the spaces around a value).
_TEXT = st.text(alphabet=st.one_of(_VISIBLE, st.just(" ")), max_size=24).map(
    lambda text: text.strip(" ")
)
_HEADERS = st.lists(st.tuples(_TOKEN, _TEXT), max_size=6).map(Headers)
_VERSION = st.sampled_from(["HTTP/1.1", "HTTP/1.0"])
_HEADS = st.one_of(
    st.builds(
        Request,
        _TOKEN,
        st.text(alphabet=_VISIBLE, min_size=1, max_size=24),
        _VERSION,
        _HEADERS,
    ),
    st.builds(Response, _VERSION, st.integers(100, 599), _TEXT, _HEADERS),
)


@settings(max_examples=300, deadline=None)
@given(_HEADS)
def test_parse_inverts_encode(head):
    assert http11.parse_head(http11.encode_head(head)) == head
