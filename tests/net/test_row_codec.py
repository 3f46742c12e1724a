"""The row codec ≡ the per-value codec it replaced.

``reference_codec.py`` keeps the old per-value encoder and decoder as
the oracle.  For any result — NULLs, bools, ints, floats at the edges,
strings with quotes, backslashes, non-ASCII and the text ``null`` — the
response bytes must be the oracle's, the decoded rows must be the rows
that were sent (NULL at exactly the same positions, bools still bools),
and the server's NDJSON at any chunk size must assemble to the same
:class:`~repro.api.ExecutedQuery` as the plain response.

A response whose rows are not an array of arrays is a
:class:`~repro.errors.ProtocolError` on the plain and the streamed path
alike, never a raw ``TypeError`` or a string split into characters.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import ExecutedQuery
from repro.engine.database import Database
from repro.errors import ProtocolError
from repro.net import protocol
from repro.net.client import HttpBackend, connect
from repro.net.protocol import CONTENT_JSON, CONTENT_NDJSON
from repro.net.server import QueryServer
from repro.types.values import NULL

from . import reference_codec

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

VALUES = st.one_of(
    st.just(NULL),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e308]),
    st.text(),
    st.sampled_from(['"', "\\", "null", "NULL", 'say "hi"\\n', "é", "日本語"]),
)

#: ``(arity, rows)``: arity 1–6, 0–50 rows.
RESULTS = st.integers(1, 6).flatmap(
    lambda arity: st.tuples(
        st.just(arity), st.lists(st.tuples(*[VALUES] * arity), max_size=50)
    )
)

CHUNK_SIZES = (1, 7, 1000)


def executed(arity: int, rows: list[tuple]) -> ExecutedQuery:
    return ExecutedQuery(
        columns=[f"C{i}" for i in range(arity)],
        rows=rows,
        sql="SELECT C0 FROM T",
        rewritten=True,
        rules=["distinct-elimination"],
        stats={"rows_scanned": len(rows)},
        request_id="req-000001",
        rowcount=len(rows),
    )


def assert_same_rows(decoded: list, rows: list[tuple]) -> None:
    assert len(decoded) == len(rows)
    for got, sent in zip(decoded, rows):
        assert type(got) is tuple and len(got) == len(sent)
        for value, original in zip(got, sent):
            assert (value is NULL) == (original is NULL)
            assert type(value) is type(original)
            assert repr(value) == repr(original)  # -0.0, 1e308, exact floats


class _Recording:
    """The part of a serving ``Exchange`` a stream writes to."""

    def __init__(self) -> None:
        self.written: list[bytes] = []

    def send(self, status, body, headers) -> None:
        assert status == 200 and body is None

    def write(self, data: bytes) -> None:
        self.written.append(data)

    def end(self) -> None:
        pass


def server_ndjson(result: ExecutedQuery, chunk_rows: int) -> bytes:
    """The NDJSON body ``QueryServer`` writes for *result*."""
    exchange = _Recording()
    server = SimpleNamespace(
        stream_chunk_rows=chunk_rows, metrics=SimpleNamespace(inc=lambda name: None)
    )
    QueryServer._stream_result(server, exchange, result)
    return b"".join(exchange.written)


@pytest.fixture(scope="module")
def backend():
    backend = HttpBackend("http://127.0.0.1:9")
    yield backend
    backend.close()


@settings(max_examples=300, **COMMON)
@given(RESULTS)
def test_bytes_are_the_per_value_codecs(drawn):
    result = executed(*drawn)
    assert protocol.dumps(protocol.query_response(result)) == reference_codec.dumps(
        reference_codec.query_response(result)
    )
    assert protocol.dumps(protocol.stream_chunk(result.rows)) == reference_codec.dumps(
        reference_codec.stream_chunk(result.rows)
    )
    first_row = result.rows[0] if result.rows else ()
    params = {f"P{i}": value for i, value in enumerate(first_row)}
    assert protocol.dumps({"params": params}) == reference_codec.dumps(
        {"params": reference_codec.encode_params(params)}
    )


@settings(max_examples=300, **COMMON)
@given(RESULTS)
def test_decoded_rows_are_the_rows_sent(drawn):
    result = executed(*drawn)
    raw = protocol.dumps(protocol.query_response(result))
    decoded = protocol.parse_query_response(protocol.parse_json(raw))
    assert_same_rows(decoded.rows, result.rows)


@settings(max_examples=100, **COMMON)
@given(RESULTS)
def test_streams_assemble_to_the_plain_response(backend, drawn):
    result = executed(*drawn)
    plain = protocol.parse_query_response(
        protocol.parse_json(protocol.dumps(protocol.query_response(result)))
    )
    for chunk_rows in CHUNK_SIZES:
        streamed = backend._assemble_stream(server_ndjson(result, chunk_rows))
        assert streamed == plain
        assert_same_rows(streamed.rows, plain.rows)


MALFORMED = {"number": 5, "array-of-numbers": [7], "array-of-strings": ["ab"]}


@pytest.mark.parametrize("stream", [False, True], ids=["plain", "streamed"])
@pytest.mark.parametrize("rows", MALFORMED.values(), ids=MALFORMED.keys())
def test_rows_that_are_not_arrays_of_arrays_are_refused(rows, stream, monkeypatch):
    header = {"columns": ["A"], "final_sql": "SELECT A FROM T"}
    if stream:
        lines = (header, {"rows": rows}, {"end": True, "row_count": 1})
        body = b"\n".join(json.dumps(line).encode("utf-8") for line in lines)
        reply = (200, {"Content-Type": CONTENT_NDJSON}, body)
    else:
        body = json.dumps({**header, "rows": rows}).encode("utf-8")
        reply = (200, {"Content-Type": CONTENT_JSON}, body)
    with connect("http://127.0.0.1:9", stream=stream) as conn:
        monkeypatch.setattr(conn._backend, "_exchange", lambda *request: reply)
        with pytest.raises(ProtocolError, match="array of arrays"):
            conn.execute("SELECT A FROM T")
        assert conn._backend.retries == 0


@pytest.fixture(scope="module")
def text_null_server():
    """A server over rows that hold the text ``null``, a real NULL, or
    neither."""
    db = Database.from_script(
        "CREATE TABLE T (K INT NOT NULL, S VARCHAR(8), PRIMARY KEY (K));"
        "INSERT INTO T VALUES (1, 'null'), (2, NULL), (3, 'x');"
    )
    with QueryServer(db, workers=1) as server:
        yield server


@pytest.mark.parametrize("stream", [False, True], ids=["plain", "streamed"])
@pytest.mark.parametrize(
    "key, expected",
    [(1, ("null",)), (2, (NULL,)), (3, ("x",))],
    ids=["text-null", "real-null", "no-null"],
)
def test_the_text_null_and_a_real_null_survive_the_skipped_scan(
    text_null_server, stream, key, expected
):
    """A body without a ``null`` token skips the NULL scan; the text
    ``null`` is still text and a real NULL still comes back as NULL."""
    with connect(text_null_server.url, stream=stream) as conn:
        rows = conn.execute("SELECT S FROM T WHERE K = :K", {"K": key}).fetchall()
    assert_same_rows(rows, [expected])


def test_a_body_without_a_null_token_decodes_to_the_same_rows():
    rows = [["null", 1, True], ["x", 2.5, False]]
    raw = json.dumps(rows).encode("utf-8")
    assert protocol.decode_rows(rows, b"null" in raw) == protocol.decode_rows(rows)
    assert protocol.decode_rows([["x", 2]], False) == [("x", 2)]
