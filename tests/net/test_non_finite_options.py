"""Both servers answer a non-finite budget with a 400 ``ProtocolError``
envelope — from the body's options or the ``X-Deadline-Ms`` header —
where a NaN once ran unbudgeted and an infinite row budget was a 500."""

from __future__ import annotations

import json

import pytest

from .conftest import SERVERS, raw_post

SQL = "SELECT SNO FROM SUPPLIER"


@pytest.mark.parametrize("server", SERVERS, indirect=True)
@pytest.mark.parametrize(
    "options,message",
    [
        ('{"timeout": NaN}', "invalid options: timeout must be finite"),
        ('{"row_budget": NaN}', "invalid options: row budget must be finite"),
        (
            '{"row_budget": Infinity}',
            "invalid options: row budget must be finite",
        ),
        ('{"deadline_ms": NaN}', "invalid options: deadline must be finite"),
    ],
)
def test_a_non_finite_option_is_a_400(server, options, message):
    body = f'{{"sql": "{SQL}", "options": {options}}}'.encode()
    status, _, raw = raw_post(server.url, "/v1/query", body)
    envelope = json.loads(raw)["error"]
    assert status == 400
    assert envelope["type"] == "ProtocolError"
    assert envelope["message"] == message
    assert envelope["retryable"] is False


@pytest.mark.parametrize("server", SERVERS, indirect=True)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_deadline_header_is_a_400(server, value):
    status, _, raw = raw_post(
        server.url, "/v1/query", {"sql": SQL}, headers={"X-Deadline-Ms": value}
    )
    envelope = json.loads(raw)["error"]
    assert status == 400
    assert envelope["type"] == "ProtocolError"
    assert envelope["message"] == (
        "header X-Deadline-Ms: deadline must be finite"
    )
