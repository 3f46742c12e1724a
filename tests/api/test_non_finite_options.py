"""A budget that is not a finite number is refused, once, by
:class:`~repro.options.ExecutionOptions` — and so by every door built
on it: the library, the wire codec and the CLI.

NaN passes ``timeout <= 0``, so a NaN budget used to be a budget that
never fires; an infinite one never fires either.
"""

from __future__ import annotations

import json
import math

import pytest

import repro
from repro.cli import main
from repro.errors import ProtocolError
from repro.options import ExecutionOptions
from repro.resilience.deadline import Deadline

NON_FINITE = [math.nan, math.inf, -math.inf]
SQL = "SELECT S.SNO FROM SUPPLIER S"


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize(
    "name,message",
    [
        ("timeout", "timeout must be finite"),
        ("row_budget", "row budget must be finite"),
    ],
)
def test_a_non_finite_budget_is_refused(name, message, value):
    with pytest.raises(ValueError, match=message):
        ExecutionOptions(**{name: value})
    with pytest.raises(ValueError, match=message):
        ExecutionOptions().override(**{name: value})


@pytest.mark.parametrize("seconds", NON_FINITE)
def test_a_non_finite_deadline_is_refused(seconds):
    with pytest.raises(ValueError, match="deadline must be finite"):
        ExecutionOptions(deadline=Deadline.after(seconds))
    with pytest.raises(ValueError, match="deadline must be finite"):
        ExecutionOptions.create(deadline=seconds)


def test_the_connection_refuses_a_nan_timeout(tiny_db):
    with repro.connect(tiny_db) as connection:
        with pytest.raises(ValueError, match="timeout must be finite"):
            connection.execute(SQL, timeout=math.nan)


@pytest.mark.parametrize(
    "body,message",
    [
        ('{"timeout": NaN}', "timeout must be finite"),
        ('{"timeout": Infinity}', "timeout must be finite"),
        ('{"row_budget": NaN}', "row budget must be finite"),
        ('{"row_budget": Infinity}', "row budget must be finite"),
        ('{"row_budget": -Infinity}', "row budget must be finite"),
        ('{"deadline_ms": NaN}', "deadline must be finite"),
        ('{"deadline_ms": Infinity}', "deadline must be finite"),
    ],
)
def test_the_wire_codec_refuses_non_finite_numbers(body, message):
    # Python's json reads NaN and Infinity, though JSON has neither.
    with pytest.raises(ProtocolError) as info:
        ExecutionOptions.from_wire(json.loads(body))
    assert str(info.value) == f"invalid options: {message}"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [["run"], ["client", "http://127.0.0.1:1"]],
    ids=["run", "client"],
)
def test_the_cli_refuses_a_non_finite_deadline(argv, value, capsys):
    with pytest.raises(SystemExit) as info:
        main([*argv, f"--deadline-ms={value}", SQL])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error: deadline must be finite" in err
    assert "Traceback" not in err
