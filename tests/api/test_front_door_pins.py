"""Pins of what the front doors promise: the error taxonomy's exit codes
and HTTP statuses, each subcommand's flags and the options they build,
and the options' wire form.

Every expectation here is a literal, so a change to how the options or
the error table are stated cannot move a byte of what callers see.
"""

from __future__ import annotations

import inspect
import io
from dataclasses import replace
from itertools import product

import pytest

from repro import cli, errors
from repro.api import Connection
from repro.errors import (
    AmbiguousColumnError,
    CatalogError,
    CircuitOpenError,
    ConstraintViolation,
    DeadlineExpiredError,
    ExecutionError,
    ImsError,
    InjectedFaultError,
    LexerError,
    LoadShedError,
    MissingHostVariableError,
    NetworkError,
    OodbError,
    ParseError,
    ProtocolError,
    QueryCancelled,
    QueryTimeout,
    RemoteQueryError,
    ReproError,
    ResourceError,
    RewriteError,
    RewriteMismatchError,
    RowBudgetExceeded,
    ServiceError,
    ServiceOverloadedError,
    ServiceShutdownError,
    SqlError,
    TicketWaitTimeout,
    TransactionError,
    TransientError,
    TransientNetworkError,
    UniquenessViolationError,
    UnknownColumnError,
    UnknownTableError,
    UnsupportedQueryError,
    WriteConflictError,
    exit_code_for,
)
from repro.net import protocol
from repro.net.client import HttpBackend
from repro.options import ExecutionOptions
from repro.resilience.deadline import Deadline

# ---------------------------------------------------------------------------
# the error taxonomy

SAMPLES = {
    "ReproError": ReproError("x"),
    "SqlError": SqlError("x"),
    "LexerError": LexerError("x", 0, 1, 1),
    "ParseError": ParseError("x"),
    "CatalogError": CatalogError("x"),
    "UnknownTableError": UnknownTableError("T"),
    "UnknownColumnError": UnknownColumnError("T", "C"),
    "AmbiguousColumnError": AmbiguousColumnError("C", ["A", "B"]),
    "ConstraintViolation": ConstraintViolation("c", "d"),
    "UniquenessViolationError": UniquenessViolationError("T", "PRIMARY KEY (A)"),
    "TransactionError": TransactionError("x"),
    "WriteConflictError": WriteConflictError("T"),
    "ExecutionError": ExecutionError("x"),
    "MissingHostVariableError": MissingHostVariableError("N"),
    "ResourceError": ResourceError("x"),
    "QueryTimeout": QueryTimeout(1.0, 2.0),
    "RowBudgetExceeded": RowBudgetExceeded(1, 2),
    "QueryCancelled": QueryCancelled("r"),
    "DeadlineExpiredError": DeadlineExpiredError(0.0),
    "RewriteError": RewriteError("x"),
    "RewriteMismatchError": RewriteMismatchError(["r"], "SELECT 1"),
    "TransientError": TransientError("GL"),
    "InjectedFaultError": InjectedFaultError("site"),
    "UnsupportedQueryError": UnsupportedQueryError("x"),
    "ImsError": ImsError("x"),
    "OodbError": OodbError("x"),
    "ServiceError": ServiceError("x"),
    "ServiceOverloadedError": ServiceOverloadedError(3),
    "LoadShedError": LoadShedError("batch", 0.25, 3),
    "ServiceShutdownError": ServiceShutdownError(),
    "TicketWaitTimeout": TicketWaitTimeout(1.0, "SELECT 1"),
    "NetworkError": NetworkError("x"),
    "ProtocolError": ProtocolError("x"),
    "TransientNetworkError": TransientNetworkError("x", status=0),
    "CircuitOpenError": CircuitOpenError(0.5),
    "RemoteQueryError": RemoteQueryError("RowBudgetExceeded", "m", 413),
    "ValueError": ValueError("not a library error"),
}

#: name → (exit code, HTTP status, retryable, retry_after present,
#: exit code of a RemoteQueryError relaying that name).
TAXONOMY = {
    "ReproError": (2, 400, False, False, 2),
    "SqlError": (2, 400, False, False, 2),
    "LexerError": (2, 400, False, False, 2),
    "ParseError": (2, 400, False, False, 2),
    "CatalogError": (2, 400, False, False, 2),
    "UnknownTableError": (2, 400, False, False, 2),
    "UnknownColumnError": (2, 400, False, False, 2),
    "AmbiguousColumnError": (2, 400, False, False, 2),
    "ConstraintViolation": (2, 400, False, False, 2),
    "UniquenessViolationError": (13, 409, False, False, 13),
    "TransactionError": (2, 400, False, False, 2),
    "WriteConflictError": (13, 409, False, False, 13),
    "ExecutionError": (2, 400, False, False, 2),
    "MissingHostVariableError": (2, 400, False, False, 2),
    "ResourceError": (3, 400, False, False, 3),
    "QueryTimeout": (4, 504, False, False, 4),
    "RowBudgetExceeded": (5, 413, False, False, 5),
    "QueryCancelled": (6, 503, True, True, 6),
    "DeadlineExpiredError": (12, 504, False, False, 12),
    "RewriteError": (2, 400, False, False, 2),
    "RewriteMismatchError": (8, 500, False, False, 8),
    "TransientError": (7, 503, True, True, 7),
    "InjectedFaultError": (2, 503, True, True, 2),
    "UnsupportedQueryError": (2, 400, False, False, 2),
    "ImsError": (2, 400, False, False, 2),
    "OodbError": (2, 400, False, False, 2),
    "ServiceError": (2, 400, False, False, 2),
    "ServiceOverloadedError": (9, 429, True, True, 9),
    "LoadShedError": (9, 429, True, True, 2),
    "ServiceShutdownError": (2, 503, True, True, 2),
    "TicketWaitTimeout": (10, 408, False, False, 10),
    "NetworkError": (11, 502, False, False, 11),
    "ProtocolError": (11, 400, False, False, 2),
    "TransientNetworkError": (11, 502, False, False, 2),
    "CircuitOpenError": (11, 502, False, False, 2),
    "RemoteQueryError": (5, 502, False, False, 2),
    "ValueError": (2, 500, False, False, 2),
}


def test_every_error_class_is_pinned():
    classes = {
        name
        for name, value in vars(errors).items()
        if inspect.isclass(value)
        and issubclass(value, BaseException)
        and value.__module__ == "repro.errors"
    }
    assert classes | {"ValueError"} == set(TAXONOMY) == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(TAXONOMY))
def test_error_maps_to_its_exit_code_and_status(name):
    exit_code, status, retryable, has_retry_after, relayed = TAXONOMY[name]
    error = SAMPLES[name]
    assert exit_code_for(error) == exit_code
    assert protocol.status_for_error(error) == status
    got_status, envelope = protocol.error_envelope(error, "rid")
    body = envelope["error"]
    assert got_status == status
    assert body["type"] == name
    assert body["status"] == status
    assert body["retryable"] is retryable
    assert ("retry_after" in body) is has_retry_after
    assert body["request_id"] == "rid"
    assert exit_code_for(RemoteQueryError(name, "m", status)) == relayed


def test_unknown_relayed_type_exits_two():
    assert exit_code_for(RemoteQueryError("SomethingNovel", "?", 500)) == 2


@pytest.mark.parametrize(
    "code,kind",
    [
        (400, RemoteQueryError),
        (404, RemoteQueryError),
        (408, RemoteQueryError),
        (409, RemoteQueryError),
        (413, RemoteQueryError),
        (429, TransientNetworkError),
        (500, RemoteQueryError),
        (502, RemoteQueryError),
        (503, TransientNetworkError),
        (504, RemoteQueryError),
    ],
)
def test_a_reply_without_an_envelope_is_typed_by_its_status(code, kind):
    error = HttpBackend._statusline_error(code, b"body")
    assert type(error) is kind
    assert error.status == code


# ---------------------------------------------------------------------------
# the CLI's flags and the options they build

FLAGS = {
    "check": {"--json", "--paper", "--schema", "--use-check-constraints"},
    "optimize": {"--paper", "--profile", "--schema"},
    "run": {
        "--adaptive", "--analyze", "--deadline-ms", "--demo", "--json",
        "--metrics-out", "--no-optimize", "--param", "--plan", "--priority",
        "--row-budget", "--safe-mode", "--script", "--stats", "--timeout",
        "--trace",
    },
    "explain": {
        "--analyze", "--demo", "--json", "--no-optimize", "--param",
        "--profile", "--script",
    },
    "analyze-stats": {"--demo", "--json", "--script"},
    "serve": {
        "--adaptive", "--demo", "--file", "--host", "--http", "--json",
        "--queue-depth", "--row-budget", "--safe-mode", "--script",
        "--shards", "--stats", "--timeout", "--workers",
    },
    "client": {
        "--adaptive", "--analyze", "--deadline-ms", "--json", "--no-optimize",
        "--param", "--priority", "--row-budget", "--safe-mode", "--session",
        "--stats", "--stream", "--timeout",
    },
    "demo": set(),
}


def _subparsers():
    import argparse

    parser = cli.build_arg_parser()
    action = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return action.choices


def test_each_subcommand_keeps_its_flags():
    got = {
        name: {
            option
            for action in sub._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for name, sub in _subparsers().items()
    }
    assert got == FLAGS


SQL = "SELECT 1"
EVERY_RUN_OPTION = [
    "--timeout", "2.5", "--row-budget", "7", "--deadline-ms", "1500",
    "--priority", "batch", "--safe-mode", "--analyze", "--no-optimize",
    "--stats", "--adaptive",
]
EVERY_SERVE_OPTION = [
    "--timeout", "2.5", "--row-budget", "7", "--safe-mode", "--stats",
    "--adaptive",
]
URL = "http://127.0.0.1:1"

NAMESPACES = [
    (
        ["run", *EVERY_RUN_OPTION, SQL],
        {
            "command": "run", "script": None, "demo": False, "param": [],
            "plan": False, "no_optimize": True, "timeout": 2.5,
            "row_budget": 7, "deadline_ms": 1500.0, "priority": "batch",
            "safe_mode": True, "trace": False, "analyze": True,
            "stats": True, "adaptive": True, "metrics_out": None,
            "json": False, "sql": SQL,
        },
    ),
    (
        ["run", SQL],
        {
            "command": "run", "script": None, "demo": False, "param": [],
            "plan": False, "no_optimize": False, "timeout": None,
            "row_budget": None, "deadline_ms": None, "priority": None,
            "safe_mode": False, "trace": False, "analyze": False,
            "stats": False, "adaptive": False, "metrics_out": None,
            "json": False, "sql": SQL,
        },
    ),
    (
        ["serve", *EVERY_SERVE_OPTION],
        {
            "command": "serve", "script": None, "demo": False, "file": None,
            "workers": 2, "queue_depth": 64, "timeout": 2.5, "row_budget": 7,
            "safe_mode": True, "stats": True, "adaptive": True, "json": False,
            "http": None, "host": "127.0.0.1", "shards": None,
        },
    ),
    (
        ["client", URL, *EVERY_RUN_OPTION, SQL],
        {
            "command": "client", "url": URL, "session": None,
            "stream": False, "timeout": 2.5, "row_budget": 7,
            "deadline_ms": 1500.0, "priority": "batch", "safe_mode": True,
            "analyze": True, "no_optimize": True, "stats": True,
            "adaptive": True, "param": [], "json": False, "sql": SQL,
        },
    ),
    (
        ["explain", "--no-optimize", "--analyze", SQL],
        {
            "command": "explain", "script": None, "demo": False, "param": [],
            "profile": "relational", "no_optimize": True, "analyze": True,
            "json": False, "sql": SQL,
        },
    ),
]


@pytest.mark.parametrize(
    "argv,expected", NAMESPACES, ids=[argv[0] for argv, _ in NAMESPACES]
)
def test_argv_parses_to_its_namespace(argv, expected):
    assert vars(cli.build_arg_parser().parse_args(argv)) == expected


class _Captured(Exception):
    """Stops a command once the options it built are in hand."""

    def __init__(self, options):
        super().__init__("captured")
        self.options = options


EVERY_OPTION = ExecutionOptions(
    timeout=2.5,
    row_budget=7,
    safe_mode=True,
    analyze=True,
    optimize=False,
    stats=True,
    adaptive=True,
    priority="batch",
)
SERVE_OPTIONS = ExecutionOptions(
    timeout=2.5, row_budget=7, safe_mode=True, stats=True, adaptive=True
)


def _without_deadline(options, seconds):
    """*options* minus its deadline, which must leave about *seconds*."""
    if seconds is None:
        assert options.deadline is None
    else:
        assert seconds - 1.0 < options.deadline.remaining() <= seconds
    return replace(options, deadline=None)


def _capture(argv):
    with pytest.raises(_Captured) as info:
        cli.main(argv)
    return info.value.options


def test_run_builds_every_option(monkeypatch):
    def local(database, options=None):
        raise _Captured(options)

    monkeypatch.setattr(Connection, "local", local)
    options = _capture(["run", *EVERY_RUN_OPTION, SQL])
    assert _without_deadline(options, 1.5) == EVERY_OPTION
    assert _capture(["run", SQL]) == ExecutionOptions()


def test_client_builds_every_option(monkeypatch):
    def connect(url, options=None, **_):
        raise _Captured(options)

    monkeypatch.setattr(cli, "api_connect", connect)
    options = _capture(["client", URL, *EVERY_RUN_OPTION, SQL])
    assert _without_deadline(options, 1.5) == EVERY_OPTION
    assert _capture(["client", URL, SQL]) == ExecutionOptions()


@pytest.mark.parametrize(
    "flags,expected",
    [
        (EVERY_SERVE_OPTION, SERVE_OPTIONS),
        (
            ["--timeout", "2.5", "--row-budget", "7", "--safe-mode"],
            ExecutionOptions(timeout=2.5, row_budget=7, safe_mode=True),
        ),
        ([], ExecutionOptions()),
    ],
)
def test_serve_builds_its_options(monkeypatch, flags, expected):
    from repro.net import server
    from repro import cluster
    from repro.service import QueryService

    def submit_many(self, session, queries):
        raise _Captured(session.options)

    def query_server(database, options=None, **_):
        raise _Captured(options)

    def coordinator(source, shards, config=None):
        raise _Captured(ExecutionOptions.from_wire(config.options_wire))

    monkeypatch.setattr(QueryService, "submit_many", submit_many)
    monkeypatch.setattr(server, "QueryServer", query_server)
    monkeypatch.setattr(cluster, "ClusterCoordinator", coordinator)
    monkeypatch.setattr("sys.stdin", io.StringIO(SQL + "\n"))
    assert _capture(["serve", *flags]) == expected
    assert _capture(["serve", "--http", "0", *flags]) == expected
    assert _capture(["serve", "--http", "0", "--shards", "2", *flags]) == expected


# ---------------------------------------------------------------------------
# the wire form of the options

#: Per field: each value tried and the (key, value) pairs it adds to
#: ``to_wire()``.  The deadline runs on a fixed clock, so its remaining
#: milliseconds are exact.
WIRE_GRID = [
    ("timeout", [(None, []), (0.5, [("timeout", 0.5)]), (3, [("timeout", 3)])]),
    ("row_budget", [(None, []), (1, [("row_budget", 1)]), (1000, [("row_budget", 1000)])]),
    ("safe_mode", [(False, []), (True, [("safe_mode", True)])]),
    ("analyze", [(False, []), (True, [("analyze", True)])]),
    ("optimize", [(True, []), (False, [("optimize", False)])]),
    ("stats", [(False, []), (True, [("stats", True)])]),
    ("adaptive", [(False, []), (True, [("adaptive", True)])]),
    (
        "engine_mode",
        [
            (None, []),
            ("tuple", [("engine_mode", "tuple")]),
            ("vectorized", [("engine_mode", "vectorized")]),
            ("auto", [("engine_mode", "auto")]),
        ],
    ),
    (
        "deadline",
        [
            (None, []),
            (Deadline(10.0, clock=lambda: 9.0), [("deadline_ms", 1000.0)]),
            (Deadline(10.0, clock=lambda: 12.0), [("deadline_ms", 0.0)]),
        ],
    ),
    ("priority", [("interactive", []), ("batch", [("priority", "batch")])]),
    ("autocommit", [(True, []), (False, [("autocommit", False)])]),
]


def test_to_wire_over_a_grid_of_values():
    names = [name for name, _ in WIRE_GRID]
    cases = 0
    for combo in product(*(values for _, values in WIRE_GRID)):
        options = ExecutionOptions(
            **{name: value for name, (value, _) in zip(names, combo)}
        )
        expected = [pair for _, pairs in combo for pair in pairs]
        wire = options.to_wire()
        assert list(wire.items()) == expected
        assert [type(value) for value in wire.values()] == [
            type(value) for _, value in expected
        ]
        cases += 1
    assert cases == 13824


#: (payload, field, value) accepted by ``from_wire``; the value is
#: checked with its type.
WIRE_ACCEPTS = [
    ({"timeout": 1}, "timeout", 1.0),
    ({"timeout": 2.5}, "timeout", 2.5),
    ({"timeout": None}, "timeout", None),
    ({"row_budget": 5}, "row_budget", 5),
    ({"row_budget": 5.9}, "row_budget", 5),
    ({"row_budget": None}, "row_budget", None),
    ({"safe_mode": True}, "safe_mode", True),
    ({"safe_mode": False}, "safe_mode", False),
    ({"analyze": True}, "analyze", True),
    ({"optimize": False}, "optimize", False),
    ({"optimize": True}, "optimize", True),
    ({"stats": True}, "stats", True),
    ({"adaptive": True}, "adaptive", True),
    ({"autocommit": False}, "autocommit", False),
    ({"engine_mode": "tuple"}, "engine_mode", "tuple"),
    ({"engine_mode": "auto"}, "engine_mode", "auto"),
    ({"engine_mode": None}, "engine_mode", None),
    ({"deadline_ms": None}, "deadline", None),
    ({"priority": "batch"}, "priority", "batch"),
    ({"priority": "interactive"}, "priority", "interactive"),
    ({"priority": None}, "priority", "interactive"),
]


@pytest.mark.parametrize("payload,name,value", WIRE_ACCEPTS)
def test_from_wire_accepts(payload, name, value):
    options = ExecutionOptions.from_wire(payload)
    got = getattr(options, name)
    assert got == value and type(got) is type(value)
    assert replace(options, **{name: ExecutionOptions().__dict__[name]}) == (
        ExecutionOptions()
    )


@pytest.mark.parametrize(
    "ms,low,high", [(1000, 0.5, 1.0), (0, -1.0, 0.0), (2.5, -1.0, 0.0025)]
)
def test_from_wire_reanchors_the_deadline(ms, low, high):
    deadline = ExecutionOptions.from_wire({"deadline_ms": ms}).deadline
    assert low < deadline.remaining() <= high


def test_from_wire_of_nothing_is_the_defaults():
    assert ExecutionOptions.from_wire(None) == ExecutionOptions()
    assert ExecutionOptions.from_wire({}) == ExecutionOptions()


BOOLEAN = "must be a boolean"
WIRE_REJECTS = [
    ([1], "options must be a JSON object"),
    ("timeout=1", "options must be a JSON object"),
    ({"bogus": 1}, "unknown option(s): bogus"),
    ({"zeta": 1, "alpha": 2}, "unknown option(s): alpha, zeta"),
    ({"deadline": 5}, "unknown option(s): deadline"),
    ({"timeout": "fast"}, "option 'timeout' must be a number"),
    ({"timeout": True}, "option 'timeout' must be a number"),
    ({"timeout": [1]}, "option 'timeout' must be a number"),
    ({"timeout": 0}, "invalid options: timeout must be positive"),
    ({"timeout": -1.5}, "invalid options: timeout must be positive"),
    ({"row_budget": "9"}, "option 'row_budget' must be a number"),
    ({"row_budget": False}, "option 'row_budget' must be a number"),
    ({"row_budget": 0}, "invalid options: row budget must be positive"),
    ({"row_budget": 0.5}, "invalid options: row budget must be positive"),
    ({"row_budget": -3}, "invalid options: row budget must be positive"),
    ({"safe_mode": 1}, f"option 'safe_mode' {BOOLEAN}"),
    ({"safe_mode": None}, f"option 'safe_mode' {BOOLEAN}"),
    ({"analyze": "yes"}, f"option 'analyze' {BOOLEAN}"),
    ({"optimize": 0}, f"option 'optimize' {BOOLEAN}"),
    ({"stats": None}, f"option 'stats' {BOOLEAN}"),
    ({"adaptive": 1.0}, f"option 'adaptive' {BOOLEAN}"),
    ({"autocommit": "false"}, f"option 'autocommit' {BOOLEAN}"),
    (
        {"engine_mode": "fast"},
        "option 'engine_mode' must be one of 'tuple', 'vectorized', 'auto'",
    ),
    (
        {"engine_mode": 3},
        "option 'engine_mode' must be one of 'tuple', 'vectorized', 'auto'",
    ),
    ({"deadline_ms": -1}, "option 'deadline_ms' must be a non-negative number"),
    ({"deadline_ms": "soon"}, "option 'deadline_ms' must be a non-negative number"),
    ({"deadline_ms": True}, "option 'deadline_ms' must be a non-negative number"),
    (
        {"priority": "urgent"},
        "option 'priority' must be one of 'interactive', 'batch'",
    ),
    ({"priority": 1}, "option 'priority' must be one of 'interactive', 'batch'"),
]


@pytest.mark.parametrize("payload,message", WIRE_REJECTS)
def test_from_wire_rejects(payload, message):
    with pytest.raises(ProtocolError) as info:
        ExecutionOptions.from_wire(payload)
    assert str(info.value) == message
