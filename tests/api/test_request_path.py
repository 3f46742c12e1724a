"""The request path's contract: one lex and one parse per request, one
print per form.

The doors (``Connection``, the ``QueryService`` worker, the HTTP server
above it) parse; below a door the AST travels with the caller's
original text, and the printed form of the rewritten AST travels with
that AST.  Counting spies on ``tokenize`` and ``to_sql`` pin it: every
request lexes exactly once, the first read of a statement prints each
distinct AST at most once, and a warm read prints none.  A malformed
statement must still surface as the same typed error, with the same
message, at every door.
"""

import functools
import sys
from collections import Counter

import pytest

import repro
import repro.sql.lexer
import repro.sql.printer
from repro.errors import (
    LexerError,
    ParseError,
    RemoteQueryError,
    UniquenessViolationError,
)
from repro.net.server import QueryServer
from repro.service import QueryService
from repro.workloads import paper_query

from ..net.conftest import raw_post

KEY_LOOKUP = "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = :K"
INSERT = "INSERT INTO AGENTS VALUES (:A, :B, 'Zed', 'Toronto')"


def spy_on(monkeypatch, module, name):
    """Count calls of ``module.name`` wherever ``repro`` imported it.

    Returns the list of first arguments, one per call.  The arguments
    are kept alive, so ``id()`` of a printed AST cannot be reused by a
    later one.
    """
    original = getattr(module, name)
    calls = []

    @functools.wraps(original)
    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for loaded in list(sys.modules.values()):
        if (
            getattr(loaded, "__name__", "").startswith("repro")
            and vars(loaded).get(name) is original
        ):
            monkeypatch.setattr(loaded, name, spy)
    return calls


@pytest.fixture()
def lexed(monkeypatch):
    return spy_on(monkeypatch, repro.sql.lexer, "tokenize")


@pytest.fixture()
def printed(monkeypatch):
    return spy_on(monkeypatch, repro.sql.printer, "to_sql")


# -- one lex per request ------------------------------------------------


def test_connection_read_lexes_once(tiny_db, lexed):
    with repro.connect(tiny_db) as conn:
        rows = conn.execute(KEY_LOOKUP, {"K": 2}).fetchall()
    assert rows == [(2, "Baker")]
    assert lexed == [KEY_LOOKUP]


@pytest.mark.parametrize("options", [{"analyze": True}, {"adaptive": True}])
def test_analyzed_read_lexes_once(tiny_db, lexed, options):
    with repro.connect(tiny_db) as conn:
        cursor = conn.execute(KEY_LOOKUP, {"K": 2}, **options)
        assert cursor.analysis is not None
    assert lexed == [KEY_LOOKUP]


def test_autocommit_insert_lexes_once(tiny_db, lexed):
    with repro.connect(tiny_db) as conn:
        cursor = conn.execute(INSERT, {"A": 4, "B": 900})
        assert cursor.rowcount == 1
        assert cursor.executed.sql == INSERT  # the caller's bytes, not a re-print
    assert lexed == [INSERT]


def test_executemany_lexes_once_per_batch(tiny_db, lexed):
    sets = [{"A": 1, "B": 900 + n} for n in range(7)]
    with repro.connect(tiny_db) as conn:
        cursor = conn.cursor().executemany(INSERT, sets)
        assert cursor.rowcount == len(sets)
        assert cursor.executed.sql == INSERT
    assert lexed == [INSERT]


def test_executemany_empty_batch_lexes_nothing(tiny_db, lexed):
    with repro.connect(tiny_db) as conn:
        cursor = conn.cursor().executemany(INSERT, [])
        assert cursor.rowcount == 0 and cursor.fetchall() == []
    assert lexed == []


def test_executemany_error_on_a_later_set_keeps_earlier_rows(tiny_db, lexed):
    sets = [{"A": 1, "B": 900}, {"A": 1, "B": 900}, {"A": 1, "B": 901}]
    with repro.connect(tiny_db) as conn:
        cursor = conn.cursor()
        with pytest.raises(UniquenessViolationError):
            cursor.executemany(INSERT, sets)
        kept = conn.execute(
            "SELECT ANO FROM AGENTS WHERE ANO >= 900"
        ).fetchall()
    assert kept == [(900,)]
    assert lexed[0] == INSERT and lexed.count(INSERT) == 1


def test_service_request_lexes_once(tiny_db, lexed):
    service = QueryService(workers=1)
    try:
        session = service.session(tiny_db)
        outcome = service.submit(session, KEY_LOOKUP, {"K": 2}).result(10)
        assert outcome.result.rows == [(2, "Baker")]
        assert lexed == [KEY_LOOKUP]
        del lexed[:]
        # Session transaction control goes through the same single parse.
        for text in ("BEGIN", INSERT, "COMMIT"):
            service.submit(session, text, {"A": 4, "B": 901}).result(10)
        assert lexed == ["BEGIN", INSERT, "COMMIT"]
    finally:
        service.shutdown()


def test_http_request_lexes_once(tiny_db, lexed):
    with QueryServer(tiny_db, workers=1) as server:
        with repro.connect(server.url) as conn:
            rows = conn.execute(KEY_LOOKUP, {"K": 2}).fetchall()
            assert rows == [(2, "Baker")]
            assert lexed == [KEY_LOOKUP]
            del lexed[:]
            assert conn.execute(INSERT, {"A": 4, "B": 902}).rowcount == 1
            assert lexed == [INSERT]


# -- one print per form ---------------------------------------------------

# E2, E8 and E9 are left out: rejected or chained rules print the forms
# they examine as audit evidence, off the four-call spine this pins.
PRINT_ONCE = ["1", "3", "4", "6", "7", "10", "11"]


@pytest.mark.parametrize("mode", ["tuple", "vectorized"])
@pytest.mark.parametrize(
    "sql,params",
    [(KEY_LOOKUP, {"K": 3})]
    + [(paper_query(e).sql, paper_query(e).params or None) for e in PRINT_ONCE],
    ids=["key_lookup"] + [f"E{e}" for e in PRINT_ONCE],
)
def test_warm_read_prints_each_form_once(small_db, printed, sql, params, mode):
    """A statement's forms are printed once over its reads: the first
    read prints each at most once, and a warm read, served from the
    rewrite memo and the plan cache, prints none."""
    repro.clear_all_caches()
    with repro.connect(small_db) as conn:
        conn.execute(sql, params, engine_mode=mode).fetchall()  # first read
        first = list(printed)
        del printed[:]
        cursor = conn.execute(sql, params, engine_mode=mode)
        cursor.fetchall()
    warm = list(printed)  # the spy keeps recording while we describe them
    per_ast = Counter(id(node) for node in first)
    assert per_ast and max(per_ast.values()) == 1, [
        (repro.to_sql(node), per_ast[id(node)]) for node in first
    ]
    assert warm == [], [repro.to_sql(node) for node in warm]
    # The one rendering of the served form is the served text.
    assert cursor.executed.sql == repro.to_sql(cursor.outcome.query)
    assert cursor.executed.stats.get("plan_cache_hits") == 1


# -- malformed statements: same typed error at every door ------------------

MALFORMED = [
    (
        "SELECT FROM SUPPLIER",
        ParseError,
        "expected column reference, found 'FROM' (line 1, column 8)",
    ),
    (
        "SELEC SNO FROM SUPPLIER",
        ParseError,
        "expected SELECT, found 'SELEC' (line 1, column 1)",
    ),
    ("CREATE TABLE X (A INT)", ParseError, "expected a query"),
    (
        "SELECT SNO FROM SUPPLIER WHERE SNO = @",
        LexerError,
        "unexpected character '@' (line 1, column 38)",
    ),
    (
        "SELECT 'oops FROM SUPPLIER",
        LexerError,
        "unterminated string literal (line 1, column 27)",
    ),
]


@pytest.mark.parametrize("sql,error_type,message", MALFORMED)
def test_malformed_statement_at_connection(tiny_db, lexed, sql, error_type, message):
    with repro.connect(tiny_db) as conn:
        with pytest.raises(error_type) as caught:
            conn.execute(sql)
    assert type(caught.value) is error_type and str(caught.value) == message
    assert lexed == [sql]


@pytest.mark.parametrize("sql,error_type,message", MALFORMED)
def test_malformed_statement_at_service(tiny_db, lexed, sql, error_type, message):
    service = QueryService(workers=1)
    try:
        session = service.session(tiny_db)
        with pytest.raises(error_type) as caught:
            service.submit(session, sql).result(10)
        assert type(caught.value) is error_type and str(caught.value) == message
        assert lexed == [sql]
        assert service.metrics.value(
            "service_failed_total", session=session.name, error=error_type.__name__
        ) == 1
        assert service.metrics.value(
            "service_completed_total", session=session.name
        ) == 0
    finally:
        service.shutdown()


@pytest.mark.parametrize("sql,error_type,message", MALFORMED)
def test_malformed_statement_over_http(tiny_db, lexed, sql, error_type, message):
    with QueryServer(tiny_db, workers=1) as server:
        status, _, body = raw_post(server.url, "/v1/query", {"sql": sql})
        envelope = repro.net.protocol.parse_json(body)["error"]
        envelope.pop("request_id", None)
        assert status == 400
        assert envelope == {
            "type": error_type.__name__,
            "message": message,
            "status": 400,
            "retryable": False,
        }
        assert lexed == [sql]
        with repro.connect(server.url) as conn:
            with pytest.raises(RemoteQueryError) as caught:
                conn.execute(sql)
        assert caught.value.error_type == error_type.__name__
        assert caught.value.status == 400
        assert str(caught.value) == f"{error_type.__name__}: {message}"


@pytest.mark.parametrize(
    "argv", [["explain"], ["explain", "--analyze"], ["run", "--plan"]]
)
def test_cli_plans_from_the_ast_it_holds(lexed, capsys, argv):
    """The CLI shows the plan of the AST it optimized or executed; it
    never re-lexes SQL it printed itself."""
    from repro.cli import main

    sql = paper_query("1").sql  # rewritten: the printed form differs
    assert main(argv + [sql]) == 0
    assert "SeqScan" in capsys.readouterr().out
    # (Building the demo database lexes its DDL; only queries count.)
    assert [text for text in lexed if text.startswith("SELECT")] == [sql]
