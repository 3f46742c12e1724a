"""A literal text through the door serves what the user wrote.

Whatever a request shares with other statements, everything a reader of
one literal text sees must be that text's own: its rows (checked against
the same text with the rewrites off, and against sqlite3), the served
SQL, the rewritten query, the audit trail, ``describe()`` and EXPLAIN
[ANALYZE].  The bytes are pinned in ``literal_shapes_golden.json``,
written from the door before statements with the same literals in other
places shared anything; each case there is run after a sibling text of
the same template with other literals, so a served outcome that belongs
to the sibling shows.  Regenerate only for an intended output change::

    PYTHONPATH=src python -m tests.api.test_literal_shapes --write

The rest holds each against the changes that must reach a literal text:
DDL between two texts, a safe-mode mismatch, statistics-backed planning
(whose estimates read the literal values), host variables beside
literals, a literal-only comparison and concurrent readers.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sqlite3
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro import Database, UniquenessResult, clear_all_caches
from repro.core.rewrite import Optimizer, unquarantine_all
from repro.engine import Planner, PlannerOptions
from repro.resilience import FAULTS, SITE_UNIQUENESS
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql
from repro.types import NULL
from repro.workloads import PAPER_QUERIES, SupplierScale, build_database, generate

REPO = Path(__file__).resolve().parents[2]
GOLDEN_PATH = Path(__file__).with_name("literal_shapes_golden.json")


def _load_workloads():
    """``benchmarks/e2e/workloads.py`` (pure data, imports no repro),
    loaded read-only under a private module name."""
    path = REPO / "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_e2e_workloads_shapes", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
_HOST_VARIABLE = re.compile(r":([A-Z_][A-Z0-9_#$-]*)")


def _literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def inline(sql: str, params: dict) -> str:
    """*sql* with each host variable written as its value's literal."""
    return _HOST_VARIABLE.sub(lambda match: _literal(params[match.group(1)]), sql)

#: One binding per ``adhoc_local`` template, and a sibling with other
#: values for each parameter, on the 12-supplier database below.
ADHOC_BINDINGS = {
    "key_lookup.supplier": ({"SNO": 3}, {"SNO": 7}),
    "key_lookup.agent": ({"ANO": 5}, {"ANO": 11}),
    "filter_scan": (
        {"COLOR": "RED", "LO": 2, "HI": 11},
        {"COLOR": "BLUE", "LO": 1, "HI": 12},
    ),
    "key_join": (
        {"CITY": "Toronto", "LO": 1, "HI": 10},
        {"CITY": "Chicago", "LO": 3, "HI": 12},
    ),
    "distinct_removable": (
        {"COLOR": "BLUE", "LO": 2, "HI": 12},
        {"COLOR": "GREEN", "LO": 1, "HI": 9},
    ),
    "distinct_needed": (
        {"COLOR": "RED", "LO": 1, "HI": 12},
        {"COLOR": "BLUE", "LO": 3, "HI": 10},
    ),
    "exists_probe": (
        {"CITY": "Chicago", "PNO": 2, "LO": 1, "HI": 12},
        {"CITY": "Toronto", "PNO": 3, "LO": 2, "HI": 11},
    ),
    "intersect": (
        {"CITY": "Toronto", "ACITY": "Ottawa", "LO": 1, "HI": 12},
        {"CITY": "Ottawa", "ACITY": "Hull", "LO": 2, "HI": 10},
    ),
}
assert set(ADHOC_BINDINGS) == set(WORKLOADS.ADHOC_QUOTAS)


def _sibling_params(params: dict) -> dict:
    """Other values of the same types (a paper example's sibling)."""
    return {
        name: value + 1 if isinstance(value, int) else value + "-x"
        for name, value in params.items()
    }


def _cases() -> dict[str, tuple[str, str, dict | None]]:
    """``id -> (text, sibling text, bindings)``."""
    cases = {}
    for query in PAPER_QUERIES:
        params = query.params or None
        cases[f"E{query.example}"] = (query.sql, query.sql, params)
        if params:
            cases[f"E{query.example}.inlined"] = (
                inline(query.sql, params),
                inline(query.sql, _sibling_params(params)),
                None,
            )
    for template_id, (params, sibling) in ADHOC_BINDINGS.items():
        sql = WORKLOADS.TEMPLATES[template_id].sql
        cases[template_id] = (inline(sql, params), inline(sql, sibling), None)
    return cases


CASES = _cases()

_TIMES = re.compile(r"time=[0-9.]+ ms")


def _database() -> Database:
    return build_database(
        generate(SupplierScale(suppliers=12, parts_per_supplier=4, agents_per_supplier=2))
    )


def _untimed(payload):
    """An analysis dict without its wall-clock fields."""
    if isinstance(payload, dict):
        return {
            key: _untimed(value)
            for key, value in payload.items()
            if key not in ("time_ms", "wall_ms")
        }
    if isinstance(payload, list):
        return [_untimed(item) for item in payload]
    return payload


def observe(database: Database, text: str, params: dict | None) -> dict:
    """Everything a reader of *text*'s execution through the door sees."""
    with repro.connect(database) as conn:
        plain = conn.execute(text, params).executed
        analyzed = conn.execute(text, params, analyze=True).executed
    outcome = plain.outcome
    plan = Planner(database.catalog, database=database).plan(outcome.query)
    return {
        "final_sql": plain.sql,
        "outcome_sql": outcome.sql,
        "query": to_sql(outcome.query),
        "rules": plain.rules,
        "describe": outcome.describe(),
        "audit": outcome.audit.proof_sketch(),
        "explain": plan.explain(),
        "explain_analyze": _TIMES.sub("time=", analyzed.outcome.analysis.explain()),
        "analysis": _untimed(analyzed.analysis),
        "rows": sorted(map(repr, plain.rows)),
    }


def _golden() -> dict:
    database = _database()
    observed = {}
    for case, (text, _, params) in CASES.items():
        clear_all_caches()
        observed[case] = observe(database, text, params)
    return observed


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_door_shows_each_texts_own_bytes(case, golden):
    database = _database()
    text, sibling, params = CASES[case]
    clear_all_caches()
    observe(database, sibling, params)  # the same template, other literals
    assert observe(database, text, params) == golden[case]
    # ...and again warm.
    assert observe(database, text, params) == golden[case]


# ----------------------------------------------------------------------
# drawn literals against sqlite3

DDL = """
CREATE TABLE U (K INT NOT NULL, N INT, F FLOAT, S VARCHAR(4), PRIMARY KEY (K));
CREATE TABLE V (K INT NOT NULL, N INT, F FLOAT, S VARCHAR(4), PRIMARY KEY (K));
"""
SQLITE_DDL = (
    "CREATE TABLE U (K INTEGER NOT NULL PRIMARY KEY, N INTEGER, F REAL, S TEXT)",
    "CREATE TABLE V (K INTEGER NOT NULL PRIMARY KEY, N INTEGER, F REAL, S TEXT)",
)

#: Statements over U and V; ``{i}``/``{j}`` are ints, ``{f}`` a float,
#: ``{s}``/``{t}`` strings, each written as a SQL literal.
STATEMENTS = (
    "SELECT U.K, U.N FROM U WHERE U.N = {i}",
    "SELECT U.K FROM U WHERE U.F > {f} AND U.S <> {s}",
    "SELECT U.K, U.S FROM U WHERE U.N BETWEEN {i} AND {j} OR U.S = {s}",
    "SELECT U.K FROM U WHERE U.N NOT BETWEEN {j} AND {i}",
    "SELECT U.K FROM U WHERE U.S IN ({s}, {t}) AND U.F <= {f}",
    "SELECT U.K FROM U WHERE U.N IN ({i}, {j}, 2)",
    "SELECT DISTINCT U.S FROM U WHERE U.N >= {i} OR U.S = {t}",
    "SELECT U.K FROM U WHERE EXISTS "
    "(SELECT * FROM V WHERE V.K = U.K AND V.S = {s})",
    "SELECT U.K, U.N FROM U WHERE U.N IN (SELECT V.N FROM V WHERE V.F < {f})",
    "SELECT U.K FROM U WHERE NOT EXISTS "
    "(SELECT * FROM V WHERE V.N = U.N AND V.F BETWEEN {f} AND {f})",
    "SELECT DISTINCT U.N FROM U WHERE U.K IN "
    "(SELECT V.K FROM V WHERE V.S = {s} OR V.N = {i})",
)

ints = st.integers(0, 6)
floats = st.integers(0, 12).map(lambda n: n / 4)
strings = st.text(alphabet="ab'", max_size=3)


@st.composite
def instances(draw):
    """Rows of U and V (keys unique, NULLs anywhere else) and literals."""

    def rows():
        keys = draw(st.sets(st.integers(0, 6), max_size=6))
        return [
            (
                k,
                draw(st.one_of(st.just(NULL), ints)),
                draw(st.one_of(st.just(NULL), floats)),
                draw(st.one_of(st.just(NULL), strings)),
            )
            for k in sorted(keys)
        ]

    literals = {
        "i": draw(ints),
        "j": draw(ints),
        "f": draw(floats),
        "s": draw(strings),
        "t": draw(strings),
    }
    return rows(), rows(), literals


def _multiset(rows) -> list[str]:
    return sorted(repr(tuple(NULL if v is None else v for v in row)) for row in rows)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(instance=instances())
def test_drawn_literals_match_as_written_and_sqlite(instance):
    u_rows, v_rows, literals = instance
    database = Database.from_script(DDL)
    database.load("U", u_rows)
    database.load("V", v_rows)
    oracle = sqlite3.connect(":memory:")
    for ddl in SQLITE_DDL:
        oracle.execute(ddl)
    for name, rows in (("U", u_rows), ("V", v_rows)):
        for row in rows:
            oracle.execute(
                f"INSERT INTO {name} VALUES (?, ?, ?, ?)",
                tuple(None if value is NULL else value for value in row),
            )
    written = {name: _literal(value) for name, value in literals.items()}
    with repro.connect(database) as conn:
        for template in STATEMENTS:
            text = template.format(**written)
            expected = _multiset(oracle.execute(text).fetchall())
            served = conn.execute(text).executed
            assert _multiset(served.rows) == expected, text
            as_written = conn.execute(text, optimize=False).fetchall()
            assert _multiset(as_written) == expected, text
            fresh = Optimizer.for_relational(database.catalog).optimize(parse_query(text))
            assert served.sql == fresh.sql, text
            assert served.outcome.audit.proof_sketch() == fresh.proof_sketch(), text


# ----------------------------------------------------------------------
# what must reach the next literal of one shape


@pytest.fixture()
def db():
    clear_all_caches(reset_counters=True)
    return _database()


def _fresh(database, text):
    return Optimizer.for_relational(database.catalog).optimize(parse_query(text))


KEYLESS = "CREATE TABLE T (A INT NOT NULL, B INT); INSERT INTO T VALUES (1, 1), (1, 1);"
KEYED = "CREATE TABLE T (A INT NOT NULL, B INT, PRIMARY KEY (A)); INSERT INTO T VALUES (1, 2);"
PROJECTION = "SELECT DISTINCT T.A, T.B FROM T WHERE T.B >= {}"


def test_ddl_between_two_literals_is_not_served_stale():
    clear_all_caches()
    database = Database.from_script(KEYLESS)
    with repro.connect(database) as conn:
        first = conn.execute(PROJECTION.format(0)).executed
        assert first.rules == [] and first.rows == [(1, 1)]
        # A key on A: Algorithm 1 now drops the DISTINCT.
        database.catalog.drop("T")
        database.run_script(KEYED)
        text = PROJECTION.format(2)
        second = conn.execute(text).executed
    fresh = _fresh(database, text)
    assert second.rules == ["distinct-elimination"] and second.rows == [(1, 2)]
    assert second.sql == fresh.sql == "SELECT T.A, T.B FROM T WHERE T.B >= 2"
    assert second.outcome.audit.proof_sketch() == fresh.proof_sketch()


DUPLICATES = (
    "CREATE TABLE SUPPLIER (SNO INT, SNAME VARCHAR(30), PRIMARY KEY (SNO));"
    "INSERT INTO SUPPLIER VALUES (1, 'Smith'), (2, 'Smith'), (3, 'Blake');"
)
DUPLICATE_SQL = "SELECT DISTINCT S.SNAME FROM SUPPLIER S WHERE S.SNO >= {}"


def test_a_safe_mode_mismatch_serves_the_text_and_the_next_literal_reoptimizes(
    monkeypatch,
):
    clear_all_caches()
    database = Database.from_script(DUPLICATES)
    text = DUPLICATE_SQL.format(1)
    try:
        with FAULTS.inject(
            SITE_UNIQUENESS,
            kind="corrupt",
            corruptor=lambda _: UniquenessResult(True, "corrupted verdict"),
        ):
            with repro.connect(database) as conn:
                caught = conn.execute(text, safe_mode=True).executed
        assert caught.mismatch and caught.outcome.evicted >= 1
        assert caught.sql == text
        assert to_sql(caught.outcome.query) == to_sql(parse_query(text))
        assert sorted(caught.rows) == [("Blake",), ("Smith",)]
    finally:
        unquarantine_all()
    optimized = []
    original = Optimizer.optimize

    def counting(self, query):
        optimized.append(query)
        return original(self, query)

    monkeypatch.setattr(Optimizer, "optimize", counting)
    following = DUPLICATE_SQL.format(2)
    with repro.connect(database) as conn:
        good = conn.execute(following, safe_mode=True).executed
    assert optimized, "the next literal of the shape is optimized afresh"
    assert not good.mismatch and good.rules == []
    assert sorted(good.rows) == [("Blake",), ("Smith",)]
    fresh = _fresh(database, following)
    assert good.sql == fresh.sql
    assert good.outcome.audit.proof_sketch() == fresh.proof_sketch()


SKEW_DDL = """
CREATE TABLE BIG (K INT NOT NULL, C INT NOT NULL, PRIMARY KEY (K));
CREATE TABLE SMALL (K INT NOT NULL, C INT NOT NULL, PRIMARY KEY (K));
"""


def test_statistics_plans_stay_per_literal():
    clear_all_caches()
    database = Database.from_script(SKEW_DDL)
    # A range over BIG.C keeps 5 or 390 of its 400 rows.
    database.load("BIG", [(k, k) for k in range(400)])
    database.load("SMALL", [(k, k % 3) for k in range(60)])
    template = (
        "SELECT BIG.K, SMALL.K FROM BIG, SMALL "
        "WHERE BIG.K = SMALL.K AND BIG.C < {}"
    )
    estimates = {}
    with repro.connect(database) as conn:
        for literal in (5, 390):
            text = template.format(literal)
            executed = conn.execute(text, stats=True, analyze=True).executed
            planned = Planner(
                database.catalog,
                PlannerOptions(use_stats=True),
                database=database,
            ).plan(parse_query(text))
            assert executed.outcome.analysis.plan.explain() == planned.explain()
            estimates[literal] = [
                node["est_rows"] for node in _walk(executed.analysis["plan"])
            ]
    assert estimates[5] != estimates[390]


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def test_a_literal_only_comparison(db):
    with repro.connect(db) as conn:
        everyone = conn.execute("SELECT S.SNO FROM SUPPLIER S WHERE 5 = 5").executed
        nobody = conn.execute("SELECT S.SNO FROM SUPPLIER S WHERE 5 = 6").executed
        mixed = conn.execute(
            "SELECT S.SNO FROM SUPPLIER S WHERE 'a' = 'a' AND S.SNO < 4"
        ).executed
    assert len(everyone.rows) == 12 and nobody.rows == []
    assert sorted(mixed.rows) == [(1,), (2,), (3,)]
    assert everyone.sql == "SELECT S.SNO FROM SUPPLIER S WHERE 5 = 5"
    assert mixed.sql == "SELECT S.SNO FROM SUPPLIER S WHERE 'a' = 'a' AND S.SNO < 4"


def test_a_host_variable_beside_literals(db):
    text = (
        "SELECT P.SNO, P.PNO FROM PARTS P "
        "WHERE P.SNO = :SNO AND P.PNO BETWEEN 2 AND 3"
    )
    with repro.connect(db) as conn:
        for sno in (1, 4, 9):
            executed = conn.execute(text, {"SNO": sno}).executed
            assert sorted(executed.rows) == [(sno, 2), (sno, 3)]
            assert executed.sql == text
        with pytest.raises(repro.errors.MissingHostVariableError):
            conn.execute(text).fetchall()


def test_readers_of_one_shape_on_eight_threads(db):
    template = "SELECT P.SNO, P.PNO FROM PARTS P WHERE P.SNO = {} AND P.PNO >= {}"
    failures: list = []
    barrier = threading.Barrier(8)

    def read(worker: int) -> None:
        try:
            with repro.connect(db) as conn:
                barrier.wait()
                for round_ in range(30):
                    sno, pno = 1 + (worker + round_) % 12, 1 + round_ % 4
                    text = template.format(sno, pno)
                    executed = conn.execute(text).executed
                    expected = [(sno, p) for p in range(pno, 5)]
                    if sorted(executed.rows) != expected or executed.sql != text:
                        failures.append((text, executed.rows, executed.sql))
        except BaseException as error:  # surfaced below
            failures.append(error)

    threads = [threading.Thread(target=read, args=(n,)) for n in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.api.test_literal_shapes --write")
    GOLDEN_PATH.write_text(json.dumps(_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


# ----------------------------------------------------------------------
# one shape, one entry: what the literals of a shape share


FILTER_SCAN = (
    "SELECT P.SNO, P.PNO, P.PNAME FROM PARTS P "
    "WHERE P.COLOR = {} AND P.SNO BETWEEN {} AND {}"
)
LITERALS = [("'RED'", 1, 9), ("'BLUE'", 2, 12), ("'GREEN'", 3, 10), ("'RED'", 4, 11)]


def test_the_literals_of_one_shape_share_each_memo_entry(db):
    with repro.connect(db) as conn:
        for literals in LITERALS:
            conn.execute(FILTER_SCAN.format(*literals)).fetchall()
    stats = repro.cache_stats()
    for memo in ("rewrites", "plans"):
        assert stats[memo]["entries"] == 1, memo
        assert stats[memo]["hits"] == len(LITERALS) - 1, memo


def test_a_warm_shape_lowers_nothing(db, monkeypatch):
    from repro.engine import compile as compile_module

    lowered = []
    original = compile_module.lower_source

    def counted(*args, **kwargs):
        lowered.append(args)
        return original(*args, **kwargs)

    with repro.connect(db) as conn:
        conn.execute(FILTER_SCAN.format(*LITERALS[0])).fetchall()
        monkeypatch.setattr(compile_module, "lower_source", counted)
        rows = conn.execute(FILTER_SCAN.format(*LITERALS[1])).fetchall()
    assert rows and lowered == []


def test_a_text_without_literals_builds_no_shape(db, monkeypatch):
    from repro import api
    from repro.sql.parser import Shape, parse_shape

    shown = []
    monkeypatch.setattr(api, "_show_literals", lambda *args: shown.append(args))
    text = "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = :SNO"
    assert type(parse_shape(text)) is not Shape
    assert type(parse_shape("INSERT INTO T VALUES (1, 'a')")) is not Shape
    with repro.connect(db) as conn:
        assert [row[0] for row in conn.execute(text, {"SNO": 2})] == [2]
    assert shown == []


def test_statistics_requests_keep_one_entry_per_literal(db):
    from repro.api import parse_at_door
    from repro.options import ExecutionOptions
    from repro.sql.parser import Shape

    text = FILTER_SCAN.format(*LITERALS[0])
    assert type(parse_at_door(text)) is Shape
    assert type(parse_at_door(text, ExecutionOptions(stats=True))) is not Shape
    assert type(parse_at_door(text, ExecutionOptions(adaptive=True))) is not Shape
    with repro.connect(db) as conn:
        for literals in LITERALS[:2]:
            conn.execute(FILTER_SCAN.format(*literals), stats=True).fetchall()
    assert repro.cache_stats()["rewrites"]["entries"] == 2


def test_a_mismatch_evicts_the_shapes_entries(monkeypatch):
    from repro.resilience import guarded
    from repro.sql.parser import parse_shape

    clear_all_caches()
    database = Database.from_script(DUPLICATES)
    text = DUPLICATE_SQL.format(1)
    shape = parse_shape(text).text
    try:
        with FAULTS.inject(
            SITE_UNIQUENESS,
            kind="corrupt",
            corruptor=lambda _: UniquenessResult(True, "corrupted verdict"),
        ):
            with repro.connect(database) as conn:
                caught = conn.execute(text, safe_mode=True).executed
        assert caught.mismatch
        assert not [key for key in guarded._rewrites._data if key[1] == shape]
        reasons = list(repro.core.rewrite.quarantined_rules().values())
        assert reasons == [f"safe-mode mismatch on {text!r}"]
    finally:
        unquarantine_all()


def test_executemany_parses_one_shape_for_the_batch(db, monkeypatch):
    from repro.sql import parser

    parsed = []
    original = parser.parse_shape

    def counted(text):
        parsed.append(text)
        return original(text)

    monkeypatch.setattr(repro.api, "parse_shape", counted)
    text = "SELECT P.PNO FROM PARTS P WHERE P.SNO = :SNO AND P.PNO > 2"
    with repro.connect(db) as conn:
        cursor = conn.cursor().executemany(text, [{"SNO": 1}, {"SNO": 2}])
    assert parsed == [text]
    assert sorted(cursor.fetchall()) == [(3,), (4,)]


def test_the_service_door_serves_the_literals(db):
    from repro.service import QueryService

    texts = [FILTER_SCAN.format(*literals) for literals in LITERALS]
    with QueryService(workers=2) as service:
        session = service.session(db)
        outcomes = [ticket.result(30) for ticket in session.submit_many(texts)]
    with repro.connect(db) as conn:
        for text, outcome in zip(texts, outcomes):
            assert outcome.sql == text
            assert sorted(outcome.result.rows) == sorted(conn.execute(text).fetchall())
    assert repro.cache_stats()["rewrites"]["entries"] == 1
