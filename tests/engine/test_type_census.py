"""The per-column type census, and the kernels lowered under it.

Every stored table keeps, per column, the set of Python value types
ever stored there, NULL's included (``TableData.census``).  A generated
kernel spells a comparison bare — ``(r[1] >= k0)`` for ``(r[1] is not
NULL and (type(r[1]) in k1 or comparable(r[1], k0)) and r[1] >= k0)`` —
when the census of its table says the guard cannot fail, and a hash
join keys a probe column of one type rank without looking its type up.

These tests hold that to the reference: the census grows before a row
is visible and never shrinks; over tables of mixed types and NULLs,
written autocommit and in transactions (rolled back too), the kernel
rows equal ``reference_executor``'s for comparisons with int, float,
str, bool and NULL constants; a plan held across a widening write moves
to the guarded kernel; and lean and guarded kernels agree on every row
the census admits.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro import clear_all_caches
from repro.engine import Database, Planner, codegen
from repro.engine.codegen import assemble, predicate_source
from repro.engine.compile import lower_source
from repro.engine.operators import project
from repro.engine.operators.scan import SeqScan
from repro.engine.planner import execute_plan
from repro.engine.schema import RelSchema
from repro.sql.parser import parse_query
from repro.types import NULL

from ..api.test_request_path import spy_on
from .reference_executor import execute

DDL = "CREATE TABLE T (K INT NOT NULL, X INT, Y INT, PRIMARY KEY (K));"
NULL_TYPE = type(NULL)
NAN = float("nan")
OPS = ["=", "<>", "<", "<=", ">", ">="]

VALUES = st.one_of(
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False) | st.just(NAN),
    st.sampled_from(["", "a", "b"]),
    st.booleans(),
    st.just(NULL),
)
#: A column drawn from one comparability class, or mixed with NULLs.
COLUMNS = st.sampled_from(["int", "number", "str", "bool", "any"])
CLASS_VALUES = {
    "int": st.integers(-3, 3),
    "number": st.integers(-3, 3) | st.floats(-3, 3, allow_nan=False),
    "str": st.sampled_from(["", "a", "b"]),
    "bool": st.booleans(),
    "any": VALUES,
}
PREDICATES = st.sampled_from(
    [f"T.X {op} :C" for op in OPS]
    + [f"NOT (T.X {op} :C)" for op in OPS]
    + [f":C {op} T.Y" for op in OPS]
    + [f"T.X {op} T.Y" for op in OPS]
    + [f"NOT (T.X {op} T.Y)" for op in ("=", "<")]
    + ["T.X BETWEEN :C AND :D", "T.X NOT BETWEEN :C AND :D", "T.X IN (:C, :D)"]
)
SETTINGS = dict(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def rows_of(draw, max_size: int = 4):
    """``(X, Y)`` pairs: each column one class, or anything."""
    x, y = draw(COLUMNS), draw(COLUMNS)
    pair = st.tuples(CLASS_VALUES[x], CLASS_VALUES[y])
    return draw(st.lists(pair, max_size=max_size))


#: ``("auto", rows)``: one autocommit INSERT per row; ``("txn", rows,
#: commit)``: the rows inserted in one transaction, then committed or
#: rolled back.
WRITES = st.lists(
    st.one_of(
        st.tuples(st.just("auto"), rows_of(2)),
        st.tuples(st.just("txn"), rows_of(3), st.booleans()),
    ),
    max_size=3,
)


def _reference(sql: str, rows: list[tuple], params: dict) -> list:
    """The reference executor's answer over a table holding *rows*."""
    shadow = Database.from_script(DDL)
    for row in rows:
        shadow.insert("T", row)
    return sorted(execute(sql, shadow, params).rows)


@settings(**SETTINGS)
@given(rows_of(), WRITES, PREDICATES, VALUES, VALUES)
def test_kernel_rows_equal_the_reference_through_every_write(
    initial, writes, predicate, c, d
):
    clear_all_caches()
    database = Database.from_script(DDL)
    committed = [(k, x, y) for k, (x, y) in enumerate(initial)]
    for row in committed:
        database.insert("T", row)
    sql = f"SELECT T.K FROM T WHERE {predicate}"
    params = {"C": c, "D": d}
    # One plan held across every write: its kernels follow the census.
    held = Planner(database.catalog, database=database).plan(parse_query(sql))

    def check(conn, visible):
        want = _reference(sql, visible, params)
        assert sorted(conn.execute(sql, params).fetchall()) == want, visible

    def check_held(visible):
        got = execute_plan(held, database, params).rows
        assert sorted(got) == _reference(sql, visible, params), visible

    with repro.connect(database) as conn:
        check(conn, committed)
        check_held(committed)
        key = len(committed)
        for write in writes:
            fresh = [(key + i, x, y) for i, (x, y) in enumerate(write[1])]
            key += len(fresh)
            insert = "INSERT INTO T VALUES (:K, :X, :Y)"
            if write[0] == "txn":
                conn.begin()
            for k, x, y in fresh:
                conn.execute(insert, {"K": k, "X": x, "Y": y})
            if write[0] == "txn":
                check(conn, committed + fresh)  # the transaction's view
                if write[2]:
                    conn.commit()
                else:
                    conn.rollback()
                    fresh = []
            committed += fresh
            check(conn, committed)
            check_held(committed)


# ----------------------------------------------------------------------
# where the census grows


def test_the_census_grows_before_a_row_is_visible_and_never_shrinks():
    database = Database.from_script(DDL)
    data = database.table("T")
    assert data.census == (frozenset(),) * 3
    database.insert("T", (1, 1, NULL))  # load
    assert data.census == ({int}, {int}, {NULL_TYPE})
    held = data.census
    database.insert("T", (2, 2, NULL))  # nothing new: the same object
    assert data.census is held
    with repro.connect(database) as conn:
        conn.execute("INSERT INTO T VALUES (3, 'a', 1)")  # autocommit
        assert data.census[1] == {int, str}
        conn.begin()
        conn.execute("INSERT INTO T VALUES (4, 2.5, TRUE)")
        # Buffered, not committed: the census has grown already, and
        # the transaction's view reads the base table's.
        assert data.census[1] == {int, str, float}
        assert conn.execute("SELECT T.K FROM T WHERE T.X > 2").fetchall() == [(4,)]
        conn.rollback()
        # Rolled back: the census keeps what it saw.
        assert data.census == ({int}, {int, str, float}, {NULL_TYPE, int, bool})
        conn.execute("DELETE FROM T WHERE K = 3")
    assert str in data.census[1]
    assert held == ({int}, {int}, {NULL_TYPE})  # a held census never moves


def test_writers_widening_at_once_lose_no_type():
    data = Database.from_script(DDL).table("T")
    kinds = [[type(f"V{t}_{i}", (), {}) for i in range(20)] for t in range(16)]

    def widen(own):
        for kind in own:
            data.widen((1, kind(), NULL))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=widen, args=(own,)) for own in kinds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert data.census[1] == {kind for own in kinds for kind in own}


# ----------------------------------------------------------------------
# a held plan follows the census


@pytest.mark.parametrize(
    "predicate, widening, guard",
    [
        ("T.X = :C", (9, NULL, 1), "is not NULL"),  # a NULL
        ("T.X >= :C", (9, "a", 1), "comparable"),  # a type out of the class
    ],
)
def test_a_held_plan_moves_to_the_guarded_kernel_after_a_widening_write(
    monkeypatch, predicate, widening, guard
):
    clear_all_caches()
    database = Database.from_script(DDL)
    for k in range(4):
        database.insert("T", (k, k, k))
    sql = f"SELECT T.K FROM T WHERE {predicate}"
    plan = Planner(database.catalog, database=database).plan(parse_query(sql))
    assembled = spy_on(monkeypatch, codegen, "assemble")
    assert execute_plan(plan, database, {"C": 3}).rows == [(3,)]
    (lean,) = assembled
    assert guard not in lean
    with repro.connect(database) as conn:
        conn.execute("INSERT INTO T VALUES (:K, :X, :Y)", dict(zip("KXY", widening)))
    assert execute_plan(plan, database, {"C": 3}).rows == [(3,)]
    (_, guarded) = assembled
    assert guard in guarded
    # The guarded kernel now serves the plan: nothing is assembled again.
    assert execute_plan(plan, database, {"C": 3}).rows == [(3,)]
    assert len(assembled) == 2


def test_a_census_widened_between_the_kernel_and_its_rows_is_honoured(monkeypatch):
    clear_all_caches()
    database = Database.from_script(DDL)
    for k in range(4):
        database.insert("T", (k, k, k))
    sql = "SELECT T.K FROM T WHERE T.X >= :C"
    plan = Planner(database.catalog, database=database).plan(parse_query(sql))
    source = SeqScan._source

    def racing(scan, ctx):
        # A write lands after the kernel was chosen, before the rows
        # are read: its row holds a str the lean ``>=`` would raise on.
        database.insert("T", (9, "a", 1))
        return source(scan, ctx)

    monkeypatch.setattr(SeqScan, "_source", racing)
    assert sorted(execute_plan(plan, database, {"C": 2}).rows) == [(2,), (3,)]


# ----------------------------------------------------------------------
# lean and guarded kernels agree where the census holds


def _kernels(expr, census, params):
    schema = RelSchema.for_table("T", ["X", "Y"])
    is_true, is_false, slots = lower_source(expr, schema, params, census=census)
    return assemble(predicate_source(is_true, is_false, len(slots)))(*slots)


@settings(**SETTINGS)
@given(st.data(), COLUMNS.filter(lambda kind: kind != "any"), st.sampled_from(OPS))
def test_lean_and_guarded_kernels_agree_on_every_row_the_census_admits(
    data, kind, op
):
    column = CLASS_VALUES[kind]
    rows = data.draw(st.lists(st.tuples(column, column), min_size=1, max_size=6))
    params = {"C": data.draw(VALUES.filter(lambda value: value is not NULL))}
    census = tuple(frozenset(map(type, values)) for values in zip(*rows))
    for text in (f"T.X {op} :C", f"NOT (T.X {op} :C)", f"T.X {op} T.Y"):
        expr = parse_query(f"SELECT T.X FROM T WHERE {text}").where
        lean, guarded = _kernels(expr, census, params), _kernels(expr, None, params)
        for row in rows:
            assert lean[2](row) is guarded[2](row), (text, row)


def test_only_a_census_the_guard_cannot_trip_leaves_it_out():
    expr = parse_query("SELECT T.X FROM T WHERE T.X >= 1").where
    schema = RelSchema.for_table("T", ["X", "Y"])

    def spelled(*census):
        return lower_source(expr, schema, census=census)[0]

    assert spelled({int}, None) == "(r[0] >= k0)"
    assert spelled({int, float}, None) == "(r[0] >= k0)"
    assert "comparable" in spelled({int, bool}, None)  # bool is a class apart
    assert "is not NULL" in spelled({int, NULL_TYPE}, None)
    assert "is not NULL" in spelled(None, None)


# ----------------------------------------------------------------------
# DISTINCT reads the census instead of every value's type


def test_distinct_skips_the_type_pass_when_the_census_is_one_rank(monkeypatch):
    database = Database.from_script(DDL)
    for k in range(6):
        database.insert("T", (k, k % 2, "a"))
    calls = spy_on(monkeypatch, project, "row_keys")
    sql = "SELECT DISTINCT T.X, T.Y FROM T"
    with repro.connect(database) as conn:
        assert conn.execute(sql).fetchall() == [(0, "a"), (1, "a")]
        assert calls == []
        conn.execute("INSERT INTO T VALUES (6, NULL, 'a')")
        assert conn.execute(sql).fetchall() == [(NULL, "a"), (0, "a"), (1, "a")]
        assert len(calls) == 1
