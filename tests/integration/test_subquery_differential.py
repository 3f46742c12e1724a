"""EXISTS / IN subqueries against sqlite3, on drawn tables with NULLs.

Every statement here keeps a subquery in some execution: with the
rewrites off (``optimize=False``) each body runs once per outer row, as
written; with them on, the rules flatten what they can prove safe and
the rest still runs per row.  Both, and a run with ``use_indexes=False``
(bodies scan instead of probing), must equal sqlite's answer as a
multiset.  sqlite shares no code with the engine, so this is the check
that the per-row body execution — correlation through several levels,
alias shadowing, unqualified names resolved outward, host variables
inside a body — means what SQL means.

sqlite has no INTERSECT ALL / EXCEPT ALL; statements with those inside
a subquery are compared with the reference interpreter instead.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro import Database
from repro.engine import execute_planned
from tests.engine.reference_executor import execute
from repro.types import NULL

DDL = """
CREATE TABLE R (A INT NOT NULL, B INT, C INT, PRIMARY KEY (A));
CREATE TABLE S (A INT NOT NULL, D INT NOT NULL, B INT, PRIMARY KEY (A, D));
CREATE TABLE T (E INT NOT NULL, A INT, B INT, PRIMARY KEY (E),
                FOREIGN KEY (A) REFERENCES R);
"""
SQLITE_DDL = (
    "CREATE TABLE R (A INTEGER NOT NULL, B INTEGER, C INTEGER, PRIMARY KEY (A))",
    "CREATE TABLE S (A INTEGER NOT NULL, D INTEGER NOT NULL, B INTEGER, "
    "PRIMARY KEY (A, D))",
    "CREATE TABLE T (E INTEGER NOT NULL, A INTEGER, B INTEGER, PRIMARY KEY (E))",
)

#: Statements both engines speak; ``:K`` is bound to a drawn value.
SHARED = {
    "exists_composite_key": (
        "SELECT R.A, R.B FROM R WHERE EXISTS "
        "(SELECT * FROM S WHERE S.A = R.A AND S.D = :K)"
    ),
    "not_exists": (
        "SELECT R.A FROM R WHERE NOT EXISTS "
        "(SELECT * FROM S WHERE S.A = R.A AND S.B = R.B)"
    ),
    "in_correlated": (
        "SELECT R.A FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)"
    ),
    "not_in_correlated": (
        "SELECT R.A, R.C FROM R WHERE R.C NOT IN "
        "(SELECT S.B FROM S WHERE S.A = R.A)"
    ),
    "exists_uncorrelated": (
        "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM T WHERE T.B = :K)"
    ),
    "in_uncorrelated": "SELECT R.A, R.B FROM R WHERE R.B IN (SELECT T.B FROM T)",
    "not_in_uncorrelated": (
        "SELECT R.A FROM R WHERE R.B NOT IN (SELECT T.B FROM T WHERE T.E > :K)"
    ),
    "in_fk_probe": (
        "SELECT ALL S.A, S.D FROM S WHERE S.B IN "
        "(SELECT T.B FROM T WHERE T.A = S.A)"
    ),
    # Both levels correlate: the inner body reads S (its parent) and R
    # (its grandparent).
    "two_levels": (
        "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM S WHERE S.A = R.A "
        "AND EXISTS (SELECT * FROM T WHERE T.A = S.A AND T.B = R.B))"
    ),
    "two_levels_not": (
        "SELECT R.A, R.C FROM R WHERE NOT EXISTS (SELECT * FROM S "
        "WHERE S.A = R.A AND S.B NOT IN (SELECT T.B FROM T WHERE T.E = R.C))"
    ),
    # The innermost X is T, shadowing the outermost X (R).
    "shadowing_alias": (
        "SELECT X.A FROM R X WHERE EXISTS (SELECT * FROM S Y WHERE Y.A = X.A "
        "AND EXISTS (SELECT * FROM T X WHERE X.A = Y.A AND X.B = :K))"
    ),
    # C is R's alone, so the body's unqualified C resolves outward;
    # B is R's and T's, so the body's unqualified B is T.B.
    "unqualified_outward": (
        "SELECT R.A FROM R WHERE NOT EXISTS "
        "(SELECT * FROM T WHERE T.A = R.A AND B = C)"
    ),
    # Flattened, the body's B must stay T's: R has a B too.
    "unqualified_flattened": (
        "SELECT R.A FROM R WHERE EXISTS "
        "(SELECT * FROM T WHERE T.A = R.A AND B = C)"
    ),
    "unqualified_flattened_literal": (
        "SELECT R.A, R.C FROM R WHERE EXISTS "
        "(SELECT * FROM T WHERE T.A = R.A AND B > 1)"
    ),
    "set_operation_inside": (
        "SELECT R.A FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A "
        "UNION SELECT T.B FROM T WHERE T.A = R.A)"
    ),
    "distinct_outer": (
        "SELECT DISTINCT R.B FROM R WHERE R.A IN "
        "(SELECT S.A FROM S WHERE S.D = :K OR S.B IS NULL)"
    ),
}

#: Statements sqlite cannot run: compared with the reference interpreter.
MULTISET_ONLY = {
    "intersect_all_inside": (
        "SELECT R.A FROM R WHERE EXISTS (SELECT S.B FROM S WHERE S.A = R.A "
        "INTERSECT ALL SELECT T.B FROM T WHERE T.A = R.A)"
    ),
    "except_all_inside": (
        "SELECT R.A, R.B FROM R WHERE R.B IN (SELECT S.B FROM S "
        "EXCEPT ALL SELECT T.B FROM T WHERE T.A = R.A AND T.E <> :K)"
    ),
}

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

values = st.one_of(st.just(NULL), st.integers(0, 3))


@st.composite
def instances(draw):
    """``(R rows, S rows, T rows, K)``: keys unique, T.A a key of R or NULL."""
    r_keys = draw(st.sets(st.integers(0, 5), max_size=5))
    r_rows = [(a, draw(values), draw(values)) for a in sorted(r_keys)]
    s_keys = draw(
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 2)), max_size=8)
    )
    s_rows = [(a, d, draw(values)) for a, d in sorted(s_keys)]
    t_parent = st.just(NULL)
    if r_keys:
        t_parent = st.one_of(t_parent, st.sampled_from(sorted(r_keys)))
    t_keys = draw(st.sets(st.integers(0, 5), max_size=5))
    t_rows = [(e, draw(t_parent), draw(values)) for e in sorted(t_keys)]
    return r_rows, s_rows, t_rows, draw(st.integers(0, 3))


def _databases(r_rows, s_rows, t_rows):
    database = Database.from_script(DDL)
    database.load("R", r_rows)
    database.load("S", s_rows)
    database.load("T", t_rows)
    oracle = sqlite3.connect(":memory:")
    for ddl in SQLITE_DDL:
        oracle.execute(ddl)
    for name, rows in (("R", r_rows), ("S", s_rows), ("T", t_rows)):
        for row in rows:
            oracle.execute(
                f"INSERT INTO {name} VALUES (?, ?, ?)",
                tuple(None if value is NULL else value for value in row),
            )
    return database, oracle


def _multiset(rows) -> list[str]:
    return sorted(map(repr, rows))


def _ours(database, sql: str, params: dict) -> dict[str, list[str]]:
    """The statement's rows from every execution path, by path."""
    with repro.connect(database) as conn:
        rewritten = conn.execute(sql, params).fetchall()
        as_written = conn.execute(sql, params, optimize=False).fetchall()
    scanned = execute_planned(sql, database, params=params, use_indexes=False)
    return {
        "optimize": _multiset(rewritten),
        "as_written": _multiset(as_written),
        "no_indexes": _multiset(scanned.rows),
    }


@pytest.mark.parametrize("name", sorted(SHARED))
@settings(max_examples=40, **COMMON)
@given(instance=instances())
def test_subqueries_match_sqlite(name, instance):
    r_rows, s_rows, t_rows, k = instance
    database, oracle = _databases(r_rows, s_rows, t_rows)
    sql = SHARED[name]
    expected = _multiset(
        tuple(NULL if value is None else value for value in row)
        for row in oracle.execute(sql.replace(":K", "?"), (k,) * sql.count(":K"))
    )
    for path, rows in _ours(database, sql, {"K": k}).items():
        assert rows == expected, (name, path)


@pytest.mark.parametrize("name", sorted(MULTISET_ONLY))
@settings(max_examples=40, **COMMON)
@given(instance=instances())
def test_multiset_set_operations_inside_subqueries_match_the_reference(
    name, instance
):
    r_rows, s_rows, t_rows, k = instance
    database, _ = _databases(r_rows, s_rows, t_rows)
    sql = MULTISET_ONLY[name]
    expected = _multiset(execute(sql, database, params={"K": k}).rows)
    for path, rows in _ours(database, sql, {"K": k}).items():
        assert rows == expected, (name, path)
