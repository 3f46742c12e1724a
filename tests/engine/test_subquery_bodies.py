"""Subquery bodies run as plans, planned once per cached plan.

``exists_probe`` as written (rewrites off) keeps its EXISTS: each
supplier row runs ``SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND
P.PNO = :PNO``.  The outer ``S.SNO`` becomes a host-variable slot of the
body's plan, so the body is an ``IndexScan`` on the whole ``PARTS(SNO,
PNO)`` key: one probe per execution, at most one row per probe (the
≤ 1-row bound Theorem 2 is about).  The body is planned on the first
execution of the cached plan and kept with it; a second execution plans
nothing.
"""

from __future__ import annotations

import pytest

import repro
from repro import Stats, clear_all_caches
from repro.engine import Database, Planner, execute_plan
from repro.engine.operators import IndexScan
from repro.engine.planner import plan_subquery
from repro.sql import parse_query

from .test_row_kernel_scaling import _db, workloads

PARAMS = {"CITY": workloads.CITIES[0], "PNO": 1, "LO": 1, "HI": 200}


@pytest.fixture(scope="module")
def database():
    return _db(2_000)


def test_exists_probe_as_written_reads_one_index_row_per_execution(
    monkeypatch, database
):
    sql = workloads.TEMPLATES["exists_probe"].sql
    clear_all_caches()
    planned = []
    original = Planner.plan

    def counted(self, query):
        planned.append(query)
        return original(self, query)

    monkeypatch.setattr(Planner, "plan", counted)
    with repro.connect(database) as conn:
        first = conn.execute(sql, PARAMS, optimize=False)
        calls, rows = len(planned), first.fetchall()
        second = conn.execute(sql, PARAMS, optimize=False).fetchall()
    assert first.executed.rules == []
    stats = first.executed.stats
    assert stats["subquery_executions"] > 0
    assert (
        stats["index_rows"] == stats["index_probes"] == stats["subquery_executions"]
    )
    assert second == rows and rows
    # The statement and its body were planned once, on the first run.
    assert calls == 2 and len(planned) == calls


DDL = """
CREATE TABLE R (A INT NOT NULL, B INT, PRIMARY KEY (A));
CREATE TABLE S (A INT NOT NULL, D INT NOT NULL, B INT, PRIMARY KEY (A, D));
CREATE TABLE T (E INT NOT NULL, B INT, PRIMARY KEY (E));
INSERT INTO R VALUES (1, 10), (2, 20), (3, NULL);
INSERT INTO S VALUES (1, 1, 10), (1, 2, 11), (2, 1, NULL), (3, 1, 5);
INSERT INTO T VALUES (1, 10), (2, 11);
"""


def test_outer_references_become_slots_and_inner_ones_stay():
    database = Database.from_script(DDL)
    body = parse_query(
        "SELECT * FROM S X WHERE X.A = R.A AND D = :K AND "
        "EXISTS (SELECT * FROM T WHERE T.B = X.B AND T.E = R.B)"
    )
    plan, slots = plan_subquery(body, database)
    # R.A and R.B answer to no FROM of the body: a slot each.  X.B is
    # the body's own, read by the nested block.
    assert sorted((ref.qualifier, ref.column) for _, ref in slots) == [
        ("R", "A"),
        ("R", "B"),
    ]
    names = [name for name, _ in slots]
    assert len(set(names)) == 2 and all(name.startswith("#") for name in names)
    scans = [node for node in _walk(plan) if isinstance(node, IndexScan)]
    assert [scan.key_columns for scan in scans] == [("A", "D")]


def test_a_nested_body_is_kept_on_its_parent_and_its_slots_are_new():
    database = Database.from_script(DDL)
    plan = Planner(database.catalog, database=database).plan(
        "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM S WHERE S.A = R.A "
        "AND EXISTS (SELECT * FROM T WHERE T.B = S.B AND T.E = R.A))"
    )
    stats = Stats()
    assert execute_plan(plan, database, stats=stats).rows == [(1,)]
    ((outer_plan, outer_slots),) = plan._bodies.values()
    ((_, inner_slots),) = outer_plan._bodies.values()
    # R.A is the outer body's slot, which the inner body reads as a host
    # variable; S.B is the inner body's own, under a name not in use.
    assert [(ref.qualifier, ref.column) for _, ref in outer_slots] == [("R", "A")]
    assert [(ref.qualifier, ref.column) for _, ref in inner_slots] == [("S", "B")]
    assert {name for name, _ in outer_slots}.isdisjoint(
        name for name, _ in inner_slots
    )
    # Every R row runs the outer body; each S row it reaches, the inner.
    assert stats.subquery_executions > len(database.table("R").rows)


def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)
