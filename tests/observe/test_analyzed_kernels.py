"""EXPLAIN ANALYZE observes the kernels a plain execution runs.

An analysis sink no longer turns fusion off: a fused unit — a scan
pipeline or a hash join, with the ``Project`` above it — is observed as
one, and each node it absorbed is credited the unit's loops and time
and its own rows.  For E1–E11 and every read template of
``benchmarks/e2e/workloads.py``, analyzed through ``execute_analyzed``
and through ``Connection.execute(..., analyze=True)``:

* an analyzed execution enters the per-node row loop (``_rows``) of
  exactly the nodes a plain one enters: none of a node that fused;
* every node reports the loops and rows of a compilation-off analyzed
  run (the reference, node by node);
* the ``Stats`` totals are that run's, apart from the two counters
  that say which judge evaluated the predicates.

A stream its consumer closes early is charged none of the time the
consumer held its last row.
"""

from __future__ import annotations

import time

import pytest

import repro
from repro import clear_all_caches
from repro.engine import execute_planned, set_compilation_enabled
from repro.engine.operators.base import PlanNode
from repro.engine.stats import Stats
from repro.observe import PlanAnalysis, execute_analyzed
from repro.workloads import PAPER_QUERIES

from ..engine.test_kernel_sources_golden import READS, _database, _params
from ..engine.test_row_kernel_scaling import workloads

#: Which judge evaluated a predicate: not work.
PATH_COUNTERS = {"compiled_evals", "predicates_compiled"}

STATEMENTS = [
    pytest.param(query.sql, query.params, id=f"E{query.example}")
    for query in PAPER_QUERIES
] + [
    pytest.param(workloads.TEMPLATES[template].sql, _params(template), id=template)
    for template in READS
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.fixture(scope="module")
def database():
    return _database()


@pytest.fixture()
def entered(monkeypatch):
    """Every node whose per-node row loop is entered, for each operator
    with a generated form."""
    nodes = []
    for cls in {cls for cls in _subclasses(PlanNode) if "_fused" in vars(cls)}:

        def spy(self, *args, _original=cls._rows):
            nodes.append(self)
            return _original(self, *args)

        monkeypatch.setattr(cls, "_rows", spy)
    return nodes


def _actuals(tree: dict) -> tuple:
    """Operator, rows and loops of every node, without times."""
    return (
        tree["operator"],
        tree.get("actual_rows"),
        tree.get("loops"),
        tuple(_actuals(child) for child in tree.get("children", ())),
    )


def _work(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if v and k not in PATH_COUNTERS}


def _engine(database, sql, params, entered):
    """``(nodes entered plain, nodes entered analyzed, actuals, work)``:
    a plain execution warms the plan cache, the analyzed one reuses it."""
    clear_all_caches()
    del entered[:]
    execute_planned(sql, database, params=params)
    plain = {id(node) for node in entered}
    del entered[:]
    stats = Stats()
    analyzed = execute_analyzed(sql, database, params=params, stats=stats)
    return (
        plain,
        {id(node) for node in entered},
        _actuals(analyzed.to_dict()["plan"]),
        _work(stats.as_dict()),
    )


def _front_door(database, sql, params, entered):
    """As :func:`_engine`, through ``Connection.execute``."""
    clear_all_caches()
    del entered[:]
    with repro.connect(database) as conn:
        conn.execute(sql, params).fetchall()
        plain = {id(node) for node in entered}
        del entered[:]
        cursor = conn.execute(sql, params, analyze=True)
        cursor.fetchall()
    return (
        plain,
        {id(node) for node in entered},
        _actuals(cursor.analysis["plan"]),
        _work(cursor.executed.stats),
    )


@pytest.mark.parametrize("route", [_engine, _front_door], ids=["engine", "front_door"])
@pytest.mark.parametrize("sql, params", STATEMENTS)
def test_an_analyzed_read_runs_the_kernels_and_reports_the_references_actuals(
    database, entered, route, sql, params
):
    plain, analyzed, actuals, work = route(database, sql, params, entered)
    assert analyzed == plain, "an analyzed read left a generated kernel"
    previous = set_compilation_enabled(False)
    try:
        _, _, reference_actuals, reference_work = route(database, sql, params, entered)
    finally:
        set_compilation_enabled(previous)
    assert actuals == reference_actuals
    assert work == reference_work


def test_a_stream_closed_by_its_consumer_is_not_charged_the_consumers_time():
    class Node:
        def children(self):
            return ()

    analysis, node = PlanAnalysis(), Node()
    stream = analysis.observe(node, iter(range(3)))
    next(stream)
    time.sleep(0.05)
    stream.close()
    assert analysis.for_node(node).seconds < 0.025
