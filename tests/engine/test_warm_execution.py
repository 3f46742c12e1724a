"""A warm execution of a cached plan pays only for its rows.

A plan node keeps what an execution derives from it and from which of
its host variables are NULL (``PlanNode._generated``'s lowering table),
so a repeated statement refills argument slots and lowers no predicate;
``ExecContext`` holds the bindings and builds an ``Evaluator`` only
when an evaluator fallback needs it; an ``IndexScan``
is a scan pipeline over its bucket and DISTINCT hands its rows out as
one list.  Counted, not timed:

* the second execution of each analytic and point template through the
  front door makes no ``lower_source`` call, builds no ``Evaluator``,
  opens no ``IndexScan._scanned`` or ``sort_distinct`` generator, and
  resumes no Python generator per row outside the generated kernels;
* the lowering table is keyed on which host variables are NULL: a NULL
  binding between two non-NULL ones (and a comparison of two host
  variables, which lowers every time) returns the interpreter's rows;
* DISTINCT, which hands out one list, counts as duplicates what a
  row-at-a-time loop would have passed when its consumer leaves;
* ``ExecutedQuery.stats``, now built on first read, equals the eager
  dict of non-zero counters for E1–E11 on the local and HTTP backends.
"""

from __future__ import annotations

import sys
from collections import Counter
from inspect import CO_GENERATOR
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import clear_all_caches
from repro.engine import compile as compile_module
from repro.engine.evaluator import Evaluator
from tests.engine.reference_executor import Executor
from repro.engine.operators import ExecContext, SortDistinct
from repro.engine.stats import Stats
from repro.net.server import QueryServer
from repro.types import NULL
from repro.types.values import row_sort_key
from repro.workloads.queries import PAPER_QUERIES

from ..api.test_request_path import spy_on
from .test_row_kernel_scaling import _db, _rewritten, workloads
from .test_row_keys import _DB, Rows, relations

ANALYTIC = (
    "filter_scan",
    "key_join",
    "distinct_removable",
    "distinct_needed",
    "exists_probe",
    "intersect",
    "big_result",
)
POINT = (
    "key_lookup.supplier",
    "key_lookup.agent",
    "key_join_point.part",
    "key_join_point.agent",
)
PARTS_ROWS = 2_000


@pytest.fixture(scope="module")
def database():
    return _db(PARTS_ROWS)


def _params(template: str) -> dict:
    """Bindings that select rows (``_rewritten``'s, by template)."""
    if template == "big_result":
        return {}
    if template.startswith("key_lookup"):
        return {"SNO": 3} if template.endswith("supplier") else {"ANO": 5}
    if template in ("filter_scan", "distinct_removable"):
        return _rewritten("distinct_needed", PARTS_ROWS)[2]
    return _rewritten(template, PARTS_ROWS)[2]


class Generators:
    """Every Python generator frame started or resumed while active,
    by code name, outside the generated kernels (``<kernel>``)."""

    def __init__(self) -> None:
        self.resumed: list[str] = []

    def _profile(self, frame, event, arg) -> None:
        code = frame.f_code
        if (
            event == "call"
            and code.co_flags & CO_GENERATOR
            and code.co_filename != "<kernel>"
        ):
            self.resumed.append(code.co_name)

    def __enter__(self) -> "Generators":
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)


@pytest.mark.parametrize("template", ANALYTIC + POINT)
def test_a_warm_execution_lowers_nothing_and_builds_no_executor(
    monkeypatch, database, template
):
    sql, params = workloads.TEMPLATES[template].sql, _params(template)
    clear_all_caches()
    built = []
    original = Evaluator.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Evaluator, "__init__", counted)
    lowered = spy_on(monkeypatch, compile_module, "lower_source")
    with repro.connect(database) as conn:
        first = conn.execute(sql, params).fetchall()
        del built[:], lowered[:]
        with Generators() as generators:
            second = conn.execute(sql, params).fetchall()
    assert first == second and second, template
    assert lowered == [] and built == [], template
    assert not {"_scanned", "sort_distinct"} & set(generators.resumed), template
    # No generator outside the kernels passes rows one at a time.
    assert len(generators.resumed) < max(len(second), 20), (
        template,
        len(second),
        sorted(set(generators.resumed)),
    )


def _interpreted(database, sql: str, params: dict) -> list[tuple]:
    return Executor(database, params=params).execute(sql).rows


def _same(rows: list[tuple], reference: list[tuple]) -> bool:
    return sorted(map(repr, rows)) == sorted(map(repr, reference))


@pytest.mark.parametrize(
    "template,name,values",
    [
        ("filter_scan", "COLOR", ("RED", NULL, "BLUE", NULL, "RED")),
        ("key_join", "CITY", (workloads.CITIES[0], NULL, workloads.CITIES[1])),
    ],
)
def test_a_null_binding_between_two_others_returns_the_interpreters_rows(
    database, template, name, values
):
    sql = workloads.TEMPLATES[template].sql
    clear_all_caches()
    with repro.connect(database) as conn:
        for value in values:
            params = {**_params(template), name: value}
            rows = conn.execute(sql, params).fetchall()
            assert _same(rows, _interpreted(database, sql, params)), (name, value)
            assert bool(rows) == (value is not NULL), (name, value)


def test_a_binding_seen_before_refills_and_a_new_null_state_lowers(
    monkeypatch, database
):
    sql = workloads.TEMPLATES["filter_scan"].sql
    lowered = spy_on(monkeypatch, compile_module, "lower_source")
    clear_all_caches()
    counts = []
    with repro.connect(database) as conn:
        for color in ("RED", "BLUE", NULL, "GREEN", NULL):
            del lowered[:]
            conn.execute(sql, {**_params("filter_scan"), "COLOR": color}).fetchall()
            counts.append(len(lowered))
    # Lowered on the first binding of each NULL state only.
    assert counts[0] > 0 and counts[2] > 0
    assert counts[1] == counts[3] == counts[4] == 0


def test_a_comparison_of_two_host_variables_lowers_every_time(
    monkeypatch, database
):
    # Inside a column's conjunct, so the scan pipeline's lowering sees
    # it (alone, the conjunct is a Filter the evaluator judges).
    sql = "SELECT P.PNO FROM PARTS P WHERE P.SNO = :SNO AND (P.PNO < 0 OR :A = :B)"
    lowered = spy_on(monkeypatch, compile_module, "lower_source")
    clear_all_caches()
    with repro.connect(database) as conn:
        for a, b in ((1, 1), (1, 2), (2, 2), ("x", "x")):
            del lowered[:]
            params = {"SNO": 4, "A": a, "B": b}
            rows = conn.execute(sql, params).fetchall()
            assert _same(rows, _interpreted(database, sql, params)), (a, b)
            assert bool(rows) == (a == b)
            assert lowered, (a, b)


def _row_at_a_time(rows: list[tuple], stop: int) -> tuple[list[tuple], int]:
    """The rows a consumer takes from a row-at-a-time distinct loop —
    each canonical key's first row, the keys sorted — before it leaves
    at *stop*, and the duplicates the loop counted."""
    stats = Stats()

    def loop():
        duplicates = 0
        try:
            counts = Counter(map(row_sort_key, rows))
            first: dict = {}
            for row in rows:
                first.setdefault(row_sort_key(row), row)
            for key in sorted(counts):
                yield first[key]
                duplicates += counts[key] - 1
        finally:
            stats.duplicates_removed += duplicates

    stream = loop()
    taken = list(islice(stream, stop))
    stream.close()
    return taken, stats.duplicates_removed


@settings(max_examples=150, deadline=None)
@given(relations(), st.integers(0, 14))
def test_distinct_counts_the_duplicates_a_consumer_passed(relation, stop):
    width, (rows,) = relation
    ctx = ExecContext(_DB, stats=Stats())
    stream = SortDistinct(Rows(rows, width)).rows(ctx)
    taken = list(islice(stream, stop))
    stream.close()
    want, duplicates = _row_at_a_time(rows, stop)
    assert [tuple(map(repr, row)) for row in taken] == [
        tuple(map(repr, row)) for row in want
    ]
    assert ctx.stats.duplicates_removed == duplicates


def _eager(outcome) -> dict:
    """What ``ExecutedQuery.stats`` held before it was built on read."""
    return {name: value for name, value in outcome.stats.as_dict().items() if value}


def test_executed_stats_equal_the_eager_counters_on_both_backends():
    database = _db(200)
    local, remote = {}, {}
    with repro.connect(database) as conn:
        for query in PAPER_QUERIES:
            clear_all_caches()
            executed = conn.execute(query.sql, query.params).executed
            local[query.example] = _eager(executed.outcome)
            assert executed.stats == local[query.example], query.example
    with QueryServer(database, workers=1) as server:
        with repro.connect(server.url) as conn:
            for query in PAPER_QUERIES:
                clear_all_caches()
                remote[query.example] = conn.execute(
                    query.sql, query.params
                ).executed.stats
    assert remote == local
