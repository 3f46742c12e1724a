"""Generated kernels are cached by shape, and a statement never reaches
their source text.

``repro.engine.codegen`` compiles one function per source text and
keeps it in the ``kernels`` cache.  A constant travels in an argument
slot ``k<n>``, never in the text, so:

* the literal texts ``adhoc_local`` sends (``benchmarks/e2e``: every
  binding inlined, which the door lifts back into slots) share a
  handful of kernels — one per plan shape, not one per text — and
  after the first text of a shape look none up;
* a string literal written to break out of generated code runs as data,
  and after the paper's examples E1–E11 every cached source is made of
  a fixed set of identifiers, integers and operators only;
* a condition nested deeper than CPython's parser accepts is refused
  like a subquery: the evaluator answers.
"""

from __future__ import annotations

import random
import re

import pytest

from repro import cache_stats, clear_all_caches, connect, set_caches_enabled
from repro.api import run_with_options
from repro.engine import set_compilation_enabled
from repro.engine.codegen import KERNELS, ChunkedRows
from repro.engine.compile import compile_pair, lower_source
from repro.engine.operators import ExecContext, Filter, SeqScan
from repro.sql import parse_condition
from repro.sql.parser import parse_shape
from repro.sql.expressions import And, Or
from repro.workloads import PAPER_QUERIES, SupplierScale, build_database, generate

from .test_row_kernel_scaling import workloads

SCALE = (60, 8, 3)  # adhoc_local's


@pytest.fixture(scope="module")
def database():
    return build_database(generate(SupplierScale(*SCALE, seed=7)))


@pytest.fixture(autouse=True)
def fresh_kernels():
    previous = set_caches_enabled(True)
    clear_all_caches(reset_counters=True)
    yield
    set_caches_enabled(previous)


def _sources() -> list[str]:
    """The source texts the kernel cache holds."""
    with KERNELS._lock:
        return list(KERNELS._data)


def test_adhoc_literal_texts_share_one_kernel_per_shape(database):
    texts = [
        op.sql
        for op in workloads._adhoc_ops(random.Random(7), workloads.Dims(*SCALE))
        if op.cls in ("filter_scan", "key_join")
    ]
    assert len(set(texts)) == len(texts) > 600
    conn = connect(database)
    for text in texts:
        conn.execute(text).fetchall()
    # filter_scan: its pipeline; key_join: the projected join, SUPPLIER's
    # scan inside it and PARTS probed through its index.  Every text
    # after the first of its shape compiled nothing: the door lifts the
    # literals, so the shape's cached plan and its nodes' lowering
    # tables serve it without a kernel lookup.
    assert len(KERNELS) <= 4, _sources()
    counts = KERNELS.stats()
    assert counts["misses"] == len(KERNELS)
    shapes = {parse_shape(text).text for text in texts}
    assert cache_stats()["plans"]["entries"] == len(shapes) < 10
    assert counts["hits"] + counts["misses"] <= 2 * len(shapes)


HOSTILE = 'x"); __import__("os") #'

#: Every identifier generated source may contain.
NAMES = {
    # Python
    "and", "append", "close", "comparable", "continue", "def", "else",
    "False", "finally", "for", "get", "if", "in", "is", "len", "None",
    "not", "or", "return", "True", "try", "type", "while", "yield",
    # the factory and its kernels
    "make", "is_true", "is_false", "verdict", "pipeline", "join",
    "NULL", "TRUE", "FALSE", "UNKNOWN", "rank",
    # locals and arguments
    "r", "b", "p", "v", "t", "key", "rows", "chunk", "start", "scanned", "pending",
    "tick", "unticked", "stats", "build_rows", "probe_rows", "b_key", "p_key",
    "buckets", "bucket", "builds", "probes", "joined", "matching", "fetched",
    # the Stats counters a kernel credits
    "rows_scanned", "predicate_evals", "compiled_evals", "hash_builds",
    "hash_probes", "rows_joined", "index_probes", "index_rows",
}
TOKEN = r"\s|k\d+\b|\d+\b|[-+*<>=!()\[\]{},:.]|(?:%s)\b" % "|".join(sorted(NAMES))


def test_a_string_literal_runs_as_data(database):
    sql = (
        "SELECT P.PNO FROM PARTS P "
        f"WHERE P.PNAME = '{HOSTILE}' OR P.COLOR < '{HOSTILE}'"
    )
    conn = connect(database)
    rows = conn.execute(sql).fetchall()
    previous = set_compilation_enabled(False)
    try:
        assert rows == conn.execute(sql).fetchall()
    finally:
        set_compilation_enabled(previous)
    assert rows  # the ordering held somewhere: the literal was compared
    sources = _sources()
    assert sources and not any(mark in text for text in sources for mark in "'\"#")


def test_every_kernel_source_is_names_integers_and_operators(database):
    for query in PAPER_QUERIES:
        run_with_options(query.sql, database=database, params=query.params)
    connect(database).execute(
        f"SELECT P.PNO FROM PARTS P WHERE P.PNAME <> '{HOSTILE}'"
    ).fetchall()
    sources = _sources()
    assert len(sources) >= 3
    for source in sources:
        assert re.fullmatch(f"(?:{TOKEN})*", source), source


def test_a_condition_nested_past_cpythons_parser_is_interpreted(database):
    # From about 197 levels of AND/OR a fragment nests deeper than
    # CPython's parser accepts (SQL's parser takes that depth when the
    # stack above it is shallow; the tree is built directly here).
    expr = parse_condition("P.PNO > 0")
    for level in range(210):
        part = parse_condition(f"P.PNO > {level % 5}")
        expr = (Or if level % 2 else And)((part, expr))
    columns = database.catalog.table("PARTS").column_names
    plan = Filter(SeqScan("PARTS", "P", columns), expr)
    assert lower_source(expr, plan.schema) is not None
    assert compile_pair(expr, plan.schema) is None
    stream = plan.rows(ExecContext(database))
    assert not isinstance(stream, ChunkedRows)
    rows = list(stream)
    previous = set_compilation_enabled(False)
    try:
        assert rows == list(plan.rows(ExecContext(database)))
    finally:
        set_compilation_enabled(previous)
    assert rows
