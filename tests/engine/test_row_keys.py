"""Rows compared as themselves ≡ rows compared by their canonical key.

``repro.types.values.row_keys`` lets DISTINCT, ORDER BY, the set
operations and ``Result``'s multiset comparisons sort, compare and hash
rows as themselves when every column holds one type rank and no NULL,
and falls back to the canonical ``(rank, value)`` key otherwise.
``reference_row_keys.py`` keeps the canonical-key path for every row as
the oracle.  Over columns of ``bool``/``int``/``float``/``str``/NULL —
purely homogeneous ones (floats with NaN), ``int`` mixed with
``float``, and ones where ``1``, ``1.0``, ``TRUE`` and ``'1'`` collide —
each operator must give the oracle's rows, in the oracle's order, with
the oracle's ``Stats``.

The second half counts canonical keys: the benchmark's
``distinct_needed`` and ``intersect`` texts, whose DISTINCT columns are
all NOT NULL strings or integers, build none.
"""

from __future__ import annotations

import functools
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro
from repro import clear_all_caches
from repro.engine import Database, Stats
from repro.engine.operators import (
    ExecContext,
    PlanNode,
    Sort,
    SortDistinct,
    SortSetOp,
)
from repro.engine.result import Result
from repro.engine.schema import ColumnInfo, RelSchema
from repro.sql.ast import SetOpKind
from repro.types import NULL, values

from . import reference_row_keys as reference
from .test_row_kernel_scaling import _db, _statement

_DB = Database.from_script("CREATE TABLE T (A INT NOT NULL, PRIMARY KEY (A));")
SETTINGS = dict(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

NAN = float("nan")  # equal to itself only by identity
COLLIDING = st.sampled_from([1, 1.0, True, "1", 0, 0.0, False, "0", NULL])
COLUMNS = {
    "int": st.integers(-2, 2),
    # NaN twice: one shared object, and a fresh one per draw.
    "float": st.floats(-2, 2) | st.sampled_from([0.5, -0.0, NAN])
    | st.builds(float, st.just("nan")),
    "number": st.integers(-2, 2) | st.sampled_from([1.0, 0.0, 2.5, float("inf")]),
    "str": st.sampled_from(["", "a", "b", "1", "A"]),
    "bool": st.booleans(),
    "int_or_null": st.integers(-2, 2) | st.just(NULL),
    "colliding": COLLIDING,
}


class Rows(PlanNode):
    """A leaf that yields the rows it was given and charges nothing."""

    def __init__(self, rows: list[tuple], width: int) -> None:
        self.given = rows
        self.schema = RelSchema(ColumnInfo(None, f"C{i}") for i in range(width))

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def _rows(self, ctx):
        yield from self.given


@st.composite
def relations(draw, count: int = 1):
    """*count* row lists over one drawn column layout."""
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=3))
    row = st.tuples(*(COLUMNS[kind] for kind in kinds))
    return len(kinds), [draw(st.lists(row, max_size=12)) for _ in range(count)]


def _run(node: PlanNode) -> tuple[list[tuple], dict]:
    ctx = ExecContext(_DB, stats=Stats())
    return list(node.rows(ctx)), ctx.stats.as_dict()


def _oracle(fn, *args) -> tuple[list[tuple], dict]:
    stats = Stats()
    return fn(*args, stats), stats.as_dict()


def _same(actual, expected) -> None:
    """Same rows in the same order (objects, so ``1`` is not ``1.0``),
    same counters."""
    (rows, stats), (want, want_stats) = actual, expected
    assert [tuple(map(repr, row)) for row in rows] == [
        tuple(map(repr, row)) for row in want
    ]
    assert stats == want_stats


@settings(**SETTINGS)
@given(relations())
@example((2, [[(1, NULL), (1, NULL), (1, 2)]]))
@example((1, [[(2,), (1,), (2,), (3,)]]))
@example((1, [[(1,), (1.0,), (True,), ("1",), (NULL,)]]))
def test_distinct_matches_the_canonical_key(relation):
    width, (rows,) = relation
    _same(_run(SortDistinct(Rows(rows, width))), _oracle(reference.sort_distinct, rows))


@settings(**SETTINGS)
@given(relations(), st.data())
def test_order_by_matches_the_canonical_key(relation, data):
    width, (rows,) = relation
    positions = data.draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=3))
    ascending = data.draw(st.lists(st.booleans(), min_size=len(positions),
                                   max_size=len(positions)))
    _same(
        _run(Sort(Rows(rows, width), positions, ascending)),
        _oracle(reference.order, rows, positions, ascending),
    )


SPELLINGS = [(kind, all_rows) for kind in SetOpKind for all_rows in (False, True)]


@settings(**SETTINGS)
@given(relations(count=2))
@example((1, [[(1,), (1,), (2,)], [(1.0,), (3,)]]))
@example((1, [[(1,), (True,)], [(True,), ("1",)]]))
def test_set_operations_match_the_canonical_key(relation):
    width, (left, right) = relation
    for kind, all_rows in SPELLINGS:
        node = SortSetOp(kind, all_rows, Rows(left, width), Rows(right, width))
        _same(
            _run(node),
            _oracle(reference.set_operation, kind, all_rows, left, right),
        )


@settings(**SETTINGS)
@given(relations(count=2), st.randoms(use_true_random=False))
@example((2, [[(1, NULL)], [(1, NULL)]]), None)
@example((2, [[(1, NULL)], [(1, 2)]]), None)
@example((1, [[(1,)], [(1.0,)]]), None)
@example((1, [[(1,)], [(True,)]]), None)
def test_result_comparisons_match_the_canonical_key(relation, rng):
    _, (left, right) = relation
    candidates = [right]
    if rng is not None:
        shuffled = list(left)
        rng.shuffle(shuffled)
        candidates.append(shuffled)
    mine = Result([], left)
    for other in candidates:
        assert mine.same_rows(Result([], other)) == reference.same_rows(left, other)
    assert [tuple(map(repr, row)) for row in mine.sorted_rows()] == [
        tuple(map(repr, row)) for row in reference.sorted_rows(left)
    ]
    assert mine.has_duplicates() == reference.has_duplicates(left)


def test_rows_of_different_widths_are_never_the_same():
    assert not Result([], [(1,)]).same_rows(Result([], [(1, 2)]))


# ----------------------------------------------------------------------
# the benchmark's DISTINCT texts build no canonical key


@pytest.fixture()
def canonical_keys(monkeypatch):
    """One entry per whole-row canonical key built: a row keyed by a
    ``key_extractor()`` without key columns, wherever ``repro`` imported
    it.  (Join keys, with key columns, pass through uncounted.)"""
    built = []
    original = values.key_extractor

    @functools.wraps(original)
    def key_extractor(indices=None, null_safe=None):
        extract = original(indices, null_safe)
        if indices is not None:
            return extract

        def counted(row):
            built.append(row)
            return extract(row)

        return counted

    for loaded in list(sys.modules.values()):
        if (
            getattr(loaded, "__name__", "").startswith("repro")
            and vars(loaded).get("key_extractor") is original
        ):
            monkeypatch.setattr(loaded, "key_extractor", key_extractor)
    return built


@pytest.mark.parametrize("cls", ["distinct_needed", "intersect"])
def test_benchmark_distinct_texts_build_no_canonical_key(canonical_keys, cls):
    database = _db(4_000)  # SupplierScale(400, 10, 3)
    sql, params = _statement(cls, 4_000)
    clear_all_caches()
    with repro.connect(database) as conn:
        cursor = conn.execute(sql, params)
        rows = cursor.fetchall()
    # Rows did reach a DISTINCT, and none of them was keyed canonically.
    assert len(rows) > 1
    assert cursor.executed.stats["sort_rows"] > len(rows)
    assert canonical_keys == []


# ----------------------------------------------------------------------
# NaN has no place in the ≐ order, but DISTINCT deduplicates before it
# sorts, so a NaN between two equal values no longer keeps both


def test_distinct_over_a_nan_returns_each_row_once():
    database = Database.from_script(
        "CREATE TABLE T (K INT NOT NULL, X FLOAT, PRIMARY KEY (K));"
    )
    with repro.connect(database) as conn:
        for key, x in enumerate([0.0, NAN, 0.0]):
            conn.execute("INSERT INTO T VALUES (:K, :X)", {"K": key, "X": x})
        rows = conn.execute("SELECT DISTINCT T.X FROM T").fetchall()
    assert sorted(map(repr, rows)) == ["(0.0,)", "(nan,)"]
