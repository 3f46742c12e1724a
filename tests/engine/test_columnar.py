"""Columnar execution: batch mechanics, mask kernels, and the
byte-identity contract.

Three layers under test:

* :class:`ColumnBatch` value mechanics — transpose round-trips, byte-lane
  mask selection, null bitmaps, column slicing, canonical key vectors;
* batch predicate compilation — every mask-pair kernel must agree with
  the interpretive :class:`Evaluator` lane for lane, including the
  NULL-heavy rows where Kleene folds are easiest to get wrong;
* the engine_mode contract — vectorized execution is byte-identical to
  the tuple interpreter across every paper example, shares its work
  accounting, and demotes to the interpreter under injected
  ``vectorized_eval`` faults without changing a row.
"""

import itertools

import pytest

from repro.engine import (
    ColumnBatch,
    DEFAULT_BATCH_ROWS,
    default_engine_mode,
    execute_planned,
    set_default_engine_mode,
)
from repro.engine.columnar import (
    batches_from_rows,
    compile_batch_filter,
    compile_batch_predicate,
    resolve_engine_mode,
)
from repro.engine.evaluator import Evaluator
from repro.engine.schema import RelSchema, Scope
from repro.engine.stats import Stats
from repro.resilience import FAULTS, SITE_VECTORIZED_EVAL
from repro.sql import parse_condition
from repro.types import NULL, FALSE, TRUE, UNKNOWN
from repro.types.values import row_sort_key
from repro.workloads import PAPER_QUERIES

# ----------------------------------------------------------------------
# ColumnBatch mechanics


def test_from_rows_to_rows_round_trip():
    rows = [(1, "a", NULL), (2, NULL, 3.5), (NULL, "c", True)]
    batch = ColumnBatch.from_rows(rows, 3)
    assert batch.length == len(batch) == 3
    assert batch.to_rows() == rows
    assert list(batch.iter_rows()) == rows


def test_null_masks_mark_exactly_the_null_lanes():
    batch = ColumnBatch.from_rows([(1, NULL), (NULL, 2), (3, 4)], 2)
    # Row i occupies byte i (little-endian): lane values are 0x00/0x01.
    assert batch.null_masks[0].to_bytes(3, "little") == b"\x00\x01\x00"
    assert batch.null_masks[1].to_bytes(3, "little") == b"\x01\x00\x00"
    assert batch.ones.to_bytes(3, "little") == b"\x01\x01\x01"


def test_select_keeps_order_and_null_lanes():
    rows = [(1, NULL), (2, "b"), (NULL, "c"), (4, NULL)]
    batch = ColumnBatch.from_rows(rows, 2)
    mask = int.from_bytes(b"\x01\x00\x01\x01", "little")  # rows 0, 2, 3
    picked = batch.select(mask)
    assert picked.to_rows() == [rows[0], rows[2], rows[3]]
    assert picked.null_masks[0].to_bytes(3, "little") == b"\x00\x01\x00"
    assert picked.null_masks[1].to_bytes(3, "little") == b"\x01\x00\x01"


def test_select_full_mask_returns_self_and_empty_mask_empties():
    batch = ColumnBatch.from_rows([(1,), (2,)], 1)
    assert batch.select(batch.ones) is batch
    empty = batch.select(0)
    assert empty.length == 0 and empty.to_rows() == []


def test_project_slices_reorders_and_duplicates_columns():
    batch = ColumnBatch.from_rows([(1, "a", NULL), (2, "b", 9)], 3)
    projected = batch.project([2, 0, 0])
    assert projected.to_rows() == [(NULL, 1, 1), (9, 2, 2)]
    assert projected.null_masks[0] == batch.null_masks[2]


def test_sort_keys_match_row_sort_key():
    rows = [(1, "a"), (NULL, "b"), (2, NULL)]
    batch = ColumnBatch.from_rows(rows, 2)
    assert batch.sort_keys() == [row_sort_key(row) for row in rows]
    assert batch.sort_keys([1]) == [row_sort_key((row[1],)) for row in rows]


def test_zero_width_batches_carry_row_counts():
    batch = ColumnBatch.from_rows([(), (), ()], 0)
    assert batch.length == 3
    assert batch.to_rows() == [(), (), ()]


def test_batches_from_rows_chunks_to_morsel_size():
    rows = [(i,) for i in range(10)]
    batches = list(batches_from_rows(rows, 1, 4))
    assert [b.length for b in batches] == [4, 4, 2]
    assert [row for b in batches for row in b.to_rows()] == rows
    assert list(batches_from_rows([], 1, 4)) == []


# ----------------------------------------------------------------------
# batch predicate kernels vs the interpreter

SCHEMA = RelSchema.for_table("T", ["A", "B", "C"])

#: All NULL/low/high combinations over two numeric and a string column —
#: the same 27-row grid the row-compiler tests use.
ROWS = [
    (a, b, c)
    for a, b, c in itertools.product(
        (NULL, 1, 2), (NULL, 1, 2), (NULL, "X", "Y")
    )
]

CONDITIONS = [
    "A = B",
    "A < B",
    "A <> B",
    "A <= B",
    "2 > A",
    "A = 1 AND B = 2",
    "A = 1 OR B IS NULL",
    "NOT A = B",
    "A BETWEEN 0 AND B",
    "A NOT BETWEEN B AND 2",
    "A IN (1, 2, B)",
    "B NOT IN (A, 2)",
    "C = 'X' OR C IS NOT NULL",
    "(A = 1 OR B = 2) AND NOT C = 'Y'",
    "A IS NULL AND B IS NULL AND C IS NULL",
    "A = :P AND C <> :Q",
    "A = 1 AND 1 = 1",
    "A = 1 OR 1 = 0",
    "NULL = NULL OR A = 1",
]

PARAMS = {"P": 1, "Q": "X"}


def _lanes(mask: int, n: int) -> list[bool]:
    return [byte == 1 for byte in mask.to_bytes(n, "little")]


@pytest.mark.parametrize("text", CONDITIONS)
def test_mask_kernels_match_interpreter_lane_for_lane(text):
    expr = parse_condition(text)
    evaluator = Evaluator(params=PARAMS)
    predicate = compile_batch_predicate(expr, SCHEMA, PARAMS)
    selector = compile_batch_filter(expr, SCHEMA, PARAMS)
    assert predicate is not None and selector is not None

    batch = ColumnBatch.from_rows(ROWS, 3)
    true_mask, unknown_mask = predicate(batch)
    assert true_mask & unknown_mask == 0  # lanes are disjoint
    select_mask = selector(batch)
    for i, row in enumerate(ROWS):
        expected = evaluator.predicate(expr, Scope(SCHEMA, row))
        lane = (
            TRUE if _lanes(true_mask, len(ROWS))[i]
            else UNKNOWN if _lanes(unknown_mask, len(ROWS))[i]
            else FALSE
        )
        assert lane is expected, f"{text} on {row}"
    # The filter mask is the false-interpretation ⌊P⌋: TRUE lanes only.
    assert select_mask == true_mask


def test_mixed_type_columns_route_through_the_exact_lane():
    """A column mixing ints and strings defeats the native fast lane;
    the kernel must still produce reference verdicts per lane."""
    expr = parse_condition("A < 2")
    rows = [(1, 0, 0), ("zzz", 0, 0), (NULL, 0, 0)]
    batch = ColumnBatch.from_rows(rows, 3)
    predicate = compile_batch_predicate(expr, SCHEMA, {})
    evaluator = Evaluator()
    true_mask, unknown_mask = predicate(batch)
    for i, row in enumerate(rows):
        expected = evaluator.predicate(expr, Scope(SCHEMA, row))
        lane = (
            TRUE if _lanes(true_mask, 3)[i]
            else UNKNOWN if _lanes(unknown_mask, 3)[i]
            else FALSE
        )
        assert lane is expected, row


def test_subqueries_are_interpreter_territory():
    expr = parse_condition("EXISTS (SELECT * FROM T WHERE A = 1)")
    assert compile_batch_predicate(expr, SCHEMA, {}) is None


def test_unbound_host_variable_rejects_compilation():
    expr = parse_condition("A = :MISSING")
    assert compile_batch_predicate(expr, SCHEMA, {}) is None


# ----------------------------------------------------------------------
# engine_mode resolution


def test_engine_mode_resolution_and_default_override():
    assert resolve_engine_mode("vectorized") == "vectorized"
    with pytest.raises(ValueError):
        resolve_engine_mode("simd")
    with pytest.raises(ValueError):
        set_default_engine_mode("simd")
    previous = set_default_engine_mode("auto")
    try:
        assert default_engine_mode() == "auto"
        assert resolve_engine_mode(None) == "auto"
        assert resolve_engine_mode("tuple") == "tuple"  # explicit wins
    finally:
        set_default_engine_mode(previous)


# ----------------------------------------------------------------------
# byte-identity across the paper examples


def _run(query, db, mode, stats=None):
    return execute_planned(
        query.sql, db, params=query.params, engine_mode=mode, stats=stats
    )


@pytest.mark.parametrize("query", PAPER_QUERIES, ids=lambda q: f"ex{q.example}")
def test_paper_examples_byte_identical_serial(query, small_db):
    tuple_stats, vec_stats = Stats(), Stats()
    reference = _run(query, small_db, "tuple", stats=tuple_stats)
    vectorized = _run(query, small_db, "vectorized", stats=vec_stats)
    assert vectorized.columns == reference.columns
    assert vectorized.rows == reference.rows  # sequence, not just multiset
    # Work accounting is mode-independent; only the path-descriptive
    # vectorized_* counters (and cache warmth between the two runs)
    # may differ.
    for name, value in tuple_stats.as_dict().items():
        if name.startswith("vectorized") or name.startswith("plan_cache"):
            continue
        assert getattr(vec_stats, name) == value, name


def test_auto_mode_vectorizes_when_faults_are_unarmed(small_db):
    stats = Stats()
    execute_planned(
        "SELECT P.PNO, P.PNAME FROM PARTS P WHERE P.COLOR = 'RED'",
        small_db,
        engine_mode="auto",
        stats=stats,
    )
    assert stats.vectorized_batches > 0


def test_auto_mode_defers_to_armed_faults(small_db):
    stats = Stats()
    with FAULTS.inject(SITE_VECTORIZED_EVAL, after=1_000_000):
        execute_planned(
            "SELECT P.PNO, P.PNAME FROM PARTS P WHERE P.COLOR = 'RED'",
            small_db,
            engine_mode="auto",
            stats=stats,
        )
    assert stats.vectorized_batches == 0


# ----------------------------------------------------------------------
# demotion: the verified fallback


def test_vectorized_fault_demotes_to_interpreter_mid_stream(small_db):
    sql = "SELECT P.PNO, P.PNAME FROM PARTS P WHERE P.COLOR = 'RED'"
    expected = execute_planned(sql, small_db, engine_mode="tuple")

    stats = Stats()
    with FAULTS.inject(SITE_VECTORIZED_EVAL, after=0, times=1):
        result = execute_planned(
            sql, small_db, engine_mode="vectorized", stats=stats,
            batch_rows=8,
        )
    assert result.rows == expected.rows
    assert stats.vectorized_fallbacks >= 1


@pytest.mark.parametrize("query", PAPER_QUERIES, ids=lambda q: f"ex{q.example}")
def test_paper_examples_byte_identical_under_vectorized_faults(query, small_db):
    reference = _run(query, small_db, "tuple")
    with FAULTS.inject(SITE_VECTORIZED_EVAL, after=1, times=2):
        faulted = _run(query, small_db, "vectorized")
    assert faulted.rows == reference.rows


def test_small_batch_rows_chunk_the_stream(small_db):
    stats = Stats()
    result = execute_planned(
        "SELECT P.PNO FROM PARTS P",
        small_db,
        engine_mode="vectorized",
        batch_rows=7,
        stats=stats,
    )
    assert stats.vectorized_batches >= len(result.rows) // 7
    assert stats.vectorized_rows >= len(result.rows)
    assert 7 != DEFAULT_BATCH_ROWS  # the knob really overrode the default
