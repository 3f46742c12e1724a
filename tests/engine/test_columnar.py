"""Columnar execution: batch mechanics, mask kernels, and the
byte-identity contract.

Three layers under test:

* :class:`ColumnBatch` value mechanics — transpose round-trips, byte-lane
  mask selection, null bitmaps, column slicing;
* batch predicate compilation — every mask-pair kernel must agree with
  the interpretive :class:`Evaluator` lane for lane, including the
  NULL-heavy rows where Kleene folds are easiest to get wrong;
* the engine_mode contract — vectorized execution is byte-identical to
  the tuple interpreter across every paper example and across plan
  shapes the planner rarely emits, shares its work accounting, opens
  and observes each node once, and demotes to the interpreter under
  injected ``vectorized_eval`` faults without changing a row — reads
  and UPDATE/DELETE alike.
"""

import itertools

import pytest

import repro
from repro.engine import (
    ColumnBatch,
    DEFAULT_BATCH_ROWS,
    default_engine_mode,
    execute_plan,
    execute_planned,
    set_default_engine_mode,
)
from repro.engine.columnar import (
    UnbatchedRows,
    batches_from_rows,
    compile_batch_filter,
    compile_batch_predicate,
    resolve_engine_mode,
)
from repro.engine.evaluator import Evaluator
from repro.engine.operators import (
    ExecContext,
    Filter,
    HashDistinct,
    HashJoin,
    IndexScan,
    Project,
    SeqScan,
    SortSetOp,
)
from repro.engine.schema import RelSchema, Scope
from repro.engine.stats import Stats
from repro.errors import RowBudgetExceeded
from repro.observe.analyze import PlanAnalysis
from repro.resilience import FAULTS, SITE_VECTORIZED_EVAL
from repro.sql import parse_condition
from repro.sql.ast import SetOpKind
from repro.sql.expressions import Literal
from repro.types import NULL, FALSE, TRUE, UNKNOWN
from repro.workloads import (
    PAPER_QUERIES,
    SupplierScale,
    build_database,
    generate,
)

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


def test_closing_unbatched_rows_closes_the_batch_stream():
    closed = []

    def stream():
        try:
            yield ColumnBatch.from_rows([(1,), (2,)], 1)
            yield ColumnBatch.from_rows([(3,)], 1)
        finally:
            closed.append(True)

    rows = UnbatchedRows(stream())
    assert next(rows) == (1,)
    rows.close()
    assert closed == [True]
    assert list(UnbatchedRows(stream())) == [(1,), (2,), (3,)]


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
# plan shapes the planner rarely emits: batches end where rows begin


def _scan(db, table, alias):
    return SeqScan(table, alias, db.catalog.table(table).column_names)


def _filter_over_join(db):
    """A cross-table residual above the join, not inside it."""
    supplier, parts = _scan(db, "SUPPLIER", "S"), _scan(db, "PARTS", "P")
    join = HashJoin(
        supplier, parts,
        [supplier.schema.index_of("S", "SNO")], [parts.schema.index_of("P", "SNO")],
    )
    return Filter(join, parse_condition("S.SNO <= P.PNO AND P.COLOR <> 'RED'"))


def _project_over_hash_distinct(db):
    parts = _scan(db, "PARTS", "P")
    pipeline = Project(
        Filter(parts, parse_condition("P.PNO > 1")),
        [parts.schema.index_of("P", "COLOR"), parts.schema.index_of("P", "PNAME")],
        ["COLOR", "PNAME"],
    )
    return Project(HashDistinct(pipeline), [0], ["COLOR"])


def _setop_of_two_pipelines(db):
    supplier, agents = _scan(db, "SUPPLIER", "S"), _scan(db, "AGENTS", "A")
    left = Project(supplier, [supplier.schema.index_of("S", "SNO")], ["SNO"])
    right = Project(
        Filter(agents, parse_condition("A.ACITY = 'Chicago'")),
        [agents.schema.index_of("A", "SNO")],
        ["SNO"],
    )
    return SortSetOp(SetOpKind.INTERSECT, True, left, right)


def _project_over_index_scan(db):
    probe = IndexScan(
        "PARTS", "P", db.catalog.table("PARTS").column_names,
        ("SNO",), (Literal(3),), residual=parse_condition("P.PNO >= 2"),
    )
    return Project(probe, [1, 2], ["PNO", "PNAME"])


def _nodes(plan):
    yield plan
    for child in plan.children():
        yield from _nodes(child)


def _shared(stats):
    return {
        name: value
        for name, value in stats.as_dict().items()
        if not name.startswith(("vectorized", "plan_cache"))
    }


@pytest.mark.parametrize(
    "shape",
    [
        _filter_over_join,
        _project_over_hash_distinct,
        _setop_of_two_pipelines,
        _project_over_index_scan,
    ],
)
def test_rare_plan_shapes_agree_and_open_each_node_once(shape, small_db):
    plan = shape(small_db)
    runs = {}
    for mode in ("tuple", "vectorized"):
        stats, analysis = Stats(), PlanAnalysis()
        result = execute_plan(
            plan, small_db, engine_mode=mode, stats=stats, analysis=analysis,
            batch_rows=5,
        )
        assert result.rows
        runs[mode] = (result.rows, _shared(stats), analysis)
    (rows, counters, reference), (vec_rows, vec_counters, vectorized) = (
        runs["tuple"], runs["vectorized"],
    )
    assert vec_rows == rows  # sequence, not just multiset
    assert vec_counters == counters
    for node in _nodes(plan):
        seen, expected = vectorized.for_node(node), reference.for_node(node)
        # The rows() -> batches() hand-off neither opens nor observes a
        # node twice; only batch pipelines report batches.
        assert seen.loops == expected.loops == 1, node.label()
        assert seen.rows == expected.rows, node.label()
        assert bool(seen.batches) == node.batch_pipeline, node.label()


def test_a_correlated_open_stays_on_rows_under_a_vectorized_root(small_db):
    """``outer`` needs the evaluator: a batch pipeline opened with
    correlation bindings reads rows even when the execution batches."""
    supplier = _scan(small_db, "SUPPLIER", "S")
    parts = _scan(small_db, "PARTS", "P")
    inner = Project(
        Filter(parts, parse_condition("P.SNO = S.SNO AND P.COLOR = 'RED'")),
        [parts.schema.index_of("P", "PNO")],
        ["PNO"],
    )
    assert inner.batch_pipeline
    runs = {}
    for mode in ("tuple", "vectorized"):
        stats, analysis = Stats(), PlanAnalysis()
        ctx = ExecContext(small_db, stats=stats, engine_mode=mode, analysis=analysis)
        analysis.begin(inner)
        answers = [
            list(inner.rows(ctx, outer=Scope(supplier.schema, row)))
            for row in supplier.rows(ctx)
        ]
        runs[mode] = (answers, _shared(stats), analysis)
    (answers, counters, reference), (vec_answers, vec_counters, vectorized) = (
        runs["tuple"], runs["vectorized"],
    )
    assert any(answers) and vec_answers == answers
    assert vec_counters == counters
    for node in _nodes(inner):
        seen, expected = vectorized.for_node(node), reference.for_node(node)
        assert seen.loops == expected.loops == len(answers)
        assert seen.rows == expected.rows and not seen.batches
    # The uncorrelated scan driving it did run as a batch pipeline.
    assert vectorized.for_node(supplier).batches == 1


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


@pytest.mark.parametrize(
    "sql",
    [
        "UPDATE PARTS SET COLOR = 'BLUE' WHERE COLOR = 'RED'",
        "DELETE FROM PARTS WHERE COLOR = 'RED' AND PNO > 1",
    ],
)
def test_vectorized_dml_fault_demotes_to_the_evaluator(sql):
    """A mask kernel dying under UPDATE/DELETE finishes through the
    evaluator like a SELECT's does; it used to reach the client."""
    db = build_database(generate(SupplierScale(12, 4, 2)))
    conn = repro.connect(db)

    def affected(**options):
        conn.begin()
        try:
            return conn.execute(sql, **options)
        finally:
            conn.rollback()

    expected = affected(engine_mode="tuple").rowcount
    assert expected > 0
    # The first batch of eight is judged by the kernel, the second dies.
    with FAULTS.inject(SITE_VECTORIZED_EVAL, after=1, times=1):
        cursor = affected(engine_mode="vectorized", batch_rows=8)
    assert cursor.rowcount == expected
    assert cursor.executed.stats["vectorized_fallbacks"] >= 1
    assert cursor.executed.stats["vectorized_rows"] == 8
    # A budget is not a kernel failure: it still reaches the caller.
    with FAULTS.inject(SITE_VECTORIZED_EVAL, after=1, times=1):
        with pytest.raises(RowBudgetExceeded):
            affected(engine_mode="vectorized", batch_rows=8, row_budget=12)


@pytest.mark.parametrize(
    "sql",
    [
        "UPDATE PARTS SET COLOR = 'BLUE' WHERE COLOR = 'RED'",
        "DELETE FROM PARTS WHERE COLOR = 'RED'",
    ],
)
def test_dml_counts_each_judged_row_once_in_both_modes(sql):
    """UPDATE/DELETE's WHERE match is a selection: ``predicate_evals``
    is the candidate count whoever judged the row.  The evaluator loop
    used to count every row twice and the batch lane none."""
    db = build_database(generate(SupplierScale(12, 4, 2)))
    conn = repro.connect(db)
    candidates = len(db.table("PARTS").rows)

    def stats(**options):
        conn.begin()
        try:
            return conn.execute(sql, **options).executed.stats
        finally:
            conn.rollback()

    select = conn.execute("SELECT PNO FROM PARTS WHERE COLOR = 'RED'")
    assert select.executed.stats["predicate_evals"] == candidates == 48

    by_tuple = stats(engine_mode="tuple")
    assert by_tuple["predicate_evals"] == candidates
    assert by_tuple.get("compiled_evals", 0) == 0  # the evaluator judged them

    by_batch = stats(engine_mode="vectorized", batch_rows=8)
    assert by_batch["predicate_evals"] == candidates
    assert by_batch["compiled_evals"] == by_batch["vectorized_rows"] == candidates
    assert by_batch["predicates_compiled"] == 1

    # Mid-stream demotion: the kernel judged two batches of eight, the
    # evaluator finished the failed batch and the rest.
    with FAULTS.inject(SITE_VECTORIZED_EVAL, after=2, times=1):
        demoted = stats(engine_mode="vectorized", batch_rows=8)
    assert demoted["vectorized_fallbacks"] == 1
    assert demoted["compiled_evals"] == demoted["vectorized_rows"] == 16
    assert demoted["predicate_evals"] == candidates
