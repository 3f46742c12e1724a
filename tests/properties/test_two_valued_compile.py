"""Property tests: the compiled pair *is* the three-valued verdict.

``repro.engine.compile`` lowers a search condition to two plain-bool
closures, ``is_true`` = ⌊P⌋ and ``is_false`` = ⌊¬P⌋ (the paper's
Table 2 interpretations), and never builds the third truth value at
run time.  For random condition trees and random rows over
``{NULL, bool, int, float, str}`` — NaN and cross-class operands
included — the pair must say exactly what the interpretive
:class:`~repro.engine.evaluator.Evaluator` says, the derived
``compile_predicate`` must return the interpreter's very singleton, and
everything the ``Tristate``-closure compiler refused is still refused.

The lowering is one walk with two sets of leaves, so the property is
stated once over both formats: under the batch leaves of
``repro.engine.columnar`` the pair is ``(true_mask, false_mask)`` over a
``ColumnBatch``, and lane for lane it is the row pair, the interpreter's
verdict, and refused exactly where the row pair is.

The same file pins the key kernel of the tuple operators:
``key_extractor(indices, null_safe)(row)`` is ``row_sort_key`` of the
picked values, or ``None`` exactly where a hash join may not use the
row (a NULL at a position that is not null-safe).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.columnar import (
    BATCH_LEAVES,
    ColumnBatch,
    compile_batch_filter,
    compile_batch_predicate,
)
from repro.engine.compile import compile_filter, compile_pair, compile_predicate
from repro.engine.evaluator import Evaluator
from repro.engine.schema import RelSchema, Scope
from repro.sql import parse_condition
from repro.sql.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    HostVar,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
)
from repro.types import FALSE, NULL, TRUE
from repro.types.values import is_null, key_extractor, row_sort_key

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

COLUMNS = ["A", "B", "C", "D"]
SCHEMA = RelSchema.for_table("T", COLUMNS)
NAN = float("nan")
VALUES = [NULL, True, False, -1, 0, 1, 2, 1.5, 2.0, NAN, "", "1", "X", "Y"]
PARAMS = {"P0": 1, "P1": "X", "P2": NULL, "P3": True, "P4": 1.5}

values = st.sampled_from(VALUES)
rows = st.tuples(*[values] * len(COLUMNS))

scalars = st.one_of(
    st.sampled_from(COLUMNS).map(lambda name: ColumnRef(None, name)),
    st.sampled_from(COLUMNS).map(lambda name: ColumnRef("T", name)),
    values.map(Literal),
    st.sampled_from(sorted(PARAMS)).map(HostVar),
)
leaves = st.one_of(
    st.builds(
        Comparison,
        st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        scalars,
        scalars,
    ),
    st.builds(IsNull, scalars, st.booleans()),
    st.builds(Between, scalars, scalars, scalars, st.booleans()),
    st.builds(
        InList,
        scalars,
        st.lists(scalars, min_size=1, max_size=3).map(tuple),
        st.booleans(),
    ),
    st.sampled_from([Literal(True), Literal(False), Literal(NULL)]),
)
conditions = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda xs: And(tuple(xs))),
        st.lists(inner, min_size=2, max_size=3).map(lambda xs: Or(tuple(xs))),
        inner.map(Not),
    ),
    max_leaves=8,
)


@settings(max_examples=400, **COMMON)
@given(expr=conditions, sample=st.lists(rows, min_size=1, max_size=6))
def test_the_pair_is_the_interpreters_verdict(expr, sample):
    pair = compile_pair(expr, SCHEMA, PARAMS)
    predicate = compile_predicate(expr, SCHEMA, PARAMS)
    row_test = compile_filter(expr, SCHEMA, PARAMS)
    assert pair is not None and predicate is not None and row_test is not None
    is_true, is_false = pair
    evaluator = Evaluator(params=PARAMS)
    for row in sample:
        verdict = evaluator.predicate(expr, Scope(SCHEMA, row))
        # Plain bools, the exact interpretation, and never both.
        assert is_true(row) is (verdict is TRUE), (expr, row)
        assert is_false(row) is (verdict is FALSE), (expr, row)
        assert predicate(row) is verdict, (expr, row)
        assert row_test(row) is (verdict is TRUE), (expr, row)


@settings(max_examples=400, **COMMON)
@given(expr=conditions, sample=st.lists(rows, max_size=9))
def test_the_batch_pair_is_the_row_pair_lane_for_lane(expr, sample):
    is_true, is_false = compile_pair(expr, SCHEMA, PARAMS)
    batch_pair = compile_pair(expr, SCHEMA, PARAMS, BATCH_LEAVES)
    assert batch_pair is not None
    batch = ColumnBatch.from_rows(sample, len(COLUMNS))
    true_mask, false_mask = (test(batch) for test in batch_pair)
    # Disjoint 0/1 lanes, none at or beyond the batch's length.
    assert true_mask & false_mask == 0
    assert (true_mask | false_mask) & ~batch.ones == 0
    evaluator = Evaluator(params=PARAMS)
    for lane, row in enumerate(sample):
        verdict = evaluator.predicate(expr, Scope(SCHEMA, row))
        true_lane = bool(true_mask >> (8 * lane) & 0xFF)
        false_lane = bool(false_mask >> (8 * lane) & 0xFF)
        assert true_lane is is_true(row) is (verdict is TRUE), (expr, row)
        assert false_lane is is_false(row) is (verdict is FALSE), (expr, row)
    # The public kernels are derived from the pair, as the row ones are.
    unknown_mask = batch.ones ^ (true_mask | false_mask)
    assert compile_batch_predicate(expr, SCHEMA, PARAMS)(batch) == (
        true_mask,
        unknown_mask,
    )
    assert compile_batch_filter(expr, SCHEMA, PARAMS)(batch) == true_mask


# What the compiler must leave to the interpreter, as a leaf: the tree
# around it may fold, short-circuit or negate, the refusal stands.
REFUSED = [
    parse_condition("EXISTS (SELECT * FROM T)"),
    parse_condition("A IN (SELECT A FROM T)"),
    Comparison("=", ColumnRef("X", "A"), Literal(1)),  # outer reference
    Comparison("<", ColumnRef(None, "E"), ColumnRef(None, "A")),  # unknown
    Comparison("=", HostVar("MISSING"), ColumnRef(None, "A")),
    IsNull(HostVar("MISSING")),
    # A sibling that folds the node to a constant must not hide it.
    Between(Literal(5), Literal(7), HostVar("MISSING")),
    InList(Literal(1), (Literal(1), ColumnRef("X", "A"))),
    Between(ColumnRef(None, "A"), Literal(NULL), HostVar("MISSING"), True),
]
WRAPPERS = [
    lambda bad, tree: bad,
    lambda bad, tree: Not(bad),
    lambda bad, tree: And((bad, tree)),
    lambda bad, tree: Or((Not(bad), tree)),
    lambda bad, tree: And((Or((bad, tree)), tree)),
]


@settings(max_examples=150, **COMMON)
@given(
    bad=st.sampled_from(REFUSED),
    wrap=st.sampled_from(WRAPPERS),
    tree=conditions,
)
def test_what_needs_the_interpreter_is_still_refused(bad, wrap, tree):
    expr = wrap(bad, tree)
    assert compile_pair(expr, SCHEMA, PARAMS) is None
    assert compile_predicate(expr, SCHEMA, PARAMS) is None
    assert compile_filter(expr, SCHEMA, PARAMS) is None
    # One walk, one frontier: the leaves cannot move it.
    assert compile_pair(expr, SCHEMA, PARAMS, BATCH_LEAVES) is None
    assert compile_batch_predicate(expr, SCHEMA, PARAMS) is None
    assert compile_batch_filter(expr, SCHEMA, PARAMS) is None


def test_ambiguous_reference_is_still_refused():
    joined = RelSchema.for_table("R", ["A"]).concat(RelSchema.for_table("S", ["A"]))
    assert compile_pair(parse_condition("A = 1"), joined) is None
    assert compile_pair(parse_condition("NOT A IS NULL"), joined) is None
    is_true, is_false = compile_pair(parse_condition("R.A < S.A"), joined)
    assert is_true((1, 2)) is True and is_false((1, 2)) is False
    assert is_true((NULL, 2)) is False and is_false((NULL, 2)) is False


# ----------------------------------------------------------------------
# the key kernel

# A non-scalar lands in sort_key's repr rank (3).
KEY_VALUES = VALUES + [(1, 2), b"x"]
key_rows = st.lists(st.sampled_from(KEY_VALUES), min_size=1, max_size=5).map(tuple)


@st.composite
def _key_specs(draw):
    row = draw(key_rows)
    indices = draw(
        st.lists(st.integers(0, len(row) - 1), min_size=1, max_size=4)
    )
    flags = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.booleans(), min_size=len(indices), max_size=len(indices)
            ),
        )
    )
    return row, indices, flags


@settings(max_examples=400, **COMMON)
@given(spec=_key_specs())
def test_key_extractor_is_row_sort_key_or_none(spec):
    row, indices, null_safe = spec
    picked = [row[i] for i in indices]
    # HashJoin's rule: a NULL key participates only at null-safe positions.
    usable = not any(
        is_null(value) and not safe
        for value, safe in zip(picked, null_safe or [False] * len(picked))
    )
    key = key_extractor(indices, null_safe)(row)
    if usable:
        assert key == row_sort_key(picked)
        hash(key)  # a bucket key
    else:
        assert key is None
    # The whole-row form canonicalises under ≐ and never refuses.
    assert key_extractor()(row) == row_sort_key(row)
