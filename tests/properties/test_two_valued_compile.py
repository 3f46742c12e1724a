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

The lowering is one walk whose tests are source fragments, so the
pair runs as functions compiled from generated source
(``repro.engine.codegen``).

The same fragments run inside the fused kernels, so the last section
states the property for whole plans: a fused ``Project(Filter(SeqScan))``
and a fused ``Project(HashJoin)`` over NULL-heavy rows yield the
compilation-off run's rows in the same order.

The same file pins the key kernel of the tuple operators:
``key_extractor(indices, null_safe)(row)`` is ``row_sort_key`` of the
picked values, or ``None`` exactly where a hash join may not use the
row (a NULL at a position that is not null-safe).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.engine.codegen import ChunkedRows
from repro.engine.compile import (
    compile_pair,
    compile_predicate,
    set_compilation_enabled,
)
from repro.engine.evaluator import Evaluator
from repro.engine.operators import ExecContext, Filter, HashJoin, Project, SeqScan
from repro.engine.schema import RelSchema, Scope
from repro.engine.stats import Stats
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
    assert pair is not None and predicate is not None
    is_true, is_false = pair
    assert is_true.__code__.co_filename == "<kernel>"  # generated source
    evaluator = Evaluator(params=PARAMS)
    for row in sample:
        verdict = evaluator.predicate(expr, Scope(SCHEMA, row))
        # Plain bools, the exact interpretation, and never both.
        assert is_true(row) is (verdict is TRUE), (expr, row)
        assert is_false(row) is (verdict is FALSE), (expr, row)
        assert predicate(row) is verdict, (expr, row)


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


def test_ambiguous_reference_is_still_refused():
    joined = RelSchema.for_table("R", ["A"]).concat(RelSchema.for_table("S", ["A"]))
    assert compile_pair(parse_condition("A = 1"), joined) is None
    assert compile_pair(parse_condition("NOT A IS NULL"), joined) is None
    is_true, is_false = compile_pair(parse_condition("R.A < S.A"), joined)
    assert is_true((1, 2)) is True and is_false((1, 2)) is False
    assert is_true((NULL, 2)) is False and is_false((NULL, 2)) is False


# ----------------------------------------------------------------------
# fused kernels: the interpreter's rows, in its order

#: Half of all values NULL; the rest span every comparability class.
heavy_values = st.one_of(st.just(NULL), values)
heavy_rows = st.tuples(*[heavy_values] * len(COLUMNS))
#: Enough rows for several TICK_CHUNK-row chunks.
tables = st.lists(heavy_rows, max_size=150)
#: The counters that say which path evaluated a predicate.
PATH_COUNTERS = {"predicates_compiled", "compiled_evals", "compile_fallbacks"}


def _run(plan, left, right, compiled: bool):
    """*plan* over T = *left*, U = *right*: ``(rows, totals)``."""
    database = Database.from_script(
        "CREATE TABLE T (A INT, B INT, C INT, D INT); CREATE TABLE U (E INT, F INT);"
    )
    database.load("T", left)
    database.load("U", right)
    stats = Stats()
    previous = set_compilation_enabled(compiled)
    try:
        ctx = ExecContext(database, params=PARAMS, stats=stats)
        stream = plan.rows(ctx)
        # The compiled run is the fused one: its rows come from a kernel.
        generated = isinstance(stream, ChunkedRows) or (
            stream.gi_code.co_filename == "<kernel>"
        )
        assert generated == compiled
        rows = list(stream)
    finally:
        set_compilation_enabled(previous)
    totals = {k: v for k, v in stats.as_dict().items() if k not in PATH_COUNTERS}
    return rows, totals


@settings(max_examples=150, **COMMON)
@given(
    expr=conditions,
    left=tables,
    indices=st.lists(st.integers(0, len(COLUMNS) - 1), min_size=1, max_size=5),
)
def test_a_fused_pipeline_is_the_interpreter_row_for_row(expr, left, indices):
    names = [f"X{i}" for i in range(len(indices))]
    plan = Project(Filter(SeqScan("T", "T", COLUMNS), expr), indices, names)
    assert _run(plan, left, [], True) == _run(plan, left, [], False)


@st.composite
def _hash_joins(draw):
    pairs = st.tuples(st.integers(0, 3), st.integers(0, 1))
    keys = draw(st.lists(pairs, min_size=1, max_size=2))
    null_safe = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    # T under a Filter: inside the probe loop when T is the probe side.
    scan = SeqScan("T", "T", COLUMNS)
    where = draw(st.one_of(st.none(), conditions))
    join = HashJoin(
        scan if where is None else Filter(scan, where),
        SeqScan("U", "U", ["E", "F"]),
        [left for left, _ in keys],
        [right for _, right in keys],
        residual=draw(st.one_of(st.none(), conditions)),
        null_safe=null_safe,
        build_left=draw(st.booleans()),
    )
    indices = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    return Project(join, indices, [f"X{i}" for i in range(len(indices))])


#: Join keys that collide often, across classes too: ``TRUE = 1`` is
#: TRUE in WHERE but no hash-key match; ``1 = 1.0`` is both.
key_values = st.sampled_from([NULL, True, False, 0, 1, 1.0, "1", NAN])


@settings(max_examples=150, **COMMON)
@given(
    plan=_hash_joins(),
    left=st.lists(st.tuples(*[key_values] * len(COLUMNS)), max_size=150),
    right=st.lists(st.tuples(key_values, key_values), max_size=40),
)
def test_a_fused_hash_join_is_the_interpreter_row_for_row(plan, left, right):
    assert _run(plan, left, right, True) == _run(plan, left, right, False)


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
