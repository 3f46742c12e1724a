"""Compiled predicates must agree with the interpretive Evaluator.

The compiler's contract is "identical by construction": anything it
cannot reproduce exactly (subqueries, outer references, unbound host
variables, ambiguous names) aborts compilation, and everything it does
compile returns the same three-valued verdict as
:meth:`Evaluator.predicate` — including on NULL-heavy rows, where the
short-circuit and folding rules are easiest to get wrong.
"""

import ast
import itertools

import pytest

from repro.engine import (
    ColumnBatch,
    columnar,
    compile_batch_predicate,
    compile_filter,
    compile_predicate,
    set_compilation_enabled,
)
from repro.engine.evaluator import Evaluator
from repro.engine.schema import RelSchema, Scope
from repro.sql import expressions, parse_condition
from repro.sql.expressions import ColumnRef, Comparison, Literal
from repro.types import NULL, FALSE, TRUE, UNKNOWN

SCHEMA = RelSchema.for_table("T", ["A", "B", "C"])

# Every combination of NULL/low/high over two numeric columns and a
# string column exercises all three truth values; a bool, a float, a
# NaN and a numeric-looking string add the incomparable lane of the
# ordering operators (bool / numeric / str are classes of their own)
# and the rows where ``a < b`` and ``a >= b`` are both FALSE.
ROWS = [
    (a, b, c)
    for a, b, c in itertools.product(
        (NULL, 1, 2, True, 1.5, float("nan")),
        (NULL, 1, 2, True, 1.5),
        (NULL, "X", "Y", "1"),
    )
]

CONDITIONS = [
    "A = B",
    "A < B",
    "A <> B",
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
    "A < C",
    "A >= :Q",
    "NOT A < B",
    "A <> C",
]

PARAMS = {"P": 1, "Q": "X"}


@pytest.mark.parametrize("text", CONDITIONS)
def test_compiled_verdicts_match_interpreter_on_null_heavy_rows(text):
    expr = parse_condition(text)
    evaluator = Evaluator(params=PARAMS)
    predicate = compile_predicate(expr, SCHEMA, PARAMS)
    row_test = compile_filter(expr, SCHEMA, PARAMS)
    assert predicate is not None and row_test is not None
    for row in ROWS:
        scope = Scope(SCHEMA, row)
        expected = evaluator.predicate(expr, scope)
        assert predicate(row) is expected, f"{text} on {row}"
        # compile_filter applies the false-interpretation ⌊P⌋.
        assert row_test(row) == evaluator.qualifies(expr, scope)


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("5 = 5", TRUE),
        ("1 = 0", FALSE),
        ("NULL = NULL", UNKNOWN),
        ("1 = 0 AND A = 1", FALSE),  # absorbing FALSE folds the AND
        ("1 = 1 OR A = 1", TRUE),  # absorbing TRUE folds the OR
        (":P = 1", TRUE),  # host variables fold to constants
        ("2 BETWEEN 1 AND 3", TRUE),
        ("'X' IN ('Y', 'Z')", FALSE),
        ("NULL IS NULL", TRUE),
    ],
)
def test_constant_subtrees_fold_at_compile_time(text, verdict):
    predicate = compile_predicate(parse_condition(text), SCHEMA, PARAMS)
    assert predicate is not None
    # A folded predicate never reads the row: the empty tuple would
    # raise IndexError on any surviving column access.
    assert predicate(()) is verdict


@pytest.mark.parametrize(
    "text",
    [
        "EXISTS (SELECT * FROM T)",  # subqueries need the interpreter
        "A IN (SELECT A FROM T)",
        "X.A = 1",  # outer (unknown-qualifier) reference
        "D = 1",  # unknown column
        ":MISSING = A",  # unbound host variable
    ],
)
def test_uncompilable_expressions_fall_back(text):
    expr = parse_condition(text)
    assert compile_predicate(expr, SCHEMA, PARAMS) is None
    assert compile_filter(expr, SCHEMA, PARAMS) is None


def test_ambiguous_unqualified_column_falls_back():
    # Both inputs expose an A; the interpreter raises on resolution, so
    # the compiler must decline rather than guess.
    joined = RelSchema.for_table("R", ["A"]).concat(
        RelSchema.for_table("S", ["A"])
    )
    assert compile_predicate(parse_condition("A = 1"), joined) is None
    # A qualified reference stays compilable.
    qualified = compile_predicate(parse_condition("R.A = 1"), joined)
    assert qualified is not None
    assert qualified((1, 2)) is TRUE


def test_compile_filter_none_expr_means_no_test():
    assert compile_filter(None, SCHEMA) is None


def test_compilation_toggle_disables_and_restores():
    expr = parse_condition("A = 1")
    previous = set_compilation_enabled(False)
    try:
        assert compile_predicate(expr, SCHEMA) is None
        assert compile_filter(expr, SCHEMA) is None
    finally:
        assert set_compilation_enabled(previous) is False
    assert compile_predicate(expr, SCHEMA) is not None


# ----------------------------------------------------------------------
# one comparison rule, every format

NAN = float("nan")

#: What a comparison says across types (ROADMAP 6(f)): the one table.
#: ``=``/``<>`` are Python's and never consult comparability; the
#: orderings are UNKNOWN across the bool / numeric / str classes; a
#: non-NULL ordering is FALSE exactly when Python's is.
VERDICTS = [
    (True, "=", 1, TRUE),
    (True, "<>", 1, FALSE),
    (True, "<", 1, UNKNOWN),
    (1, ">=", True, UNKNOWN),
    (True, ">", False, TRUE),
    (1, "=", "1", FALSE),
    (1, "<>", "1", TRUE),
    (1, "<", "1", UNKNOWN),
    (1, "=", 1.0, TRUE),
    (1, "<", 1.5, TRUE),
    ("X", "<=", "Y", TRUE),
    (NAN, "<", 1, FALSE),
    (NAN, ">=", 1, FALSE),
    (NAN, "=", NAN, FALSE),
    (NAN, "<>", NAN, TRUE),
    (NULL, "=", 1, UNKNOWN),
    (1, "<>", NULL, UNKNOWN),
    (NULL, "<", "X", UNKNOWN),
    (NULL, "=", NULL, UNKNOWN),
]

PAIR = RelSchema.for_table("T", ["A", "B"])
#: A lane of a type outside every comparability class: the ordering
#: census cannot prove the native pass right, so the whole batch takes
#: the exact lane.  (``=``/``<>`` have no census: one lane serves all.)
EXOTIC = (b"", b"")


@pytest.mark.parametrize("left, op, right, verdict", VERDICTS)
def test_one_comparison_rule_in_every_format(left, op, right, verdict, monkeypatch):
    exact_calls = []
    reference = columnar.compare_where
    monkeypatch.setattr(
        columnar,
        "compare_where",
        lambda *args: exact_calls.append(args) or reference(*args),
    )
    a, b = ColumnRef(None, "A"), ColumnRef(None, "B")
    row = (left, right)
    folded = Comparison(op, Literal(left), Literal(right))
    for expr in (
        Comparison(op, a, b),
        Comparison(op, a, Literal(right)),
        Comparison(op, Literal(left), b),
        folded,
    ):
        assert Evaluator().predicate(expr, Scope(PAIR, row)) is verdict
        assert compile_predicate(expr, PAIR)(row) is verdict
        kernel = compile_batch_predicate(expr, PAIR)
        for rows in ([row], [row, EXOTIC]):
            del exact_calls[:]
            true_mask, unknown_mask = kernel(ColumnBatch.from_rows(rows, 2))
            lane = TRUE if true_mask & 1 else UNKNOWN if unknown_mask & 1 else FALSE
            assert lane is verdict, (expr, rows)
        # The last batch was the mixed-type one.
        if op not in ("=", "<>") and NULL not in row and expr is not folded:
            assert exact_calls, expr


def test_columnar_walks_no_condition_tree():
    """One walk: the batch format supplies leaves, so it has no use for
    a condition node class — importing one is a second walk growing
    back."""
    nodes = {
        name
        for name, value in vars(expressions).items()
        if isinstance(value, type)
        and issubclass(value, expressions.Expr)
        and value is not expressions.Expr
    }
    assert {"And", "Or", "Not", "Comparison", "IsNull", "Between", "InList"} <= nodes
    assert not nodes & set(vars(columnar))
    with open(columnar.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("expressions" in alias.name for alias in node.names)
        if isinstance(node, ast.ImportFrom) and "expressions" in (node.module or ""):
            assert [alias.name for alias in node.names] == ["Expr"]
