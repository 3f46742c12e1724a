"""Predicate compilation: the one lowering of a search condition.

The interpretive :class:`~repro.engine.evaluator.Evaluator` pays, for
*every row*, a :class:`~repro.engine.schema.Scope` allocation, a chain
of ``isinstance`` dispatches, a linear scan over the schema for every
column reference (``RelSchema.try_index_of``) and a
:class:`~repro.types.tristate.Tristate` per node.  On a filter over a
large input that dispatch dominates the wall clock.

This module performs that work *once* per (expression, schema) pair.
The paper's Table 2 keeps a row iff the *false interpretation* ⌊P⌋ of
its WHERE clause holds, and ⌊P⌋ with its dual ⌊¬P⌋ ("definitely
false") is closed under the connectives::

    ⌊P AND Q⌋ = ⌊P⌋ and ⌊Q⌋        ⌊¬(P AND Q)⌋ = ⌊¬P⌋ or ⌊¬Q⌋
    ⌊P OR Q⌋  = ⌊P⌋ or ⌊Q⌋         ⌊¬(P OR Q)⌋  = ⌊¬P⌋ and ⌊¬Q⌋
    ⌊NOT P⌋   = ⌊¬P⌋               ⌊¬(NOT P)⌋   = ⌊P⌋

so every condition node lowers to a pair ``(is_true, is_false)`` of
two-valued tests and no node builds the third truth value at run time;
UNKNOWN is "neither".

There is one walk over the condition tree (:func:`_lower`) and it owns
everything that decides what a condition *means*: operand resolution,
constant folding, the connective identities above and the refusal
frontier.  What a test *is* comes from the five :class:`Leaves` the walk
is handed.  The row leaves (this module) are closures from the row tuple
to a plain ``bool``; the batch leaves
(:mod:`repro.engine.columnar`) are the same five from a ``ColumnBatch``
to a lane mask.  Nothing outside these two modules chooses leaves.

* column references are resolved to tuple indices at compile time,
* host variables and literals are folded to constants (and constant
  subtrees are evaluated during compilation — ``5 = 5`` compiles to the
  constant ``TRUE``, a comparison with a NULL constant to ``UNKNOWN``),
* a comparison reaches its leaf as column–constant or column–column
  (constant–column is flipped); ``BETWEEN`` and ``IN`` are the AND and
  OR of their comparisons, their ``NOT`` forms the swapped pair,
* row ``AND``/``OR`` evaluate their parts left to right and stop at the
  first that decides them, like the evaluator's short-circuit,
* everything the interpreter would have to defer — subqueries,
  correlated (outer-scope) column references, missing host variables,
  ambiguous names — aborts compilation, and the caller falls back to
  the interpretive path, so behaviour is *identical* by construction.

Compiled subexpressions are total functions: any input that would make
the interpreter raise (unknown column, non-scalar operand, missing host
variable) is rejected at compile time instead, which is what makes
constant folding across siblings sound.

The global :func:`set_compilation_enabled` switch exists so benchmarks
and property tests can A/B the compiled and interpretive paths.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, NamedTuple, Sequence

from ..errors import AmbiguousColumnError
from ..resilience.faults import FAULTS, SITE_COMPILE, SITE_COMPILED_EVAL
from ..sql.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    HostVar,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
)
from ..types.tristate import FALSE, TRUE, UNKNOWN, Tristate
from ..types.values import NULL, SqlValue, comparable, compare_where
from .schema import RelSchema

#: A compiled row test: row tuple -> plain bool.
RowTest = Callable[[Sequence[SqlValue]], bool]
#: A compiled predicate: row tuple -> three-valued truth value.
PredicateFn = Callable[[Sequence[SqlValue]], Tristate]
#: A two-valued test in either format: a :data:`RowTest`, or under the
#: batch leaves a kernel from a ``ColumnBatch`` to a lane mask.
Test = Callable[[Any], Any]
#: A lowered condition node: ``(is_true, is_false, None)``, or
#: ``(None, None, const)`` when the subtree folded to a constant.
Lowered = tuple[Test | None, Test | None, Tristate | None]


class Leaves(NamedTuple):
    """What :func:`_lower` builds tests from — one set per data format.

    ``is_null`` and ``comparison`` return the node's ``(is_true,
    is_false)`` pair; ``comparison`` always has a column on the left and
    either a column (*right*) or a non-NULL constant (*right* ``None``).
    """

    always: Callable[[bool], Test]
    is_null: Callable[[int], tuple[Test, Test]]
    comparison: Callable[[str, int, int | None, SqlValue], tuple[Test, Test]]
    every: Callable[[Sequence[Test]], Test]
    some: Callable[[Sequence[Test]], Test]


_enabled = True


def set_compilation_enabled(enabled: bool) -> bool:
    """Toggle predicate compilation process-wide; returns the previous
    setting.  With compilation off every operator uses the interpretive
    evaluator, which is the reference semantics."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


class CannotCompile(Exception):
    """Internal control flow: the expression needs the interpreter."""


def compile_pair(
    expr: Expr,
    schema: RelSchema,
    params: dict[str, SqlValue] | None = None,
    leaves: Leaves | None = None,
) -> tuple[Test, Test] | None:
    """Lower a search condition to ``(is_true, is_false)`` = (⌊P⌋, ⌊¬P⌋),
    row tests unless *leaves* says otherwise.

    For every row at most one of the two holds; neither means UNKNOWN.
    Returns ``None`` when the expression cannot be compiled (contains a
    subquery, an outer-scope or ambiguous column reference, or an
    unbound host variable); callers then fall back to the interpretive
    evaluator, which reproduces the exact error/semantics lazily.
    """
    if not _enabled:
        return None
    if FAULTS.armed:
        # Fault hook: a "compile" fault raises out of here (callers own
        # the fall-back to the interpreter).
        FAULTS.check(SITE_COMPILE)
    leaves = leaves or ROW_LEAVES
    try:
        is_true, is_false, const = _lower(expr, schema, params or {}, leaves)
    except CannotCompile:
        return None
    if const is not None:
        return leaves.always(const is TRUE), leaves.always(const is FALSE)
    return is_true, is_false


def compile_predicate(
    expr: Expr,
    schema: RelSchema,
    params: dict[str, SqlValue] | None = None,
) -> PredicateFn | None:
    """The three-valued verdict, derived from :func:`compile_pair`
    (``None`` exactly when that is)."""
    pair = compile_pair(expr, schema, params)
    if pair is None:
        return None
    is_true, is_false = pair

    def predicate(row):
        return TRUE if is_true(row) else FALSE if is_false(row) else UNKNOWN

    return _instrumented(predicate)


def compile_filter(
    expr: Expr | None,
    schema: RelSchema,
    params: dict[str, SqlValue] | None = None,
) -> RowTest | None:
    """Compile a WHERE-clause row test (the false-interpretation ⌊P⌋).

    The returned closure is :func:`compile_pair`'s ``is_true`` itself:
    keep the row only when the predicate is definitely TRUE.  Returns
    ``None`` when *expr* is ``None`` (nothing to test) or uncompilable.
    """
    if expr is None:
        return None
    pair = compile_pair(expr, schema, params)
    return None if pair is None else _instrumented(pair[0])


def _instrumented(fn):
    """A "compiled_eval" fault instruments the closure handed to the
    operators so it can fail per row; disarmed, *fn* comes back bare."""
    return FAULTS.wrap_callable(SITE_COMPILED_EVAL, fn) if FAULTS.armed else fn


def _always(verdict: bool) -> RowTest:
    return lambda row: verdict


# ----------------------------------------------------------------------
# scalar operands

def _scalar(
    expr: Expr, schema: RelSchema, params: dict[str, SqlValue]
) -> tuple[int | None, SqlValue]:
    """Resolve a scalar operand: ``(index, None)`` for a column of the
    row, ``(None, value)`` for a literal or bound host variable."""
    if isinstance(expr, Literal):
        return None, expr.value
    if isinstance(expr, HostVar):
        if expr.name not in params:
            raise CannotCompile(f"unbound host variable :{expr.name}")
        return None, params[expr.name]
    if isinstance(expr, ColumnRef):
        try:
            index = schema.try_index_of(expr.qualifier, expr.column)
        except AmbiguousColumnError as exc:
            raise CannotCompile(str(exc)) from None
        if index is None:
            raise CannotCompile(f"outer reference {expr!r}")
        return index, None
    raise CannotCompile(f"{type(expr).__name__} is not a scalar operand")


# ----------------------------------------------------------------------
# conditions: the one walk

def _lower(
    expr: Expr, schema: RelSchema, params: dict[str, SqlValue], leaves: Leaves
) -> Lowered:
    """Lower one condition node (see :data:`Lowered`)."""
    if isinstance(expr, Literal):
        if expr.value is NULL:
            return None, None, UNKNOWN
        if isinstance(expr.value, bool):
            return None, None, (TRUE if expr.value else FALSE)
        raise CannotCompile(f"literal {expr.value!r} is not a condition")
    if isinstance(expr, Comparison):
        return _comparison(expr, schema, params, leaves)
    if isinstance(expr, And):
        return _connective(expr.operands, schema, params, leaves, conjunctive=True)
    if isinstance(expr, Or):
        return _connective(expr.operands, schema, params, leaves, conjunctive=False)
    if isinstance(expr, Not):
        return _negated(_lower(expr.operand, schema, params, leaves))
    if isinstance(expr, IsNull):
        index, const = _scalar(expr.operand, schema, params)
        if index is None:
            lowered = None, None, (TRUE if const is NULL else FALSE)
        else:
            lowered = *leaves.is_null(index), None
        return _negated(lowered) if expr.negated else lowered
    if isinstance(expr, (Between, InList)):
        # The AND / OR of their comparisons.  Every operand is resolved
        # first: a folded sibling must not hide one the compiler refuses.
        for operand in expr.children():
            _scalar(operand, schema, params)
        conjunctive = isinstance(expr, Between)
        if conjunctive:
            parts = (
                Comparison(">=", expr.operand, expr.low),
                Comparison("<=", expr.operand, expr.high),
            )
        else:
            parts = tuple(Comparison("=", expr.operand, i) for i in expr.items)
        lowered = _connective(parts, schema, params, leaves, conjunctive)
        return _negated(lowered) if expr.negated else lowered
    # Exists / InSubquery / anything exotic: interpreter territory.
    raise CannotCompile(f"cannot compile {type(expr).__name__}")


def _negated(lowered: Lowered) -> Lowered:
    """⌊NOT P⌋ = ⌊¬P⌋ and ⌊¬NOT P⌋ = ⌊P⌋: swap the pair."""
    is_true, is_false, const = lowered
    if const is not None:
        return None, None, ~const
    return is_false, is_true, None


#: Python's verdict on two non-NULL operands, by SQL operator (both
#: leaf sets read it).
HOLDS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _comparison(
    expr: Comparison,
    schema: RelSchema,
    params: dict[str, SqlValue],
    leaves: Leaves,
) -> Lowered:
    """Fold what is constant; hand the leaf a column on the left."""
    left, left_const = _scalar(expr.left, schema, params)
    right, const = _scalar(expr.right, schema, params)
    if left is None and right is None:
        return None, None, compare_where(expr.op, left_const, const)
    if left is None:
        # constant ⋈ column: the same test with the column first.
        expr, left, right, const = expr.flipped(), right, None, left_const
    if right is None and const is NULL:
        return None, None, UNKNOWN
    return *leaves.comparison(expr.op, left, right, const), None


def _row_comparison(
    op: str, left: int, right: int | None, const: SqlValue
) -> tuple[RowTest, RowTest]:
    """Specialise ``compare_where`` on the operator and operand shape.

    Both closures hold only where the operands are non-NULL and (for an
    ordering) comparable.  ``is_false`` is then ``not (a op b)``, never
    the complementary operator: ``NaN < 1`` and ``NaN >= 1`` are both
    FALSE.
    """
    holds = HOLDS[op]
    # = and <> never consult comparability; the orderings are UNKNOWN
    # across comparability classes (see compare_where).
    unordered = op in ("=", "<>")

    def row_test(verdict: Callable[[SqlValue, SqlValue], bool]) -> RowTest:
        if right is not None:
            def columns_test(row):
                a, b = row[left], row[right]
                return (
                    a is not NULL and b is not NULL
                    and (unordered or type(a) is type(b) or comparable(a, b))
                    and verdict(a, b)
                )

            return columns_test

        # The constant's comparability class, resolved once: the exact
        # value types certainly in it (any other type asks ``comparable``).
        if isinstance(const, bool):
            exact = frozenset({bool})
        elif isinstance(const, (int, float)):
            exact = frozenset({int, float})
        else:
            exact = frozenset({type(const)})

        def constant_test(row):
            a = row[left]
            return (
                a is not NULL
                and (unordered or type(a) in exact or comparable(a, const))
                and verdict(a, const)
            )

        return constant_test

    return row_test(holds), row_test(lambda a, b: not holds(a, b))


def _connective(
    operands: Sequence[Expr],
    schema: RelSchema,
    params: dict[str, SqlValue],
    leaves: Leaves,
    conjunctive: bool,
) -> Lowered:
    """Shared AND/OR lowering with constant folding.

    Constant operands fold into an accumulator; an absorbing constant
    (FALSE for AND, TRUE for OR) decides the whole connective because
    compiled siblings can never raise.  Over the remaining parts AND is
    TRUE when every part is and FALSE when some part is; OR is the dual.
    """
    absorbing, identity = (FALSE, TRUE) if conjunctive else (TRUE, FALSE)
    folded = identity
    trues: list[Test] = []
    falses: list[Test] = []
    for operand in operands:
        is_true, is_false, const = _lower(operand, schema, params, leaves)
        if const is None:
            trues.append(is_true)
            falses.append(is_false)
            continue
        folded = (folded & const) if conjunctive else (folded | const)
        if folded is absorbing:
            return None, None, absorbing
    if not trues:
        return None, None, folded
    if folded is UNKNOWN:
        # An UNKNOWN constant is one more part that is neither: the AND
        # can no longer be TRUE, the OR no longer FALSE.
        trues.append(leaves.always(False))
        falses.append(leaves.always(False))
    if len(trues) == 1:
        return trues[0], falses[0], None
    if conjunctive:
        return leaves.every(trues), leaves.some(falses), None
    return leaves.some(trues), leaves.every(falses), None


def _every(tests: Sequence[RowTest]) -> RowTest:
    tests = tuple(tests)

    def every(row):
        for test in tests:
            if not test(row):
                return False
        return True

    return every


def _some(tests: Sequence[RowTest]) -> RowTest:
    tests = tuple(tests)

    def some(row):
        for test in tests:
            if test(row):
                return True
        return False

    return some


def _is_null(index: int) -> tuple[RowTest, RowTest]:
    return (lambda row: row[index] is NULL), (lambda row: row[index] is not NULL)


#: The row format's leaves: closures from the row tuple to a plain bool.
ROW_LEAVES = Leaves(_always, _is_null, _row_comparison, _every, _some)
