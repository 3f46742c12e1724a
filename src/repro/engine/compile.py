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
frontier.  Its tests are Python source fragments over the row ``r`` —
``(r[4] is not NULL and r[4] == k0)`` — that :mod:`repro.engine.codegen`
compiles into one function per test, or splices into a fused pipeline
or join.

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

A constant is never written into source: the row leaves put it in an
argument slot ``k<n>``, so the text depends on the condition's shape
alone and one compiled function serves every binding of it.  Lowered
into a :class:`Refill`, the slots also remember where each value came
from, so a plan node can keep the fragments and refill the slots from
the next execution's bindings without walking the condition again.

The global :func:`set_compilation_enabled` switch exists so benchmarks
and property tests can A/B the compiled and interpretive paths.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import AmbiguousColumnError
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
from ..types.values import NULL, SqlValue, compare_where
from .codegen import assemble, predicate_source
from .schema import RelSchema

#: A compiled row test: row tuple -> plain bool.
RowTest = Callable[[Sequence[SqlValue]], bool]
#: A compiled predicate: row tuple -> three-valued truth value.
PredicateFn = Callable[[Sequence[SqlValue]], Tristate]
#: A lowered condition node: ``(is_true, is_false, None)`` as source
#: fragments over the row, or ``(None, None, const)`` when the subtree
#: folded to a constant.
Lowered = tuple[str | None, str | None, Tristate | None]
#: Spells a column position of the row in a fragment (``r[<n>]``).
Column = Callable[[int], str]
#: Per column position, the value types its rows hold (``None``: not
#: known) — a table's type census, or a join's two sides side by side.
Census = Sequence["frozenset[type] | None"]


_enabled = True


def set_compilation_enabled(enabled: bool) -> bool:
    """Toggle predicate compilation process-wide; returns the previous
    setting.  With compilation off every operator uses the interpretive
    evaluator, which is the reference semantics."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def compilation_enabled() -> bool:
    """Whether :func:`set_compilation_enabled` leaves compilation on."""
    return _enabled


class CannotCompile(Exception):
    """Internal control flow: the expression needs the interpreter."""


class Refill(list):
    """Slot values that remember their sources, so a lowering can be
    replayed under other bindings.

    :attr:`recipe` holds ``(host variable, transform, value)`` per slot:
    the variable's name (``None`` for a literal, whose *value* it is)
    and ``None`` or the function applied to the variable's value.  The
    fragments a lowering spells depend on which host variables are NULL
    (or unbound) and on nothing else about their values — except where a
    comparison of two constants folded on a host variable's value: that
    marks the lowering :attr:`volatile`.
    """

    volatile = False

    def __init__(self) -> None:
        super().__init__()
        self.recipe: list[tuple] = []


def compile_pair(
    expr: Expr,
    schema: RelSchema,
    params: dict[str, SqlValue] | None = None,
) -> tuple[RowTest, RowTest] | None:
    """Lower a search condition to the row tests ``(is_true, is_false)``
    = (⌊P⌋, ⌊¬P⌋).

    For every row at most one of the two holds; neither means UNKNOWN.
    Returns ``None`` when the expression cannot be compiled (contains a
    subquery, an outer-scope or ambiguous column reference, or an
    unbound host variable); callers then fall back to the interpretive
    evaluator, which reproduces the exact error/semantics lazily.
    """
    kernels = _row_kernels(expr, schema, params)
    return None if kernels is None else kernels[:2]


def compile_predicate(
    expr: Expr,
    schema: RelSchema,
    params: dict[str, SqlValue] | None = None,
) -> PredicateFn | None:
    """The three-valued verdict, generated from the same pair as
    :func:`compile_pair` (``None`` exactly when that is)."""
    kernels = _row_kernels(expr, schema, params)
    return None if kernels is None else kernels[2]


def lower_source(
    expr: Expr,
    schema: RelSchema,
    params: dict[str, SqlValue] | None = None,
    column: Column | None = None,
    slots: list[SqlValue] | None = None,
    census: Census | None = None,
) -> tuple[str, str, list[SqlValue]] | None:
    """⌊P⌋ and ⌊¬P⌋ as source fragments, with the values of their slots.

    ``k<n>`` in a fragment reads ``slots[n]``; *column* spells a column
    position (default ``r[<n>]``).  Constants are appended to *slots*
    (a new list by default; a :class:`Refill` also records their
    sources), so several predicates can share one numbering.  ``None``
    exactly when :func:`compile_pair` is; a root that folds to a
    constant is the pair of constant tests.

    *census* holds, per column position, the value types every row the
    fragments will meet is drawn from (``None``: not known); a
    comparison those types cannot trip is spelled bare
    (:func:`_comparison`).  Without it every fragment is guarded.
    """
    if not _enabled:
        return None
    slots = [] if slots is None else slots
    try:
        is_true, is_false, const = _lower(
            expr, schema, params or {}, column or _row, slots, census
        )
    except CannotCompile:
        return None
    if const is not None:
        is_true, is_false = _always(const is TRUE), _always(const is FALSE)
    return is_true, is_false, slots


def _row_kernels(
    expr: Expr, schema: RelSchema, params: dict[str, SqlValue] | None
) -> tuple[RowTest, RowTest, PredicateFn] | None:
    """``(is_true, is_false, verdict)`` generated from the row leaves."""
    lowered = lower_source(expr, schema, params)
    if lowered is None:
        return None
    is_true, is_false, slots = lowered
    make = assemble(predicate_source(is_true, is_false, len(slots)))
    return None if make is None else make(*slots)


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
#
# Every node is spelled as Python source over the row.  A constant is
# appended to *slots* and read as ``k<position>``; *column* spells a
# column position.

def _lower(
    expr: Expr,
    schema: RelSchema,
    params: dict[str, SqlValue],
    column: Column,
    slots: list[SqlValue],
    census: Census | None,
) -> Lowered:
    """Lower one condition node (see :data:`Lowered`)."""
    if isinstance(expr, Literal):
        if expr.value is NULL:
            return None, None, UNKNOWN
        if isinstance(expr.value, bool):
            return None, None, (TRUE if expr.value else FALSE)
        raise CannotCompile(f"literal {expr.value!r} is not a condition")
    if isinstance(expr, Comparison):
        return _comparison(expr, schema, params, column, slots, census)
    if isinstance(expr, And):
        return _connective(expr.operands, schema, params, column, slots, census, True)
    if isinstance(expr, Or):
        return _connective(expr.operands, schema, params, column, slots, census, False)
    if isinstance(expr, Not):
        return _negated(_lower(expr.operand, schema, params, column, slots, census))
    if isinstance(expr, IsNull):
        index, const = _scalar(expr.operand, schema, params)
        if index is None:
            lowered = None, None, (TRUE if const is NULL else FALSE)
        else:
            value = column(index)
            lowered = f"({value} is NULL)", f"({value} is not NULL)", None
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
        lowered = _connective(parts, schema, params, column, slots, census, conjunctive)
        return _negated(lowered) if expr.negated else lowered
    # Exists / InSubquery / anything exotic: interpreter territory.
    raise CannotCompile(f"cannot compile {type(expr).__name__}")


def _negated(lowered: Lowered) -> Lowered:
    """⌊NOT P⌋ = ⌊¬P⌋ and ⌊¬NOT P⌋ = ⌊P⌋: swap the pair."""
    is_true, is_false, const = lowered
    if const is not None:
        return None, None, ~const
    return is_false, is_true, None


#: How each SQL comparison is spelled in Python — the only operator
#: text a generated row test contains.
SPELLED = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _comparison(
    expr: Comparison,
    schema: RelSchema,
    params: dict[str, SqlValue],
    column: Column,
    slots: list[SqlValue],
    census: Census | None,
) -> Lowered:
    """Fold what is constant; otherwise a column on the left against a
    column or a non-NULL constant.

    A comparison holds (either way) only where its operands are
    non-NULL and, for an ordering, comparable — ``compare_where``'s
    rule — and ``is_false`` is ``not (a op b)``, never the complementary
    operator: ``NaN < 1`` and ``NaN >= 1`` are both FALSE.  ``=`` and
    ``<>`` never consult comparability.

    The guard is left out — ``(a op b)`` and ``(not a op b)`` — where
    the *census* says it always passes: no NULL in a compared column,
    and, for an ordering, a column against a constant holding only
    types of the constant's exact class (``_exact_types``), or two
    columns holding together only types of one class.
    """
    left, left_const = _scalar(expr.left, schema, params)
    right, const = _scalar(expr.right, schema, params)
    if left is None and right is None:
        if isinstance(slots, Refill) and HostVar in (type(expr.left), type(expr.right)):
            slots.volatile = True
        return None, None, compare_where(expr.op, left_const, const)
    if left is None:
        # constant ⋈ column: the same test with the column first.
        expr, left, right, const = expr.flipped(), right, None, left_const
    if right is None and const is NULL:
        return None, None, UNKNOWN
    a = column(left)
    ordering = expr.op not in ("=", "<>")
    types = None if census is None else census[left]
    if right is None:
        operand = expr.right
        b = _slot(slots, const, operand)
        lean = _null_free(types) and (
            not ordering or types <= _exact_types(const)
        )
        decided = f"{a} is not NULL"
        if ordering and not lean:
            exact = _slot(slots, _exact_types(const), operand, _exact_types)
            decided += f" and (type({a}) in {exact} or comparable({a}, {b}))"
    else:
        b = column(right)
        others = None if census is None else census[right]
        lean = _null_free(types) and _null_free(others) and (
            not ordering or _one_class(types | others)
        )
        decided = f"{a} is not NULL and {b} is not NULL"
        if ordering:
            decided += f" and (type({a}) is type({b}) or comparable({a}, {b}))"
    test = f"{a} {SPELLED[expr.op]} {b}"
    if lean:
        return f"({test})", f"(not {test})", None
    return f"({decided} and {test})", f"({decided} and not {test})", None


def _connective(
    operands: Sequence[Expr],
    schema: RelSchema,
    params: dict[str, SqlValue],
    column: Column,
    slots: list[SqlValue],
    census: Census | None,
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
    trues: list[str] = []
    falses: list[str] = []
    for operand in operands:
        is_true, is_false, const = _lower(
            operand, schema, params, column, slots, census
        )
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
        trues.append(_always(False))
        falses.append(_always(False))
    if len(trues) == 1:
        return trues[0], falses[0], None
    if conjunctive:
        return _every(trues), _some(falses), None
    return _some(trues), _every(falses), None


# ----------------------------------------------------------------------
# fragments

def _row(index: int) -> str:
    return "r[%d]" % index


def _slot(slots: list, value: SqlValue, operand: Expr, transform=None) -> str:
    """Append *value*, taken from *operand* (through *transform*)."""
    slots.append(value)
    if isinstance(slots, Refill):
        name = operand.name if isinstance(operand, HostVar) else None
        slots.recipe.append((name, transform, value))
    return "k%d" % (len(slots) - 1)


def _always(verdict: bool) -> str:
    return "True" if verdict else "False"


def _every(tests: Sequence[str]) -> str:
    return "(" + " and ".join(tests) + ")"


def _some(tests: Sequence[str]) -> str:
    return "(" + " or ".join(tests) + ")"


_NULL_TYPE = type(NULL)
_NUMBERS = frozenset({int, float})


def _null_free(types: "frozenset[type] | None") -> bool:
    """Whether a census is known and holds no NULL."""
    return types is not None and _NULL_TYPE not in types


def _one_class(types: frozenset[type]) -> bool:
    """Whether *types* lie in one comparability class (so any two of
    their values are ``comparable``)."""
    return len(types) <= 1 or types <= _NUMBERS


def _exact_types(const: SqlValue) -> frozenset[type]:
    """The value types certainly in *const*'s comparability class (any
    other type asks ``comparable``)."""
    if isinstance(const, bool):
        return frozenset({bool})
    if isinstance(const, (int, float)):
        return frozenset({int, float})
    return frozenset({type(const)})
