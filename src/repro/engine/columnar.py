"""Columnar execution: morsel-sized batches and vectorized kernels.

The tuple path pays a Python-level dispatch per row per predicate and
per projection.  This module amortizes that dispatch over *morsel-sized
column batches*: a :class:`ColumnBatch` holds one Python list per column
plus a null bitmap, and a kernel works on whole vectors with C-speed
builtins (``zip``, ``map``, ``itertools.compress``, comprehensions)
instead of a row loop.

In a read plan batches are the format of scan → filter → project
pipelines and of nothing else: a ``SeqScan`` serves the table's cached batches, a
``Filter`` over it is a mask kernel, a ``Project`` a column slice.
Where the pipeline ends — at a join, a DISTINCT, a set operation, a
sort, or the result — :class:`UnbatchedRows` hands its rows to the one
row-shaped implementation those operators have (a second, batch-shaped
join lost to the loop it restated on every join class; EXPERIMENTS.md,
"One kernel per row-shaped operator").

Masks
-----

Selection and three-valued truth vectors are **byte-lane integer
masks**: a mask is a Python int in which row *i* occupies byte *i*
(little-endian) holding ``0x00`` or ``0x01``.  For 0/1 lanes the plain
integer operators are lane-wise: ``&`` is AND, ``|`` is OR, and NOT is
XOR against the all-ones mask.  ``mask.bit_count()`` counts selected
rows (each lane contributes one bit), and
``mask.to_bytes(n, "little")`` is directly a selector for
:func:`itertools.compress` — one arbitrary-precision int op per batch
replaces a per-row Python loop.

Three-valued logic
------------------

A batch predicate returns a *pair* of masks ``(true, unknown)``; lanes
in neither are FALSE.  The Kleene connectives fold lane-wise exactly
like :mod:`repro.types.tristate`: for AND, ``t = t1 & t2`` and a lane
is false when false in either input; for OR, ``t = t1 | t2`` and a lane
is false only when false in both.  NULL lanes (from the per-column null
bitmaps) enter comparisons as UNKNOWN, reproducing
:func:`repro.types.values.compare_where` bit for bit.

Soundness
---------

Every comparison kernel has a *fast lane* (a native comprehension,
taken only when the batch's type census proves it agrees with
``compare_where``) and an *exact lane* (a per-row ``compare_where``
loop).  Anything the row compiler in :mod:`repro.engine.compile` cannot
compile — subqueries, outer references, unbound host variables — is
rejected here for the same reason, and the caller falls back to the
tuple interpreter, which remains the verified reference semantics.

Fault injection: batch compilation consults the ``compile`` site, and
armed ``vectorized_eval`` faults instrument every returned kernel (and,
via :func:`batch_fault_check`, the projection's column slice), so the
chaos suite can force the vectorized→interpreter demotion ladder
mid-stream.
"""

from __future__ import annotations

import os
from itertools import chain, compress, islice
from typing import Callable, Iterable, Iterator, Sequence

from ..resilience.faults import FAULTS, SITE_COMPILE, SITE_VECTORIZED_EVAL
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
from ..types.values import NULL as _NULL_SENTINEL
from ..types.values import SqlValue, compare_where, is_null
from .compile import CannotCompile, compilation_enabled
from .schema import RelSchema

#: Rows per batch.  E17c's sweep: 256-row batches run ~15 % slower
#: (per-batch kernel set-up), 4096 buys nothing over 2048.
DEFAULT_BATCH_ROWS = 2048

#: The engine_mode knob's legal values.
ENGINE_MODES = ("tuple", "vectorized", "auto")

#: Environment override for the process default (the CI vectorized leg
#: runs the ordinary test suite with ``REPRO_ENGINE_MODE=vectorized``).
ENV_ENGINE_MODE = "REPRO_ENGINE_MODE"

_default_mode: str | None = None


def default_engine_mode() -> str:
    """The process-wide default engine mode.

    Resolution order: :func:`set_default_engine_mode`, then the
    ``REPRO_ENGINE_MODE`` environment variable, then ``"tuple"`` — the
    verified interpreter stays the default unless somebody opts in.
    """
    if _default_mode is not None:
        return _default_mode
    mode = os.environ.get(ENV_ENGINE_MODE, "")
    return mode if mode in ENGINE_MODES else "tuple"


def set_default_engine_mode(mode: str | None) -> str | None:
    """Set (or with ``None`` reset) the process default engine mode;
    returns the previous override for restore-in-finally idiom."""
    global _default_mode
    if mode is not None and mode not in ENGINE_MODES:
        raise ValueError(f"unknown engine mode {mode!r}")
    previous = _default_mode
    _default_mode = mode
    return previous


def resolve_engine_mode(mode: str | None) -> str:
    """Validate an explicit mode, or fall back to the process default."""
    if mode is None:
        return default_engine_mode()
    if mode not in ENGINE_MODES:
        raise ValueError(f"unknown engine mode {mode!r}")
    return mode


def batch_fault_check() -> None:
    """One ``vectorized_eval`` trigger opportunity (``Project``, the
    batch kernel that is not a predicate, calls this once per batch)."""
    if FAULTS.armed:
        FAULTS.check(SITE_VECTORIZED_EVAL)


# ----------------------------------------------------------------------
# the batch value type

class ColumnBatch:
    """An immutable morsel of rows in columnar layout.

    Attributes:
        columns: one list per output column, all of equal length.
        null_masks: per-column byte-lane masks marking NULL lanes.
        length: number of rows in the batch.

    Batches are shared freely (the per-table batch cache hands the same
    objects to every execution), so neither the column lists nor the
    masks may be mutated — operators derive new batches via
    :meth:`select` and :meth:`project`.
    """

    __slots__ = ("columns", "null_masks", "length", "_ones")

    def __init__(
        self,
        columns: list[list],
        null_masks: list[int],
        length: int,
    ) -> None:
        self.columns = columns
        self.null_masks = null_masks
        self.length = length
        self._ones: int | None = None

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], width: int) -> "ColumnBatch":
        """Transpose *rows* (each of *width* values) into a batch."""
        length = len(rows)
        if length == 0:
            return cls([[] for _ in range(width)], [0] * width, 0)
        columns = [list(column) for column in zip(*rows)]
        null_masks = [
            int.from_bytes(bytes(map(is_null, column)), "little")
            for column in columns
        ]
        return cls(columns, null_masks, length)

    @property
    def ones(self) -> int:
        """The all-true mask for this batch (``0x01`` in every lane)."""
        mask = self._ones
        if mask is None:
            mask = int.from_bytes(b"\x01" * self.length, "little")
            self._ones = mask
        return mask

    def to_rows(self) -> list[tuple]:
        """The batch as a list of row tuples (one ``zip`` transpose)."""
        if not self.columns:
            return [()] * self.length
        return list(zip(*self.columns))

    def iter_rows(self) -> Iterator[tuple]:
        """Iterate row tuples without materializing the whole list."""
        if not self.columns:
            return iter([()] * self.length)
        return zip(*self.columns)

    def select(self, mask: int) -> "ColumnBatch":
        """Rows whose lane is set in *mask*, in order (a new batch)."""
        length = mask.bit_count()
        if length == self.length:
            return self
        if length == 0:
            return ColumnBatch([[] for _ in self.columns],
                               [0] * len(self.columns), 0)
        selector = mask.to_bytes(self.length, "little")
        columns = [list(compress(col, selector)) for col in self.columns]
        null_masks = [
            int.from_bytes(
                bytes(compress(nulls.to_bytes(self.length, "little"),
                               selector)),
                "little",
            ) if nulls else 0
            for nulls in self.null_masks
        ]
        return ColumnBatch(columns, null_masks, length)

    def project(self, indices: Sequence[int]) -> "ColumnBatch":
        """Column slice: reorder/duplicate/drop columns, zero copying."""
        return ColumnBatch(
            [self.columns[i] for i in indices],
            [self.null_masks[i] for i in indices],
            self.length,
        )

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnBatch(rows={self.length}, "
            f"columns={len(self.columns)})"
        )


def batches_from_rows(
    rows: Iterable[tuple], width: int, batch_rows: int
) -> Iterator[ColumnBatch]:
    """Re-batch a row stream into morsel-sized :class:`ColumnBatch`\\ es.

    This is the tuple→columnar adapter: the default
    ``PlanNode.batches`` and every mid-stream demotion path use it, so
    a batch parent can consume any child — including one that just
    fell back to the interpreter.
    """
    iterator = iter(rows)
    while True:
        chunk = list(islice(iterator, batch_rows))
        if not chunk:
            return
        yield ColumnBatch.from_rows(chunk, width)


class UnbatchedRows:
    """The rows of a :class:`ColumnBatch` stream — the columnar→tuple
    adapter, mirror of :func:`batches_from_rows`.

    Iterating it hands out a C-level ``chain`` over each batch's
    ``zip``, so a row loop reading a batch pipeline pays no Python
    frame per row.  :meth:`close` closes the batch stream the way a
    generator's would: a consumer that leaves early has run the
    kernels' ``finally`` blocks before anyone reads the totals.
    """

    __slots__ = ("_batches", "_rows")

    def __init__(self, batches: Iterator[ColumnBatch]) -> None:
        self._batches = batches
        self._rows = chain.from_iterable(map(ColumnBatch.iter_rows, batches))

    def __iter__(self) -> Iterator[tuple]:
        return self._rows

    def __next__(self) -> tuple:
        return next(self._rows)

    def close(self) -> None:
        self._batches.close()


# ----------------------------------------------------------------------
# batch predicate compilation

#: A compiled batch predicate: batch -> (true_mask, unknown_mask).
BatchPredicateFn = Callable[[ColumnBatch], tuple[int, int]]
#: A compiled batch filter: batch -> selection mask (⌊P⌋ lanes).
BatchFilterFn = Callable[[ColumnBatch], int]

#: Operand tags used by the kernel builders below.
_CONST = "const"
_COL = "col"


def compile_batch_predicate(
    expr: Expr,
    schema: RelSchema,
    params: dict[str, SqlValue] | None = None,
) -> BatchPredicateFn | None:
    """Compile a search condition into a mask-pair kernel.

    Mirrors :func:`repro.engine.compile.compile_predicate` node for
    node — same compilability frontier, same constant folding, same
    fault sites (``compile`` at build time, ``vectorized_eval`` per
    batch evaluation).  Returns ``None`` when the expression needs the
    interpreter; callers then run the tuple path re-batched.
    """
    if not compilation_enabled():
        return None
    if FAULTS.armed:
        FAULTS.check(SITE_COMPILE)
    try:
        kernel, const = _node(expr, schema, params or {})
    except CannotCompile:
        return None
    if const is not None:
        kernel = _const_kernel(const)
    if FAULTS.armed:
        kernel = FAULTS.wrap_callable(SITE_VECTORIZED_EVAL, kernel)
    return kernel


def compile_batch_filter(
    expr: Expr | None,
    schema: RelSchema,
    params: dict[str, SqlValue] | None = None,
) -> BatchFilterFn | None:
    """Compile a WHERE clause into a selection-mask kernel (⌊P⌋: keep
    only lanes that are definitely TRUE)."""
    if expr is None:
        return None
    predicate = compile_batch_predicate(expr, schema, params)
    if predicate is None:
        return None

    def kernel(batch: ColumnBatch) -> int:
        true_mask, _unknown = predicate(batch)
        return true_mask

    return kernel


def _const_masks(const: Tristate, ones: int) -> tuple[int, int]:
    if const is TRUE:
        return ones, 0
    if const is UNKNOWN:
        return 0, ones
    return 0, 0


def _const_kernel(const: Tristate) -> BatchPredicateFn:
    def kernel(batch: ColumnBatch) -> tuple[int, int]:
        return _const_masks(const, batch.ones)

    return kernel


def _slow_masks(op: str, pairs: Iterable[tuple], n: int) -> tuple[int, int]:
    """The exact lane: per-row ``compare_where``, reference semantics."""
    true_lanes = bytearray(n)
    unknown_lanes = bytearray(n)
    for i, (left, right) in enumerate(pairs):
        result = compare_where(op, left, right)
        if result is TRUE:
            true_lanes[i] = 1
        elif result is UNKNOWN:
            unknown_lanes[i] = 1
    return (
        int.from_bytes(bytes(true_lanes), "little"),
        int.from_bytes(bytes(unknown_lanes), "little"),
    )


def _ordering_safe(kinds: set, probe) -> bool:
    """Whether a native ``<``/``<=``/``>``/``>=`` comprehension agrees
    with ``compare_where`` for every (value, probe) pairing.

    ``compare_where`` calls types comparable only within their rank:
    bool with bool, int/float with int/float (bool excluded — it is an
    ``int`` subclass Python would happily order), str with str.  The
    census uses exact ``type`` objects, so ``bool`` never hides inside
    the numeric case.
    """
    if isinstance(probe, bool):
        return kinds <= {bool}
    if isinstance(probe, (int, float)):
        return kinds <= {int, float}
    if isinstance(probe, str):
        return kinds <= {str}
    return False


def _value_kinds(column: list) -> set:
    kinds = set(map(type, column))
    kinds.discard(type(_NULL_SENTINEL))
    return kinds


def _fast_flags_const(
    op: str, column: list, const, nulls: int
) -> bytes | None:
    """0/1 flag bytes via one native comprehension, or ``None`` when
    the fast lane cannot be proven equivalent to ``compare_where``."""
    try:
        if op == "=" or op == "<>":
            if nulls:
                flags = bytes(
                    0 if v is _NULL_SENTINEL else v == const for v in column
                )
            else:
                flags = bytes(v == const for v in column)
            if op == "<>":
                flags = bytes(b ^ 1 for b in flags)
            return flags
        if not _ordering_safe(_value_kinds(column), const):
            return None
        if nulls:
            if op == "<":
                return bytes(
                    0 if v is _NULL_SENTINEL else v < const for v in column
                )
            if op == "<=":
                return bytes(
                    0 if v is _NULL_SENTINEL else v <= const for v in column
                )
            if op == ">":
                return bytes(
                    0 if v is _NULL_SENTINEL else v > const for v in column
                )
            if op == ">=":
                return bytes(
                    0 if v is _NULL_SENTINEL else v >= const for v in column
                )
            return None
        if op == "<":
            return bytes(v < const for v in column)
        if op == "<=":
            return bytes(v <= const for v in column)
        if op == ">":
            return bytes(v > const for v in column)
        if op == ">=":
            return bytes(v >= const for v in column)
        return None
    except Exception:
        # Any surprise (exotic __eq__, a non-singleton null, a type the
        # census missed) routes the batch through the exact lane.
        return None


def _fast_flags_cols(
    op: str, left: list, right: list, nulls: int
) -> bytes | None:
    try:
        if op == "=" or op == "<>":
            if nulls:
                flags = bytes(
                    0
                    if (a is _NULL_SENTINEL or b is _NULL_SENTINEL)
                    else a == b
                    for a, b in zip(left, right)
                )
            else:
                flags = bytes(a == b for a, b in zip(left, right))
            if op == "<>":
                flags = bytes(b ^ 1 for b in flags)
            return flags
        kinds = _value_kinds(left) | _value_kinds(right)
        if kinds and not (
            kinds <= {bool} or kinds <= {int, float} or kinds <= {str}
        ):
            return None
        if nulls:
            if op == "<":
                return bytes(
                    0 if (a is _NULL_SENTINEL or b is _NULL_SENTINEL)
                    else a < b
                    for a, b in zip(left, right)
                )
            if op == "<=":
                return bytes(
                    0 if (a is _NULL_SENTINEL or b is _NULL_SENTINEL)
                    else a <= b
                    for a, b in zip(left, right)
                )
            if op == ">":
                return bytes(
                    0 if (a is _NULL_SENTINEL or b is _NULL_SENTINEL)
                    else a > b
                    for a, b in zip(left, right)
                )
            if op == ">=":
                return bytes(
                    0 if (a is _NULL_SENTINEL or b is _NULL_SENTINEL)
                    else a >= b
                    for a, b in zip(left, right)
                )
            return None
        if op == "<":
            return bytes(a < b for a, b in zip(left, right))
        if op == "<=":
            return bytes(a <= b for a, b in zip(left, right))
        if op == ">":
            return bytes(a > b for a, b in zip(left, right))
        if op == ">=":
            return bytes(a >= b for a, b in zip(left, right))
        return None
    except Exception:
        return None


def _cmp_col_const(
    op: str, index: int, const, reverse: bool
) -> BatchPredicateFn:
    """column ⋈ constant (or constant ⋈ column when *reverse*)."""
    null_const = is_null(const)
    # Normalize "const op col" to "col op' const" so the fast lanes only
    # ever see the column on the left.
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
    vec_op = flipped.get(op, op) if reverse else op

    def kernel(batch: ColumnBatch) -> tuple[int, int]:
        ones = batch.ones
        if null_const:
            return 0, ones
        column = batch.columns[index]
        nulls = batch.null_masks[index]
        flags = _fast_flags_const(vec_op, column, const, nulls)
        if flags is None:
            if reverse:
                return _slow_masks(
                    op, ((const, v) for v in column), batch.length
                )
            return _slow_masks(
                op, ((v, const) for v in column), batch.length
            )
        true_mask = int.from_bytes(flags, "little") & (ones ^ nulls)
        return true_mask, nulls

    return kernel


def _cmp_col_col(op: str, left: int, right: int) -> BatchPredicateFn:
    def kernel(batch: ColumnBatch) -> tuple[int, int]:
        ones = batch.ones
        lcol = batch.columns[left]
        rcol = batch.columns[right]
        nulls = batch.null_masks[left] | batch.null_masks[right]
        flags = _fast_flags_cols(op, lcol, rcol, nulls)
        if flags is None:
            return _slow_masks(op, zip(lcol, rcol), batch.length)
        true_mask = int.from_bytes(flags, "little") & (ones ^ nulls)
        return true_mask, nulls

    return kernel


def _operand(
    expr: Expr, schema: RelSchema, params: dict[str, SqlValue]
) -> tuple[str, object]:
    """Resolve a scalar operand to ``(_CONST, value)`` or
    ``(_COL, index)`` — the same frontier as ``compile._scalar``."""
    if isinstance(expr, Literal):
        return _CONST, expr.value
    if isinstance(expr, HostVar):
        if expr.name not in params:
            raise CannotCompile(f"unbound host variable :{expr.name}")
        return _CONST, params[expr.name]
    if isinstance(expr, ColumnRef):
        from ..errors import AmbiguousColumnError

        try:
            index = schema.try_index_of(expr.qualifier, expr.column)
        except AmbiguousColumnError as exc:
            raise CannotCompile(str(exc)) from None
        if index is None:
            raise CannotCompile(f"outer reference {expr!r}")
        return _COL, index
    raise CannotCompile(f"{type(expr).__name__} is not a scalar operand")


def _comparison_kernel(
    op: str, left: tuple[str, object], right: tuple[str, object]
) -> tuple[BatchPredicateFn | None, Tristate | None]:
    lkind, lval = left
    rkind, rval = right
    if lkind is _CONST and rkind is _CONST:
        return None, compare_where(op, lval, rval)
    if rkind is _CONST:
        return _cmp_col_const(op, lval, rval, reverse=False), None
    if lkind is _CONST:
        return _cmp_col_const(op, rval, lval, reverse=True), None
    return _cmp_col_col(op, lval, rval), None


def _kleene_not(t: int, u: int, ones: int) -> tuple[int, int]:
    return ones ^ (t | u), u


def _node(
    expr: Expr, schema: RelSchema, params: dict[str, SqlValue]
) -> tuple[BatchPredicateFn | None, Tristate | None]:
    """Compile a condition subtree; ``(None, const)`` when it folded."""
    if isinstance(expr, Literal):
        if is_null(expr.value):
            return None, UNKNOWN
        if isinstance(expr.value, bool):
            return None, (TRUE if expr.value else FALSE)
        raise CannotCompile(f"literal {expr.value!r} is not a condition")
    if isinstance(expr, Comparison):
        return _comparison_kernel(
            expr.op,
            _operand(expr.left, schema, params),
            _operand(expr.right, schema, params),
        )
    if isinstance(expr, And):
        return _connective(expr.operands, schema, params, conjunctive=True)
    if isinstance(expr, Or):
        return _connective(expr.operands, schema, params, conjunctive=False)
    if isinstance(expr, Not):
        kernel, const = _node(expr.operand, schema, params)
        if const is not None:
            return None, ~const

        def negated(batch: ColumnBatch) -> tuple[int, int]:
            t, u = kernel(batch)
            return _kleene_not(t, u, batch.ones)

        return negated, None
    if isinstance(expr, IsNull):
        return _is_null_kernel(expr, schema, params)
    if isinstance(expr, Between):
        return _between_kernel(expr, schema, params)
    if isinstance(expr, InList):
        return _in_list_kernel(expr, schema, params)
    # Exists / InSubquery / anything exotic: interpreter territory.
    raise CannotCompile(f"cannot compile {type(expr).__name__}")


def _connective(
    operands: Sequence[Expr],
    schema: RelSchema,
    params: dict[str, SqlValue],
    conjunctive: bool,
) -> tuple[BatchPredicateFn | None, Tristate | None]:
    """AND/OR with the row compiler's constant folding.

    The runtime kernel folds lane-wise: Kleene's connectives are
    associative, so evaluating every part over every lane (no per-row
    short circuit — that is the point of vectorization) produces the
    same tristate per lane as the interpreter's short-circuit walk.
    """
    absorbing = FALSE if conjunctive else TRUE
    identity = TRUE if conjunctive else FALSE
    folded = identity
    parts: list[BatchPredicateFn] = []
    for operand in operands:
        kernel, const = _node(operand, schema, params)
        if const is not None:
            folded = (folded & const) if conjunctive else (folded | const)
            if folded is absorbing:
                return None, absorbing
        else:
            parts.append(kernel)
    if not parts:
        return None, folded
    if len(parts) == 1 and folded is identity:
        return parts[0], None

    if conjunctive:
        def kernel(batch, _parts=tuple(parts), _seed=folded):
            ones = batch.ones
            seed_t, seed_u = _const_masks(_seed, ones)
            t = seed_t
            f = ones ^ (seed_t | seed_u)
            for part in _parts:
                pt, pu = part(batch)
                t &= pt
                f |= ones ^ (pt | pu)
            return t, ones ^ (t | f)
    else:
        def kernel(batch, _parts=tuple(parts), _seed=folded):
            ones = batch.ones
            seed_t, seed_u = _const_masks(_seed, ones)
            t = seed_t
            f = ones ^ (seed_t | seed_u)
            for part in _parts:
                pt, pu = part(batch)
                t |= pt
                f &= ones ^ (pt | pu)
            return t, ones ^ (t | f)

    return kernel, None


def _is_null_kernel(
    expr: IsNull, schema: RelSchema, params: dict[str, SqlValue]
) -> tuple[BatchPredicateFn | None, Tristate | None]:
    kind, value = _operand(expr.operand, schema, params)
    negated = expr.negated
    if kind is _CONST:
        outcome = is_null(value) != negated
        return None, (TRUE if outcome else FALSE)

    def kernel(batch: ColumnBatch) -> tuple[int, int]:
        nulls = batch.null_masks[value]
        return (batch.ones ^ nulls) if negated else nulls, 0

    return kernel, None


def _between_kernel(
    expr: Between, schema: RelSchema, params: dict[str, SqlValue]
) -> tuple[BatchPredicateFn | None, Tristate | None]:
    operand = _operand(expr.operand, schema, params)
    low = _operand(expr.low, schema, params)
    high = _operand(expr.high, schema, params)
    negated = expr.negated
    ge_kernel, ge_const = _comparison_kernel(">=", operand, low)
    le_kernel, le_const = _comparison_kernel("<=", operand, high)
    if ge_kernel is None and le_kernel is None:
        const = ge_const & le_const
        return None, (~const if negated else const)

    def kernel(batch: ColumnBatch) -> tuple[int, int]:
        ones = batch.ones
        gt, gu = (
            _const_masks(ge_const, ones) if ge_kernel is None
            else ge_kernel(batch)
        )
        lt, lu = (
            _const_masks(le_const, ones) if le_kernel is None
            else le_kernel(batch)
        )
        t = gt & lt
        f = (ones ^ (gt | gu)) | (ones ^ (lt | lu))
        u = ones ^ (t | f)
        return _kleene_not(t, u, ones) if negated else (t, u)

    return kernel, None


def _in_list_kernel(
    expr: InList, schema: RelSchema, params: dict[str, SqlValue]
) -> tuple[BatchPredicateFn | None, Tristate | None]:
    operand = _operand(expr.operand, schema, params)
    negated = expr.negated
    folded = FALSE
    parts: list[BatchPredicateFn] = []
    for item in expr.items:
        kernel, const = _comparison_kernel(
            "=", operand, _operand(item, schema, params)
        )
        if const is not None:
            folded = folded | const
            if folded is TRUE:
                break
        else:
            parts.append(kernel)
    if folded is TRUE or not parts:
        const = folded
        return None, (~const if negated else const)

    def kernel(batch, _parts=tuple(parts), _seed=folded):
        ones = batch.ones
        seed_t, seed_u = _const_masks(_seed, ones)
        t = seed_t
        f = ones ^ (seed_t | seed_u)
        for part in _parts:
            pt, pu = part(batch)
            t |= pt
            f &= ones ^ (pt | pu)
        u = ones ^ (t | f)
        return _kleene_not(t, u, ones) if negated else (t, u)

    return kernel, None
