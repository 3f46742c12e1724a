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

Selection and truth vectors are **byte-lane integer masks**: a mask is
a Python int in which row *i* occupies byte *i* (little-endian) holding
``0x00`` or ``0x01``.  For 0/1 lanes the plain integer operators are
lane-wise: ``&`` is AND, ``|`` is OR, and the complement is XOR against
the all-ones mask.  ``mask.bit_count()`` counts selected
rows (each lane contributes one bit), and
``mask.to_bytes(n, "little")`` is directly a selector for
:func:`itertools.compress` — one arbitrary-precision int op per batch
replaces a per-row Python loop.

Three-valued logic
------------------

There is no second compiler here.  :func:`repro.engine.compile._lower`
walks a condition once — operand resolution, constant folding, the
refusal frontier, ⌊P AND Q⌋ = ⌊P⌋ and ⌊Q⌋ and its five companions — and
builds the node's ``(is_true, is_false)`` pair from whichever
:class:`~repro.engine.compile.Leaves` it is handed.  This module's
leaves are the row leaves over lanes: a test maps a batch to the mask of
lanes where it holds, so the pair is ``(true_mask, false_mask)``,
disjoint, with UNKNOWN the lanes in neither; AND is ``&`` over the
parts, OR is ``|``, NOT is the swap it is for rows.  NULL lanes (the
per-column null bitmaps) are in neither mask of a comparison,
reproducing :func:`repro.types.values.compare_where` bit for bit.

Soundness
---------

The comparison leaf has a *fast lane* (one C-level ``map`` or native
comprehension, taken only when the batch's type census proves it agrees
with ``compare_where``) and an *exact lane* (a per-row ``compare_where``
loop).  What the walk refuses — subqueries, outer references, unbound
host variables — it refuses for every leaf set, and the caller falls
back to the tuple interpreter, which remains the verified reference
semantics.

Fault injection: compilation consults the ``compile`` site (inside
``compile_pair``), and armed ``vectorized_eval`` faults instrument every
returned kernel (and, via :func:`batch_fault_check`, the projection's
column slice), so the chaos suite can force the vectorized→interpreter
demotion ladder mid-stream.
"""

from __future__ import annotations

import os
from functools import reduce
from itertools import chain, compress, islice, repeat
from operator import and_, eq, ge, gt, le, lt, ne, or_
from typing import Callable, Iterable, Iterator, Sequence

from ..resilience.faults import FAULTS, SITE_VECTORIZED_EVAL
from ..sql.expressions import Expr
from ..types.tristate import TRUE, UNKNOWN
from ..types.values import NULL, SqlValue, compare_where, is_null
from .codegen import ChunkedRows
from .compile import Leaves, compile_pair
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


class UnbatchedRows(ChunkedRows):
    """The rows of a :class:`ColumnBatch` stream — the columnar→tuple
    adapter, mirror of :func:`batches_from_rows`.

    Iterating it hands out a C-level ``chain`` over each batch's
    ``zip``, so a row loop reading a batch pipeline pays no Python
    frame per row.  :meth:`close` closes the batch stream the way a
    generator's would: a consumer that leaves early has run the
    kernels' ``finally`` blocks before anyone reads the totals.
    """

    __slots__ = ()

    def __init__(self, batches: Iterator[ColumnBatch]) -> None:
        self._groups = batches
        self._rows = chain.from_iterable(map(ColumnBatch.iter_rows, batches))


# ----------------------------------------------------------------------
# batch predicate compilation: the batch leaves of ``compile._lower``

#: A batch test: batch -> mask of the lanes where it holds.
BatchFilterFn = Callable[[ColumnBatch], int]
#: A compiled batch predicate: batch -> (true_mask, unknown_mask).
BatchPredicateFn = Callable[[ColumnBatch], tuple[int, int]]


def compile_batch_predicate(
    expr: Expr,
    schema: RelSchema,
    params: dict[str, SqlValue] | None = None,
) -> BatchPredicateFn | None:
    """The three-valued verdict per lane as ``(true_mask, unknown_mask)``,
    derived from the batch pair the way ``compile_predicate`` is from
    the row pair (``None`` exactly when ``compile_pair`` refuses)."""
    pair = compile_pair(expr, schema, params, BATCH_LEAVES)
    if pair is None:
        return None
    is_true, is_false = pair

    def predicate(batch: ColumnBatch) -> tuple[int, int]:
        true = is_true(batch)
        return true, batch.ones ^ (true | is_false(batch))

    return _instrumented(predicate)


def compile_batch_filter(
    expr: Expr | None,
    schema: RelSchema,
    params: dict[str, SqlValue] | None = None,
) -> BatchFilterFn | None:
    """Compile a WHERE clause into a selection-mask kernel: the batch
    pair's ``is_true`` (⌊P⌋ — keep only lanes that are definitely
    TRUE).  ``None`` when *expr* is ``None`` or needs the interpreter;
    callers then run the tuple path re-batched."""
    if expr is None:
        return None
    pair = compile_pair(expr, schema, params, BATCH_LEAVES)
    return None if pair is None else _instrumented(pair[0])


def _instrumented(kernel):
    """Armed ``vectorized_eval`` faults get one trigger opportunity per
    batch evaluation; disarmed, *kernel* comes back bare."""
    if FAULTS.armed:
        return FAULTS.wrap_callable(SITE_VECTORIZED_EVAL, kernel)
    return kernel


def _always(verdict: bool) -> BatchFilterFn:
    return (lambda batch: batch.ones) if verdict else (lambda batch: 0)


def _is_null(index: int) -> tuple[BatchFilterFn, BatchFilterFn]:
    return (
        lambda batch: batch.null_masks[index],
        lambda batch: batch.ones ^ batch.null_masks[index],
    )


def _lanewise(merge: Callable[[int, int], int]):
    """The ``every`` / ``some`` leaf: ``&`` / ``|`` over the parts' masks.
    Every part runs over every lane — no per-row short circuit is the
    point of a batch — which decides each lane as the row leaves do."""

    def leaf(tests: Sequence[BatchFilterFn]) -> BatchFilterFn:
        tests = tuple(tests)
        return lambda batch: reduce(merge, [test(batch) for test in tests])

    return leaf


def _comparison(
    op: str, left: int, right: int | None, const: SqlValue
) -> tuple[BatchFilterFn, BatchFilterFn]:
    """``column op column`` (*right* an index) or ``column op const``.

    Both masks hold only on *decided* lanes — operands non-NULL and, for
    an ordering, comparable — and ``is_false`` is the decided lanes that
    are not true, never the complementary operator: ``NaN < 1`` and
    ``NaN >= 1`` are both FALSE.
    """

    def lanes(batch: ColumnBatch) -> tuple[int, int]:
        """``(true lanes, decided lanes)`` of one batch."""
        column = batch.columns[left]
        nulls = batch.null_masks[left]
        other = None
        if right is not None:
            other = batch.columns[right]
            nulls |= batch.null_masks[right]
        flags = _fast_flags(op, column, other, const, nulls)
        if flags is None:
            # The exact lane: per-row ``compare_where``, the reference.
            other = repeat(const) if other is None else other
            verdicts = list(map(compare_where, repeat(op), column, other))
            return (
                _mask(verdict is TRUE for verdict in verdicts),
                _mask(verdict is not UNKNOWN for verdict in verdicts),
            )
        decided = batch.ones ^ nulls
        return int.from_bytes(flags, "little") & decided, decided

    def is_false(batch: ColumnBatch) -> int:
        true, decided = lanes(batch)
        return true ^ decided

    return (lambda batch: lanes(batch)[0]), is_false


def _mask(lanes: Iterable[bool]) -> int:
    return int.from_bytes(bytes(lanes), "little")


#: ``op`` over lanes where a NULL may sit (NULL orders with nothing, so
#: ``map`` would raise): one inline list comprehension per operator and
#: operand shape, ``(column–constant, column–column)`` — a generator
#: reads 1.2 × and a shared ``holds(a, b)`` call per lane more.
_NULL_LANES = {
    "<": (
        lambda left, c: bytes([0 if a is NULL else a < c for a in left]),
        lambda left, right: bytes(
            [0 if (a is NULL or b is NULL) else a < b for a, b in zip(left, right)]
        ),
    ),
    "<=": (
        lambda left, c: bytes([0 if a is NULL else a <= c for a in left]),
        lambda left, right: bytes(
            [0 if (a is NULL or b is NULL) else a <= b for a, b in zip(left, right)]
        ),
    ),
    ">": (
        lambda left, c: bytes([0 if a is NULL else a > c for a in left]),
        lambda left, right: bytes(
            [0 if (a is NULL or b is NULL) else a > b for a, b in zip(left, right)]
        ),
    ),
    ">=": (
        lambda left, c: bytes([0 if a is NULL else a >= c for a in left]),
        lambda left, right: bytes(
            [0 if (a is NULL or b is NULL) else a >= b for a, b in zip(left, right)]
        ),
    ),
}

#: Python's verdict on two non-NULL operands, by SQL operator.
HOLDS = {"=": eq, "<>": ne, "<": lt, "<=": le, ">": gt, ">=": ge}

#: The comparability classes of ``compare_where``, as exact types
#: (``bool`` is an ``int`` subclass Python would happily order with
#: numbers; the census uses ``type`` objects, so it never hides there).
_CLASSES = ({bool}, {int, float}, {str})


def _fast_flags(
    op: str, left: list, right: list | None, const: SqlValue, nulls: int
) -> bytes | None:
    """0/1 flag bytes of ``left op right`` — ``left op const`` when
    *right* is ``None`` — from one native pass, or ``None`` when that
    cannot be proven equal to ``compare_where``.  Flags on NULL lanes
    mean nothing; the caller masks them."""
    try:
        if op in _NULL_LANES:
            # An ordering: UNKNOWN across comparability classes.
            kinds = set(map(type, left))
            kinds.update((type(const),) if right is None else map(type, right))
            kinds.discard(type(NULL))
            if not any(kinds <= cls for cls in _CLASSES):
                return None
            if nulls:
                for_const, for_columns = _NULL_LANES[op]
                if right is None:
                    return for_const(left, const)
                return for_columns(left, right)
        # Dense orderings, and = / <> on any types (NULL == x is False).
        return bytes(map(HOLDS[op], left, repeat(const) if right is None else right))
    except Exception:
        # Any surprise (exotic __eq__, a type the census missed) routes
        # the batch through the exact lane.
        return None


#: The batch format's leaves: kernels from a ``ColumnBatch`` to a mask.
BATCH_LEAVES = Leaves(
    _always, _is_null, _comparison, _lanewise(and_), _lanewise(or_)
)
