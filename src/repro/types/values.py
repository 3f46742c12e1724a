"""SQL values and null-aware comparison operators.

SQL distinguishes two notions of equality, and the paper's analysis
(Section 3.1) hinges on the difference:

* ``WHERE``-clause equality (:func:`eq_where`): any comparison involving
  ``NULL`` is ``UNKNOWN``.
* the *null comparison operator* ≐ of the paper's Table 2
  (:func:`eq_equivalent`): two ``NULL`` values compare *equal*.  This is
  the semantics of ``SELECT DISTINCT``, ``GROUP BY``, set operations and
  candidate-key uniqueness.

Values themselves are ordinary Python objects (``int``, ``float``,
``str``, ``bool``) plus the :data:`NULL` singleton.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from .tristate import FALSE, TRUE, UNKNOWN, Tristate


class _Null:
    """Singleton marker for the SQL ``NULL`` value.

    ``NULL`` is falsy, equal only to itself under Python ``==`` (so rows
    can be compared structurally), and sorts before every other value via
    :func:`sort_key`.
    """

    _instance: "_Null | None" = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __hash__(self) -> int:
        return hash("repro.types.NULL")

    def __reduce__(self):
        return (_Null, ())


NULL = _Null()

SqlValue = Any  # int | float | str | bool | _Null


def is_null(value: SqlValue) -> bool:
    """Return True when *value* is the SQL NULL marker."""
    return value is NULL or isinstance(value, _Null)


def comparable(left: SqlValue, right: SqlValue) -> bool:
    """Whether two non-null values belong to mutually comparable types."""
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return True
    return type(left) is type(right)


def eq_where(left: SqlValue, right: SqlValue) -> Tristate:
    """``left = right`` under WHERE-clause semantics (NULL => UNKNOWN)."""
    if is_null(left) or is_null(right):
        return UNKNOWN
    return TRUE if left == right else FALSE


def eq_equivalent(left: SqlValue, right: SqlValue) -> bool:
    """The paper's ≐ operator: NULLs compare equal.

    Equivalent SQL: ``(X IS NULL AND Y IS NULL) OR X = Y``.  Returns a
    plain Boolean because the comparison can never be unknown.
    """
    if is_null(left):
        return is_null(right)
    if is_null(right):
        return False
    return bool(left == right)


def compare_where(op: str, left: SqlValue, right: SqlValue) -> Tristate:
    """Evaluate a comparison operator under WHERE semantics.

    Supported operators: ``=``, ``<>``, ``<``, ``<=``, ``>``, ``>=``.
    Any NULL operand yields UNKNOWN.  The *ordering* operators also
    yield UNKNOWN for operands of incomparable types (bool, numeric and
    each other type are classes of their own — how a cautious engine
    treats a mismatch caused by host-variable substitution).  ``=`` and
    ``<>`` never consult comparability: they are Python ``==``/``!=``,
    so ``1 = '1'`` is FALSE and ``TRUE = 1`` is TRUE although
    ``TRUE < 1`` is UNKNOWN (and a hash-join key, which carries the
    type rank, never matches ``TRUE`` with ``1``).  A non-null ordering
    comparison is FALSE exactly when Python's is — ``NaN < 1`` and
    ``NaN >= 1`` are both FALSE.
    """
    if is_null(left) or is_null(right):
        return UNKNOWN
    if op == "=":
        return TRUE if left == right else FALSE
    if op == "<>":
        return TRUE if left != right else FALSE
    if not comparable(left, right):
        return UNKNOWN
    if op == "<":
        return Tristate.of(left < right)
    if op == "<=":
        return Tristate.of(left <= right)
    if op == ">":
        return Tristate.of(left > right)
    if op == ">=":
        return Tristate.of(left >= right)
    raise ValueError(f"unknown comparison operator: {op!r}")


_TYPE_RANK = {bool: 0, int: 1, float: 1, str: 2}


def sort_key(value: SqlValue) -> tuple:
    """Total-order key over SQL values; NULL sorts first.

    The key is usable across mixed-type columns: values are ranked first
    by a type class (NULL < bool < numeric < str), then by value within
    the class.  DISTINCT-via-sort and set operations rely on this order
    grouping ≐-equivalent values adjacently.
    """
    if is_null(value):
        return (-1, 0)
    rank = _TYPE_RANK.get(type(value))
    if rank is None:
        rank = 3
        value = repr(value)
    return (rank, value)


def row_sort_key(row: Sequence[SqlValue]) -> tuple:
    """Sort key for an entire row (lexicographic over :func:`sort_key`)."""
    return tuple(sort_key(value) for value in row)


_NULL_KEY = (-1, 0)


def key_extractor(
    indices: Sequence[int] | None = None,
    null_safe: Sequence[bool] | None = None,
) -> Callable[[Sequence[SqlValue]], tuple | None]:
    """The per-row key kernel of the tuple operators, built once per
    execution so the row loop pays one call per key.

    The returned ``extract(row)`` is exactly
    ``row_sort_key([row[i] for i in indices])`` — or ``None`` when the
    row holds NULL at a position not flagged in *null_safe*, i.e. a
    join key WHERE-equality can never match (no flags: every position
    is strict).  With *indices* ``None`` it canonicalises the whole row
    and never answers ``None`` (DISTINCT and the set operators compare
    under ≐, where NULLs are equal).
    """
    rank = _TYPE_RANK.get
    strict = () if indices is None else tuple(
        i for i, safe in zip(indices, null_safe or repeat(False)) if not safe
    )

    if indices is not None and len(indices) == 1:
        # One key column (most equi-joins): no list, no inner loop.
        (only,) = indices
        skip_null = bool(strict)

        def extract_one(row):
            value = row[only]
            r = rank(type(value))
            if r is not None:
                return ((r, value),)
            if value is NULL:
                return None if skip_null else (_NULL_KEY,)
            return ((3, repr(value)),)

        return extract_one

    pick = itemgetter(*indices) if indices is not None else None

    def extract(row):
        for i in strict:
            if row[i] is NULL:
                return None
        return tuple([
            (r, value) if (r := rank(type(value))) is not None
            else _NULL_KEY if value is NULL else (3, repr(value))
            for value in (row if pick is None else pick(row))
        ])

    return extract


def rows_equivalent(left: Sequence[SqlValue], right: Sequence[SqlValue]) -> bool:
    """Row equality under the ≐ operator (the paper's equation (1))."""
    if len(left) != len(right):
        return False
    return all(eq_equivalent(a, b) for a, b in zip(left, right))


def distinct_rows(rows: Iterable[Sequence[SqlValue]]) -> list[tuple]:
    """Duplicate-eliminate rows under ≐ semantics, preserving first-seen order."""
    seen: set[tuple] = set()
    result: list[tuple] = []
    for row in rows:
        key = row_sort_key(row)
        if key not in seen:
            seen.add(key)
            result.append(tuple(row))
    return result


def format_value(value: SqlValue) -> str:
    """Render a value as a SQL literal."""
    if is_null(value):
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)
