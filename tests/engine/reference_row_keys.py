"""The canonical-key row comparisons the engine's operators replaced.

Kept as the oracle of ``test_row_keys.py``: every row, whatever its
columns hold, is compared, sorted and hashed by its ``row_sort_key`` —
a ``(rank, value)`` pair per value — and an ORDER BY key by
``sort_key`` per key column, wrapped for DESC.  Each function takes the
operator's input rows and a :class:`~repro.engine.stats.Stats` and
returns the operator's output rows, charging what the operator charges.

UNION follows the one accounting both engines share: ``UNION ALL``
concatenates without a charge, ``UNION`` deduplicates the concatenation
with one sort.  INTERSECT and EXCEPT [ALL] charge the paper's two sorts.
"""

from __future__ import annotations

from collections import Counter

from repro.engine.stats import Stats
from repro.sql.ast import SetOpKind
from repro.types.values import row_sort_key, sort_key


class _Reversed:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.key == self.key


def sort_distinct(rows: list[tuple], stats: Stats) -> list[tuple]:
    """Each key's first row, the keys sorted — deduplicated before the
    sort, as INTERSECT and EXCEPT below, so a NaN (unordered against
    every value) cannot keep two equal keys apart."""
    stats.sorts += 1
    stats.sort_rows += len(rows)
    counts = Counter(map(row_sort_key, rows))
    first: dict = {}
    for row in rows:
        first.setdefault(row_sort_key(row), row)
    stats.duplicates_removed += len(rows) - len(counts)
    return [first[key] for key in sorted(counts)]


def order(
    rows: list[tuple], positions: list[int], ascending: list[bool], stats: Stats
) -> list[tuple]:
    stats.sorts += 1
    stats.sort_rows += len(rows)

    def key_fn(row: tuple):
        parts = []
        for position, asc in zip(positions, ascending):
            key = sort_key(row[position])
            parts.append(key if asc else _Reversed(key))
        return tuple(parts)

    return sorted(rows, key=key_fn)


def set_operation(
    kind: SetOpKind,
    all_rows: bool,
    left_rows: list[tuple],
    right_rows: list[tuple],
    stats: Stats,
) -> list[tuple]:
    if kind is SetOpKind.UNION:
        rows = left_rows + right_rows
        return rows if all_rows else sort_distinct(rows, stats)
    stats.sorts += 2
    stats.sort_rows += len(left_rows) + len(right_rows)
    left_counts: Counter = Counter()
    representatives: dict = {}
    for row in left_rows:
        key = row_sort_key(row)
        left_counts[key] += 1
        representatives.setdefault(key, row)
    right_counts = Counter(map(row_sort_key, right_rows))
    output = []
    for key in sorted(left_counts):
        j, k = left_counts[key], right_counts.get(key, 0)
        if kind is SetOpKind.INTERSECT:
            copies = min(j, k) if all_rows else (1 if min(j, k) > 0 else 0)
        else:
            copies = max(j - k, 0) if all_rows else (1 if k == 0 else 0)
        output.extend([representatives[key]] * copies)
    return output


def same_rows(left: list[tuple], right: list[tuple]) -> bool:
    return Counter(map(row_sort_key, left)) == Counter(map(row_sort_key, right))


def sorted_rows(rows: list[tuple]) -> list[tuple]:
    return sorted(rows, key=row_sort_key)


def has_duplicates(rows: list[tuple]) -> bool:
    return any(count > 1 for count in Counter(map(row_sort_key, rows)).values())
