"""Query results and multiset comparison helpers."""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Iterable, Sequence

from ..types.values import SqlValue, format_value, row_keys, row_sort_key


class Result:
    """The rows produced by executing a query.

    Row identity for comparisons follows the paper's ≐ semantics: two
    rows are the same when corresponding values are equal or both NULL.

    *rows* are tuples.  A list is kept as given — the caller hands over
    a list it built for this result, so no row is copied again — and
    any other iterable is listed.
    """

    def __init__(self, columns: Sequence[str], rows: Iterable[tuple]) -> None:
        self.columns: list[str] = list(columns)
        self.rows: list[tuple] = rows if type(rows) is list else list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        """Multiset equality under ≐ (column names must also match)."""
        if not isinstance(other, Result):
            return NotImplemented
        return self.columns == other.columns and self.same_rows(other)

    def __hash__(self):  # Results are mutable containers
        raise TypeError("Result is unhashable")

    def multiset(self) -> Counter:
        """Row multiset keyed by the canonical (≐-respecting) sort key,
        comparable with any other ``row_sort_key`` multiset."""
        return Counter(row_sort_key(row) for row in self.rows)

    def sorted_rows(self) -> list[tuple]:
        """Rows in canonical order (NULLs first), for deterministic output."""
        (keys,) = row_keys(self.rows)
        return [row for _, row in sorted(zip(keys, self.rows), key=itemgetter(0))]

    def has_duplicates(self) -> bool:
        """Whether any row appears more than once (under ≐)."""
        (keys,) = row_keys(self.rows)
        return len(set(keys)) < len(keys)

    def same_rows(self, other: "Result") -> bool:
        """Multiset equality under ≐, ignoring column names."""
        mine, theirs = row_keys(self.rows, other.rows)
        return Counter(mine) == Counter(theirs)

    def column_values(self, name: str) -> list[SqlValue]:
        """All values of the named output column."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def to_table(self, limit: int | None = 20) -> str:
        """A printable ASCII table of (up to *limit*) rows."""
        shown = self.sorted_rows()
        truncated = False
        if limit is not None and len(shown) > limit:
            shown = shown[:limit]
            truncated = True
        cells = [[format_value(value) for value in row] for row in shown]
        widths = [len(name) for name in self.columns]
        for row in cells:
            for i, text in enumerate(row):
                widths[i] = max(widths[i], len(text))
        header = " | ".join(
            name.ljust(widths[i]) for i, name in enumerate(self.columns)
        )
        rule = "-+-".join("-" * width for width in widths)
        lines = [header, rule]
        for row in cells:
            lines.append(
                " | ".join(text.ljust(widths[i]) for i, text in enumerate(row))
            )
        if truncated:
            lines.append(f"... ({len(self.rows)} rows total)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Result({len(self.rows)} rows x {len(self.columns)} columns)"
