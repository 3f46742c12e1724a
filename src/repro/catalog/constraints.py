"""Constraint objects stored in the catalog.

The paper exploits two kinds of semantic information (§2.1):

* **uniqueness constraints** — primary and candidate keys
  (:class:`KeyConstraint`); a primary key's columns are NOT NULL, while a
  ``UNIQUE`` candidate key may contain NULL, treated as a single special
  value (at most one row per NULL key combination);
* **check constraints** — search conditions that every stored row must
  satisfy (:class:`CheckConstraint`), which may therefore be conjoined to
  any query predicate without changing its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..sql.expressions import Expr
from ..sql.printer import to_sql

if TYPE_CHECKING:
    from .table import TableSchema


@dataclass(frozen=True)
class KeyConstraint:
    """A primary or candidate key.

    Attributes:
        columns: the key columns, in declaration order.
        is_primary: True for PRIMARY KEY (implies NOT NULL columns);
            False for UNIQUE candidate keys.
        name: optional constraint name for error messages.
    """

    columns: tuple[str, ...]
    is_primary: bool = False
    name: str | None = None

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("a key must have at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate column in key: {self.columns}")

    def describe(self) -> str:
        kind = "PRIMARY KEY" if self.is_primary else "UNIQUE"
        return f"{kind} ({', '.join(self.columns)})"


@dataclass(frozen=True)
class CheckConstraint:
    """A table CHECK constraint: *condition* must never be false.

    Per SQL2 a CHECK is satisfied when the condition is true **or
    unknown** — the true-interpretation ⌈P⌉ of the paper's Table 2.
    """

    condition: Expr
    name: str | None = None

    def describe(self) -> str:
        return f"CHECK ({to_sql(self.condition)})"


@dataclass(frozen=True)
class ForeignKeyConstraint:
    """A referential constraint: checked on every insert and relied on
    by join elimination (not needed by Theorem 1)."""

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]
    name: str | None = None

    def referenced_columns(self, target: "TableSchema") -> tuple[str, ...] | None:
        """The columns of *target* this key references: ``ref_columns``,
        else *target*'s PRIMARY KEY; None when it declares neither."""
        if self.ref_columns:
            return self.ref_columns
        key = target.primary_key
        return key.columns if key is not None else None

    def describe(self) -> str:
        refs = f" ({', '.join(self.ref_columns)})" if self.ref_columns else ""
        return (
            f"FOREIGN KEY ({', '.join(self.columns)}) "
            f"REFERENCES {self.ref_table}{refs}"
        )
