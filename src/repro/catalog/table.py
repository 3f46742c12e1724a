"""Table schema objects."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

from ..errors import CatalogError, UnknownColumnError
from .column import Column
from .constraints import CheckConstraint, ForeignKeyConstraint, KeyConstraint


@dataclass
class TableSchema:
    """Schema of one base table: columns, keys, and constraints.

    Instances are built through :class:`repro.catalog.builder.TableBuilder`
    or from DDL via :func:`repro.catalog.schema.Catalog.execute_ddl`, and
    are treated as immutable once registered in a catalog.
    """

    name: str
    columns: list[Column] = field(default_factory=list)
    keys: list[KeyConstraint] = field(default_factory=list)
    checks: list[CheckConstraint] = field(default_factory=list)
    foreign_keys: list[ForeignKeyConstraint] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column name in table {self.name!r}")
        self._index = {column.name: i for i, column in enumerate(self.columns)}
        for key in self.keys:
            for column in key.columns:
                if column not in self._index:
                    raise UnknownColumnError(self.name, column)

    # ------------------------------------------------------------------
    # column access

    @property
    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        """Whether this table declares the column."""
        return name in self._index

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self.columns[self._index[name]]
        except KeyError:
            raise UnknownColumnError(self.name, name) from None

    def column_index(self, name: str) -> int:
        """Positional index of a column (row tuples use this order)."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownColumnError(self.name, name) from None

    # ------------------------------------------------------------------
    # keys

    @property
    def primary_key(self) -> KeyConstraint | None:
        """The PRIMARY KEY constraint, if declared."""
        for key in self.keys:
            if key.is_primary:
                return key
        return None

    @property
    def candidate_keys(self) -> list[KeyConstraint]:
        """All declared keys (primary first), the paper's U_i(R)."""
        primary = [key for key in self.keys if key.is_primary]
        unique = [key for key in self.keys if not key.is_primary]
        return primary + unique

    def covered_key(self, columns: Collection[str]) -> KeyConstraint | None:
        """The first candidate key (primary first) whose columns all lie
        in *columns*, or None: the one test of "these columns hold at
        most one row" that Algorithm 1, Theorem 2, join elimination,
        the planner's index choice and the estimator share."""
        for key in self.candidate_keys:
            if all(column in columns for column in key.columns):
                return key
        return None

    def has_key(self) -> bool:
        """Whether any candidate key is declared (Theorem 1 precondition)."""
        return bool(self.keys)

    def indexable_columns(self) -> frozenset[str]:
        """Columns the engine auto-indexes: key and FOREIGN KEY columns.

        These are the probe targets the paper's workloads hit — key
        lookups from ``col = const`` predicates, FK correlation probes
        from ``EXISTS`` / ``IN`` subqueries, and the build side of a
        hash join served from the table's own index.
        """
        columns: set[str] = set()
        for key in self.keys:
            columns.update(key.columns)
        for fk in self.foreign_keys:
            columns.update(fk.columns)
        return frozenset(columns)

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """A human-readable multi-line schema description."""
        lines = [f"TABLE {self.name}"]
        for column in self.columns:
            null = "" if column.nullable else " NOT NULL"
            lines.append(f"  {column.name} {column.type_name}{null}")
        for key in self.keys:
            lines.append(f"  {key.describe()}")
        for check in self.checks:
            lines.append(f"  {check.describe()}")
        for fk in self.foreign_keys:
            lines.append(f"  {fk.describe()}")
        return "\n".join(lines)
