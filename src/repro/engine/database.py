"""A database instance: a catalog plus stored rows for each table."""

from __future__ import annotations

from typing import Iterable, Sequence

from ..catalog.schema import Catalog
from ..catalog.table import TableSchema
from ..errors import ConstraintViolation, UnknownTableError
from ..sql.ast import CreateTable, Insert
from ..sql.parser import parse_script
from ..types.values import NULL, SqlValue
from .table_data import TableData


class Database:
    """Catalog + data.  The unit the executor runs queries against."""

    def __init__(self, catalog: Catalog | None = None) -> None:
        self.catalog = catalog or Catalog()
        self._data: dict[str, TableData] = {}
        #: Collected table statistics (:class:`repro.stats.StatisticsCatalog`)
        #: from the most recent :meth:`analyze`, or None.  The estimator
        #: checks freshness against :meth:`fingerprint` before trusting it.
        self.statistics = None
        self._txn_manager = None
        for schema in self.catalog:
            self._data[schema.name] = TableData(schema)

    # ------------------------------------------------------------------
    # transactions

    @property
    def transactions(self):
        """The database's :class:`~repro.engine.txn.TransactionManager`
        (created on first use)."""
        if self._txn_manager is None:
            from .txn import TransactionManager  # deferred: txn imports engine

            self._txn_manager = TransactionManager(self)
        return self._txn_manager

    def begin(self):
        """Start an MVCC transaction pinned to a fresh snapshot."""
        return self.transactions.begin()

    # ------------------------------------------------------------------
    # schema management

    def create_table(self, schema: TableSchema) -> TableData:
        """Register *schema* and allocate empty storage for it."""
        self.catalog.register(schema)
        data = TableData(schema)
        self._data[schema.name] = data
        return data

    def table(self, name: str) -> TableData:
        """Row storage for one table."""
        try:
            return self._data[name.upper()]
        except KeyError:
            raise UnknownTableError(name) from None

    def has_table(self, name: str) -> bool:
        """Whether storage exists for this table name."""
        return name.upper() in self._data

    def table_names(self) -> list[str]:
        """All stored table names, sorted."""
        return sorted(self._data)

    # ------------------------------------------------------------------
    # loading

    def insert(
        self, table: str, values: Sequence[SqlValue] | dict[str, SqlValue]
    ) -> tuple:
        """Insert one row (positional sequence or column mapping).

        Enforces, beyond the table-local constraints, every declared
        FOREIGN KEY: a fully non-NULL referencing tuple must match an
        existing row of the referenced table (rows with any NULL
        component are exempt, per SQL's simple match rule).
        """
        data = self.table(table)
        if isinstance(values, dict):
            row = data.insert_mapping(
                {key.upper(): value for key, value in values.items()}
            )
        else:
            row = data.insert(values)
        try:
            self._check_foreign_keys(data.schema, row)
        except ConstraintViolation:
            data.remove_last()
            raise
        return row

    def load(self, table: str, rows: Iterable[Sequence[SqlValue]]) -> int:
        """Bulk insert; returns the number of rows loaded."""
        count = 0
        for row in rows:
            self.insert(table, row)
            count += 1
        return count

    def _check_foreign_keys(self, schema: TableSchema, row: tuple) -> None:
        from ..types.values import is_null, row_sort_key

        for fk in schema.foreign_keys:
            if not self.has_table(fk.ref_table):
                continue  # unresolvable reference: treat as unenforced
            values = tuple(
                row[schema.column_index(column)] for column in fk.columns
            )
            if any(is_null(value) for value in values):
                continue  # simple match: NULL components exempt the row
            parent = self.table(fk.ref_table)
            ref_columns = fk.referenced_columns(parent.schema)
            if ref_columns is None:
                continue
            found = parent.has_key_value(ref_columns, values)
            if found is None:  # not a declared key: fall back to a scan
                indices = [
                    parent.schema.column_index(column)
                    for column in ref_columns
                ]
                wanted = row_sort_key(values)
                found = any(
                    row_sort_key(tuple(existing[i] for i in indices)) == wanted
                    for existing in parent.rows
                )
            if not found:
                raise ConstraintViolation(
                    schema.name,
                    f"{fk.describe()} has no matching row in {fk.ref_table}",
                )

    def execute_insert(self, statement: Insert) -> int:
        """Run a parsed INSERT ... VALUES statement."""
        count = 0
        for row in statement.rows:
            if statement.columns is None:
                self.insert(statement.table, row)
            else:
                mapping = {
                    name.upper(): value
                    for name, value in zip(statement.columns, row)
                }
                self.insert(statement.table, mapping)
            count += 1
        return count

    def run_script(self, script: str) -> None:
        """Execute a script of CREATE TABLE / INSERT statements."""
        for statement in parse_script(script):
            if isinstance(statement, CreateTable):
                schema = self.catalog.execute_ddl(statement)
                self._data[schema.name] = TableData(schema)
            elif isinstance(statement, Insert):
                self.execute_insert(statement)
            else:
                raise UnknownTableError(
                    "queries are not allowed in run_script; use execute()"
                )

    @classmethod
    def from_script(cls, script: str) -> "Database":
        """Build a populated database from a DDL+INSERT script."""
        database = cls()
        database.run_script(script)
        return database

    # ------------------------------------------------------------------

    def fingerprint(self) -> tuple[tuple[int, int], int]:
        """Hashable token covering schema *and* data versions.

        Cache keys built on this are invalidated by any DDL (the catalog
        fingerprint moves) and by any row mutation (per-table data
        versions only ever grow, so their sum is monotonic and cannot
        alias an earlier state).
        """
        return (
            self.catalog.fingerprint(),
            sum(data.version for data in self._data.values()),
        )

    def table_versions(self, names: Iterable[str]) -> tuple:
        """``(name, data version)`` pairs for *names*, sorted — the
        scoped cache key: a commit bumps only touched tables, so keys
        built on a query's referenced tables survive writes elsewhere.

        Raises:
            UnknownTableError: when any name is not stored.
        """
        data = self._data
        names = sorted(set(map(str.upper, names)))
        try:
            return tuple([(name, data[name].version) for name in names])
        except KeyError as missing:
            raise UnknownTableError(missing.args[0]) from None

    def row_counts(self) -> dict[str, int]:
        """Stored row count per table."""
        return {name: len(self._data[name]) for name in sorted(self._data)}

    def analyze(self, **kwargs):
        """ANALYZE: collect table statistics and attach them.

        Returns the fresh :class:`repro.stats.StatisticsCatalog` (also
        stored on :attr:`statistics` for the estimator to find).
        Keyword arguments pass through to
        :func:`repro.stats.collect_statistics` (``buckets``,
        ``distinct_threshold``).
        """
        from ..stats import collect_statistics  # deferred: stats imports engine

        self.statistics = collect_statistics(self, **kwargs)
        return self.statistics
