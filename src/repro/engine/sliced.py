"""Read-only row-range views of a database for scatter-gather shards.

A cluster worker holds a full replica; scatter-gather asks each worker
to execute the *same* SQL over a contiguous slice of one driving
table's rows.  :class:`SlicedDatabase` is the mechanism: it wraps a
:class:`~repro.engine.database.Database` and serves
:class:`_SlicedTable` views for the named tables, so the whole
planner/executor stack (sequential scans, lazy hash indexes, columnar
batches, key probes) runs unmodified against the slice.

The wrapper is strictly read-only — slices exist for the duration of
one query and never accept writes — and its fingerprint extends the
base database's with the slice ranges, so fingerprint-keyed caches
(plans, analyses, strategies) can never alias a sliced execution with a
full one or with a differently-sliced one.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

from ..types.values import is_null, row_sort_key
from .columnar import ColumnBatch
from .database import Database
from .table_data import TableData


def _normalize_ranges(
    ranges: "Mapping[str, tuple[int, int]] | Iterable[tuple[str, int, int]]",
) -> dict[str, tuple[int, int]]:
    if isinstance(ranges, Mapping):
        items = [(name, start, stop) for name, (start, stop) in ranges.items()]
    else:
        items = [(name, start, stop) for name, start, stop in ranges]
    normalized: dict[str, tuple[int, int]] = {}
    for name, start, stop in items:
        key = name.upper()
        if key in normalized:
            raise ValueError(f"duplicate slice for table {key}")
        if start < 0 or stop < start:
            raise ValueError(f"invalid slice [{start}, {stop}) for table {key}")
        normalized[key] = (int(start), int(stop))
    return normalized


#: Cached views keyed (base id, ranges): a worker re-executes the same
#: slice for every scatter query it receives, so the view's lazy hash
#: indexes and columnar batches stay warm across queries.  The stored
#: fingerprint invalidates on any base mutation; entries hold a strong
#: reference to their view (and thereby the base), bounded by size.
_VIEW_CACHE_SIZE = 32
_view_cache: dict = {}
_cache_lock = threading.Lock()


class _SlicedTable:
    """Read-only view of ``base.rows[start:stop]``.

    Duck-types the :class:`TableData` read surface the executor uses
    (``rows``, hash indexes, columnar batches, key probes) while
    rejecting every mutation.  Indexes and columnar batches are built
    over the slice only — never borrowed from the base table, whose
    indexes cover rows outside the slice.
    """

    def __init__(self, base: TableData, start: int, stop: int) -> None:
        self.schema = base.schema
        self.rows: list[tuple] = base.rows[start:stop]
        self.slice_range = (start, stop)
        self.base_rows = len(base)
        self.version = base.version
        self.index_builds = 0
        self.single_flight_waits = 0
        self.columnar_builds = 0
        self._hash_indexes: dict[tuple[str, ...], dict[tuple, list[tuple]]] = {}
        self._columnar: dict[int, list[ColumnBatch]] = {}
        # Leaf lock: slice views are cached per (database, ranges), so
        # concurrent requests on the service's worker threads share one
        # slice and may build its lazy indexes at the same time.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        # Deliberately the BASE table's cardinality, not the slice's.
        # ``len(database.table(name))`` feeds only the cost model, and
        # cost-driven choices (hash-join build side) must be
        # replica-deterministic: every shard — and the front end's
        # classifier — has to produce the identical physical plan, or
        # shard output orders diverge and the scatter merge breaks.
        # Execution never takes this path; it iterates ``.rows``.
        return self.base_rows

    # -- read paths ----------------------------------------------------

    def indexable_columns(self) -> set[str]:
        columns: set[str] = set()
        for key in self.schema.candidate_keys:
            columns.update(key.columns)
        for fk in self.schema.foreign_keys:
            columns.update(fk.columns)
        return columns

    def hash_index(self, columns: tuple[str, ...]) -> dict[tuple, list[tuple]]:
        with self._lock:
            index = self._hash_indexes.get(columns)
            if index is None:
                positions = [
                    self.schema.column_index(name) for name in columns
                ]
                index = {}
                for row in self.rows:
                    key = row_sort_key(tuple(row[p] for p in positions))
                    index.setdefault(key, []).append(row)
                self._hash_indexes[columns] = index
                self.index_builds += 1
            return index

    def index_lookup(
        self, columns: tuple[str, ...], values: tuple
    ) -> list[tuple]:
        if any(is_null(value) for value in values):
            return []
        return self.hash_index(columns).get(row_sort_key(values), [])

    def has_hash_index(self, columns: tuple[str, ...]) -> bool:
        with self._lock:
            return columns in self._hash_indexes

    def column_batches(self, batch_rows: int) -> list[ColumnBatch]:
        with self._lock:
            batches = self._columnar.get(batch_rows)
            if batches is None:
                width = len(self.schema.columns)
                batches = [
                    ColumnBatch.from_rows(
                        self.rows[start:start + batch_rows], width
                    )
                    for start in range(0, len(self.rows), batch_rows)
                ]
                self._columnar[batch_rows] = batches
                self.columnar_builds += 1
            return batches

    def has_key_value(
        self, columns: tuple[str, ...], values: tuple
    ) -> bool | None:
        # A candidate key of the full table is still unique within the
        # slice, but absence from the slice does not mean absence from
        # the table — which is the semantics a scatter shard wants: it
        # answers for its rows only.
        for key in self.schema.candidate_keys:
            if key.columns == tuple(columns):
                wanted = row_sort_key(values)
                positions = [
                    self.schema.column_index(name) for name in key.columns
                ]
                return any(
                    row_sort_key(tuple(row[p] for p in positions)) == wanted
                    for row in self.rows
                )
        return None

    # -- writes are refused --------------------------------------------

    def _read_only(self, *_args, **_kwargs):
        raise TypeError(
            f"sliced view of {self.schema.name} is read-only"
        )

    insert = _read_only
    insert_mapping = _read_only
    extend = _read_only
    clear = _read_only
    remove_last = _read_only


class SlicedDatabase:
    """A database whose named tables are row-range slices of the base.

    ``ranges`` maps upper-cased table names to ``(start, stop)`` row
    ranges; every other table passes through to the base unchanged (so
    joins and subqueries against non-driving tables see full data).
    """

    def __init__(
        self,
        base: Database,
        ranges: Mapping[str, tuple[int, int]] | Iterable[tuple[str, int, int]],
    ) -> None:
        self._base = base
        self.catalog = base.catalog
        self._ranges = _normalize_ranges(ranges)
        self._slices: dict[str, _SlicedTable] = {}
        self._lock = threading.Lock()
        for name in self._ranges:
            base.table(name)  # raise UnknownTableError eagerly

    @classmethod
    def wrap(
        cls,
        database: Database,
        ranges: Mapping[str, tuple[int, int]] | Iterable[tuple[str, int, int]],
    ) -> "Database | SlicedDatabase":
        """Wrap *database*, passing it through when *ranges* is empty.

        Views are cached per (database, ranges, fingerprint): a shard
        worker executes a stream of queries over the same slice, and
        reusing the view keeps its lazily-built hash indexes and
        columnar batches warm.  The fingerprint in the key drops the
        cached view the moment the base data moves.
        """
        if not ranges:
            return database
        if isinstance(database, SlicedDatabase):
            raise TypeError("cannot slice an already-sliced database")
        normalized = _normalize_ranges(ranges)
        key = (id(database), tuple(sorted(normalized.items())))
        stamp = database.fingerprint()
        with _cache_lock:
            cached = _view_cache.get(key)
            if cached is not None and cached[0] == stamp:
                return cached[1]
        view = cls(database, normalized)
        with _cache_lock:
            _view_cache[key] = (stamp, view)
            while len(_view_cache) > _VIEW_CACHE_SIZE:
                _view_cache.pop(next(iter(_view_cache)))
        return view

    @property
    def ranges(self) -> dict[str, tuple[int, int]]:
        return dict(self._ranges)

    # -- Database read surface -----------------------------------------

    def table(self, name: str) -> TableData | _SlicedTable:
        key = name.upper()
        window = self._ranges.get(key)
        if window is None:
            return self._base.table(name)
        with self._lock:
            view = self._slices.get(key)
            if view is None:
                view = _SlicedTable(self._base.table(key), *window)
                self._slices[key] = view
            return view

    def has_table(self, name: str) -> bool:
        return self._base.has_table(name)

    def table_names(self) -> list[str]:
        return self._base.table_names()

    def fingerprint(self) -> tuple:
        base = self._base.fingerprint()
        ranges = tuple(sorted(self._ranges.items()))
        return (base, ("sliced", ranges))

    def row_counts(self) -> dict[str, int]:
        """Actual stored counts — slice sizes for sliced tables (unlike
        ``len(table)``, which reports planning cardinality)."""
        counts = {}
        for name in self._base.table_names():
            view = self.table(name)
            counts[name] = len(view.rows) if name in self._ranges else len(view)
        return counts

    # -- writes are refused --------------------------------------------

    def _read_only(self, *_args, **_kwargs):
        raise TypeError("sliced database views are read-only")

    insert = _read_only
    load = _read_only
    create_table = _read_only
    execute_insert = _read_only
    run_script = _read_only

    def __getattr__(self, name: str):
        raise AttributeError(
            f"SlicedDatabase does not expose {name!r}; "
            "slices support the read-side Database surface only"
        )
