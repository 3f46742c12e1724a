"""Stored base tables with constraint enforcement.

Inserts validate, in order: column count and NOT NULL, CHECK constraints
(true-interpretation: a check passes when its condition is true *or
unknown*), and key uniqueness under the ≐ semantics the paper adopts
from SQL2 — a UNIQUE candidate key treats NULL as a single special
value, so at most one row may carry any given (possibly NULL) key.

Every table also keeps a per-column *type census*
(:attr:`TableData.census`): the Python value types ever stored in each
column, NULL's type included.  It grows before a row becomes visible to
any reader — at load, and when a transaction buffers a write — and it
never shrinks (a rolled-back write may leave it larger, which is safe).
A reader that takes the census *after* its row list therefore holds a
census that covers every row of that list: the generated kernels read
it to drop per-row guards the stored types cannot trip.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Collection, Iterable, Sequence

from ..catalog.table import TableSchema
from ..errors import ConstraintViolation, UniquenessViolationError
from ..resilience.faults import FAULTS, SITE_INDEX_BUILD
from ..types.values import (
    NULL,
    SqlValue,
    format_value,
    is_null,
    key_extractor,
    row_sort_key,
)
from .schema import RelSchema, Scope
from .txn import RowVersion

if TYPE_CHECKING:  # pragma: no cover
    from .evaluator import Evaluator


class TableData:
    """Row storage for one base table."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.rows: list[tuple] = []
        #: MVCC row versions, append-only plus xmax stamping under the
        #: transaction manager's commit lock.  ``rows`` is always the
        #: materialization of the live versions (``xmax is None``), so
        #: the read fast path never pays a visibility check.
        self.versions: list[RowVersion] = []
        #: The declared candidate keys, resolved once (the schema is
        #: immutable once registered); key number *slot* everywhere
        #: below is a position in this tuple.
        self.keys = tuple(schema.candidate_keys)
        # One uniqueness index per declared key: canonical key tuple ->
        # the versions carrying it, newest last.  A key with a single
        # version maps to that version itself (no list per row); a dead
        # version stays exactly as long as it stays in ``versions``.
        self._key_indexes: list[dict[tuple, RowVersion | list[RowVersion]]] = [
            {} for _ in self.keys
        ]
        # Column tuple -> row positions, resolved on first use.
        self._positions: dict[tuple[str, ...], tuple[int, ...]] = {}
        # General hash indexes, built lazily per column tuple and then
        # maintained incrementally: canonical key -> rows in insertion
        # order (non-unique columns map to multi-row buckets).  Loading
        # (insert/remove_last/clear) edits them in place; a commit
        # replaces each with a patched copy (``_patched``).
        self._hash_indexes: dict[tuple[str, ...], dict[tuple, list[tuple]]] = {}
        # Single-flight build coordination: the lock guards the index
        # and in-flight dictionaries (bookkeeping only — the O(n) build
        # itself runs outside it), and one Event per in-flight column
        # tuple parks the waiters.  Leaf lock: nothing else is acquired
        # while it is held.
        self._index_lock = threading.Lock()
        self._builds_in_flight: dict[tuple[str, ...], threading.Event] = {}
        #: O(n) hash-index builds actually performed (the concurrency
        #: stress test asserts N racing sessions cause exactly one).
        self.index_builds = 0
        #: Times a session parked on another session's in-flight build.
        self.single_flight_waits = 0
        #: Monotonic data version; bumped by every mutation so cached
        #: artifacts keyed on a database fingerprint go stale correctly.
        self.version = 0
        #: The type census: per column, the frozenset of value types ever
        #: stored there.  Replaced whole when it grows (:meth:`widen`),
        #: so a reader holding one holds a fixed set.
        self.census: tuple[frozenset[type], ...] = tuple(
            frozenset() for _ in schema.columns
        )

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    # hash indexes (equality access paths)

    def hash_index(self, columns: tuple[str, ...]) -> dict[tuple, list[tuple]]:
        """The hash index over *columns*, built on first use.

        The build is a single O(n) pass; afterwards the index is
        maintained incrementally by loading and commits, so repeated
        probes (a correlated subquery per outer row, a templated query
        per batch item) amortize it away.

        Builds are *single-flight*: when N sessions race to probe the
        same cold index, exactly one performs the O(n) pass while the
        others park on an event and reuse the result.  If the builder
        fails (e.g. an injected ``index_build`` fault), one parked
        waiter is promoted to builder and retries, so a transient build
        failure never wedges the other sessions — and a persistent one
        surfaces in every session exactly as it would serially.
        """
        index = self._hash_indexes.get(columns)
        if index is not None:
            return index
        while True:
            with self._index_lock:
                index = self._hash_indexes.get(columns)
                if index is not None:
                    return index
                event = self._builds_in_flight.get(columns)
                if event is None:
                    event = threading.Event()
                    self._builds_in_flight[columns] = event
                    building = True
                else:
                    self.single_flight_waits += 1
                    building = False
            if not building:
                event.wait()
                continue  # re-check: the builder stored it, or failed
            try:
                if FAULTS.armed:
                    FAULTS.check(SITE_INDEX_BUILD)
                while True:
                    rows = self.rows
                    index = self.build_index(columns, rows)
                    with self._index_lock:
                        # A commit publishes its rows under this lock: an
                        # index built from replaced rows is built again.
                        if rows is self.rows:
                            self._hash_indexes[columns] = index
                            self.index_builds += 1
                            return index
            finally:
                with self._index_lock:
                    self._builds_in_flight.pop(columns, None)
                event.set()

    def build_index(
        self, columns: tuple[str, ...], rows: Iterable[tuple]
    ) -> dict[tuple, list[tuple]]:
        """*rows* by their canonical key over *columns* (``row_sort_key``
        of those values, NULL included), each bucket in row order — the
        one build loop of every hash index, this table's and a
        transaction's view of it."""
        key = key_extractor(
            [self.schema.column_index(name) for name in columns],
            [True] * len(columns),
        )
        index: dict[tuple, list[tuple]] = {}
        for row in rows:
            k = key(row)
            bucket = index.get(k)
            if bucket is None:
                index[k] = [row]
            else:
                bucket.append(row)
        return index

    def index_lookup(
        self, columns: tuple[str, ...], values: tuple
    ) -> list[tuple]:
        """Rows whose *columns* equal *values*, via the hash index.

        NULL probe values return no rows: a WHERE-clause equality with
        NULL is never TRUE (callers relying on ≐ must test separately).
        """
        if any(is_null(value) for value in values):
            return []
        return self.hash_index(columns).get(row_sort_key(values), [])

    def has_hash_index(self, columns: tuple[str, ...]) -> bool:
        """Whether an index over *columns* has been materialized."""
        return columns in self._hash_indexes

    # ------------------------------------------------------------------
    # loading

    def insert(
        self,
        values: Sequence[SqlValue],
        evaluator: "Evaluator | None" = None,
        enforce: bool = True,
    ) -> tuple:
        """Insert one row given positionally, validating constraints.

        Pass ``enforce=False`` to bypass validation (used by tests that
        deliberately construct invalid instances).
        """
        row = tuple(values)
        if len(row) != len(self.schema.columns):
            raise ConstraintViolation(
                self.schema.name,
                f"expected {len(self.schema.columns)} values, got {len(row)}",
            )
        if enforce:
            self._check_not_null(row)
            self._check_conditions(row, evaluator)
            self._check_keys(row)
        self.widen(row)
        self.rows.append(row)
        version = RowVersion(row)
        self.versions.append(version)
        self._index_version(version)
        return row

    def insert_mapping(
        self,
        values: dict[str, SqlValue],
        evaluator: "Evaluator | None" = None,
        enforce: bool = True,
    ) -> tuple:
        """Insert one row given as a column->value mapping.

        Missing columns receive NULL.
        """
        row = tuple(
            values.get(column.name, NULL) for column in self.schema.columns
        )
        unknown = set(values) - {column.name for column in self.schema.columns}
        if unknown:
            raise ConstraintViolation(
                self.schema.name, f"unknown columns: {sorted(unknown)}"
            )
        return self.insert(row, evaluator, enforce)

    def extend(
        self,
        rows: Iterable[Sequence[SqlValue]],
        evaluator: "Evaluator | None" = None,
        enforce: bool = True,
    ) -> int:
        """Insert many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row, evaluator, enforce)
            count += 1
        return count

    def widen(self, row: tuple) -> None:
        """Grow :attr:`census` by the value types of *row*; call it
        before *row* becomes visible to any reader.

        A row of known types costs one C-level pass; a new type replaces
        the census under the index lock, so two writers widening at once
        both land.
        """
        if all(map(frozenset.__contains__, self.census, map(type, row))):
            return
        with self._index_lock:
            self.census = tuple(
                seen | {type(value)} for seen, value in zip(self.census, row)
            )

    def clear(self) -> None:
        """Delete every row (and reset the key and hash indexes)."""
        self.rows.clear()
        self.versions.clear()
        for index in self._key_indexes:
            index.clear()
        with self._index_lock:
            for hash_index in self._hash_indexes.values():
                hash_index.clear()
        self.version += 1

    def has_key_value(
        self, columns: tuple[str, ...], values: tuple
    ) -> bool | None:
        """Index-accelerated lookup: does a row carry *values* in *columns*?

        Returns None when *columns* is not a declared candidate key (the
        caller must fall back to a scan).
        """
        slot = self.key_slot(columns)
        if slot is None:
            return None
        return self.key_live(slot, row_sort_key(values))

    def remove_last(self) -> tuple:
        """Undo the most recent insert (row and all index entries)."""
        row = self.rows.pop()
        if self.versions and self.versions[-1].row is row:
            self.versions.pop()
        for index, kt in zip(self._key_indexes, self.key_tuples(row)):
            entry = index.get(kt)
            if type(entry) is list and len(entry) > 1:
                entry.pop()
            else:
                index.pop(kt, None)
        with self._index_lock:
            for columns, hash_index in self._hash_indexes.items():
                key = self._key_tuple(columns, row)
                bucket = hash_index.get(key)
                if bucket:
                    bucket.pop()
                    if not bucket:
                        del hash_index[key]
        self.version += 1
        return row

    # ------------------------------------------------------------------
    # MVCC commit apply

    def apply_writes(
        self,
        deletes: Collection["RowVersion"],
        inserts: Sequence[tuple],
        xid: int,
    ) -> None:
        """Publish one transaction's writes to this table as a batch.

        Runs under the transaction manager's commit lock.  Deleted
        versions get their ``xmax`` stamp, inserted rows become live
        versions stamped ``xmin=xid``, and the committed row list is
        rebuilt and swapped in one reference assignment — a concurrent
        reader sees the whole commit or none of it.  Each hash index is
        replaced by a patched copy the same way, published with the rows
        under the index lock.  Key and hash indexes are maintained as one
        deferred batch (never touched at statement time; a deleted
        version stays in its key chain, its ``xmax`` stamp is what says
        the key is free), and the data version bumps exactly once, which
        is what keeps invalidation scoped to touched tables.
        """
        for version in deletes:
            version.xmax = xid
        if deletes:
            new_rows = [v.row for v in self.versions if v.xmax is None]
        else:
            new_rows = list(self.rows)
        fresh = [RowVersion(tuple(row), xmin=xid) for row in inserts]
        self.versions.extend(fresh)
        new_rows.extend(version.row for version in fresh)
        # Batched index maintenance: one pass over the write set.
        for version in fresh:
            self._chain_version(version)
        with self._index_lock:
            for columns, hash_index in self._hash_indexes.items():
                self._hash_indexes[columns] = self._patched(
                    columns, hash_index, deletes, fresh
                )
            self.rows = new_rows
        self.version += 1

    def _patched(
        self,
        columns: tuple[str, ...],
        index: dict[tuple, list[tuple]],
        deletes: Collection[RowVersion],
        fresh: Sequence[RowVersion],
    ) -> dict[tuple, list[tuple]]:
        """A copy of *index* with one commit's writes applied.

        A published index and its buckets are never edited by a commit,
        so a reader holding them (an index join's probes, an
        ``IndexScan``) sees one commit throughout, as it does holding
        :attr:`rows`.  The copy is O(keys), the order of the row list
        rebuilt beside it.
        """
        changed: dict[tuple, list[tuple]] = {}

        def bucket(row: tuple) -> list[tuple]:
            key = self._key_tuple(columns, row)
            found = changed.get(key)
            if found is None:
                found = changed[key] = list(index.get(key, ()))
            return found

        for version in deletes:
            rows = bucket(version.row)
            if version.row in rows:
                rows.remove(version.row)
        for version in fresh:
            bucket(version.row).append(version.row)
        index = index.copy()
        index.update(changed)
        for key, rows in changed.items():
            if not rows:
                del index[key]
        return index

    # ------------------------------------------------------------------
    # validation

    def validate_row(
        self, row: tuple, evaluator: "Evaluator | None" = None
    ) -> None:
        """Row-local validation (count, NOT NULL, CHECK) without any
        uniqueness check — transactions check keys against their own
        view instead of the shared indexes."""
        if len(row) != len(self.schema.columns):
            raise ConstraintViolation(
                self.schema.name,
                f"expected {len(self.schema.columns)} values, got {len(row)}",
            )
        self._check_not_null(row)
        self._check_conditions(row, evaluator)

    def _check_not_null(self, row: tuple) -> None:
        for column, value in zip(self.schema.columns, row):
            if not column.nullable and is_null(value):
                raise ConstraintViolation(
                    self.schema.name, f"column {column.name} is NOT NULL"
                )

    def _check_conditions(self, row: tuple, evaluator: "Evaluator | None") -> None:
        if not self.schema.checks:
            return
        if evaluator is None:
            from .evaluator import Evaluator  # local import breaks the cycle

            evaluator = Evaluator()
        schema = RelSchema.for_table(self.schema.name, self.schema.column_names)
        scope = Scope(schema, row)
        for check in self.schema.checks:
            verdict = evaluator.predicate(check.condition, scope)
            # SQL2: a CHECK is violated only when definitely false.
            if not verdict.true_interpreted():
                raise ConstraintViolation(
                    self.schema.name,
                    f"{check.describe()} fails for row "
                    f"({', '.join(format_value(v) for v in row)})",
                )

    def _check_keys(self, row: tuple) -> None:
        for slot, kt in enumerate(self.key_tuples(row)):
            if self.key_live(slot, kt):
                raise UniquenessViolationError(
                    self.schema.name, self.keys[slot].describe()
                )

    # ------------------------------------------------------------------
    # candidate-key version index

    def key_slot(self, columns: Sequence[str]) -> int | None:
        """The number of the candidate key over exactly *columns*."""
        columns = tuple(columns)
        for slot, key in enumerate(self.keys):
            if key.columns == columns:
                return slot
        return None

    def key_tuples(self, row: tuple) -> list[tuple]:
        """The canonical key tuple of *row* under each candidate key."""
        return [self._key_tuple(key.columns, row) for key in self.keys]

    def key_chain(self, slot: int, kt: tuple) -> Iterable[RowVersion]:
        """Versions carrying *kt* in candidate key *slot*, newest first."""
        entry = self._key_indexes[slot].get(kt)
        if entry is None:
            return ()
        return reversed(entry) if type(entry) is list else (entry,)

    def key_holder(self, slot: int, kt: tuple) -> RowVersion | None:
        """The version holding *kt* in the latest committed state: only
        the newest version of a key can still be live."""
        entry = self._key_indexes[slot].get(kt)
        newest = entry[-1] if type(entry) is list else entry
        return None if newest is None or newest.xmax is not None else newest

    def key_live(self, slot: int, kt: tuple) -> bool:
        """Whether the latest committed state holds *kt*."""
        return self.key_holder(slot, kt) is not None

    def _chain_version(self, version: RowVersion) -> None:
        for index, kt in zip(self._key_indexes, self.key_tuples(version.row)):
            entry = index.get(kt)
            if entry is None:
                index[kt] = version
            elif type(entry) is list:
                entry.append(version)
            else:
                index[kt] = [entry, version]

    def _index_version(self, version: RowVersion) -> None:
        row = version.row
        self._chain_version(version)
        with self._index_lock:
            for columns, hash_index in self._hash_indexes.items():
                hash_index.setdefault(
                    self._key_tuple(columns, row), []
                ).append(row)
        self.version += 1

    def _key_tuple(self, columns: tuple[str, ...], row: tuple) -> tuple:
        positions = self._positions.get(columns)
        if positions is None:
            positions = self._positions[columns] = tuple(
                self.schema.column_index(name) for name in columns
            )
        # row_sort_key canonicalizes NULL so NULL keys collide, matching
        # SQL2's treatment of NULL as a single special key value.
        return row_sort_key(tuple(row[p] for p in positions))
