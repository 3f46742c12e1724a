"""MVCC transactions: snapshot isolation over versioned rows.

Every stored row carries a :class:`RowVersion` with ``(xmin, xmax)``
transaction stamps.  A :class:`TransactionManager` (one per
:class:`~repro.engine.database.Database`) issues monotonic transaction
ids and hands out :class:`Snapshot`\\ s — the high-water id plus the set
of transactions still active at begin.  A version is visible to a
snapshot when its inserter committed before the snapshot and its
deleter (if any) did not.

Writes never touch shared state until commit: each
:class:`Transaction` buffers inserted rows and to-be-deleted version
references per table, so rollback is simply dropping the buffers —
nothing to undo, nothing for a reader to ever glimpse.  Candidate keys
are enforced at buffer time by a point probe
(:meth:`Transaction.holds_key`): the table's per-key version index
answers for the snapshot, a transaction-local overlay for the
transaction's own pending inserts — one hash probe per candidate key
per row, for any table size and any snapshot age.  Commit runs under
the manager's single commit lock:

1. the ``wal_commit`` fault site fires *first* (an injected failure
   aborts cleanly — shared state has not moved);
2. first-committer-wins: any delete target already stamped with an
   ``xmax`` means a concurrent transaction committed a conflicting
   change → :class:`~repro.errors.WriteConflictError`;
3. candidate keys are re-validated against the *latest committed*
   state (a key inserted by a transaction that committed after our
   snapshot was invisible to the statement-time check) →
   :class:`~repro.errors.UniquenessViolationError`;
4. the buffered writes apply atomically per table — versions stamped,
   the committed row list swapped copy-on-write, hash/key indexes
   maintained as one batch — and only the *touched* tables bump their
   data versions.

That last point is the incremental-invalidation contract: fingerprints
of untouched tables do not move, so plan-cache / uniqueness-memo /
statistics / correction entries scoped to them survive the commit.
The counters ``invalidation_scoped_total`` (table versions actually
bumped) and ``invalidation_total`` (what a whole-database invalidation
would have bumped) make the precision measurable.

Readers inside a transaction see the database through a
:class:`TransactionView` — the begin snapshot plus the transaction's
own buffered writes — and never block.  Statements outside any
transaction read the latest committed state directly (the commit swap
is atomic per table), and DML outside a transaction runs in an
implicit single-statement transaction.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable, Sequence

from ..errors import (
    TransactionError,
    UniquenessViolationError,
    WriteConflictError,
)
from ..observe.metrics import PROCESS_METRICS
from ..observe.trace import TRACER
from ..resilience.faults import FAULTS, SITE_WAL_COMMIT
from ..types.values import SqlValue, is_null, row_sort_key
from .columnar import batches_from_rows

if TYPE_CHECKING:  # pragma: no cover
    from .database import Database
    from .table_data import TableData


class RowVersion:
    """One physical row version: the tuple plus its (xmin, xmax) stamps.

    ``xmin`` is the id of the committing inserter (0 for bootstrap
    loads), ``xmax`` the id of the committing deleter or None while the
    version is live.  Stamps are only ever written under the manager's
    commit lock, so any non-None stamp belongs to a *committed*
    transaction.
    """

    __slots__ = ("row", "xmin", "xmax")

    def __init__(self, row: tuple, xmin: int = 0, xmax: int | None = None) -> None:
        self.row = row
        self.xmin = xmin
        self.xmax = xmax

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowVersion({self.row!r}, xmin={self.xmin}, xmax={self.xmax})"


class Snapshot:
    """What one transaction is allowed to see: everything committed
    before it began.

    Attributes:
        high: the highest transaction id issued at begin time; versions
            stamped by a later id are invisible.
        active: ids active (begun, not yet finished) at begin time;
            their effects are invisible even if they commit later.
    """

    __slots__ = ("high", "active")

    def __init__(self, high: int, active: frozenset[int]) -> None:
        self.high = high
        self.active = active

    def committed_before(self, xid: int) -> bool:
        """Whether transaction *xid* had committed when this snapshot
        was taken (0 stamps bootstrap loads, which every snapshot sees).
        Those transactions are a prefix of the commit order."""
        return not xid or (xid <= self.high and xid not in self.active)

    def sees(self, version: RowVersion) -> bool:
        """Visibility under snapshot isolation."""
        xmin = version.xmin
        if xmin and (xmin > self.high or xmin in self.active):
            return False  # inserter had not committed at our begin
        xmax = version.xmax
        if xmax is None:
            return True
        # Deleted — but the delete only hides the row if the deleter
        # committed before our snapshot.
        return xmax > self.high or xmax in self.active


class TransactionManager:
    """Issues transaction ids and serializes commits for one database."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._lock = threading.Lock()
        self._next_id = 1
        self._active: set[int] = set()
        #: Lifetime counters, exposed for observability and tests.
        self.begun = 0
        self.committed = 0
        self.rolled_back = 0
        self.conflicts = 0

    def begin(self) -> "Transaction":
        """Start a transaction pinned to a fresh snapshot."""
        with self._lock:
            xid = self._next_id
            self._next_id += 1
            snapshot = Snapshot(xid - 1, frozenset(self._active))
            self._active.add(xid)
            self.begun += 1
        return Transaction(self._database, self, xid, snapshot)

    def _finish(self, xid: int, committed: bool) -> None:
        with self._lock:
            self._active.discard(xid)
            if committed:
                self.committed += 1
            else:
                self.rolled_back += 1

    def snapshot(self) -> dict:
        """Introspection: counters plus currently active transactions."""
        with self._lock:
            return {
                "active": sorted(self._active),
                "begun": self.begun,
                "committed": self.committed,
                "rolled_back": self.rolled_back,
                "conflicts": self.conflicts,
            }


class Transaction:
    """One transaction: a snapshot plus buffered, uncommitted writes.

    Not thread-safe — a transaction belongs to one session.  Writes go
    through :meth:`insert_row` / :meth:`delete_version`; the DML
    executor drives them.  ``change_count`` bumps on every buffered
    write so the :class:`TransactionView` fingerprint (and thus every
    fingerprint-keyed cache) tracks the transaction-local state.
    """

    def __init__(
        self,
        database: "Database",
        manager: TransactionManager,
        xid: int,
        snapshot: Snapshot,
    ) -> None:
        self.database = database
        self.manager = manager
        self.xid = xid
        self.snapshot = snapshot
        self.status = "active"
        self.change_count = 0
        self._inserts: dict[str, list[tuple]] = {}
        # Buffered deletes per table, ``id(version) -> version`` in
        # buffering order (the ids answer "have I deleted this one?").
        self._deletes: dict[str, dict[int, RowVersion]] = {}
        # The overlay of the online uniqueness check: per table, the
        # ``(key slot, key tuple)`` pairs of this transaction's pending
        # inserts.  Everything else the check needs is the table's
        # shared version index, so it is one probe per candidate key
        # whatever the table size or the snapshot's age.
        self._own_keys: dict[str, set[tuple[int, tuple]]] = {}
        # Chronological undo entries ``(table, version, row, position)``
        # of the buffered writes; a savepoint is a length of this list.
        self._undo: list[tuple] = []
        self._view: TransactionView | None = None

    # ------------------------------------------------------------------
    # state

    @property
    def active(self) -> bool:
        return self.status == "active"

    def _require_active(self, action: str) -> None:
        if not self.active:
            raise TransactionError(
                f"cannot {action}: transaction {self.xid} is {self.status}"
            )

    def touched_tables(self) -> list[str]:
        """Tables with buffered writes, sorted."""
        return sorted(
            name
            for name in set(self._inserts) | set(self._deletes)
            if self._inserts.get(name) or self._deletes.get(name)
        )

    def view(self) -> "TransactionView":
        """The database as this transaction sees it."""
        if self._view is None:
            self._view = TransactionView(self.database, self)
        return self._view

    # ------------------------------------------------------------------
    # buffered writes

    def visible_versions(self, table: str) -> Iterable[RowVersion]:
        """Shared versions visible to this transaction, own deletes
        excluded (own inserts are buffered, not versioned yet)."""
        data = self.database.table(table)
        deleted = self._deletes.get(data.schema.name, ())
        sees = self.snapshot.sees
        for version in data.versions:
            if id(version) not in deleted and sees(version):
                yield version

    def pending_inserts(self, table: str) -> list[tuple]:
        return self._inserts.get(table.upper(), [])

    def insert_row(self, table: str, values: Sequence[SqlValue]) -> tuple:
        """Buffer one row, enforcing constraints against the view.

        Validates column count, NOT NULL and CHECK constraints (row
        local, so the stored validators apply unchanged), candidate-key
        uniqueness against the transactional view (typed
        :class:`UniquenessViolationError`), and FOREIGN KEYs against
        the view.  The shared table is untouched until commit.
        """
        self._require_active("insert")
        data = self.database.table(table)
        name = data.schema.name
        row = tuple(values)
        data.validate_row(row)
        keys = list(enumerate(data.key_tuples(row)))
        for slot, kt in keys:
            if self.holds_key(data, slot, kt):
                raise UniquenessViolationError(name, data.keys[slot].describe())
        from .database import Database  # local import breaks the cycle

        Database._check_foreign_keys(self.view(), data.schema, row)
        self._inserts.setdefault(name, []).append(row)
        self._own_keys.setdefault(name, set()).update(keys)
        self._wrote(name, None, row, None)
        return row

    def delete_version(self, table: str, version: RowVersion) -> bool:
        """Buffer the delete of one visible version; False if already
        buffered (deleting a row twice in one transaction is a no-op)."""
        self._require_active("delete")
        data = self.database.table(table)
        name = data.schema.name
        deleted = self._deletes.setdefault(name, {})
        if id(version) in deleted:
            return False
        deleted[id(version)] = version
        self._wrote(name, version, None, None)
        return True

    def delete_pending_insert(self, table: str, row: tuple) -> bool:
        """Remove one occurrence of a row this transaction inserted
        (DELETE reaching the transaction's own uncommitted rows)."""
        self._require_active("delete")
        data = self.database.table(table)
        name = data.schema.name
        pending = self._inserts.get(name)
        if not pending or row not in pending:
            return False
        position = pending.index(row)
        del pending[position]
        self._own_keys[name].difference_update(enumerate(data.key_tuples(row)))
        self._wrote(name, None, row, position)
        return True

    def holds_key(self, data: "TableData", slot: int, kt: tuple) -> bool:
        """Whether this transaction's view holds a row carrying *kt* in
        candidate key *slot* of *data*: one of its own pending inserts
        does, or a version it sees and has not deleted.

        The key's versions are walked newest first and the walk ends at
        the first whose inserter the snapshot sees: a snapshot sees a
        prefix of the commit order, and every older version of the key
        was deleted no later than that one was inserted, so the
        snapshot sees those deletes too.
        """
        name = data.schema.name
        if (slot, kt) in self._own_keys.get(name, ()):
            return True
        snapshot = self.snapshot
        for version in data.key_chain(slot, kt):
            if snapshot.committed_before(version.xmin):
                return snapshot.sees(version) and (
                    id(version) not in self._deletes.get(name, ())
                )
        return False

    def _wrote(self, name: str, version, row, position) -> None:
        self._undo.append((name, version, row, position))
        self.change_count += 1
        self._invalidate_view(name)

    def _invalidate_view(self, table: str) -> None:
        if self._view is not None:
            self._view.invalidate(table)

    # ------------------------------------------------------------------
    # statement atomicity

    def savepoint(self) -> int:
        """A mark in the undo list, for statement rollback — O(1)."""
        return len(self._undo)

    def restore(self, mark: int) -> None:
        """Undo, newest first, every write buffered since *mark* (a
        failed statement leaves the transaction exactly as it found
        it) — work proportional to that statement's own writes."""
        undo = self._undo
        touched = set()
        while len(undo) > mark:
            name, version, row, position = undo.pop()
            touched.add(name)
            if version is not None:
                del self._deletes[name][id(version)]
                continue
            keys = enumerate(self.database.table(name).key_tuples(row))
            if position is None:  # a buffered insert: always the last one
                self._inserts[name].pop()
                self._own_keys[name].difference_update(keys)
            else:  # a pending insert that was deleted again
                self._inserts[name].insert(position, row)
                self._own_keys[name].update(keys)
        self.change_count += 1
        for name in touched:
            self._invalidate_view(name)

    # ------------------------------------------------------------------
    # lifecycle

    def rollback(self) -> None:
        """Discard every buffered write.  Always clean: shared state was
        never touched, so there is nothing to undo."""
        if self.status == "rolled back":
            return
        self._require_active("rollback")
        self._abort()

    def _abort(self) -> None:
        with self.manager._lock:
            self._abort_locked()

    def commit(self) -> list[str]:
        """Atomically publish the buffered writes; returns the touched
        tables.  On any failure — injected ``wal_commit`` fault,
        write-write conflict, commit-time key conflict — the
        transaction aborts and shared state is untouched."""
        self._require_active("commit")
        touched = self.touched_tables()
        if not touched:
            self.status = "committed"
            self.manager._finish(self.xid, committed=True)
            return []
        manager = self.manager
        with manager._lock:
            with TRACER.span(
                "txn.commit", xid=self.xid, tables=",".join(touched)
            ):
                try:
                    if FAULTS.armed:
                        FAULTS.check(SITE_WAL_COMMIT)
                    self._check_conflicts()
                    self._check_commit_keys()
                except Exception:
                    self._abort_locked()
                    raise
                for name in touched:
                    self.database.table(name).apply_writes(
                        self._deletes.get(name, {}).values(),
                        self._inserts.get(name, ()),
                        self.xid,
                    )
                self._active_discard_locked(committed=True)
        self.status = "committed"
        total = len(self.database.table_names())
        PROCESS_METRICS.inc("txn_commits_total")
        PROCESS_METRICS.inc("invalidation_scoped_total", float(len(touched)))
        PROCESS_METRICS.inc("invalidation_total", float(total))
        return touched

    def _abort_locked(self) -> None:
        """Abort while already holding the manager lock."""
        self._inserts.clear()
        self._deletes.clear()
        self._own_keys.clear()
        self._undo.clear()
        self.status = "rolled back"
        self._active_discard_locked(committed=False)
        PROCESS_METRICS.inc("txn_rollbacks_total")

    def _active_discard_locked(self, committed: bool) -> None:
        manager = self.manager
        manager._active.discard(self.xid)
        if committed:
            manager.committed += 1
        else:
            manager.rolled_back += 1

    def _check_conflicts(self) -> None:
        """First-committer-wins: a delete target with any xmax stamp was
        already superseded by a committed concurrent transaction."""
        for name, versions in self._deletes.items():
            for version in versions.values():
                if version.xmax is not None:
                    self.manager.conflicts += 1
                    PROCESS_METRICS.inc("txn_conflicts_total")
                    raise WriteConflictError(name)

    def _check_commit_keys(self) -> None:
        """Re-validate candidate keys against the *latest committed*
        state: keys committed after our snapshot were invisible to the
        statement-time check.  A key is taken when its newest version
        is live and is not one this transaction deletes."""
        for name, rows in self._inserts.items():
            data = self.database.table(name)
            deleted = self._deletes.get(name, ())
            for row in rows:
                for slot, kt in enumerate(data.key_tuples(row)):
                    holder = data.key_holder(slot, kt)
                    if holder is not None and id(holder) not in deleted:
                        self.manager.conflicts += 1
                        PROCESS_METRICS.inc("txn_conflicts_total")
                        raise UniquenessViolationError(
                            name,
                            data.keys[slot].describe(),
                            "committed concurrently",
                        )


# ---------------------------------------------------------------------------
# transactional read view


class _TxnTable:
    """One table as a transaction sees it.

    Duck-types the read surface of :class:`TableData` (``rows``,
    ``hash_index``/``index_lookup``, ``column_batches``, ``__len__``)
    over the snapshot-visible versions plus the transaction's own
    buffered writes.  Materializations are cached against the pair
    (base data version, transaction change count) and rebuilt when
    either moves.
    """

    def __init__(self, base: "TableData", txn: Transaction) -> None:
        self.base = base
        self.schema = base.schema
        self._txn = txn
        self._rows: list[tuple] | None = None
        self._stamp: tuple[int, int] | None = None
        self._hash_indexes: dict[tuple[str, ...], dict[tuple, list[tuple]]] = {}
        self._lock = threading.Lock()
        self.index_builds = 0
        self.single_flight_waits = 0
        self.columnar_builds = 0

    @property
    def version(self) -> tuple[int, int]:
        return (self.base.version, self._txn.change_count)

    def invalidate(self) -> None:
        self._rows = None
        self._hash_indexes.clear()

    @property
    def rows(self) -> list[tuple]:
        stamp = self.version
        if self._rows is None or self._stamp != stamp:
            name = self.schema.name
            rows = [
                version.row
                for version in self._txn.visible_versions(name)
            ]
            rows.extend(self._txn.pending_inserts(name))
            self._rows = rows
            self._stamp = stamp
            self._hash_indexes.clear()
        return self._rows

    def __len__(self) -> int:
        return len(self.rows)

    def indexable_columns(self) -> set[str]:
        return self.base.indexable_columns()

    def hash_index(self, columns: tuple[str, ...]) -> dict[tuple, list[tuple]]:
        rows = self.rows
        with self._lock:
            index = self._hash_indexes.get(columns)
            if index is None:
                positions = [
                    self.schema.column_index(name) for name in columns
                ]
                index = {}
                for row in rows:
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
        return columns in self._hash_indexes

    def has_key_value(
        self, columns: tuple[str, ...], values: tuple
    ) -> bool | None:
        """The same probe as the uniqueness check, for a declared key;
        None otherwise — callers fall back to a scan of :attr:`rows`,
        which is exactly the transactional view."""
        slot = self.base.key_slot(columns)
        if slot is None:
            return None
        return self._txn.holds_key(self.base, slot, row_sort_key(values))

    def column_batches(self, batch_rows: int):
        self.columnar_builds += 1
        return batches_from_rows(
            self.rows, len(self.schema.columns), batch_rows
        )


class TransactionView:
    """The database through a transaction's eyes.

    Duck-types the read surface of :class:`~repro.engine.database.Database`
    (catalog, ``table``/``has_table``/``table_names``, ``fingerprint``)
    so the whole read stack — planner, executor, both engines — runs
    unchanged against a pinned snapshot plus the transaction's own
    writes.  The fingerprint extends the base catalog fingerprint with
    the transaction id and change count, so fingerprint-keyed caches
    never alias transactional state with committed state (or with
    another transaction).
    """

    is_transaction_view = True

    def __init__(self, database: "Database", txn: Transaction) -> None:
        self.base = database
        self.txn = txn
        self.catalog = database.catalog
        self.statistics = None
        self._tables: dict[str, _TxnTable] = {}

    def table(self, name: str) -> _TxnTable:
        key = name.upper()
        view = self._tables.get(key)
        if view is None:
            view = _TxnTable(self.base.table(key), self.txn)
            self._tables[key] = view
        return view

    def invalidate(self, table: str) -> None:
        view = self._tables.get(table.upper())
        if view is not None:
            view.invalidate()

    def has_table(self, name: str) -> bool:
        return self.base.has_table(name)

    def table_names(self) -> list[str]:
        return self.base.table_names()

    def table_versions(self, names: Iterable[str]) -> tuple:
        return tuple(
            (name, self.table(name).version) for name in sorted(names)
        )

    def row_counts(self) -> dict[str, int]:
        return {name: len(self.table(name)) for name in self.table_names()}

    def fingerprint(self):
        base = self.base.fingerprint()
        return (
            base[0],
            base[1],
            ("txn", self.txn.xid, self.txn.change_count),
        )
