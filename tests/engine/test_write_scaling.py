"""Key enforcement does the same work on a 10-row and a 10 000-row table.

Counts, not clocks: spies on ``TableData._key_tuple`` (every canonical
key tuple the write path computes) and ``Snapshot.sees`` (every
visibility check) bracket one write, and the counts must not depend on
how many rows the table — or, for a FOREIGN KEY, the parent table —
already holds.  Before PR 15 each of these grew linearly: a transaction
rebuilt every key set from a scan of all visible versions on its first
write, a FOREIGN KEY check inside a transaction materialised the
parent's whole row list, and every statement's savepoint copied the
transaction's buffers.
"""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.engine.dml import execute_dml
from repro.engine.table_data import TableData
from repro.engine.txn import Snapshot, Transaction
from repro.errors import ConstraintViolation, UniquenessViolationError
from repro.sql.parser import parse

SIZES = (10, 10_000)

DDL = """
CREATE TABLE P (K INT NOT NULL, V INT, U INT, PRIMARY KEY (K), UNIQUE (U));
CREATE TABLE C (
  ID INT NOT NULL, FK INT,
  PRIMARY KEY (ID),
  FOREIGN KEY (FK) REFERENCES P (K));
"""


def _db(rows: int) -> Database:
    db = Database.from_script(DDL)
    db.load("P", ((k, k, k) for k in range(rows)))
    return db


class _Counts:
    def __init__(self) -> None:
        self.key_tuples = 0
        self.sees = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.key_tuples, self.sees)


@pytest.fixture()
def counts(monkeypatch):
    tally = _Counts()
    key_tuple, sees = TableData._key_tuple, Snapshot.sees

    def counting_key_tuple(self, columns, row):
        tally.key_tuples += 1
        return key_tuple(self, columns, row)

    def counting_sees(self, version):
        tally.sees += 1
        return sees(self, version)

    monkeypatch.setattr(TableData, "_key_tuple", counting_key_tuple)
    monkeypatch.setattr(Snapshot, "sees", counting_sees)
    return tally


def _work(counts, action) -> tuple[int, int]:
    before = counts.snapshot()
    action()
    after = counts.snapshot()
    return (after[0] - before[0], after[1] - before[1])


def test_autocommit_insert_probes_do_not_grow_with_the_table(counts):
    def insert(db, rows):
        def action():
            txn = db.begin()
            execute_dml(parse(f"INSERT INTO P VALUES ({rows}, 0, {rows})"), txn)
            txn.commit()

        return _work(counts, action)

    small, large = (insert(_db(rows), rows) for rows in SIZES)
    assert small == large
    # Two candidate keys: a tuple each at statement time, at commit and
    # when the new version is chained; nothing was there to be seen.
    assert small == (6, 0)


def test_refused_insert_probes_do_not_grow_with_the_table(counts):
    def insert(db):
        def action():
            txn = db.begin()
            with pytest.raises(UniquenessViolationError):
                execute_dml(parse("INSERT INTO P VALUES (3, 0, 77777)"), txn)
            txn.rollback()

        return _work(counts, action)

    small, large = (insert(_db(rows)) for rows in SIZES)
    assert small == large
    assert small[1] == 1  # the one version holding key 3 was looked at


def test_update_by_key_checks_its_key_in_constant_work(counts):
    """The WHERE scan of UPDATE is O(table) by design (it is not this
    PR's subject), so the spy brackets what follows it: deleting the
    matched version and re-inserting the replacement."""

    def update(db):
        txn = db.begin()
        (version,) = [v for v in txn.visible_versions("P") if v.row[0] == 3]

        def action():
            txn.delete_version("P", version)
            txn.insert_row("P", (3, 99, 3))
            txn.commit()

        return _work(counts, action)

    small, large = (update(_db(rows)) for rows in SIZES)
    assert small == large
    # Both keys are found on the version being replaced: one visibility
    # check each, no scan.
    assert small[1] == 2


def test_update_statement_computes_no_key_tuple_per_table_row(counts):
    def update(db):
        def action():
            txn = db.begin()
            execute_dml(parse("UPDATE P SET V = 7 WHERE K = 3"), txn)
            txn.commit()

        return _work(counts, action)[0]

    small, large = (update(_db(rows)) for rows in SIZES)
    assert small == large


def test_fk_child_insert_probes_the_parent_key(counts):
    def insert(db):
        txn = db.begin()
        work = _work(counts, lambda: txn.insert_row("C", (1, 3)))
        # The parent's transactional row list was never materialised.
        assert txn.view().table("P")._rows is None
        with pytest.raises(ConstraintViolation):
            txn.insert_row("C", (2, 77777))
        assert txn.view().table("P")._rows is None
        txn.commit()
        return work

    small, large = (insert(_db(rows)) for rows in SIZES)
    assert small == large
    assert small[1] == 1


def test_fk_probe_sees_the_transactions_own_parent_writes():
    db = _db(10)
    txn = db.begin()
    txn.insert_row("P", (50, 0, 50))
    txn.insert_row("C", (1, 50))  # parent row is this transaction's own
    (version,) = [v for v in txn.visible_versions("P") if v.row[0] == 3]
    txn.delete_version("P", version)
    with pytest.raises(ConstraintViolation):
        txn.insert_row("C", (2, 3))  # parent row deleted by this transaction
    txn.commit()
    assert sorted(db.table("C").rows) == [(1, 50)]


def _container_items(value) -> int:
    """Elements reachable through builtin containers: what a copy costs."""
    if isinstance(value, dict):
        return len(value) + sum(
            _container_items(k) + _container_items(v) for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return len(value) + sum(_container_items(item) for item in value)
    return 0


def test_savepoint_copies_nothing_that_grows_with_the_transaction(counts):
    failing = parse("INSERT INTO P VALUES (5000, 0, 5000), (5001, 0, 100)")

    def savepoint_cost(writes: int) -> tuple[int, int]:
        txn = _db(10).begin()
        for k in range(100, 100 + writes):
            txn.insert_row("P", (k, 0, k))
        state = txn.savepoint()
        before = txn.change_count

        def failing_statement():
            # Its second row repeats U = 100: restore undoes the first.
            with pytest.raises(UniquenessViolationError):
                execute_dml(failing, txn)

        restore_work = _work(counts, failing_statement)[0]
        assert txn.change_count > before  # caches keyed on it must move
        assert len(txn.pending_inserts("P")) == writes
        txn.rollback()
        return (_container_items(state), restore_work)

    assert savepoint_cost(10) == savepoint_cost(1_000)


def test_nested_savepoints_unwind_to_their_own_marks():
    db = _db(10)
    txn: Transaction = db.begin()
    txn.insert_row("P", (100, 0, 100))
    outer = txn.savepoint()
    txn.insert_row("P", (101, 0, 101))
    inner = txn.savepoint()
    (version,) = [v for v in txn.visible_versions("P") if v.row[0] == 3]
    txn.delete_version("P", version)
    txn.delete_pending_insert("P", (100, 0, 100))
    txn.restore(inner)
    assert txn.pending_inserts("P") == [(100, 0, 100), (101, 0, 101)]
    assert version in list(txn.visible_versions("P"))
    txn.restore(outer)
    assert txn.pending_inserts("P") == [(100, 0, 100)]
    txn.insert_row("P", (101, 0, 101))  # its keys were released
    txn.commit()
    assert len(db.table("P")) == 12
