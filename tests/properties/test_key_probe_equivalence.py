"""Property: the key probe decides exactly what the key-set scan decided.

Hypothesis interleaves two or three transactions running real DML
statements over a table with two candidate keys — ``PRIMARY KEY (A)``
and a nullable ``UNIQUE (B)``, so NULL key components collide under ≐ —
and checks the probe against the scan it replaced
(``tests/engine/reference_key_sets.py``):

* at **every** ``insert_row`` — plain inserts, the re-insert half of an
  UPDATE, a delete-then-reinsert, a row of a multi-row INSERT whose
  later row fails — the probe's verdict for each candidate key equals
  the scan's, so a statement raises ``UniquenessViolationError`` exactly
  where it did before;
* after every statement, failed ones included, probe and scan agree
  for **every** key value in the domain, in every open transaction — a
  statement that fails mid-way leaves the transaction's buffers and
  its overlay as it found them (the undo-list savepoint);
* ``commit()`` raises what the scan says it must — nothing,
  ``WriteConflictError`` or ``UniquenessViolationError`` — including
  for snapshots taken several commits ago;
* committed candidate keys stay unique throughout.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.dml import execute_dml
from repro.engine.txn import Transaction
from repro.errors import UniquenessViolationError
from repro.sql.parser import parse
from repro.types.values import NULL, row_sort_key
from tests.engine.reference_key_sets import scan_commit_error, scan_key_sets

SLOTS = 3
A = st.integers(min_value=0, max_value=4)
B = st.one_of(st.none(), st.integers(min_value=0, max_value=3))


def _sql(value) -> str:
    return "NULL" if value is None else str(value)


STATEMENT = st.one_of(
    st.builds(
        lambda a, b: f"INSERT INTO T VALUES ({a}, {_sql(b)}, 1)", A, B
    ),
    # Two rows in one statement: when the second is refused the first
    # must be rewound too (a failing statement mid-transaction).
    st.builds(
        lambda a, b, a2, b2: "INSERT INTO T VALUES "
        f"({a}, {_sql(b)}, 2), ({a2}, {_sql(b2)}, 2)",
        A, B, A, B,
    ),
    st.builds(lambda a: f"DELETE FROM T WHERE A = {a}", A),
    st.builds(lambda a: f"UPDATE T SET V = 3 WHERE A = {a}", A),
    st.builds(lambda a, a2: f"UPDATE T SET A = {a2} WHERE A = {a}", A, A),
    st.builds(lambda a, b: f"UPDATE T SET B = {_sql(b)} WHERE A = {a}", A, B),
    # Several rows at once: every match is deleted before any re-insert.
    st.builds(lambda a: f"UPDATE T SET B = A WHERE A >= {a}", A),
)

STEP = st.tuples(
    st.integers(min_value=0, max_value=SLOTS - 1),
    st.one_of(STATEMENT, st.just("COMMIT"), st.just("ROLLBACK")),
)


def _fresh() -> Database:
    return Database.from_script(
        """
CREATE TABLE T (A INT NOT NULL, B INT, V INT, PRIMARY KEY (A), UNIQUE (B));
INSERT INTO T VALUES (0, 0, 0), (1, NULL, 0);
"""
    )


def _assert_committed_keys_unique(db: Database) -> None:
    rows = db.table("T").rows
    assert len({row[0] for row in rows}) == len(rows)
    assert len({repr(row[1]) for row in rows}) == len(rows)


@pytest.fixture()
def checked_writes(monkeypatch):
    """Route every buffered write through the oracle: ``insert_row``
    compares probe and scan first, ``delete_version`` records what each
    transaction deleted (the commit oracle's input)."""
    deleted: dict[int, list] = {}
    verdicts = []
    insert_row = Transaction.insert_row
    delete_version = Transaction.delete_version

    def checked_insert(self, table, values):
        data = self.database.table(table)
        scanned = scan_key_sets(self, data)
        for slot, kt in enumerate(data.key_tuples(tuple(values))):
            probed = self.holds_key(data, slot, kt)
            assert probed == (kt in scanned[slot]), (slot, kt, values)
            verdicts.append(probed)
        return insert_row(self, table, values)

    def recording_delete(self, table, version):
        done = delete_version(self, table, version)
        if done:
            deleted.setdefault(self.xid, []).append(version)
        return done

    monkeypatch.setattr(Transaction, "insert_row", checked_insert)
    monkeypatch.setattr(Transaction, "delete_version", recording_delete)
    return deleted, verdicts


def _assert_probe_matches_scan_everywhere(txn) -> None:
    """Probe and scan agree on every key value the schedules can use,
    not only the ones the last statement happened to insert."""
    data = txn.database.table("T")
    scanned = scan_key_sets(txn, data)
    for slot, domain in enumerate((range(5), [None, 0, 1, 2, 3, 4])):
        for value in domain:
            kt = row_sort_key((NULL if value is None else value,))
            assert txn.holds_key(data, slot, kt) == (kt in scanned[slot]), (
                slot, value,
            )


def _buffers(txn, deleted):
    return (
        list(txn.pending_inserts("T")),
        [id(version) for version in deleted.get(txn.xid, ())],
    )


def run_schedule(db, schedule, deleted):
    """Drive *schedule*; returns the trace of outcomes, one entry per
    step that did something (statement: affected count or error type;
    commit: error type or None)."""
    trace = []
    open_txns: dict[int, Transaction] = {}

    def finish(slot, action):
        txn = open_txns.pop(slot)
        if action == "ROLLBACK":
            txn.rollback()
            return "rolled back"
        expected = scan_commit_error(
            txn, {"T": deleted.get(txn.xid, [])}
        )
        try:
            txn.commit()
        except Exception as error:  # compared against the oracle below
            outcome = type(error)
        else:
            outcome = None
        assert outcome is expected, (outcome, expected)
        _assert_committed_keys_unique(db)
        return getattr(outcome, "__name__", None)

    for slot, action in schedule:
        if action in ("COMMIT", "ROLLBACK"):
            if slot in open_txns:
                trace.append((slot, action, finish(slot, action)))
            continue
        txn = open_txns.get(slot)
        if txn is None:
            txn = open_txns[slot] = db.begin()
        before = _buffers(txn, deleted)
        mark = len(before[1])
        try:
            outcome = execute_dml(parse(action), txn)
        except UniquenessViolationError:
            # Statement atomicity: nothing of the failed statement stays.
            del deleted.get(txn.xid, [])[mark:]
            assert _buffers(txn, deleted) == before
            assert set(txn._deletes.get("T", ())) == set(before[1])
            outcome = "UniquenessViolationError"
        trace.append((slot, action, outcome))
        for other in open_txns.values():
            _assert_probe_matches_scan_everywhere(other)
    for slot in sorted(open_txns):
        trace.append((slot, "COMMIT", finish(slot, "COMMIT")))
    return trace


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(schedule=st.lists(STEP, min_size=1, max_size=40))
def test_probe_verdicts_and_errors_match_the_scan(checked_writes, schedule):
    deleted, _ = checked_writes
    deleted.clear()
    db = _fresh()
    run_schedule(db, schedule, deleted)
    _assert_committed_keys_unique(db)


def test_schedule_space_reaches_both_verdicts_on_old_snapshots(checked_writes):
    """A hand-written schedule of the hard shape, so the property above
    is known to cover it: a snapshot four commits old re-inserting keys
    that were deleted, re-inserted and deleted again behind its back."""
    deleted, verdicts = checked_writes
    db = _fresh()
    schedule = [
        (0, "UPDATE T SET V = 3 WHERE A = 0"),  # slot 0 pins its snapshot
        (1, "DELETE FROM T WHERE A = 1"), (1, "COMMIT"),
        (1, "INSERT INTO T VALUES (1, 2, 1)"), (1, "COMMIT"),
        (1, "UPDATE T SET A = 3 WHERE A = 1"), (1, "COMMIT"),
        (1, "INSERT INTO T VALUES (4, NULL, 1)"), (1, "COMMIT"),
        (0, "INSERT INTO T VALUES (1, 3, 1)"),  # still sees the old (1, NULL)
        (0, "INSERT INTO T VALUES (3, 3, 1)"),  # cannot see the new key 3
        (0, "INSERT INTO T VALUES (2, 1, 1), (2, 2, 1)"),  # second row fails
        (0, "COMMIT"),
    ]
    trace = run_schedule(db, schedule, deleted)
    outcomes = [outcome for _, _, outcome in trace]
    assert outcomes[-4:] == [
        "UniquenessViolationError", 1, "UniquenessViolationError",
        "UniquenessViolationError",  # key 3 was committed concurrently
    ]
    assert True in verdicts and False in verdicts


def test_failed_update_of_own_pending_row_puts_it_back_in_place(checked_writes):
    """``delete_pending_insert`` is the one buffered write that is not an
    append; undoing it restores the row's position, so the committed row
    order does not depend on whether a later statement failed."""
    deleted, _ = checked_writes
    db = _fresh()
    trace = run_schedule(
        db,
        [
            (0, "INSERT INTO T VALUES (2, 2, 1), (3, 3, 1), (4, 4, 1)"),
            (0, "UPDATE T SET A = 0 WHERE A = 2"),  # key 0 is taken
            (0, "COMMIT"),
        ],
        deleted,
    )
    assert [outcome for _, _, outcome in trace] == [
        3, "UniquenessViolationError", None,
    ]
    assert [row[0] for row in db.table("T").rows] == [0, 1, 2, 3, 4]
