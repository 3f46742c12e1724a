"""The outside oracle: the same rows in stdlib ``sqlite3``.

The repo's own correctness suites compare one of its engines against
another.  This compares against something that shares no code with it:
every statement template has a sqlite-dialect twin (``workloads.py``),
the generated rows are loaded into an in-memory sqlite database, and
answers are compared as multisets.

Two strengths of check:

* :meth:`Oracle.rows` — the full answer, compared once per distinct
  (text, bindings, engine mode) as a sorted multiset, outside the timed
  region;
* :func:`fingerprint` — row count plus an order-independent checksum,
  cheap enough to run on every timed operation.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Iterable, Sequence

from workloads import LEDGER_DDL_SQLITE, READ, Op

_SCHEMA = (
    'CREATE TABLE "SUPPLIER" ("SNO" INTEGER, "SNAME" TEXT, "SCITY" TEXT, '
    '"BUDGET" INTEGER, "STATUS" TEXT, PRIMARY KEY ("SNO"))',
    'CREATE TABLE "PARTS" ("SNO" INTEGER, "PNO" INTEGER, "PNAME" TEXT, '
    '"OEM-PNO" INTEGER, "COLOR" TEXT, PRIMARY KEY ("SNO", "PNO"))',
    'CREATE TABLE "AGENTS" ("SNO" INTEGER, "ANO" INTEGER, "ANAME" TEXT, '
    '"ACITY" TEXT, PRIMARY KEY ("ANO"))',
)

_MASK = (1 << 61) - 1


def fingerprint(rows: Sequence[tuple]) -> tuple[int, int]:
    """``(row count, order-independent checksum)`` of a result.

    ``hash`` of a tuple of ints and strs is stable within one process,
    which is all that is needed: expected and observed fingerprints are
    always computed in the same interpreter.
    """
    return len(rows), sum(map(hash, rows)) & _MASK


def sorted_multiset(rows: Iterable[tuple]) -> list[tuple]:
    return sorted(rows, key=repr)


class Oracle:
    """An in-memory sqlite database holding the generated instance."""

    def __init__(self, data: Any, *, ledger: bool, null: Any) -> None:
        # *data* is a repro.workloads SupplierData; *null* is repro's NULL
        # sentinel, which sqlite's None is mapped to so that rows from
        # both sides compare (and hash) equal.
        self._null = null
        self.db = sqlite3.connect(":memory:", isolation_level=None)
        for ddl in _SCHEMA:
            self.db.execute(ddl)
        self.db.executemany(
            'INSERT INTO "SUPPLIER" VALUES (?, ?, ?, ?, ?)',
            [(s.sno, s.sname, s.scity, s.budget, s.status) for s in data.suppliers],
        )
        self.db.executemany(
            'INSERT INTO "PARTS" VALUES (?, ?, ?, ?, ?)',
            [(p.sno, p.pno, p.pname, p.oem_pno, p.color) for p in data.parts],
        )
        self.db.executemany(
            'INSERT INTO "AGENTS" VALUES (?, ?, ?, ?)',
            [(a.sno, a.ano, a.aname, a.acity) for a in data.agents],
        )
        self.ledger = ledger
        if ledger:
            self.db.execute(LEDGER_DDL_SQLITE)

    def close(self) -> None:
        self.db.close()

    def reset_ledger(self) -> None:
        self.db.execute('DELETE FROM "LEDGER"')

    def _convert(self, rows: list[tuple]) -> list[tuple]:
        null = self._null
        return [
            tuple(null if value is None else value for value in row)
            if None in row else row
            for row in rows
        ]

    def rows(self, op: Op) -> list[tuple]:
        """The oracle's answer to a read, in repro's value domain."""
        cursor = self.db.execute(op.sqlite, op.bindings or {})
        return self._convert(cursor.fetchall())

    def apply(self, op: Op, params: dict | None = None) -> int:
        """Run a DML operation; returns the affected-row count."""
        return self.db.execute(op.sqlite, params or op.bindings or {}).rowcount

    def ledger_rows(self) -> list[tuple]:
        return self.db.execute('SELECT "K", "V" FROM "LEDGER"').fetchall()

    def expect(self, op: Op) -> tuple[int, int]:
        """What the timed loop must observe for *op*, given every
        operation before it was applied: a result fingerprint for a
        read, ``(affected rows, 0)`` for DML."""
        if op.kind == READ:
            return fingerprint(self.rows(op))
        return self.apply(op), 0
