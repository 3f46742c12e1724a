"""Hash-index access paths: TableData maintenance and engine probes.

Covers the three layers separately: the index structure itself (lazy
build, incremental maintenance under insert/remove/clear), the
interpreter's correlated-probe fast path, and the planner's IndexScan —
each asserted to return exactly the rows the scan path returns.
"""

import pytest

from repro import Database, Stats
from repro.engine import execute_planned
from tests.engine.reference_executor import execute
from repro.errors import MissingHostVariableError
from repro.types import NULL

DDL = """
CREATE TABLE S (
    SNO INT NOT NULL,
    CITY VARCHAR(20),
    PRIMARY KEY (SNO)
);
CREATE TABLE P (
    PNO INT NOT NULL,
    SNO INT,
    COLOR VARCHAR(10),
    PRIMARY KEY (PNO),
    FOREIGN KEY (SNO) REFERENCES S (SNO)
);
INSERT INTO S VALUES (1, 'LONDON');
INSERT INTO S VALUES (2, 'PARIS');
INSERT INTO S VALUES (3, 'OSLO');
INSERT INTO P VALUES (10, 1, 'RED');
INSERT INTO P VALUES (11, 1, 'BLUE');
INSERT INTO P VALUES (12, 2, 'RED');
INSERT INTO P VALUES (13, NULL, 'GREEN');
"""


@pytest.fixture
def db():
    return Database.from_script(DDL)


# ----------------------------------------------------------------------
# TableData: the index structure


def test_indexable_columns_are_key_and_fk_columns(db):
    assert db.table("S").schema.indexable_columns() == {"SNO"}
    assert db.table("P").schema.indexable_columns() == {"PNO", "SNO"}
    # COLOR is neither a key nor a foreign key — never auto-indexed.
    assert "COLOR" not in db.table("P").schema.indexable_columns()


def test_index_is_built_lazily_then_reused(db):
    parts = db.table("P")
    assert not parts.has_hash_index(("SNO",))
    matches = parts.index_lookup(("SNO",), (1,))
    assert sorted(row[0] for row in matches) == [10, 11]
    assert parts.has_hash_index(("SNO",))


def test_inserts_maintain_existing_indexes_incrementally(db):
    parts = db.table("P")
    parts.index_lookup(("SNO",), (1,))  # materialize the index
    version = parts.version
    db.load("P", [(14, 1, "WHITE")])
    assert parts.version > version  # mutation bumps the fingerprint
    matches = parts.index_lookup(("SNO",), (1,))
    assert sorted(row[0] for row in matches) == [10, 11, 14]


def test_remove_last_unindexes_the_row(db):
    parts = db.table("P")
    parts.index_lookup(("SNO",), (2,))
    db.load("P", [(14, 2, "WHITE")])
    removed = parts.remove_last()
    assert removed[0] == 14
    assert [row[0] for row in parts.index_lookup(("SNO",), (2,))] == [12]


def test_clear_empties_the_indexes(db):
    parts = db.table("P")
    parts.index_lookup(("PNO",), (10,))
    parts.clear()
    assert parts.index_lookup(("PNO",), (10,)) == []
    assert len(parts) == 0


def test_null_probe_returns_no_rows(db):
    # Part 13 has SNO NULL, but a WHERE-clause equality with NULL is
    # never TRUE, so a NULL probe must not find it.
    parts = db.table("P")
    assert parts.index_lookup(("SNO",), (NULL,)) == []
    # The row is still stored and reachable by its key.
    assert [row[0] for row in parts.index_lookup(("PNO",), (13,))] == [13]


def test_composite_probe_uses_all_columns(db):
    parts = db.table("P")
    matches = parts.index_lookup(("SNO", "COLOR"), (1, "RED"))
    assert [row[0] for row in matches] == [10]
    assert parts.index_lookup(("SNO", "COLOR"), (1, "GREEN")) == []


# ----------------------------------------------------------------------
# interpreter: key lookups and correlated probes


def test_interpreter_key_lookup_probes_instead_of_scanning(db):
    sql = "SELECT CITY FROM S WHERE SNO = 2"
    probe_stats, scan_stats = Stats(), Stats()
    probed = execute(sql, db, stats=probe_stats, use_indexes=True)
    scanned = execute(sql, db, stats=scan_stats, use_indexes=False)
    assert probed.same_rows(scanned)
    assert [row[0] for row in probed.rows] == ["PARIS"]
    assert probe_stats.index_probes == 1
    assert probe_stats.index_rows == 1  # the one matching row only
    assert probe_stats.rows_joined == 0  # the table product never ran
    assert probe_stats.predicate_evals == 1
    assert scan_stats.index_probes == 0
    assert scan_stats.rows_joined == 3
    assert scan_stats.predicate_evals == 3


def test_interpreter_correlated_exists_probes_fk_index(db):
    sql = (
        "SELECT S.SNO FROM S WHERE EXISTS "
        "(SELECT * FROM P WHERE P.SNO = S.SNO)"
    )
    probe_stats, scan_stats = Stats(), Stats()
    probed = execute(sql, db, stats=probe_stats, use_indexes=True)
    scanned = execute(sql, db, stats=scan_stats, use_indexes=False)
    assert probed.same_rows(scanned)
    assert sorted(row[0] for row in probed.rows) == [1, 2]
    # Same naive strategy — one subquery execution per outer row — but
    # each execution touches a bucket instead of the whole inner table.
    assert probe_stats.subquery_executions == scan_stats.subquery_executions == 3
    assert probe_stats.index_probes >= probe_stats.subquery_executions
    assert scan_stats.index_probes == 0
    assert probe_stats.predicate_evals < scan_stats.predicate_evals


def test_missing_host_variable_raises_on_both_paths(db):
    sql = "SELECT CITY FROM S WHERE SNO = :N"
    for use_indexes in (True, False):
        with pytest.raises(MissingHostVariableError):
            execute(sql, db, use_indexes=use_indexes)


# ----------------------------------------------------------------------
# planner: IndexScan


def test_planned_index_scan_matches_seq_scan(db):
    sql = "SELECT PNO, COLOR FROM P WHERE SNO = 1 AND COLOR = 'RED'"
    probe_stats, scan_stats = Stats(), Stats()
    probed = execute_planned(sql, db, stats=probe_stats, use_indexes=True)
    scanned = execute_planned(sql, db, stats=scan_stats, use_indexes=False)
    assert probed.same_rows(scanned)
    assert [tuple(row) for row in probed.rows] == [(10, "RED")]
    assert probe_stats.index_probes == 1
    assert scan_stats.index_probes == 0


def test_planned_index_scan_with_host_variable(db):
    sql = "SELECT CITY FROM S WHERE SNO = :N"
    for n, city in [(1, "LONDON"), (3, "OSLO")]:
        stats = Stats()
        result = execute_planned(sql, db, params={"N": n}, stats=stats)
        assert [row[0] for row in result.rows] == [city]
        assert stats.index_probes == 1
