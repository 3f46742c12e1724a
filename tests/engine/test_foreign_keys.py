"""Foreign-key (inclusion dependency) enforcement: a child row needs
its parent on insert, and a parent row a visible child references may
not be deleted or have its referenced columns updated (NO ACTION)."""

import pytest

import repro
from repro.engine import Database
from repro.errors import ConstraintViolation
from repro.types import NULL


DDL = """
CREATE TABLE PARENT (K INT, V INT, PRIMARY KEY (K));
CREATE TABLE CHILD (
  ID INT, FK INT,
  PRIMARY KEY (ID),
  FOREIGN KEY (FK) REFERENCES PARENT (K));
INSERT INTO PARENT VALUES (1, 10), (2, 20);
"""


@pytest.fixture()
def db():
    return Database.from_script(DDL)


class TestEnforcement:
    def test_matching_reference_accepted(self, db):
        db.insert("CHILD", (100, 1))

    def test_dangling_reference_rejected(self, db):
        with pytest.raises(ConstraintViolation):
            db.insert("CHILD", (100, 99))

    def test_null_fk_exempt(self, db):
        # SQL simple match: a NULL component exempts the row.
        db.insert("CHILD", (100, NULL))

    def test_rejected_insert_leaves_no_trace(self, db):
        with pytest.raises(ConstraintViolation):
            db.insert("CHILD", (100, 99))
        # the key slot must be reusable: the failed row was rolled back
        db.insert("CHILD", (100, 1))
        assert len(db.table("CHILD")) == 1

    def test_script_inserts_enforced(self):
        with pytest.raises(ConstraintViolation):
            Database.from_script(DDL + "INSERT INTO CHILD VALUES (1, 42);")

    def test_fk_without_explicit_ref_columns_uses_primary_key(self):
        database = Database.from_script(
            """CREATE TABLE P2 (K INT, PRIMARY KEY (K));
               CREATE TABLE C2 (ID INT, FK INT, PRIMARY KEY (ID),
                                FOREIGN KEY (FK) REFERENCES P2);
               INSERT INTO P2 VALUES (7);"""
        )
        database.insert("C2", (1, 7))
        with pytest.raises(ConstraintViolation):
            database.insert("C2", (2, 8))

    def test_reference_to_missing_table_unenforced(self):
        # a dangling REFERENCES target degrades to unenforced, not error
        database = Database.from_script(
            """CREATE TABLE LONELY (ID INT, FK INT, PRIMARY KEY (ID),
                                    FOREIGN KEY (FK) REFERENCES NOWHERE);"""
        )
        database.insert("LONELY", (1, 99))

    def test_non_key_reference_falls_back_to_scan(self):
        database = Database.from_script(
            """CREATE TABLE P3 (K INT, V INT, PRIMARY KEY (K));
               CREATE TABLE C3 (ID INT, FK INT, PRIMARY KEY (ID),
                                FOREIGN KEY (FK) REFERENCES P3 (V));
               INSERT INTO P3 VALUES (1, 50);"""
        )
        database.insert("C3", (1, 50))
        with pytest.raises(ConstraintViolation):
            database.insert("C3", (2, 51))


class TestNoActionOnTheParentSide:
    """Checked at statement end over the transaction's view."""

    @pytest.fixture()
    def conn(self, db):
        db.insert("CHILD", (100, 1))
        db.insert("CHILD", (101, NULL))
        with repro.connect(db) as conn:
            yield conn

    def _count(self, conn, table):
        return conn.execute(f"SELECT * FROM {table}").fetchall()

    def test_deleting_a_referenced_parent_is_refused(self, db, conn):
        with pytest.raises(ConstraintViolation, match="CHILD"):
            conn.execute("DELETE FROM PARENT WHERE K = 1")
        assert sorted(self._count(conn, "PARENT")) == [(1, 10), (2, 20)]

    def test_join_elimination_and_the_written_join_still_agree(self, conn):
        # The instance of the refused delete: with the parent gone, the
        # join eliminated on the inclusion dependency would keep the
        # child row the written join drops.
        with pytest.raises(ConstraintViolation):
            conn.execute("DELETE FROM PARENT WHERE K = 1")
        sql = "SELECT CHILD.ID FROM CHILD, PARENT WHERE CHILD.FK = PARENT.K"
        for optimize in (True, False):
            assert conn.execute(sql, optimize=optimize).fetchall() == [(100,)]

    def test_an_unreferenced_parent_may_go(self, conn):
        conn.execute("DELETE FROM PARENT WHERE K = 2")
        assert self._count(conn, "PARENT") == [(1, 10)]

    def test_updating_a_referenced_key_is_refused(self, conn):
        with pytest.raises(ConstraintViolation):
            conn.execute("UPDATE PARENT SET K = 3 WHERE K = 1")
        assert sorted(self._count(conn, "PARENT")) == [(1, 10), (2, 20)]

    def test_updating_other_columns_keeps_the_key(self, conn):
        conn.execute("UPDATE PARENT SET V = 11 WHERE K = 1")
        assert sorted(self._count(conn, "PARENT")) == [(1, 11), (2, 20)]

    def test_children_deleted_first_in_the_same_transaction(self, conn):
        conn.begin()
        conn.execute("DELETE FROM CHILD WHERE FK = 1")
        conn.execute("DELETE FROM PARENT WHERE K = 1")
        conn.commit()
        assert self._count(conn, "PARENT") == [(2, 20)]

    def test_a_child_inserted_in_the_transaction_holds_its_parent(self, conn):
        conn.begin()
        conn.execute("INSERT INTO CHILD VALUES (102, 2)")
        with pytest.raises(ConstraintViolation):
            conn.execute("DELETE FROM PARENT WHERE K = 2")
        # The failed statement left the transaction as it found it.
        conn.execute("DELETE FROM CHILD WHERE ID = 102")
        conn.execute("DELETE FROM PARENT WHERE K = 2")
        conn.commit()
        assert self._count(conn, "PARENT") == [(1, 10)]

    def test_a_self_reference_deleted_in_one_statement(self):
        database = Database.from_script(
            """CREATE TABLE NODE (ID INT, UP INT, PRIMARY KEY (ID),
                                  FOREIGN KEY (UP) REFERENCES NODE (ID));
               INSERT INTO NODE VALUES (1, NULL), (2, 1), (3, 2);"""
        )
        with repro.connect(database) as conn:
            with pytest.raises(ConstraintViolation):
                conn.execute("DELETE FROM NODE WHERE ID = 2")
            conn.execute("DELETE FROM NODE WHERE ID >= 2")
            assert conn.execute("SELECT * FROM NODE").fetchall() == [(1, NULL)]
