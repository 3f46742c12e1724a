"""Writes invalidate precisely — and rolled-back writes invalidate nothing.

Two regression families for the scoped-invalidation tentpole:

* **Precision** — a committed write to table A must not evict table
  B's plan-cache entries, statistics, or adaptive corrections (the
  stale-fingerprint footgun this PR fixes: every cache used to key on
  the whole-database fingerprint, so any write anywhere evicted
  everything).
* **Read-path identity** — E1–E11 answers are byte-identical before
  and after a write storm that rolls back, under each ``engine_mode``
  spelling: MVCC buffering means an aborted transaction is
  observationally free.
"""

from __future__ import annotations

import pytest

import repro
from repro.engine.database import Database
from repro.engine.plan_cache import PlanCache
from repro.engine.planner import execute_planned
from repro.options import ExecutionOptions
from repro.stats.adaptive import (
    GLOBAL_CORRECTIONS,
    plan_fingerprint,
    plan_tables,
    scoped_db_fingerprint,
)
from repro.stats.collect import ensure_statistics
from repro.workloads import SupplierScale, build_database, generate
from repro.workloads.queries import PAPER_QUERIES

SCRIPT = """
CREATE TABLE A (X INT NOT NULL, Y INT, PRIMARY KEY (X));
CREATE TABLE B (X INT NOT NULL, Y INT, PRIMARY KEY (X));
INSERT INTO A VALUES (1, 10), (2, 20), (3, 30);
INSERT INTO B VALUES (1, 100), (2, 200), (3, 300);
"""


@pytest.fixture()
def db() -> Database:
    return Database.from_script(SCRIPT)


class TestScopedPlanCache:
    def test_write_to_a_keeps_bs_plan(self, db):
        cache = PlanCache()
        sql_b = "SELECT Y FROM B WHERE X = 2"
        execute_planned(sql_b, db, plan_cache=cache)
        execute_planned(sql_b, db, plan_cache=cache)
        assert cache.hits == 1
        conn = repro.connect(db)
        conn.execute("INSERT INTO A VALUES (4, 40)")
        execute_planned(sql_b, db, plan_cache=cache)
        assert cache.hits == 2  # B's entry survived the write to A

    def test_write_to_a_evicts_as_plan(self, db):
        cache = PlanCache()
        sql_a = "SELECT Y FROM A WHERE X = 2"
        execute_planned(sql_a, db, plan_cache=cache)
        misses = cache.misses
        repro.connect(db).execute("INSERT INTO A VALUES (4, 40)")
        execute_planned(sql_a, db, plan_cache=cache)
        assert cache.misses == misses + 1  # stale plan was not reused


class TestScopedStatistics:
    def test_write_to_a_keeps_bs_statistics(self, db):
        before = ensure_statistics(db)
        repro.connect(db).execute("DELETE FROM A WHERE X = 3")
        after = ensure_statistics(db)
        assert after is not before  # A was stale: a new catalog exists
        # ...but B's stats carried over by reference, unscanned.
        assert after.table("B") is before.table("B")
        assert after.table("A") is not before.table("A")
        assert after.table("A").row_count == 2
        assert after.fresh_for(db)

    def test_rolled_back_write_keeps_catalog_fresh(self, db):
        catalog = ensure_statistics(db)
        conn = repro.connect(db)
        conn.begin()
        conn.execute("DELETE FROM A")
        conn.rollback()
        assert catalog.fresh_for(db)
        assert ensure_statistics(db) is catalog


class TestScopedCorrections:
    def test_write_to_a_keeps_bs_corrections(self, db):
        conn = repro.connect(db)
        # Seed a correction for a B-only plan shape.
        cursor = conn.execute(
            "SELECT Y FROM B WHERE Y > 150",
            analyze=True,
            adaptive=True,
            stats=True,
        )
        plan = cursor.executed.outcome.analysis.plan
        key = scoped_db_fingerprint(db, plan_tables(plan))
        node = plan_fingerprint(plan)
        assert GLOBAL_CORRECTIONS.lookup(key, node) is not None
        conn.execute("INSERT INTO A VALUES (4, 40)")
        # The same key still resolves: the write to A moved neither the
        # schema fingerprint nor B's data version.
        assert scoped_db_fingerprint(db, plan_tables(plan)) == key
        assert GLOBAL_CORRECTIONS.lookup(key, node) is not None

    def test_write_to_b_orphans_bs_corrections(self, db):
        conn = repro.connect(db)
        cursor = conn.execute(
            "SELECT Y FROM B WHERE Y > 150",
            analyze=True,
            adaptive=True,
            stats=True,
        )
        plan = cursor.executed.outcome.analysis.plan
        key = scoped_db_fingerprint(db, plan_tables(plan))
        conn.execute("DELETE FROM B WHERE X = 1")
        assert scoped_db_fingerprint(db, plan_tables(plan)) != key


class TestByteIdentityAroundRolledBackWrites:
    @pytest.fixture(scope="class")
    def write_db(self):
        return build_database(
            generate(
                SupplierScale(
                    suppliers=12, parts_per_supplier=4, agents_per_supplier=2
                )
            )
        )

    @pytest.mark.parametrize("engine_mode", ["tuple", "vectorized"])
    def test_e1_to_e11_identical_after_aborted_storm(
        self, write_db, engine_mode
    ):
        options = ExecutionOptions.create(engine_mode=engine_mode)
        conn = repro.connect(write_db, options=options)

        def answers():
            out = {}
            for query in PAPER_QUERIES:
                cursor = conn.execute(query.sql, query.params or None)
                out[query.example] = repr(cursor.fetchall())
            return out

        before = answers()
        conn.begin()
        # The storm: touch every table, every DML verb, then abort.
        conn.execute("DELETE FROM PARTS WHERE COLOR = 'RED'")
        conn.execute("UPDATE SUPPLIER SET BUDGET = 1 WHERE SNO > 3")
        conn.execute("INSERT INTO SUPPLIER VALUES (450, 'Storm', 'Toronto', 1, 'Active')")
        conn.execute("INSERT INTO PARTS VALUES (450, 1, 'storm-part', 99999, 'RED')")
        conn.execute("DELETE FROM AGENTS")
        # Inside the transaction the writes are visible...
        assert conn.execute("SELECT ANO FROM AGENTS").rowcount == 0
        conn.rollback()
        # ...after the rollback the world is byte-identical.
        assert answers() == before
