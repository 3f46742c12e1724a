"""Individual physical operators."""

import pytest

from repro.engine import Database, Stats
from repro.engine.operators import (
    ExecContext,
    Filter,
    HashJoin,
    NestedLoopJoin,
    Project,
    SeqScan,
    SortDistinct,
)
from repro.sql import parse_condition
from repro.types import NULL


DDL = """
CREATE TABLE L (K INT, V INT, PRIMARY KEY (K));
CREATE TABLE R (K INT, W INT, PRIMARY KEY (K));
INSERT INTO L VALUES (1, 7), (2, 8), (3, NULL), (4, 7);
INSERT INTO R VALUES (10, 7), (11, 8), (12, NULL), (13, 7);
"""


@pytest.fixture()
def db():
    return Database.from_script(DDL)


def ctx_for(db):
    return ExecContext(db, stats=Stats())


def scan(db, table, alias=None):
    schema = db.catalog.table(table)
    return SeqScan(schema.name, alias or schema.name, schema.column_names)


def run(node, ctx):
    return list(node.rows(ctx))


class TestScanAndFilter:
    def test_scan_counts_rows(self, db):
        ctx = ctx_for(db)
        rows = run(scan(db, "L"), ctx)
        assert len(rows) == 4
        assert ctx.stats.rows_scanned == 4

    def test_filter_false_interpretation(self, db):
        ctx = ctx_for(db)
        node = Filter(scan(db, "L"), parse_condition("V = 7"))
        rows = run(node, ctx)
        assert [row[0] for row in rows] == [1, 4]  # NULL V row dropped


class TestJoins:
    def equi_rows(self, db, node_cls):
        ctx = ctx_for(db)
        left = scan(db, "L")
        right = scan(db, "R")
        left_key = left.schema.index_of("L", "V")
        right_key = right.schema.index_of("R", "W")
        node = node_cls(left, right, [left_key], [right_key])
        return sorted((row[0], row[2]) for row in run(node, ctx)), ctx.stats

    def test_hash_join_matches(self, db):
        rows, stats = self.equi_rows(db, HashJoin)
        assert rows == [(1, 10), (1, 13), (2, 11), (4, 10), (4, 13)]
        assert stats.hash_builds == 3  # NULL key not built
        assert stats.hash_probes == 3  # NULL key not probed

    def test_nested_loop_join_with_predicate(self, db):
        ctx = ctx_for(db)
        node = NestedLoopJoin(
            scan(db, "L"), scan(db, "R"), parse_condition("L.V = R.W")
        )
        rows = sorted((row[0], row[2]) for row in run(node, ctx))
        hash_rows, _ = self.equi_rows(db, HashJoin)
        assert rows == hash_rows
        assert ctx.stats.rows_joined == 16  # full product examined

    def test_cross_product_without_predicate(self, db):
        ctx = ctx_for(db)
        node = NestedLoopJoin(scan(db, "L"), scan(db, "R"))
        assert len(run(node, ctx)) == 16

    def test_residual_predicate_on_hash_join(self, db):
        ctx = ctx_for(db)
        left, right = scan(db, "L"), scan(db, "R")
        node = HashJoin(
            left,
            right,
            [left.schema.index_of("L", "V")],
            [right.schema.index_of("R", "W")],
            residual=parse_condition("R.K = 10"),
        )
        rows = run(node, ctx)
        assert all(row[2] == 10 for row in rows)

    def test_key_list_validation(self, db):
        with pytest.raises(ValueError):
            HashJoin(scan(db, "L"), scan(db, "R"), [], [])
        with pytest.raises(ValueError):
            HashJoin(scan(db, "L"), scan(db, "R"), [0], [0, 1])


class TestDistinct:
    def test_distinct_counts_duplicates_removed(self, db):
        ctx = ctx_for(db)
        node = SortDistinct(Project(scan(db, "L"), [1], ["V"]))
        rows = run(node, ctx)
        assert len(rows) == 3  # 7, 8, NULL
        assert ctx.stats.duplicates_removed == 1
