"""One key-coverage test: ``TableSchema.covered_key`` and every caller
that asks "do these columns hold at most one row?" agree.

T has overlapping candidate keys, PRIMARY KEY (C) and UNIQUE (A, B),
probed on {A} (part of a key), {A, B} (a key), {A, B, X} (a key plus a
non-key column) and {C} (the primary key).  R references each probe
set through a FOREIGN KEY, so join elimination can be asked too.
"""

import pytest

from repro.core import subquery_matches_at_most_one, test_uniqueness
from repro.core.rewrite import JoinElimination, RewriteContext
from repro.engine import Database, Planner
from repro.engine.operators import IndexScan, SeqScan
from repro.sql import Literal, parse_query
from repro.stats import StatisticsCostModel

SCRIPT = """
CREATE TABLE T (A INT NOT NULL, B INT NOT NULL, C INT NOT NULL,
                X INT NOT NULL, PRIMARY KEY (C), UNIQUE (A, B));
CREATE TABLE R (ID INT NOT NULL, A INT NOT NULL, B INT NOT NULL,
                C INT NOT NULL, X INT NOT NULL, PRIMARY KEY (ID),
                FOREIGN KEY (A) REFERENCES T (A),
                FOREIGN KEY (A, B) REFERENCES T (A, B),
                FOREIGN KEY (A, B, X) REFERENCES T (A, B, X),
                FOREIGN KEY (C) REFERENCES T (C));
INSERT INTO T VALUES (1, 1, 1, 1);
INSERT INTO T VALUES (1, 2, 2, 1);
INSERT INTO T VALUES (2, 1, 3, 2);
INSERT INTO R VALUES (1, 1, 1, 1, 1);
INSERT INTO R VALUES (2, 1, 2, 2, 1);
INSERT INTO R VALUES (3, 2, 1, 3, 2);
"""

#: probe columns -> the key ``covered_key`` answers (None: no key).
PROBES = {
    ("A",): None,
    ("A", "B"): ("A", "B"),
    ("A", "B", "X"): ("A", "B"),
    ("C",): ("C",),
}


@pytest.fixture(scope="module")
def database():
    database = Database.from_script(SCRIPT)
    database.analyze()
    return database


def _index_scans(node):
    found = [node] if isinstance(node, IndexScan) else []
    for child in node.children():
        found += _index_scans(child)
    return found


def _conjunction(columns, template):
    return " AND ".join(template.format(c=column) for column in columns)


@pytest.mark.parametrize("columns", list(PROBES))
def test_every_key_question_agrees_with_covered_key(database, columns):
    catalog = database.catalog
    schema = catalog.table("T")
    key = schema.covered_key(columns)
    assert (key.columns if key else None) == PROBES[columns]
    covered = key is not None

    # Algorithm 1: a projection covering a key is duplicate-free.
    projection = ", ".join(f"T.{column}" for column in columns)
    assert test_uniqueness(f"SELECT {projection} FROM T", catalog).unique is covered

    # Theorem 2: correlating on a key matches at most one inner row.
    outer = parse_query(
        "SELECT R.ID FROM R WHERE EXISTS (SELECT * FROM T WHERE "
        + _conjunction(columns, "T.{c} = R.{c}")
        + ")"
    )
    verdict = subquery_matches_at_most_one(outer.where.query, outer, catalog)
    assert verdict.at_most_one is covered

    # Join elimination: an FK onto columns covering a key drops T.
    joined = parse_query(
        "SELECT R.ID FROM R, T WHERE " + _conjunction(columns, "R.{c} = T.{c}")
    )
    eliminated = JoinElimination().apply(joined, RewriteContext(catalog))
    assert (eliminated is not None) is covered

    # The planner probes the covered key, else one indexable column.
    planner = Planner(catalog, database=database)
    plan = planner.plan(
        parse_query("SELECT T.C FROM T WHERE " + _conjunction(columns, "T.{c} = 1"))
    )
    assert [scan.key_columns for scan in _index_scans(plan)] == [
        PROBES[columns] or ("A",)
    ]

    # The hash join's index order: one indexable column, or exactly a key.
    side = SeqScan("T", "T", schema.column_names)
    positions = [schema.column_index(column) for column in columns]
    order = planner._index_order(side, positions)
    exact = covered and len(key.columns) == len(columns)
    assert (order is not None) is (len(columns) == 1 or exact)

    # The estimator: a covered key bounds a probe at one row.
    model = StatisticsCostModel(database, database.statistics)
    probe = IndexScan(
        "T", "T", schema.column_names, columns, tuple(Literal(1) for _ in columns)
    )
    assert (model.estimate(probe).rows == 1.0) is covered
    assert model._keys_cover_candidate_key(side, positions) is covered


def test_a_join_on_exactly_a_composite_key_is_served_from_its_index():
    # PRIMARY KEY (A) is the first key {A, B} covers; the join's columns
    # are exactly UNIQUE (A, B), so the (A, B) index serves it.
    database = Database.from_script(
        """CREATE TABLE K (A INT NOT NULL, B INT NOT NULL, V INT,
                           PRIMARY KEY (A), UNIQUE (A, B));
           INSERT INTO K VALUES (1, 1, 10);"""
    )
    schema = database.catalog.table("K")
    assert schema.covered_key(("A", "B")).columns == ("A",)
    planner = Planner(database.catalog, database=database)
    side = SeqScan("K", "K", schema.column_names)
    assert planner._index_order(side, [1, 0]) == [1, 0]
    assert planner._index_order(side, [0, 1]) == [0, 1]
    assert planner._index_order(side, [0, 2]) is None
