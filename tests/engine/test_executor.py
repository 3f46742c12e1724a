"""Reference-interpreter semantics."""

import pytest

from repro.engine import Database, Stats
from tests.engine.reference_executor import execute
from repro.errors import ExecutionError, UnknownTableError
from repro.types import NULL


DDL = """
CREATE TABLE R (A INT, B INT, PRIMARY KEY (A));
CREATE TABLE S (C INT, D INT, PRIMARY KEY (C));
INSERT INTO R VALUES (1, 10), (2, 20), (3, NULL);
INSERT INTO S VALUES (5, 10), (6, 20), (7, NULL);
"""


@pytest.fixture()
def db():
    return Database.from_script(DDL)


class TestSelection:
    def test_where_filters_unknown(self, db):
        result = execute("SELECT A FROM R WHERE B = 10", db)
        assert result.rows == [(1,)]
        # the NULL-B row is dropped, not retained

    def test_no_where_returns_all(self, db):
        assert len(execute("SELECT * FROM R", db)) == 3

    def test_cartesian_product(self, db):
        result = execute("SELECT A, C FROM R, S", db)
        assert len(result) == 9

    def test_join_predicate(self, db):
        result = execute("SELECT A, C FROM R, S WHERE R.B = S.D", db)
        assert sorted(result.rows) == [(1, 5), (2, 6)]
        # NULL B never matches NULL D

    def test_duplicate_correlation_name_rejected(self, db):
        with pytest.raises(ExecutionError):
            execute("SELECT * FROM R X, S X", db)

    def test_unknown_table(self, db):
        with pytest.raises(UnknownTableError):
            execute("SELECT * FROM NOPE", db)


class TestProjection:
    def test_star_expansion_order(self, db):
        result = execute("SELECT * FROM R", db)
        assert result.columns == ["A", "B"]

    def test_qualified_star(self, db):
        result = execute("SELECT S.* FROM R, S WHERE R.A = 1", db)
        assert result.columns == ["C", "D"]

    def test_alias_in_output(self, db):
        result = execute("SELECT A AS RENAMED FROM R", db)
        assert result.columns == ["RENAMED"]

    def test_projection_keeps_duplicates_without_distinct(self, db):
        result = execute("SELECT B FROM R, S", db)
        assert len(result) == 9

    def test_distinct_collapses_nulls(self, db):
        db.insert("R", (4, NULL))
        result = execute("SELECT DISTINCT B FROM R", db)
        values = result.column_values("B")
        assert sum(1 for value in values if value is NULL) == 1


class TestOrderBy:
    def test_order_by_output_column(self, db):
        result = execute("SELECT A FROM R ORDER BY A DESC", db)
        assert result.rows == [(3,), (2,), (1,)]

    def test_order_by_nulls_first(self, db):
        result = execute("SELECT B FROM R ORDER BY B", db)
        assert result.rows[0] == (NULL,)

    def test_order_by_unknown_column_rejected(self, db):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            execute("SELECT A FROM R ORDER BY NOPE", db)

    def test_order_by_unprojected_source_column_rejected(self, db):
        with pytest.raises(ExecutionError):
            execute("SELECT A FROM R ORDER BY R.B", db)


class TestSetOperations:
    def test_intersect_all_min_counts(self, db):
        # R.B multiset {10,20,NULL}; build S side with duplicates
        result = execute(
            "SELECT B FROM R INTERSECT ALL SELECT D FROM S", db
        )
        # NULL matches NULL under set-operation semantics
        assert sorted(result.multiset().values()) == [1, 1, 1]

    def test_intersect_distinct(self, db):
        db.insert("R", (4, 10))
        result = execute("SELECT B FROM R INTERSECT SELECT D FROM S", db)
        assert not result.has_duplicates()
        assert len(result) == 3

    def test_except_all_max_counts(self, db):
        db.insert("R", (4, 10))  # B now {10, 10, 20, NULL}
        result = execute("SELECT B FROM R EXCEPT ALL SELECT D FROM S", db)
        assert result.rows == [(10,)]  # 2 - 1 copies survive

    def test_except_distinct_drops_matched(self, db):
        db.insert("R", (4, 10))
        result = execute("SELECT B FROM R EXCEPT SELECT D FROM S", db)
        assert result.rows == []

    def test_union_all_concatenates(self, db):
        result = execute("SELECT B FROM R UNION ALL SELECT D FROM S", db)
        assert len(result) == 6

    def test_union_distinct(self, db):
        result = execute("SELECT B FROM R UNION SELECT D FROM S", db)
        assert len(result) == 3  # {10, 20, NULL}

    def test_union_incompatible_arity_rejected(self, db):
        with pytest.raises(ExecutionError):
            execute("SELECT A, B FROM R UNION SELECT C FROM S", db)


class TestSubqueries:
    def test_correlated_exists(self, db):
        result = execute(
            "SELECT A FROM R WHERE EXISTS "
            "(SELECT * FROM S WHERE S.D = R.B)",
            db,
        )
        assert sorted(result.rows) == [(1,), (2,)]

    def test_not_exists(self, db):
        result = execute(
            "SELECT A FROM R WHERE NOT EXISTS "
            "(SELECT * FROM S WHERE S.D = R.B)",
            db,
        )
        assert result.rows == [(3,)]

    def test_in_subquery(self, db):
        result = execute(
            "SELECT A FROM R WHERE B IN (SELECT D FROM S)", db
        )
        assert sorted(result.rows) == [(1,), (2,)]

    def test_in_subquery_requires_one_column(self, db):
        with pytest.raises(ExecutionError):
            execute("SELECT A FROM R WHERE B IN (SELECT C, D FROM S)", db)

    def test_subquery_executions_counted(self, db):
        stats = Stats()
        execute(
            "SELECT A FROM R WHERE EXISTS (SELECT * FROM S WHERE S.D = R.B)",
            db,
            stats=stats,
        )
        assert stats.subquery_executions == 3  # once per R row


class TestStats:
    def test_distinct_charges_sort(self, db):
        stats = Stats()
        execute("SELECT DISTINCT B FROM R, S", db, stats=stats)
        assert stats.sorts == 1
        assert stats.sort_rows == 9
        assert stats.duplicates_removed > 0

    def test_all_charges_no_sort(self, db):
        stats = Stats()
        execute("SELECT B FROM R, S", db, stats=stats)
        assert stats.sorts == 0

    def test_rows_output(self, db):
        stats = Stats()
        execute("SELECT * FROM R", db, stats=stats)
        assert stats.rows_output == 3

    def test_stats_arithmetic(self):
        a = Stats(rows_scanned=2)
        b = Stats(rows_scanned=3, sorts=1)
        assert (a + b).rows_scanned == 5
        assert (b - a).rows_scanned == 1
        snap = b.snapshot()
        b.reset()
        assert snap.sorts == 1 and b.sorts == 0
        assert "rows_scanned" in snap.describe()
