"""The Connection facade: one entrypoint over the guarded core, with
the legacy functions reduced to warning shims."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.api import Connection, Cursor, connect
from repro.errors import ProtocolError, ReproError, RowBudgetExceeded
from repro.options import ExecutionOptions
from repro.types import NULL


class TestLocalConnection:
    def test_connect_database(self, tiny_db):
        with repro.connect(tiny_db) as conn:
            assert not conn.remote
            rows = conn.execute(
                "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO <= 2"
            ).fetchall()
        assert rows == [(1,), (2,)]
        assert conn.closed

    def test_connect_script_path(self, tmp_path):
        script = tmp_path / "db.sql"
        script.write_text(
            "CREATE TABLE T (ID INT, PRIMARY KEY (ID));\n"
            "INSERT INTO T VALUES (1), (2);\n"
        )
        with repro.connect(str(script)) as conn:
            assert conn.execute("SELECT T.ID FROM T").fetchall() == [
                (1,),
                (2,),
            ]

    def test_connect_rejects_other_types(self):
        with pytest.raises(ProtocolError):
            connect(42)  # type: ignore[arg-type]

    def test_closed_connection_refuses_queries(self, tiny_db):
        conn = repro.connect(tiny_db)
        conn.close()
        with pytest.raises(ReproError):
            conn.execute("SELECT S.SNO FROM SUPPLIER S")


class TestCursor:
    def test_dbapi_surface(self, tiny_db):
        with repro.connect(tiny_db) as conn:
            cursor = conn.cursor()
            assert isinstance(cursor, Cursor)
            cursor.execute("SELECT S.SNO, S.SNAME FROM SUPPLIER S")
            assert cursor.rowcount == 4
            assert [d[0] for d in cursor.description] == ["SNO", "SNAME"]
            first = cursor.fetchone()
            rest = cursor.fetchall()
            assert len(rest) == 3 and first not in rest

    def test_iteration_and_fetchmany(self, tiny_db):
        with repro.connect(tiny_db) as conn:
            cursor = conn.execute("SELECT S.SNO FROM SUPPLIER S")
            assert len(cursor.fetchmany(2)) == 2
            assert len(list(cursor)) == 2  # iteration drains the rest
            assert cursor.fetchone() is None

    def test_rewrite_trail_and_outcome(self, tiny_db):
        with repro.connect(tiny_db) as conn:
            cursor = conn.execute(
                "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 1"
            )
            assert cursor.executed.rewritten
            assert cursor.outcome is not None  # local keeps the outcome
            assert "distinct-elimination" in cursor.executed.rules

    def test_per_call_overrides_layer_on_defaults(self, tiny_db):
        options = ExecutionOptions(safe_mode=True)
        with repro.connect(tiny_db, options=options) as conn:
            with pytest.raises(RowBudgetExceeded):
                conn.execute("SELECT S.SNO FROM SUPPLIER S", row_budget=1)
            # ...and the default safe_mode still applies: a rewritten
            # query gets cross-checked against the unrewritten plan.
            cursor = conn.execute(
                "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 1"
            )
            assert cursor.outcome.verified

    def test_explicit_options_replace_defaults(self, tiny_db):
        with repro.connect(
            tiny_db, options=ExecutionOptions(safe_mode=True)
        ) as conn:
            cursor = conn.execute(
                "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 1",
                options=ExecutionOptions(),  # wholesale replacement
            )
            assert not cursor.outcome.verified

    def test_overrides_resolve_in_one_place(self, tiny_db, monkeypatch):
        """``execute`` and ``executemany`` share ExecutionOptions.override:
        no overrides hands the backend the connection's own value, an
        unknown keyword is a TypeError, and reads and writes both take
        their budget from ``ExecutionOptions.budget``."""
        budgets = []
        original = ExecutionOptions.budget
        monkeypatch.setattr(
            ExecutionOptions,
            "budget",
            lambda self: budgets.append(self) or original(self),
        )
        options = ExecutionOptions(safe_mode=True)
        with repro.connect(tiny_db, options=options) as conn:
            cursor = conn.cursor()
            assert cursor._resolve() is options
            assert cursor._resolve(row_budget=5).safe_mode
            conn.execute("SELECT S.SNO FROM SUPPLIER S")
            conn.execute("DELETE FROM AGENTS WHERE ANO = 100")
            assert budgets == [options, options]
            with pytest.raises(TypeError):
                conn.execute("SELECT S.SNO FROM SUPPLIER S", row_bugdet=1)
            with pytest.raises(TypeError):
                conn.execute("SELECT S.SNO FROM SUPPLIER S", parallel=2)
            with pytest.raises(TypeError):
                cursor.executemany(
                    "DELETE FROM AGENTS WHERE ANO = :A", [{"A": 101}], bogus=1
                )
            with pytest.raises(RowBudgetExceeded):
                cursor.executemany(
                    "SELECT S.SNO FROM SUPPLIER S",
                    [None],
                    engine_mode="tuple",
                    row_budget=1,
                )

    def test_analyze_attaches_plan(self, tiny_db):
        with repro.connect(tiny_db) as conn:
            cursor = conn.execute(
                "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 1", analyze=True
            )
            assert cursor.analysis is not None

    def test_no_optimize_runs_as_written(self, tiny_db):
        with repro.connect(tiny_db) as conn:
            cursor = conn.execute(
                "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 1",
                optimize=False,
            )
            assert not cursor.executed.rewritten
            assert cursor.executed.rules == []

    def test_null_results(self, tiny_db):
        with repro.connect(tiny_db) as conn:
            rows = conn.execute(
                "SELECT P.OEM-PNO FROM PARTS P WHERE P.SNO = 3"
            ).fetchall()
        assert rows == [(NULL,)]


class TestHomeModules:
    def test_home_modules_do_not_warn(self, tiny_db):
        from repro.engine import execute_planned as home_execute_planned

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            home_execute_planned("SELECT S.SNO FROM SUPPLIER S", tiny_db)
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]


class TestConnectionRepr:
    def test_describes_backend(self, tiny_db):
        conn = repro.connect(tiny_db)
        assert "local database" in repr(conn)
        conn.close()
        assert "closed" in repr(conn)
