"""King-style join elimination via declared inclusion dependencies."""

import pytest

from repro.core.rewrite import JoinElimination, RewriteContext
from tests.engine.reference_executor import execute
from repro.sql import parse_query, to_sql


def apply(sql, catalog):
    outcome = JoinElimination().apply(parse_query(sql), RewriteContext(catalog))
    return None if outcome is None else outcome[0]


class TestEliminates:
    def test_parts_supplier_join_dropped(self, paper_catalog):
        rewritten = apply(
            "SELECT P.PNO, P.SNO FROM PARTS P, SUPPLIER S "
            "WHERE P.SNO = S.SNO AND P.COLOR = 'RED'",
            paper_catalog,
        )
        assert rewritten is not None
        assert to_sql(rewritten) == (
            "SELECT P.PNO, P.SNO FROM PARTS P WHERE P.COLOR = 'RED'"
        )

    def test_no_null_compensation_for_not_null_fk(self, paper_catalog):
        # PARTS.SNO is part of the primary key: NOT NULL, no IS NOT NULL.
        rewritten = apply(
            "SELECT P.PNO FROM PARTS P, SUPPLIER S WHERE P.SNO = S.SNO",
            paper_catalog,
        )
        assert "IS NOT NULL" not in to_sql(rewritten)

    def test_nullable_fk_gets_compensation(self, paper_catalog):
        rewritten = apply(
            "SELECT A.ANO FROM AGENTS A, SUPPLIER S WHERE A.SNO = S.SNO",
            paper_catalog,
        )
        assert "A.SNO IS NOT NULL" in to_sql(rewritten)

    def test_flipped_equality_recognized(self, paper_catalog):
        rewritten = apply(
            "SELECT P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
            paper_catalog,
        )
        assert rewritten is not None
        assert [t.name for t in rewritten.tables] == ["PARTS"]


class TestDeclines:
    def test_filtered_target_kept(self, paper_catalog):
        assert (
            apply(
                "SELECT P.PNO FROM PARTS P, SUPPLIER S "
                "WHERE P.SNO = S.SNO AND S.SCITY = 'Toronto'",
                paper_catalog,
            )
            is None
        )

    def test_projected_target_kept(self, paper_catalog):
        assert (
            apply(
                "SELECT P.PNO, S.SNAME FROM PARTS P, SUPPLIER S "
                "WHERE P.SNO = S.SNO",
                paper_catalog,
            )
            is None
        )

    def test_no_foreign_key_no_elimination(self, paper_catalog):
        # SUPPLIER does not reference AGENTS.
        assert (
            apply(
                "SELECT S.SNO FROM SUPPLIER S, AGENTS A WHERE S.SNO = A.SNO",
                paper_catalog,
            )
            is None
        )

    def test_join_on_wrong_columns_kept(self, paper_catalog):
        assert (
            apply(
                "SELECT P.PNO FROM PARTS P, SUPPLIER S WHERE P.PNO = S.SNO",
                paper_catalog,
            )
            is None
        )

    def test_cross_product_kept(self, paper_catalog):
        assert (
            apply("SELECT P.PNO FROM PARTS P, SUPPLIER S WHERE P.PNO = 1",
                  paper_catalog)
            is None
        )

    def test_subqueries_block_the_rule(self, paper_catalog):
        assert (
            apply(
                "SELECT P.PNO FROM PARTS P, SUPPLIER S WHERE P.SNO = S.SNO "
                "AND EXISTS (SELECT * FROM AGENTS A WHERE A.SNO = S.SNO)",
                paper_catalog,
            )
            is None
        )


class TestSemantics:
    def test_results_preserved(self, tiny_db):
        sql = (
            "SELECT P.PNO, P.SNO FROM PARTS P, SUPPLIER S "
            "WHERE P.SNO = S.SNO AND P.COLOR = 'RED'"
        )
        rewritten = apply(sql, tiny_db.catalog)
        assert execute(sql, tiny_db).same_rows(execute(rewritten, tiny_db))

    def test_nullable_fk_results_preserved(self, tiny_db):
        from repro import NULL

        # add an agent with NULL SNO: it must stay excluded after rewrite
        tiny_db.insert("AGENTS", {"SNO": NULL, "ANO": 999, "ANAME": "zed",
                                  "ACITY": "Hull"})
        sql = "SELECT A.ANO FROM AGENTS A, SUPPLIER S WHERE A.SNO = S.SNO"
        rewritten = apply(sql, tiny_db.catalog)
        before = execute(sql, tiny_db)
        after = execute(rewritten, tiny_db)
        assert before.same_rows(after)
        assert (999,) not in after.rows
