"""IMS gateway: SQL to DL/I translation and the Example 10 claim."""

import pytest

from repro.errors import MissingHostVariableError, UnsupportedQueryError
from repro.ims import GatewayStats, ImsGateway
from repro.workloads import (
    SupplierScale,
    build_database,
    build_ims_database,
    generate,
)
from tests.engine.reference_executor import execute


@pytest.fixture(scope="module")
def data():
    return generate(SupplierScale(suppliers=10, parts_per_supplier=4))


@pytest.fixture(scope="module")
def gateway(data):
    return ImsGateway(build_ims_database(data))


@pytest.fixture(scope="module")
def rel_db(data):
    return build_database(data)


class TestRelationalView:
    def test_catalog_shapes(self, gateway):
        catalog = gateway.catalog()
        supplier = catalog.table("SUPPLIER")
        parts = catalog.table("PARTS")
        assert supplier.primary_key.columns == ("SNO",)
        assert parts.primary_key.columns == ("SNO", "PNO")
        assert parts.column_names[0] == "SNO"  # virtual column first

    def test_view_columns(self, gateway):
        assert gateway.view_columns("AGENTS")[0] == "SNO"


class TestStrategies:
    def test_root_scan_matches_relational(self, gateway, rel_db):
        sql = "SELECT SNO, SNAME FROM SUPPLIER WHERE SCITY = 'Toronto'"
        assert gateway.execute(sql).same_rows(execute(sql, rel_db))

    def test_join_matches_relational(self, gateway, rel_db):
        sql = (
            "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
            "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"
        )
        assert gateway.execute(sql).same_rows(execute(sql, rel_db))

    def test_exists_matches_relational(self, gateway, rel_db):
        sql = (
            "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS "
            "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = 2)"
        )
        assert gateway.execute(sql).same_rows(execute(sql, rel_db))

    def test_child_scan_matches_relational(self, gateway, rel_db):
        sql = "SELECT SNO, PNO FROM PARTS WHERE COLOR = 'RED'"
        assert gateway.execute(sql).same_rows(execute(sql, rel_db))

    def test_distinct_post_processing(self, gateway, rel_db):
        sql = (
            "SELECT DISTINCT S.SCITY FROM SUPPLIER S, PARTS P "
            "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"
        )
        stats = GatewayStats()
        result = gateway.execute(sql, stats=stats)
        assert result.same_rows(execute(sql, rel_db))
        assert stats.used_post_processing
        assert stats.post_rows_sorted > 0

    def test_residual_predicate_post_filtered(self, gateway, rel_db):
        sql = (
            "SELECT S.SNO FROM SUPPLIER S "
            "WHERE S.SCITY = 'Toronto' AND S.BUDGET > 10"
        )
        stats = GatewayStats()
        result = gateway.execute(sql, stats=stats)
        assert result.same_rows(execute(sql, rel_db))
        assert stats.post_filter_evals > 0


class TestExample10Claim:
    """The nested form halves the DL/I calls against PARTS."""

    def test_gnp_calls_halved(self, gateway, rel_db, data):
        join_sql = (
            "SELECT ALL S.* FROM SUPPLIER S, PARTS P "
            "WHERE S.SNO = P.SNO AND P.PNO = :PARTNO"
        )
        exists_sql = (
            "SELECT ALL S.* FROM SUPPLIER S WHERE EXISTS "
            "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PARTNO)"
        )
        params = {"PARTNO": 2}
        join_stats, exists_stats = GatewayStats(), GatewayStats()
        join_result = gateway.execute(join_sql, params, join_stats)
        exists_result = gateway.execute(exists_sql, params, exists_stats)
        assert join_result.same_rows(exists_result)
        # every supplier has a part 2, so the join strategy issues exactly
        # twice as many GNP calls against PARTS
        suppliers = data.scale.suppliers
        assert join_stats.dli.calls_to("PARTS", "GNP") == 2 * suppliers
        assert exists_stats.dli.calls_to("PARTS", "GNP") == suppliers

    def test_results_match_relational_engine(self, gateway, rel_db):
        sql = (
            "SELECT ALL S.* FROM SUPPLIER S, PARTS P "
            "WHERE S.SNO = P.SNO AND P.PNO = :PARTNO"
        )
        params = {"PARTNO": 2}
        assert gateway.execute(sql, params).same_rows(
            execute(sql, rel_db, params=params)
        )


class TestUnsupportedShapes:
    def test_two_children_rejected(self, gateway):
        with pytest.raises(UnsupportedQueryError):
            gateway.execute(
                "SELECT P.PNO FROM PARTS P, AGENTS A WHERE P.SNO = A.SNO"
            )

    def test_join_without_parent_key_equality_rejected(self, gateway):
        with pytest.raises(UnsupportedQueryError):
            gateway.execute(
                "SELECT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.PNO"
            )

    def test_unknown_table_rejected(self, gateway):
        with pytest.raises(UnsupportedQueryError):
            gateway.execute("SELECT * FROM ELSEWHERE")

    def test_setop_rejected(self, gateway):
        with pytest.raises(UnsupportedQueryError):
            gateway.execute(
                "SELECT SNO FROM SUPPLIER INTERSECT SELECT SNO FROM PARTS"
            )

    def test_order_by_post_processed(self, gateway):
        result = gateway.execute(
            "SELECT SNO, SNAME FROM SUPPLIER ORDER BY SNO DESC"
        )
        values = result.column_values("SNO")
        assert values == sorted(values, reverse=True)

    def test_order_by_unprojected_column_rejected(self, gateway):
        with pytest.raises(UnsupportedQueryError):
            gateway.execute("SELECT SNAME FROM SUPPLIER ORDER BY SNO")

    def test_missing_host_variable(self, gateway):
        with pytest.raises(MissingHostVariableError):
            gateway.execute(
                "SELECT SNO FROM SUPPLIER WHERE SNO = :MISSING"
            )

    def test_stats_describe(self, gateway):
        stats = GatewayStats()
        gateway.execute("SELECT SNO FROM SUPPLIER", stats=stats)
        assert "strategy=root scan" in stats.describe()
