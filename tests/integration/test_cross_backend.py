"""Cross-backend consistency: the same logical query must produce the
same rows on the relational engine (both execution paths), the IMS
gateway, and — for the navigation strategies — the object store."""

import pytest

from repro.engine import execute_planned
from tests.engine.reference_executor import execute
from repro.ims import GatewayStats, ImsGateway
from repro.oodb import ObjectStats, forward_join, selective_exists
from repro.workloads import (
    SupplierScale,
    build_database,
    build_ims_database,
    build_object_store,
    generate,
)
from tests.engine.reference_nested_loops import execute_nested


@pytest.fixture(scope="module")
def world():
    data = generate(SupplierScale(suppliers=15, parts_per_supplier=4))
    return {
        "data": data,
        "rel": build_database(data),
        "ims": ImsGateway(build_ims_database(data)),
        "oo": build_object_store(data),
    }


GATEWAY_QUERIES = [
    ("SELECT SNO, SNAME, SCITY FROM SUPPLIER", None),
    ("SELECT SNO, SNAME FROM SUPPLIER WHERE SCITY = 'Chicago'", None),
    (
        "SELECT S.SNO, P.PNO, P.COLOR FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO = P.SNO",
        None,
    ),
    (
        "SELECT S.SNO FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO = P.SNO AND P.COLOR = 'BLUE'",
        None,
    ),
    (
        "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS "
        "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :N)",
        {"N": 1},
    ),
    ("SELECT SNO, PNO FROM PARTS WHERE COLOR = 'RED'", None),
    (
        "SELECT DISTINCT S.SCITY FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        None,
    ),
]


@pytest.mark.parametrize("sql,params", GATEWAY_QUERIES)
def test_gateway_equals_relational(world, sql, params):
    relational = execute(sql, world["rel"], params=params)
    hierarchical = world["ims"].execute(sql, params=params)
    assert relational.same_rows(hierarchical)


@pytest.mark.parametrize("sql,params", GATEWAY_QUERIES)
def test_planned_equals_interpreted(world, sql, params):
    reference = execute(sql, world["rel"], params=params)
    assert reference.same_rows(execute_planned(sql, world["rel"], params=params))
    assert reference.same_rows(execute_nested(sql, world["rel"], params=params))


def test_oo_navigation_equals_relational_join(world):
    sql = (
        "SELECT S.SNO FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO BETWEEN 5 AND 9 AND S.SNO = P.SNO AND P.PNO = 2"
    )
    relational = sorted(
        row[0] for row in execute(sql, world["rel"]).rows
    )

    store = world["oo"]
    store.stats = ObjectStats()
    forward = forward_join(
        store, "PARTS", "PNO", 2, "SUPPLIER",
        lambda s: 5 <= s.get("SNO") <= 9,
    )
    assert sorted(o.get("SNO") for o in forward) == relational

    rewritten = selective_exists(
        store, "SUPPLIER", "SNO", 5, 9, "PARTS", "PNO", 2, "SUPPLIER"
    )
    assert sorted(o.get("SNO") for o in rewritten) == relational
