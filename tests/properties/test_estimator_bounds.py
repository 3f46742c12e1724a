"""Property tests: key-bound joins never exceed Theorem 1's cap.

When the join keys cover a candidate key of one side, every row of the
other side matches at most one row — so both the *estimated* and the
*actual* join cardinality are bounded by the other side's row count,
for every database instance and every filter.  The estimator must
honour the same bound the execution provably does.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import Database, Planner, PlannerOptions, execute_planned
from repro.engine.operators import HashJoin
from repro.sql import parse_query
from repro.stats import StatisticsCostModel
from repro.stats.histogram import Histogram
from repro.workloads import SupplierScale, build_database, generate

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

KEY_JOIN = (
    "SELECT P.PNAME FROM PARTS P, SUPPLIER S "
    "WHERE P.SNO = S.SNO AND S.BUDGET > {threshold}"
)


def _database(suppliers, parts_per_supplier):
    return build_database(
        generate(
            SupplierScale(
                suppliers=suppliers, parts_per_supplier=parts_per_supplier
            )
        )
    )


def _join_nodes(plan):
    found = []

    def visit(node):
        if isinstance(node, HashJoin):
            found.append(node)
        for child in node.children():
            visit(child)

    visit(plan)
    return found


@settings(max_examples=25, **COMMON)
@given(
    suppliers=st.integers(min_value=1, max_value=20),
    parts=st.integers(min_value=1, max_value=5),
    threshold=st.integers(min_value=0, max_value=1000),
)
def test_key_join_estimate_and_actual_respect_bound(
    suppliers, parts, threshold
):
    db = _database(suppliers, parts)
    db.analyze()
    sql = KEY_JOIN.format(threshold=threshold)
    planner = Planner(
        db.catalog, PlannerOptions(use_stats=True), database=db
    )
    plan = planner.plan(parse_query(sql))
    model = StatisticsCostModel(db, db.statistics)
    bound = db.statistics.table("PARTS").row_count

    for join in _join_nodes(plan):
        assert model.estimate(join).rows <= bound + 1e-9

    actual = execute_planned(sql, db)
    assert len(actual) <= bound


@settings(max_examples=25, **COMMON)
@given(
    suppliers=st.integers(min_value=1, max_value=20),
    parts=st.integers(min_value=1, max_value=5),
    city=st.sampled_from(["Chicago", "New York", "Toronto", "nowhere"]),
)
def test_filter_estimates_never_exceed_table_rows(suppliers, parts, city):
    db = _database(suppliers, parts)
    db.analyze()
    sql = f"SELECT SNO FROM SUPPLIER WHERE SCITY = '{city}'"
    plan = Planner(db.catalog).plan(parse_query(sql))
    model = StatisticsCostModel(db, db.statistics)
    rows = model.estimate(plan).rows
    assert 0.0 <= rows <= db.statistics.table("SUPPLIER").row_count


@settings(max_examples=100, **COMMON)
@given(
    values=st.lists(
        st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=200
    ),
    probe=st.integers(min_value=-1100, max_value=1100),
)
def test_histogram_cdf_is_a_distribution(values, probe):
    histogram = Histogram.build(sorted(values), buckets=8)
    at_most = histogram.fraction_at_most(probe)
    less = histogram.fraction_less(probe)
    assert 0.0 <= less <= at_most <= 1.0
    assert histogram.fraction_at_most(max(values)) == 1.0
    assert histogram.fraction_less(min(values)) == 0.0
