"""E3 — subquery-to-join flattening (Theorem 2; Example 7).

Claim: a correlated EXISTS forces a naive nested-loop strategy
(re-executing the subquery per outer row); flattening to a join lets the
optimizer use a hash join.  We report subquery re-executions eliminated
and wall-clock speedup.
"""

from repro import Stats, optimize
from repro.engine import execute_planned
from repro.bench import ExperimentReport, speedup, timed
from repro.workloads import SupplierScale, build_database, generate

# Example 7 without the outer SNAME filter: every supplier is a
# candidate row, isolating the cost of re-executing the subquery per row
# (the exact Example 7 text is exercised in the test suite).
QUERY = (
    "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S "
    "WHERE EXISTS "
    "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PART-NO)"
)
PARAMS = {"PART-NO": 3}


def test_e3_flattening_removes_subquery_reexecution(benchmark, bench_db):
    report = ExperimentReport(
        experiment="E3: subquery -> join (Theorem 2, Example 7)",
        claim="flattening eliminates per-row subquery execution",
        columns=[
            "suppliers", "subq_execs_before", "subq_execs_after",
            "t_nested(s)", "t_joined(s)", "speedup",
        ],
    )
    for suppliers in (50, 100, 200):
        db = build_database(
            generate(SupplierScale(suppliers=suppliers, parts_per_supplier=20))
        )
        rewritten = optimize(QUERY, db.catalog)
        assert [s.rule for s in rewritten.steps] == ["subquery-to-join"]

        nested_stats, joined_stats = Stats(), Stats()
        nested, t_nested = timed(
            lambda: execute_planned(QUERY, db, params=PARAMS, stats=nested_stats)
        )
        joined, t_joined = timed(
            lambda: execute_planned(
                rewritten.query, db, params=PARAMS, stats=joined_stats
            )
        )
        assert nested.same_rows(joined)
        assert nested_stats.subquery_executions == suppliers
        assert joined_stats.subquery_executions == 0
        report.add_row(
            suppliers,
            nested_stats.subquery_executions,
            joined_stats.subquery_executions,
            t_nested,
            t_joined,
            speedup(t_nested, t_joined),
        )
    report.show()

    rewritten = optimize(QUERY, bench_db.catalog).query
    result = benchmark(
        lambda: execute_planned(rewritten, bench_db, params=PARAMS)
    )
    assert result.columns == ["SNO", "SNAME"]


def test_e3_nested_execution(benchmark, bench_db):
    result = benchmark(lambda: execute_planned(QUERY, bench_db, params=PARAMS))
    assert result.columns == ["SNO", "SNAME"]


def test_e3_flattened_execution(benchmark, bench_db):
    rewritten = optimize(QUERY, bench_db.catalog).query
    result = benchmark(lambda: execute_planned(rewritten, bench_db, params=PARAMS))
    assert result.columns == ["SNO", "SNAME"]
