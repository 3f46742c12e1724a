"""E4 — subquery to DISTINCT join (Corollary 1; Example 8).

Claim: even when the inner block can match many tuples, a duplicate-free
outer block lets the optimizer flatten to a DISTINCT join — trading the
per-row subquery re-execution for one hash join plus one (small) sort.
"""

from repro import Stats, optimize
from repro.engine import execute_planned
from repro.bench import ExperimentReport, speedup, timed
from repro.workloads import SupplierScale, build_database, generate

QUERY = (
    "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S "
    "WHERE EXISTS (SELECT * FROM PARTS P "
    "WHERE P.SNO = S.SNO AND P.COLOR = 'RED')"
)


def test_e4_corollary1_flattening(benchmark, bench_db):
    report = ExperimentReport(
        experiment="E4: subquery -> DISTINCT join (Corollary 1, Example 8)",
        claim="flattening is valid because the outer block is duplicate-"
        "free; quantifier becomes DISTINCT",
        columns=[
            "suppliers", "subq_execs_before", "t_nested(s)",
            "t_distinct_join(s)", "speedup",
        ],
    )
    for suppliers in (50, 100, 200):
        db = build_database(
            generate(SupplierScale(suppliers=suppliers, parts_per_supplier=20))
        )
        rewritten = optimize(QUERY, db.catalog)
        assert rewritten.query.distinct

        nested_stats, joined_stats = Stats(), Stats()
        nested, t_nested = timed(
            lambda: execute_planned(QUERY, db, stats=nested_stats)
        )
        joined, t_joined = timed(
            lambda: execute_planned(rewritten.query, db, stats=joined_stats)
        )
        assert nested.same_rows(joined)
        assert nested_stats.subquery_executions == suppliers
        assert joined_stats.subquery_executions == 0
        report.add_row(
            suppliers,
            nested_stats.subquery_executions,
            t_nested,
            t_joined,
            speedup(t_nested, t_joined),
        )
    report.show()

    # benchmark only the rewritten plan; the naive baseline is measured
    # once above (it is the slow thing the rewrite exists to avoid).
    rewritten = optimize(QUERY, bench_db.catalog).query
    result = benchmark(lambda: execute_planned(rewritten, bench_db))
    assert len(result) > 0
