"""E1 — unnecessary duplicate elimination (§5.1; Examples 1, 4, 6).

Claim: when Theorem 1 holds, dropping DISTINCT skips the result sort
entirely.  We execute Example 1's query with and without the rewrite at
several scales (hash-join physical plans) and report time, rows sorted,
and speedup.
"""

from repro import Stats, optimize
from repro.engine import execute_planned
from repro.bench import ExperimentReport, speedup, timed
from repro.workloads import SupplierScale, build_database, generate

QUERY = (
    "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"
)


def test_e1_sort_avoided_across_scales(benchmark, bench_db):
    report = ExperimentReport(
        experiment="E1: redundant DISTINCT removal (Example 1)",
        claim="rewrite removes the result sort; results identical",
        columns=[
            "suppliers", "rows_out", "t_distinct(s)", "t_rewritten(s)",
            "sort_rows_saved", "speedup",
        ],
    )
    for suppliers in (100, 300, 600):
        db = build_database(
            generate(SupplierScale(suppliers=suppliers, parts_per_supplier=30))
        )
        rewritten = optimize(QUERY, db.catalog)
        assert not rewritten.query.distinct

        stats_before, stats_after = Stats(), Stats()
        before, t_before = timed(
            lambda: execute_planned(QUERY, db, stats=stats_before)
        )
        after, t_after = timed(
            lambda: execute_planned(rewritten.query, db, stats=stats_after)
        )
        assert before.same_rows(after)
        assert stats_after.sorts == 0 and stats_before.sorts == 1
        report.record_stats(f"distinct_{suppliers}", stats_before)
        report.record_stats(f"rewritten_{suppliers}", stats_after)
        report.add_row(
            suppliers,
            len(after),
            t_before,
            t_after,
            stats_before.sort_rows,
            speedup(t_before, t_after),
        )
    report.show()

    # pytest-benchmark datapoint: rewritten execution at the bench scale.
    rewritten = optimize(QUERY, bench_db.catalog).query
    result = benchmark(lambda: execute_planned(rewritten, bench_db))
    assert len(result) > 0


def test_e1_original_execution(benchmark, bench_db):
    result = benchmark(lambda: execute_planned(QUERY, bench_db))
    assert len(result) > 0


def test_e1_analysis_overhead(benchmark, bench_db):
    """Algorithm 1 itself must be cheap relative to execution."""
    outcome = benchmark(lambda: optimize(QUERY, bench_db.catalog))
    assert outcome.changed
