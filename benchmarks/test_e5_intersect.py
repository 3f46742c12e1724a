"""E5 — intersection to existential subquery (Theorem 3; Example 9).

Claim: the classic INTERSECT strategy materializes and sorts *both*
operands; when one operand is duplicate-free, the rewrite chain
(intersect -> EXISTS -> DISTINCT join) sorts only the final (small)
result.  We compare rows sorted and wall-clock time.
"""

from repro import Stats, optimize
from repro.engine import execute_planned
from repro.bench import ExperimentReport, speedup, timed
from repro.workloads import SupplierScale, build_database, generate

QUERY = (
    "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' "
    "INTERSECT "
    "SELECT ALL A.SNO FROM AGENTS A "
    "WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'"
)


def test_e5_intersect_rewrite_chain(benchmark, bench_db):
    report = ExperimentReport(
        experiment="E5: INTERSECT -> EXISTS -> DISTINCT join (Example 9)",
        claim="the rewrite sorts only the final result instead of both operands (sort_rows column); wall-clock is scan-dominated on this engine, so time stays near parity",
        columns=[
            "suppliers", "sort_rows_setop", "sort_rows_rewritten",
            "t_setop(s)", "t_rewritten(s)", "speedup",
        ],
    )
    for suppliers in (100, 300, 600):
        db = build_database(
            generate(
                SupplierScale(
                    suppliers=suppliers,
                    parts_per_supplier=2,
                    agents_per_supplier=4,
                )
            )
        )
        rewritten = optimize(QUERY, db.catalog)
        rules = [step.rule for step in rewritten.steps]
        assert rules[0] == "intersect-to-exists"

        setop_stats, rewritten_stats = Stats(), Stats()
        setop, t_setop = timed(
            lambda: execute_planned(QUERY, db, stats=setop_stats)
        )
        converted, t_rewritten = timed(
            lambda: execute_planned(
                rewritten.query, db, stats=rewritten_stats
            )
        )
        assert setop.same_rows(converted)
        report.add_row(
            suppliers,
            setop_stats.sort_rows,
            rewritten_stats.sort_rows,
            t_setop,
            t_rewritten,
            speedup(t_setop, t_rewritten),
        )
    report.show()

    rewritten = optimize(QUERY, bench_db.catalog).query
    result = benchmark(lambda: execute_planned(rewritten, bench_db))
    assert not result.has_duplicates()


def test_e5_setop_execution(benchmark, bench_db):
    result = benchmark(lambda: execute_planned(QUERY, bench_db))
    assert not result.has_duplicates()


def test_e5_except_variant(benchmark, bench_db):
    """The EXCEPT analogue (the paper's omitted-for-space extension)."""
    except_query = (
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' "
        "EXCEPT "
        "SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'"
    )
    rewritten = optimize(except_query, bench_db.catalog)
    assert "except-to-not-exists" in [s.rule for s in rewritten.steps]
    original = execute_planned(except_query, bench_db)
    converted = benchmark(
        lambda: execute_planned(rewritten.query, bench_db)
    )
    assert original.same_rows(converted)
