"""E2 — the soundness boundary (Example 2).

Claim: when the projection drops the key (SNAME instead of SNO) the
DISTINCT is *necessary*: the optimizer must keep it, and executing
without it would return a strictly larger multiset.
"""

from repro import Stats, optimize
from repro.engine import execute_planned
from repro.bench import ExperimentReport

QUERY = (
    "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"
)


def test_e2_necessary_distinct_kept(benchmark, bench_db):
    rewritten = optimize(QUERY, bench_db.catalog)
    assert rewritten.query.distinct, "optimizer must not fire on Example 2"

    stats = Stats()
    with_distinct = execute_planned(QUERY, bench_db, stats=stats)
    without = execute_planned(QUERY.replace("DISTINCT", "ALL"), bench_db)

    report = ExperimentReport(
        experiment="E2: necessary DISTINCT preserved (Example 2)",
        claim="name collisions make duplicates real; rewrite correctly "
        "declines",
        columns=["variant", "rows", "duplicates_removed"],
    )
    report.add_row("DISTINCT", len(with_distinct), stats.duplicates_removed)
    report.add_row("ALL", len(without), 0)
    report.note(
        f"ALL returns {len(without) - len(with_distinct)} duplicate rows "
        "that DISTINCT must eliminate"
    )
    report.show()

    assert len(without) > len(with_distinct)
    assert without.has_duplicates()
    assert not with_distinct.has_duplicates()

    result = benchmark(lambda: execute_planned(QUERY, bench_db))
    assert not result.has_duplicates()
