"""A1/A2/A3 — ablations of the design choices DESIGN.md calls out.

* **A1** — Algorithm 1 variants: the paper's disjunction handling vs the
  conservative (Ceri–Widom) variant, the verbatim `paper_strict` empty-
  condition rule, and the IS NULL binding extension.  Measured as
  detection counts over a fixed query battery.
* **A2** — DISTINCT via sort vs hash in the engine.
* **A3** — join strategy (hash / merge / nested) on the flattened
  Example 7 join.
"""

from repro import Stats, optimize
from repro.engine import execute_planned
from repro.bench import ExperimentReport, timed
from repro.core import UniquenessOptions, test_uniqueness
from repro.engine import PlannerOptions


A1_BATTERY = [
    # (sql, which variants detect it)
    "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO",
    "SELECT DISTINCT SNO FROM SUPPLIER",  # needs empty-condition handling
    "SELECT DISTINCT S.SNO FROM SUPPLIER S "
    "WHERE S.SNAME = 'x' OR S.SCITY = 'y'",  # needs paper disjunctions
    "SELECT DISTINCT P.PNAME FROM PARTS P "
    "WHERE P.OEM-PNO IS NULL",  # needs the IS NULL extension
    "SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P "
    "WHERE P.SNO = :N AND S.SNO = P.SNO",
    "SELECT DISTINCT S.SNAME FROM SUPPLIER S WHERE S.SNO IN (5, 10)",
    # never detectable (truly duplicate-prone)
    "SELECT DISTINCT SCITY FROM SUPPLIER",
]

VARIANTS = {
    "paper (default)": UniquenessOptions(),
    "paper_strict": UniquenessOptions(paper_strict=True),
    "conservative": UniquenessOptions(disjunction_handling="conservative"),
    "with IS NULL ext": UniquenessOptions(treat_is_null_as_binding=True),
}


def test_a1_algorithm_variants(benchmark, bench_db):
    report = ExperimentReport(
        experiment="A1: Algorithm 1 variant detection rates",
        claim="the paper's variant detects more than Ceri-Widom's; the "
        "verbatim line-10 rule misses predicate-free queries; the IS "
        "NULL extension adds detections",
        columns=["variant", "detected", f"of {len(A1_BATTERY)}"],
    )
    detections = {}
    for name, options in VARIANTS.items():
        count = sum(
            1
            for sql in A1_BATTERY
            if test_uniqueness(sql, bench_db.catalog, options).unique
        )
        detections[name] = count
        report.add_row(name, count, len(A1_BATTERY))
    report.show()

    assert detections["paper (default)"] > detections["paper_strict"]
    assert detections["with IS NULL ext"] > detections["paper (default)"]
    assert detections["conservative"] <= detections["paper (default)"]

    count = benchmark(
        lambda: sum(
            1
            for sql in A1_BATTERY
            if test_uniqueness(sql, bench_db.catalog).unique
        )
    )
    assert count == detections["paper (default)"]


A2_QUERY = (
    "SELECT DISTINCT S.SCITY, P.COLOR FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO"
)


def test_a2_distinct_sort_vs_hash(benchmark, bench_db):
    report = ExperimentReport(
        experiment="A2: DISTINCT via sort vs hash",
        claim="hash dedup streams without sorting; both agree",
        columns=["method", "t(s)", "sort_rows", "hash_builds"],
    )
    results = {}
    for method in ("sort", "hash"):
        stats = Stats()
        result, elapsed = timed(
            lambda: execute_planned(
                A2_QUERY,
                bench_db,
                stats=stats,
                options=PlannerOptions(distinct_method=method),
            )
        )
        results[method] = result
        report.add_row(method, elapsed, stats.sort_rows, stats.hash_builds)
    report.show()
    assert results["sort"].same_rows(results["hash"])

    result = benchmark(
        lambda: execute_planned(
            A2_QUERY, bench_db, options=PlannerOptions(distinct_method="hash")
        )
    )
    assert not result.has_duplicates()


def test_a2_sort_distinct(benchmark, bench_db):
    result = benchmark(
        lambda: execute_planned(
            A2_QUERY, bench_db, options=PlannerOptions(distinct_method="sort")
        )
    )
    assert not result.has_duplicates()


def test_a2_hash_distinct(benchmark, bench_db):
    result = benchmark(
        lambda: execute_planned(
            A2_QUERY, bench_db, options=PlannerOptions(distinct_method="hash")
        )
    )
    assert not result.has_duplicates()


A3_QUERY = (
    "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S "
    "WHERE EXISTS (SELECT * FROM PARTS P "
    "WHERE S.SNO = P.SNO AND P.PNO = :PART-NO)"
)
A3_PARAMS = {"PART-NO": 3}


def test_a3_join_strategies(benchmark, bench_db):
    flattened = optimize(A3_QUERY, bench_db.catalog).query
    report = ExperimentReport(
        experiment="A3: join strategy for the flattened Example 7",
        claim="hash/merge joins beat the nested-loop product; all agree",
        columns=["strategy", "t(s)", "rows_joined"],
    )
    results = {}
    for method in ("hash", "merge", "nested"):
        stats = Stats()
        result, elapsed = timed(
            lambda: execute_planned(
                flattened,
                bench_db,
                params=A3_PARAMS,
                stats=stats,
                options=PlannerOptions(join_method=method),
            )
        )
        results[method] = result
        report.add_row(method, elapsed, stats.rows_joined)
    report.show()
    assert results["hash"].same_rows(results["merge"])
    assert results["hash"].same_rows(results["nested"])

    result = benchmark(
        lambda: execute_planned(
            flattened,
            bench_db,
            params=A3_PARAMS,
            options=PlannerOptions(join_method="hash"),
        )
    )
    assert len(result) > 0
