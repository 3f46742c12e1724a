"""A1/A2/A3 — ablations of the design choices DESIGN.md calls out.

* **A1** — Algorithm 1 variants: the paper's disjunction handling vs the
  conservative (Ceri–Widom) variant, the verbatim `paper_strict` empty-
  condition rule, and the IS NULL binding extension.  Measured as
  detection counts over a fixed query battery.
* **A2** — DISTINCT as the sort the paper's cost model prices.
* **A3** — join strategy on the flattened Example 7 join: the planned
  hash join vs a nested loop over the hash join's own inputs.
"""

from repro import Stats, optimize
from repro.engine import Planner, execute_plan, execute_planned
from repro.bench import ExperimentReport, timed
from repro.core import UniquenessOptions, test_uniqueness
from repro.engine.operators import HashJoin, NestedLoopJoin, Project
from repro.sql import parse_condition


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


def test_a2_sort_distinct(benchmark, bench_db):
    result = benchmark(lambda: execute_planned(A2_QUERY, bench_db))
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
        claim="the hash join beats the nested-loop product over the same "
        "inputs; both agree",
        columns=["strategy", "t(s)", "rows_joined"],
    )
    hashed = Planner(bench_db.catalog, database=bench_db).plan(flattened)
    join = hashed.child
    assert isinstance(hashed, Project) and isinstance(join, HashJoin)
    nested = Project(
        NestedLoopJoin(join.left, join.right, parse_condition("S.SNO = P.SNO")),
        hashed.indices,
        hashed.schema.output_names(),
    )
    results, joined = {}, {}
    for strategy, plan in (("hash", hashed), ("nested", nested)):
        stats = Stats()
        result, elapsed = timed(
            lambda: execute_plan(plan, bench_db, params=A3_PARAMS, stats=stats)
        )
        results[strategy], joined[strategy] = result, stats.rows_joined
        report.add_row(strategy, elapsed, stats.rows_joined)
    report.show()
    assert results["hash"].same_rows(results["nested"])
    assert joined["hash"] < joined["nested"]

    result = benchmark(
        lambda: execute_planned(flattened, bench_db, params=A3_PARAMS)
    )
    assert len(result) > 0
