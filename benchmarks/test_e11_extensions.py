"""E11 — the paper's §8 future-work items, implemented as extensions.

* **Join elimination via inclusion dependencies** (King's notion): a
  foreign-key join whose joined table is never projected or filtered is
  removed outright — cheaper than both the join and the EXISTS fold.
* **True-interpreted CHECK predicates**: equality CHECK constraints on
  NOT NULL columns feed Algorithm 1 as extra bindings, detecting
  redundant DISTINCTs the base algorithm misses.
"""

from repro import Stats
from repro.engine import execute_planned
from repro.bench import ExperimentReport, speedup, timed
from repro.catalog import Catalog
from repro.core import Optimizer, UniquenessOptions, test_uniqueness


JOIN_QUERY = (
    "SELECT P.PNO, P.SNO, P.COLOR FROM PARTS P, SUPPLIER S "
    "WHERE P.SNO = S.SNO"
)


def test_e11_join_elimination(benchmark, bench_db):
    optimizer = Optimizer.for_relational(bench_db.catalog)
    outcome = optimizer.optimize(JOIN_QUERY)
    assert [step.rule for step in outcome.steps] == ["join-elimination"]
    assert len(outcome.query.tables) == 1

    with_join_stats, without_stats = Stats(), Stats()
    with_join, t_join = timed(
        lambda: execute_planned(JOIN_QUERY, bench_db, stats=with_join_stats)
    )
    without, t_eliminated = timed(
        lambda: execute_planned(outcome.query, bench_db, stats=without_stats)
    )
    assert with_join.same_rows(without)

    report = ExperimentReport(
        experiment="E11a: join elimination (King; paper §8)",
        claim="a foreign-key join with an invisible target is removed; "
        "all work against SUPPLIER disappears",
        columns=["variant", "t(s)", "rows_scanned", "rows_joined"],
    )
    report.add_row(
        "with join", t_join,
        with_join_stats.rows_scanned, with_join_stats.rows_joined,
    )
    report.add_row(
        "eliminated", t_eliminated,
        without_stats.rows_scanned, without_stats.rows_joined,
    )
    report.note(f"speedup {speedup(t_join, t_eliminated):.2f}x")
    report.show()

    assert without_stats.rows_joined == 0
    assert without_stats.rows_scanned < with_join_stats.rows_scanned

    result = benchmark(lambda: execute_planned(outcome.query, bench_db))
    assert len(result) == len(with_join)


CONSTRAINED_DDL = """
CREATE TABLE ORDERS (
  OID INT, REGION VARCHAR(10) NOT NULL, AMOUNT INT,
  PRIMARY KEY (OID),
  CHECK (REGION = 'EU'));
CREATE TABLE HQ (
  REGION VARCHAR(10) NOT NULL, CITY VARCHAR(20),
  PRIMARY KEY (REGION));
"""

CONSTRAINED_SQL = (
    "SELECT DISTINCT O.OID, H.CITY FROM ORDERS O, HQ H "
    "WHERE O.REGION = H.REGION"
)


def test_e11_check_constraint_detection(benchmark):
    catalog = Catalog.from_ddl(CONSTRAINED_DDL)
    base = test_uniqueness(CONSTRAINED_SQL, catalog)
    extended = test_uniqueness(
        CONSTRAINED_SQL,
        catalog,
        UniquenessOptions(use_check_constraints=True),
    )
    report = ExperimentReport(
        experiment="E11b: true-interpreted CHECK predicates (paper §8)",
        claim="an equality CHECK on a NOT NULL column binds the key of "
        "the joined table; the base algorithm misses it",
        columns=["variant", "verdict"],
    )
    report.add_row("Algorithm 1 (paper)", "NO" if not base.unique else "YES")
    report.add_row(
        "with CHECK exploitation", "YES" if extended.unique else "NO"
    )
    report.show()
    assert not base.unique and extended.unique

    verdict = benchmark(
        lambda: test_uniqueness(
            CONSTRAINED_SQL,
            catalog,
            UniquenessOptions(use_check_constraints=True),
        )
    )
    assert verdict.unique


def test_e11_cost_based_selection(benchmark, bench_db):
    """Strategy selection overhead: pricing every rewrite stage must stay
    in the sub-millisecond regime (it is pure estimation, no execution)."""
    from repro.core import StrategySelector

    selector = StrategySelector(bench_db)
    sql = (
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' "
        "INTERSECT SELECT ALL A.SNO FROM AGENTS A "
        "WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'"
    )
    choice = benchmark(lambda: selector.choose(sql))
    # the full chain's DISTINCT join must win over the set operation
    assert "INTERSECT" not in choice.sql
    assert len(choice.candidates) == 3
