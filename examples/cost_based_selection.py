#!/usr/bin/env python3
"""Scenario: close the loop the paper leaves open — pick a strategy.

Section 5 of the paper: "Once the optimizer identifies possible
transformations, it can then choose the most appropriate strategy on
the basis of its cost model."  This example prices every rewrite stage
of three queries against a generated instance and shows the selector's
choice, then verifies the chosen form by executing it.

Run:  python examples/cost_based_selection.py
"""

from repro import Stats
from repro.engine import execute, execute_planned
from repro.core import StrategySelector
from repro.workloads import SupplierScale, build_database, generate

QUERIES = [
    ("redundant DISTINCT (Example 1)",
     "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
     "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"),
    ("correlated EXISTS (Example 7 family)",
     "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
     "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PART-NO)"),
    ("INTERSECT (Example 9)",
     "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' "
     "INTERSECT SELECT ALL A.SNO FROM AGENTS A "
     "WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'"),
]

PARAMS = {"PART-NO": 3}


def main() -> None:
    db = build_database(
        generate(SupplierScale(suppliers=150, parts_per_supplier=12))
    )
    selector = StrategySelector(db)

    for label, sql in QUERIES:
        print("=" * 72)
        print(label)
        print("  ", sql)
        choice = selector.choose(sql)
        print()
        print(choice.explain())
        print()

        baseline = execute(sql, db, params=PARAMS)
        stats = Stats()
        chosen = execute_planned(choice.query, db, params=PARAMS, stats=stats)
        assert baseline.same_rows(chosen)
        print(f"chosen strategy verified: {len(chosen)} rows; "
              f"{stats.describe()}")
        print()


if __name__ == "__main__":
    main()
