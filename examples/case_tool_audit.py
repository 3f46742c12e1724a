#!/usr/bin/env python3
"""Scenario: audit a CASE-tool query workload for redundant DISTINCTs.

The paper's §5.1 motivation: query generators and defensive coding put
DISTINCT on everything.  This example runs Algorithm 1 over a batch of
templated queries against the supplier schema, reports which DISTINCTs
are provably redundant, and measures the sort work saved at execution
time on a generated instance.

Run:  python examples/case_tool_audit.py
"""

from repro import Stats, optimize, test_uniqueness
from repro.engine import execute
from repro.workloads import SupplierScale, build_database, generate

# What a code generator might emit: every query gets DISTINCT "to be safe".
WORKLOAD = [
    ("supplier directory",
     "SELECT DISTINCT SNO, SNAME, SCITY FROM SUPPLIER"),
    ("red part listing",
     "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
     "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"),
    ("parts of one supplier",
     "SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P "
     "WHERE P.SNO = :SUPPLIER-NO AND S.SNO = P.SNO"),
    ("agents by supplier",
     "SELECT DISTINCT A.ANO, A.ANAME, S.SNO FROM AGENTS A, SUPPLIER S "
     "WHERE A.SNO = S.SNO"),
    ("cities with red parts",  # genuinely needs DISTINCT
     "SELECT DISTINCT S.SCITY FROM SUPPLIER S, PARTS P "
     "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"),
    ("supplier names",  # genuinely needs DISTINCT
     "SELECT DISTINCT SNAME FROM SUPPLIER"),
]

PARAMS = {"SUPPLIER-NO": 1}


def main() -> None:
    db = build_database(
        generate(SupplierScale(suppliers=200, parts_per_supplier=15))
    )

    print(f"{'query':<28}{'verdict':<22}{'rows sorted saved':>18}")
    print("-" * 68)

    total_saved = 0
    for label, sql in WORKLOAD:
        verdict = test_uniqueness(sql, db.catalog)
        if verdict.unique:
            optimized = optimize(sql, db.catalog)
            before, after = Stats(), Stats()
            execute(sql, db, params=PARAMS, stats=before)
            execute(optimized.query, db, params=PARAMS, stats=after)
            saved = before.sort_rows - after.sort_rows
            total_saved += saved
            print(f"{label:<28}{'DISTINCT removable':<22}{saved:>18}")
        else:
            print(f"{label:<28}{'DISTINCT required':<22}{'-':>18}")

    print("-" * 68)
    print(f"{'total rows spared the sort':<50}{total_saved:>18}")


if __name__ == "__main__":
    main()
