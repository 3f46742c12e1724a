#!/usr/bin/env python3
"""Quickstart: detect and remove an unnecessary DISTINCT.

Builds the paper's supplier database (Figure 1), runs Example 1's query,
asks Algorithm 1 whether the DISTINCT is needed, rewrites the query, and
shows that the rewritten query returns the same rows without sorting.

Run:  python examples/quickstart.py
"""

from repro import Stats, optimize, test_uniqueness
from repro.engine import Database, execute_planned

SCHEMA_AND_DATA = """
CREATE TABLE SUPPLIER (
  SNO INT, SNAME VARCHAR(30), SCITY VARCHAR(20), BUDGET INT, STATUS VARCHAR(10),
  PRIMARY KEY (SNO),
  CHECK (SNO BETWEEN 1 AND 499),
  CHECK (SCITY IN ('Chicago', 'New York', 'Toronto')));

CREATE TABLE PARTS (
  SNO INT, PNO INT, PNAME VARCHAR(30), OEM-PNO INT, COLOR VARCHAR(10),
  PRIMARY KEY (SNO, PNO),
  UNIQUE (OEM-PNO));

INSERT INTO SUPPLIER VALUES
  (1, 'Acme', 'Toronto', 100, 'Active'),
  (2, 'Baker', 'Chicago', 50, 'Active'),
  (3, 'Acme', 'Toronto', 75, 'Active');

INSERT INTO PARTS VALUES
  (1, 10, 'bolt', 100, 'RED'),
  (1, 11, 'nut', 101, 'BLUE'),
  (2, 10, 'bolt', 102, 'RED'),
  (3, 12, 'cam', 103, 'RED');
"""

QUERY = """
SELECT DISTINCT S.SNO, P.PNO, P.PNAME
FROM SUPPLIER S, PARTS P
WHERE S.SNO = P.SNO AND P.COLOR = 'RED'
"""


def main() -> None:
    db = Database.from_script(SCHEMA_AND_DATA)

    print("Query (the paper's Example 1):")
    print(QUERY.strip(), "\n")

    # 1. Ask Algorithm 1 directly.
    verdict = test_uniqueness(QUERY, db.catalog)
    print("Algorithm 1 says:", "YES — DISTINCT is unnecessary"
          if verdict.unique else "NO — keep DISTINCT")
    print(verdict.explain(), "\n")

    # 2. Let the optimizer rewrite the query.
    optimized = optimize(QUERY, db.catalog)
    print("Rewritten SQL:", optimized.sql, "\n")
    print(optimized.explain(), "\n")

    # 3. Execute both and compare.
    stats_before, stats_after = Stats(), Stats()
    before = execute_planned(QUERY, db, stats=stats_before)
    after = execute_planned(optimized.query, db, stats=stats_after)

    print("Result (identical for both):")
    print(after.to_table(), "\n")
    print(f"original:  {stats_before.sorts} sort(s), "
          f"{stats_before.sort_rows} rows sorted")
    print(f"rewritten: {stats_after.sorts} sort(s), "
          f"{stats_after.sort_rows} rows sorted")
    assert before == after


if __name__ == "__main__":
    main()
