"""Both engines charge a set operation for the work it runs.

The physical ``SortSetOp`` and the reference interpreter must agree on
the rows (as a multiset) and on every counter a set operation moves, in
all six spellings:

* INTERSECT and EXCEPT [ALL] charge the paper's sort of both operands
  (§5.3): two sorts over the rows of both;
* UNION deduplicates the concatenation with one sort over its rows and
  counts the duplicates it drops;
* UNION ALL concatenates and charges no sort.

The engines read the base tables differently (a scan vs. the
interpreter's one-table product), so those counters are not compared.
"""

from __future__ import annotations

import pytest

from repro.engine import Stats, execute_planned
from tests.engine.reference_executor import execute
from repro.workloads import SupplierScale, build_database, generate

SET_OP_COUNTERS = ("sorts", "sort_rows", "duplicates_removed", "hash_builds",
                   "hash_probes", "rows_output")
EXPECTED = {  # (sorts, sort_rows per operand row) of each spelling
    "UNION": (1, 1),
    "UNION ALL": (0, 0),
    "INTERSECT": (2, 1),
    "INTERSECT ALL": (2, 1),
    "EXCEPT": (2, 1),
    "EXCEPT ALL": (2, 1),
}


@pytest.fixture(scope="module")
def db():
    return build_database(generate(SupplierScale(20, 4, 2)))


def _charged(stats: Stats) -> dict[str, int]:
    return {name: getattr(stats, name) for name in SET_OP_COUNTERS}


@pytest.mark.parametrize("spelling", sorted(EXPECTED))
def test_engines_charge_the_same_set_operation(db, spelling):
    sql = f"SELECT S.SCITY FROM SUPPLIER S {spelling} SELECT A.ACITY FROM AGENTS A"
    planned_stats, reference_stats = Stats(), Stats()
    planned = execute_planned(sql, db, stats=planned_stats)
    reference = execute(sql, db, stats=reference_stats)
    assert planned.same_rows(reference)
    assert _charged(planned_stats) == _charged(reference_stats)
    operand_rows = len(db.table("SUPPLIER").rows) + len(db.table("AGENTS").rows)
    sorts, per_row = EXPECTED[spelling]
    assert (planned_stats.sorts, planned_stats.sort_rows) == (
        sorts, per_row * operand_rows
    )
