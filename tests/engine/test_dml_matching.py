"""UPDATE/DELETE's WHERE match is a selection: each candidate row is
judged once, by the reference interpreter, and counted once."""

from __future__ import annotations

import pytest

import repro
from repro.workloads import SupplierScale, build_database, generate


@pytest.mark.parametrize(
    "sql",
    [
        "UPDATE PARTS SET COLOR = 'BLUE' WHERE COLOR = 'RED'",
        "DELETE FROM PARTS WHERE COLOR = 'RED'",
    ],
)
def test_dml_counts_each_judged_row_once(sql):
    """``predicate_evals`` is the candidate count, as for a SELECT over
    the same table; the evaluator loop used to count every row twice."""
    db = build_database(generate(SupplierScale(12, 4, 2)))
    conn = repro.connect(db)
    candidates = len(db.table("PARTS").rows)

    select = conn.execute("SELECT PNO FROM PARTS WHERE COLOR = 'RED'")
    assert select.executed.stats["predicate_evals"] == candidates == 48

    conn.begin()
    try:
        stats = conn.execute(sql).executed.stats
    finally:
        conn.rollback()
    assert stats["predicate_evals"] == candidates
    assert stats.get("compiled_evals", 0) == 0  # the evaluator judged them
