"""A hash join's build side comes from its table's own hash index —
counted, not timed.

When one side of a hash join is a scan of a table whose join columns
are one auto-indexed column (a key or FOREIGN KEY column) or one
candidate key, and the cost model prices probing that table's hash
index below hashing, the planner serves the build side from the index:
no build loop runs, and a probe fetches only its bucket.  So the rows a
join reads are bounded by the probe side's rows times the bucket size —
one per probe where the probed columns are a key — and not by the
indexed table's size.

The texts are those of ``benchmarks/e2e/workloads.py``.
"""

from __future__ import annotations

import pytest

import repro
from repro import Stats, clear_all_caches
from repro.engine import Planner, PlannerOptions, execute_planned
from repro.engine.cost import CostModel
from repro.engine.compile import set_compilation_enabled
from repro.engine.operators import ExecContext, HashJoin
from repro.engine.table_data import TableData
from repro.observe import execute_analyzed
from repro.resilience import FAULTS, SITE_INDEX_BUILD
from repro.workloads import SupplierScale, build_database, generate

from .test_row_kernel_scaling import workloads

KEY_JOIN = workloads.TEMPLATES["key_join"].sql
POINT = {
    "key_join_point.part": {"SNO": 7, "PNO": 3},
    "key_join_point.agent": {"ANO": 20},
}
# The counters that say which way a row was reached, not what the join did.
ACCESS_PATH = {
    "index_fallbacks", "hash_builds", "index_probes", "index_rows", "rows_scanned",
}


def _db(suppliers: int):
    return build_database(generate(SupplierScale(suppliers, 8, 3, seed=7)))


@pytest.fixture(scope="module")
def db():
    return _db(60)


def _run(sql, database, params, options=None):
    stats = Stats()
    result = execute_planned(sql, database, params=params, stats=stats, options=options)
    return result, stats


def _joins(plan):
    found = [plan] if isinstance(plan, HashJoin) else []
    for child in plan.children():
        found += _joins(child)
    return found


def _counters(stats: Stats) -> dict[str, int]:
    """Every counter but the plan cache's and the compiler's."""
    path = {"plan_cache_hits", "plan_cache_misses", "predicates_compiled"}
    return {k: v for k, v in stats.as_dict().items() if k not in path}


# ----------------------------------------------------------------------
# the bound: rows read do not grow with the indexed table


@pytest.mark.parametrize("template", sorted(POINT))
def test_a_point_join_reads_the_same_rows_at_60_and_600_suppliers(template):
    sql = workloads.TEMPLATES[template].sql
    seen = []
    for suppliers in (60, 600):
        clear_all_caches()
        result, stats = _run(sql, _db(suppliers), POINT[template])
        assert len(result.rows) == 1
        seen.append((stats.rows_scanned, stats.hash_builds))
    # One row through the key probe, one supplier through SUPPLIER(SNO).
    assert seen[0] == seen[1] == (2, 0)


def test_key_join_reads_the_suppliers_and_the_matched_parts_only(db):
    params = {"CITY": "Chicago", "LO": 1, "HI": 60}
    result, stats = _run(KEY_JOIN, db, params)
    suppliers, parts = len(db.table("SUPPLIER")), len(db.table("PARTS"))
    assert 0 < len(result.rows) < parts
    # No PARTS filter: every part fetched through PARTS(SNO) is a row.
    assert stats.index_rows == stats.rows_joined == len(result.rows)
    assert stats.rows_scanned == suppliers + len(result.rows)
    assert stats.hash_builds == 0
    assert stats.index_probes == stats.hash_probes


def test_the_plan_names_the_index_and_probes_from_the_small_side(db):
    plan = Planner(db.catalog, database=db).plan(KEY_JOIN)
    (join,) = _joins(plan)
    assert join.index == ("SNO",) and not join.build_left
    assert "HashJoin(SNO=SNO, index=PARTS(SNO))" in plan.explain()


@pytest.mark.parametrize(
    "where",
    [
        "S.SCITY = 'Chicago'",
        "P.COLOR = 'RED'",
        "P.COLOR = 'RED' AND P.PNAME = 'Bolt'",
        "S.SNO BETWEEN 1 AND 50 AND P.COLOR = 'RED'",
    ],
)
def test_the_cheapest_of_hashing_and_each_index_is_chosen(db, where):
    sql = (
        "SELECT S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P "
        f"WHERE S.SNO = P.SNO AND {where}"
    )
    (join,) = _joins(Planner(db.catalog, database=db).plan(sql))
    model = CostModel(db)
    left, right = model.estimate(join.left), model.estimate(join.right)
    shape = (
        join.left, join.right, join.left_keys, join.right_keys,
        join.residual, join.null_safe,
    )
    candidates = [
        HashJoin(*shape, build_left=left.rows < right.rows),
        HashJoin(*shape, build_left=False, index=("SNO",)),
        HashJoin(*shape, build_left=True, index=("SNO",)),
    ]
    costs = [model.hash_join_cost(c, left, right) for c in candidates]
    assert model.hash_join_cost(join, left, right) == min(costs)
    assert join.index == ("SNO",)


def test_a_composite_join_is_served_only_by_a_declared_key():
    database = _db(60)
    # PARTS' key is (SNO, PNO): the join's columns, put in key order.
    keyed = (
        "SELECT A.ANAME, P.PNAME FROM AGENTS A, PARTS P "
        "WHERE A.ANO = P.PNO AND A.SNO = P.SNO"
    )
    (join,) = _joins(Planner(database.catalog, database=database).plan(keyed))
    assert join.index == ("SNO", "PNO")
    assert "HashJoin(SNO=SNO, ANO=PNO, index=PARTS(SNO, PNO))" in join.explain()
    indexed, _ = _run(keyed, database, {})
    hashed, _ = _run(keyed, database, {}, PlannerOptions(index_scans=False))
    assert indexed.rows and indexed.same_rows(hashed)
    # AGENTS(SNO, ANO) is two indexed columns but no key: no new index.
    unkeyed = (
        "SELECT A.ANAME, S.SNAME FROM AGENTS A, SUPPLIER S "
        "WHERE A.SNO = S.SNO AND A.ANO = S.BUDGET"
    )
    (join,) = _joins(Planner(database.catalog, database=database).plan(unkeyed))
    assert join.index is None
    _run(unkeyed, database, {})
    assert not database.table("AGENTS").has_hash_index(("SNO", "ANO"))


def test_without_a_database_or_with_index_scans_off_nothing_is_indexed(db):
    assert _joins(Planner(db.catalog).plan(KEY_JOIN))[0].index is None
    options = PlannerOptions(index_scans=False)
    plan = Planner(db.catalog, options, database=db).plan(KEY_JOIN)
    assert _joins(plan)[0].index is None


# With index_scans off, the plan and every counter are the parent's
# (recorded from the parent commit on this database and these bindings).
UNINDEXED = {
    "key_join": (
        {"CITY": "Chicago", "LO": 1, "HI": 60},
        "Project(SNAME, PNO, PNAME)\n"
        "  HashJoin(SNO=SNO, build=left)\n"
        "    Filter(S.SCITY = :CITY AND S.SNO BETWEEN :LO AND :HI)\n"
        "      SeqScan(SUPPLIER AS S)\n"
        "    SeqScan(PARTS AS P)",
        {"rows_scanned": 540, "rows_joined": 144, "predicate_evals": 60,
         "hash_builds": 18, "hash_probes": 480, "rows_output": 144,
         "compiled_evals": 60},
    ),
    "key_join_point.part": (
        {"SNO": 7, "PNO": 3},
        "Project(SNAME, PNAME, COLOR)\n"
        "  HashJoin(SNO=SNO)\n"
        "    SeqScan(SUPPLIER AS S)\n"
        "    Filter(P.SNO = :SNO AND P.PNO = :PNO)\n"
        "      SeqScan(PARTS AS P)",
        {"rows_scanned": 540, "rows_joined": 1, "predicate_evals": 480,
         "hash_builds": 1, "hash_probes": 60, "rows_output": 1,
         "compiled_evals": 480},
    ),
    "distinct_needed": (
        {"COLOR": "RED", "LO": 1, "HI": 60},
        "Distinct(sort)\n"
        "  Project(SNAME, PNAME)\n"
        "    HashJoin(SNO=SNO, build=left)\n"
        "      Filter(S.SNO BETWEEN :LO AND :HI)\n"
        "        SeqScan(SUPPLIER AS S)\n"
        "      Filter(P.COLOR = :COLOR)\n"
        "        SeqScan(PARTS AS P)",
        {"rows_scanned": 540, "rows_joined": 116, "predicate_evals": 540,
         "sorts": 1, "sort_rows": 116, "duplicates_removed": 17,
         "hash_builds": 60, "hash_probes": 116, "rows_output": 99,
         "compiled_evals": 540},
    ),
}


@pytest.mark.parametrize("template", sorted(UNINDEXED))
def test_index_scans_off_keeps_the_parents_plan_and_counters(db, template):
    params, explain, counters = UNINDEXED[template]
    sql = workloads.TEMPLATES[template].sql
    options = PlannerOptions(index_scans=False)
    assert Planner(db.catalog, options, database=db).plan(sql).explain() == explain
    _, stats = _run(sql, db, params, options)
    assert {k: v for k, v in _counters(stats).items() if v} == counters


@pytest.mark.parametrize("template", sorted(UNINDEXED))
def test_the_index_join_returns_the_hash_joins_rows(db, template):
    params = UNINDEXED[template][0]
    sql = workloads.TEMPLATES[template].sql
    indexed, _ = _run(sql, db, params)
    hashed, _ = _run(sql, db, params, PlannerOptions(index_scans=False))
    assert indexed.same_rows(hashed)


# ----------------------------------------------------------------------
# transactions: the index is the transaction's view


def test_a_transaction_sees_its_writes_through_the_index_join():
    database = _db(60)
    by_supplier = (
        "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO = P.SNO AND S.SNO BETWEEN :LO AND :HI"
    )
    by_part = workloads.TEMPLATES["key_join_point.part"].sql
    supplier = {"LO": 5, "HI": 5}
    part = {"SNO": 7, "PNO": 3}

    def answers(conn):
        first = conn.execute(by_supplier, supplier)
        second = conn.execute(by_part, part)
        for cursor in (first, second):  # no hash table was built
            assert cursor.executed.stats.get("hash_builds", 0) == 0
        return sorted(first.fetchall()), second.fetchall()

    with repro.connect(database) as conn:
        before = answers(conn)
        assert len(before[0]) == 8 and len(before[1]) == 1
        conn.begin()
        conn.execute("INSERT INTO PARTS VALUES (5, 99, 'Extra', 99999, 'RED')")
        conn.execute("DELETE FROM PARTS WHERE SNO = 7")  # its referencing
        conn.execute("DELETE FROM AGENTS WHERE SNO = 7")  # rows go first
        conn.execute("DELETE FROM SUPPLIER WHERE SNO = 7")
        during = answers(conn)
        assert during[0] == sorted(before[0] + [(5, 99)])
        assert during[1] == []
        conn.rollback()
        assert answers(conn) == before


BY_SUPPLIER = (
    "SELECT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND S.SNO BETWEEN :LO AND :HI"
)
RANGE = {"LO": 1, "HI": 10}


@pytest.mark.parametrize("compiled", [True, False], ids=["fused", "per-node"])
def test_a_join_reads_one_commit_while_an_update_lands_mid_probe(compiled):
    database = _db(60)
    plan = Planner(database.catalog, database=database).plan(BY_SUPPLIER)
    assert _joins(plan)[0].index == ("SNO",)
    before = list(plan.rows(ExecContext(database, params=RANGE)))
    previous = set_compilation_enabled(compiled)
    try:
        stream = plan.rows(ExecContext(database, params=RANGE))
        seen = [next(stream)]
        assert seen[0][0] == 1
        # One UPDATE (a delete and an insert per row) of a bucket being
        # read and of one not probed yet, committed between two rows.
        with repro.connect(database) as conn:
            conn.execute("UPDATE PARTS SET PNAME = 'Moved' WHERE SNO = 1 OR SNO = 9")
        seen += stream
    finally:
        set_compilation_enabled(previous)
    assert seen == before
    after = list(plan.rows(ExecContext(database, params=RANGE)))
    assert sorted(row for row in after if row[2] == "Moved") == sorted(
        (sno, pno, "Moved") for sno, pno, _ in before if sno in (1, 9)
    )


def test_an_index_built_while_a_commit_lands_holds_the_commit(monkeypatch):
    database = _db(60)
    build = TableData.build_index
    calls = []

    def racing(self, columns, rows):
        calls.append(columns)
        if len(calls) == 1:  # a commit lands while the first build runs
            with repro.connect(database) as conn:
                conn.execute("INSERT INTO PARTS VALUES (5, 99, 'Extra', 99999, 'RED')")
        return build(self, columns, rows)

    monkeypatch.setattr(TableData, "build_index", racing)
    index = database.table("PARTS").hash_index(("SNO",))
    assert len(calls) == 2
    assert (5, 99, "Extra", 99999, "RED") in index[((1, 5),)]


# ----------------------------------------------------------------------
# robustness: a failed index build hashes the build input instead


def test_an_index_build_fault_falls_back_to_hashing_the_build_side():
    params = {"CITY": "Chicago", "LO": 1, "HI": 60}
    faulted = Stats()
    database = _db(60)  # cold: PARTS(SNO) is not built yet
    with FAULTS.inject(SITE_INDEX_BUILD):
        result = execute_planned(KEY_JOIN, database, params=params, stats=faulted)
    clear_all_caches()
    expected, clean = _run(KEY_JOIN, database, params)
    assert result.same_rows(expected)
    assert faulted.index_fallbacks == 1 and clean.index_fallbacks == 0
    assert faulted.hash_builds == len(database.table("PARTS"))
    assert clean.hash_builds == 0 and clean.index_rows == len(expected.rows)
    # Only the counters of the access path differ — and, the faulted run
    # going node by node, which judge evaluated the predicates.
    differ = {
        name
        for name, value in _counters(faulted).items()
        if getattr(clean, name) != value
    }
    assert differ <= ACCESS_PATH | {"compiled_evals"}, differ


@pytest.mark.parametrize("compiled", [True, False], ids=["fused", "per-node"])
def test_one_failed_index_build_per_execution_hashes_the_build_side(
    monkeypatch, compiled
):
    params = {"CITY": "Chicago", "LO": 1, "HI": 60}
    database = _db(60)
    expected, _ = _run(KEY_JOIN, database, params, PlannerOptions(index_scans=False))
    attempts = []

    def failing(self, columns):
        attempts.append(columns)
        raise RuntimeError("index build failed")

    monkeypatch.setattr(TableData, "hash_index", failing)
    previous = set_compilation_enabled(compiled)
    try:
        clear_all_caches()
        result, stats = _run(KEY_JOIN, database, params)
    finally:
        set_compilation_enabled(previous)
    assert result.same_rows(expected)
    assert attempts == [("SNO",)]
    assert stats.index_fallbacks == 1 and stats.index_rows == 0
    assert stats.hash_builds == len(database.table("PARTS"))


# ----------------------------------------------------------------------
# cost model and EXPLAIN ANALYZE


def test_an_index_served_build_costs_its_probes_not_a_scan(db):
    plan = Planner(db.catalog, database=db).plan(KEY_JOIN)
    (join,) = _joins(plan)
    model = CostModel(db)
    probe = model.estimate(join.left)
    assert model.hash_join_cost(join, probe, model.estimate(join.right)) < len(
        db.table("PARTS")
    )
    hashed = Planner(db.catalog, PlannerOptions(index_scans=False), database=db)
    assert model.estimate(join).cost < model.estimate(hashed.plan(KEY_JOIN)).cost


def test_explain_analyze_reports_no_scan_of_the_indexed_side(db):
    executed = execute_analyzed(
        KEY_JOIN, db, params={"CITY": "Chicago", "LO": 1, "HI": 60}
    )
    lines = executed.plan.explain(analysis=executed.analysis).splitlines()
    (join,) = [line for line in lines if "HashJoin" in line]
    assert "index=PARTS(SNO)" in join and "actual rows=" in join
    (parts,) = [line for line in lines if "SeqScan(PARTS" in line]
    assert parts.endswith("[never executed]")
