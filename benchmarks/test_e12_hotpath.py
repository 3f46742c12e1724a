"""E12 — hot-path acceleration: compiled predicates, caches, indexes.

Three mechanisms attack the engine's interpretive overheads:

* analysis/plan caches keyed on catalog/database fingerprints (the E10
  batch audit re-analyzes identical template text every round),
* hash-index probes replacing full inner-table re-scans in correlated
  subqueries and ``key = constant`` scans,
* predicate compilation to row closures, removing per-row Scope
  allocation and recursive dispatch from Filter/join residuals.

Every table in this module lands in ``benchmarks/out/BENCH_hotpath.json``.
"""

from repro import (
    Stats,
    clear_all_caches,
    set_caches_enabled,
    test_uniqueness,
)
from repro.engine import execute_planned
from repro.bench import ExperimentReport, speedup, timed
from repro.engine import PlanCache, set_compilation_enabled
from repro.workloads import SupplierScale, build_database, generate

# The E10 CASE-tool audit templates (5 provably redundant, 5 required).
AUDIT_TEMPLATES = [
    "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND P.COLOR = :C",
    "SELECT DISTINCT S.SNO, SNAME, P.PNO FROM SUPPLIER S, PARTS P "
    "WHERE P.SNO = :N AND S.SNO = P.SNO",
    "SELECT DISTINCT SNO, SNAME, SCITY FROM SUPPLIER",
    "SELECT DISTINCT A.ANO, A.ANAME, S.SNO FROM AGENTS A, SUPPLIER S "
    "WHERE A.SNO = S.SNO",
    "SELECT DISTINCT P.OEM-PNO, P.PNAME FROM PARTS P WHERE P.SNO = :N",
    "SELECT DISTINCT S.SNAME, P.PNO FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO",
    "SELECT DISTINCT SCITY FROM SUPPLIER",
    "SELECT DISTINCT P.COLOR, S.SCITY FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO",
    "SELECT DISTINCT A.ACITY FROM AGENTS A WHERE A.SNO = :N",
    "SELECT DISTINCT P.PNAME FROM PARTS P WHERE P.COLOR = :C",
]

CORRELATED_QUERY = (
    "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S "
    "WHERE EXISTS "
    "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PART-NO)"
)
CORRELATED_PARAMS = {"PART-NO": 3}

AUDIT_ROUNDS = 20


def _run_audit(catalog):
    return sum(
        1 for sql in AUDIT_TEMPLATES if test_uniqueness(sql, catalog).unique
    )


def test_e12_batch_audit_warm_cache_speedup(benchmark, bench_db):
    """The headline claim: the E10 audit runs >=5x faster warm."""
    catalog = bench_db.catalog

    previous = set_caches_enabled(False)
    try:
        cold_counts, t_cold = timed(
            lambda: [_run_audit(catalog) for _ in range(AUDIT_ROUNDS)]
        )
    finally:
        set_caches_enabled(previous)

    set_caches_enabled(True)
    clear_all_caches()
    prime = _run_audit(catalog)
    warm_counts, t_warm = timed(
        lambda: [_run_audit(catalog) for _ in range(AUDIT_ROUNDS)]
    )

    report = ExperimentReport(
        experiment="E12a: batch audit, cold vs warm analysis caches",
        claim="fingerprint-keyed caches amortize Algorithm 1 across a "
        "templated workload",
        columns=["mode", "rounds", "detected/round", "t(s)", "speedup"],
        slug="hotpath",
    )
    ratio = speedup(t_cold, t_warm)
    report.add_row("cold (caches off)", AUDIT_ROUNDS, cold_counts[0], t_cold, 1.0)
    report.add_row("warm (caches on)", AUDIT_ROUNDS, warm_counts[0], t_warm, ratio)
    report.note(
        f"{len(AUDIT_TEMPLATES)} templates/round; warm hits skip parse, "
        "CNF/DNF, and closure work"
    )
    report.show()

    assert cold_counts == warm_counts and prime == cold_counts[0] == 5
    assert ratio >= 5.0, f"warm audit only {ratio:.1f}x faster"

    detected = benchmark(lambda: _run_audit(catalog))
    assert detected == 5


def test_e12_correlated_subquery_index_probes(benchmark):
    """EXISTS re-executions become O(1) index probes, same results."""
    db = build_database(
        generate(SupplierScale(suppliers=100, parts_per_supplier=20))
    )

    scan_stats, probe_stats = Stats(), Stats()
    scanned, t_scan = timed(
        lambda: execute_planned(
            CORRELATED_QUERY,
            db,
            params=CORRELATED_PARAMS,
            stats=scan_stats,
            use_indexes=False,
        )
    )
    # First indexed run pays the one-off O(n) index build; time the
    # steady state the batch workloads actually see.
    execute_planned(
        CORRELATED_QUERY, db, params=CORRELATED_PARAMS, use_indexes=True
    )
    probed, t_probe = timed(
        lambda: execute_planned(
            CORRELATED_QUERY,
            db,
            params=CORRELATED_PARAMS,
            stats=probe_stats,
            use_indexes=True,
        )
    )

    report = ExperimentReport(
        experiment="E12b: correlated EXISTS, inner scan vs index probe",
        claim="each subquery re-execution probes the FK hash index "
        "instead of re-scanning the inner table",
        columns=[
            "mode", "subq_execs", "index_probes", "inner_rows_examined",
            "t(s)", "speedup",
        ],
        slug="hotpath",
    )
    report.add_row(
        "seq rescan",
        scan_stats.subquery_executions,
        scan_stats.index_probes,
        scan_stats.rows_scanned,
        t_scan,
        1.0,
    )
    report.add_row(
        "index probe",
        probe_stats.subquery_executions,
        probe_stats.index_probes,
        probe_stats.index_rows,
        t_probe,
        speedup(t_scan, t_probe),
    )
    report.show()

    assert scanned.same_rows(probed)
    # Same naive strategy (one execution per outer row) ...
    assert probe_stats.subquery_executions == scan_stats.subquery_executions
    # ... but each execution touches a bucket, not the table.
    assert scan_stats.index_probes == 0
    assert probe_stats.index_probes >= probe_stats.subquery_executions
    assert probe_stats.index_rows < scan_stats.rows_scanned / 10
    assert probe_stats.predicate_evals < scan_stats.predicate_evals / 10

    result = benchmark(
        lambda: execute_planned(
            CORRELATED_QUERY, db, params=CORRELATED_PARAMS, use_indexes=True
        )
    )
    assert result.columns == ["SNO", "SNAME"]


def test_e12_keyed_lookup_plan_cache(benchmark, bench_db):
    """A templated key lookup: IndexScan + plan cache across the batch."""
    template = "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = :N"
    cache = PlanCache()
    batch = list(range(1, 51))

    def run_batch():
        stats = Stats()
        rows = sum(
            len(
                execute_planned(
                    template,
                    bench_db,
                    params={"N": n},
                    stats=stats,
                    plan_cache=cache,
                ).rows
            )
            for n in batch
        )
        return rows, stats

    (rows, stats), elapsed = timed(run_batch)

    report = ExperimentReport(
        experiment="E12c: templated key lookups",
        claim="one plan + one index probe per statement; the table is "
        "never scanned",
        columns=[
            "statements", "rows", "plan_hits", "plan_misses",
            "index_probes", "rows_scanned", "t(s)",
        ],
        slug="hotpath",
    )
    report.add_row(
        len(batch),
        rows,
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        stats.index_probes,
        stats.rows_scanned,
        elapsed,
    )
    report.show()

    assert rows == len(batch)  # SNO is the primary key
    assert stats.plan_cache_misses == 1
    assert stats.plan_cache_hits == len(batch) - 1
    assert stats.index_probes == len(batch)
    assert stats.rows_scanned == len(batch)  # one row per probe, no scans

    result = benchmark(
        lambda: execute_planned(
            template, bench_db, params={"N": 7}, plan_cache=cache
        )
    )
    assert len(result.rows) == 1


def test_e12_compiled_predicates(benchmark, bench_db):
    """Filter predicates run as closures, matching the interpreter."""
    sql = (
        "SELECT P.PNO, P.PNAME FROM PARTS P "
        "WHERE P.COLOR = :C AND P.PNO > 100 AND P.PNAME <> 'NONE'"
    )
    params = {"C": "RED"}

    previous = set_compilation_enabled(False)
    try:
        interp_stats = Stats()
        interpreted, t_interp = timed(
            lambda: execute_planned(sql, bench_db, params=params, stats=interp_stats)
        )
    finally:
        set_compilation_enabled(previous)
    compiled_stats = Stats()
    compiled, t_compiled = timed(
        lambda: execute_planned(sql, bench_db, params=params, stats=compiled_stats)
    )

    report = ExperimentReport(
        experiment="E12d: interpreted vs compiled predicate evaluation",
        claim="compiling the WHERE clause removes per-row Scope "
        "allocation and recursive dispatch",
        columns=["mode", "predicate_evals", "compiled_evals", "t(s)", "speedup"],
        slug="hotpath",
    )
    report.add_row(
        "interpreted",
        interp_stats.predicate_evals,
        interp_stats.compiled_evals,
        t_interp,
        1.0,
    )
    report.add_row(
        "compiled",
        compiled_stats.predicate_evals,
        compiled_stats.compiled_evals,
        t_compiled,
        speedup(t_interp, t_compiled),
    )
    report.show()

    assert interpreted.same_rows(compiled)
    assert interp_stats.compiled_evals == 0
    assert compiled_stats.predicates_compiled >= 1
    assert compiled_stats.compiled_evals == compiled_stats.predicate_evals > 0

    result = benchmark(lambda: execute_planned(sql, bench_db, params=params))
    assert result.same_rows(compiled)
