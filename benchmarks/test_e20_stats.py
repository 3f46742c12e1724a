"""E20 — statistics-driven cost optimization and the adaptive loop.

Two claims, both from the cost-model story (``docs/cost_model.md``):

* **E20a** — on a mixed join workload whose FROM order would make the
  rule-based left-deep planner build a cross join, cost-based join
  ordering over collected statistics picks connected, filtered-first
  orders and beats the rule order end to end.
* **E20b** — on a correlated predicate the independence assumption
  misestimates by the correlated column's distinct count; the adaptive
  feedback loop folds observed cardinalities back after each analyzed
  run, so the per-query max q-error drops monotonically to <= 2 within
  five runs.

Every table lands in ``benchmarks/out/BENCH_e20.json``.
"""

import gc

import repro
from repro.bench import ExperimentReport, speedup, timed
from repro.engine import PlanCache, PlannerOptions, execute_planned
from repro.sql.parser import parse_query
from repro.stats.adaptive import GLOBAL_CORRECTIONS
from repro.workloads import SupplierScale, build_database, generate

#: E20 scale: small enough that the rule-order cross join stays in CI
#: budget, large enough that order choice dominates the runtime.
E20_SCALE = SupplierScale(
    suppliers=100, parts_per_supplier=10, agents_per_supplier=3
)

#: The mixed workload.  The first query's FROM order (PARTS, AGENTS,
#: SUPPLIER) makes the left-deep rule planner cross-join PARTS x AGENTS
#: before any predicate connects them; the others join through a
#: candidate key with filters of very different selectivity.
WORKLOAD = [
    (
        "from-order cross join",
        "SELECT P.PNAME FROM PARTS P, AGENTS A, SUPPLIER S "
        "WHERE P.SNO = S.SNO AND A.SNO = S.SNO AND S.BUDGET > 900",
    ),
    (
        "key-bound join, selective filter",
        "SELECT P.PNAME FROM PARTS P, SUPPLIER S "
        "WHERE P.SNO = S.SNO AND S.SCITY = 'Chicago'",
    ),
    (
        "key-bound join, range filter",
        "SELECT S.SNAME FROM SUPPLIER S, AGENTS A "
        "WHERE A.SNO = S.SNO AND S.BUDGET BETWEEN 100 AND 200",
    ),
]

#: Correlated predicate: PNAME functionally determines PNO in the
#: generated data, so independence underestimates by |distinct PNAME|.
ADAPTIVE_SQL = "SELECT PNAME FROM PARTS WHERE PNAME = 'part-3' AND PNO = 3"

ROUNDS = 5


def _run(query, db, options, cache):
    return execute_planned(
        query, db, options=options, plan_cache=cache
    )


def _bench(query, db, options, cache):
    """Warm-path timing: prime the plan cache, then average ROUNDS."""
    _run(query, db, options, cache)
    gc.collect()
    gc.disable()
    try:
        result, elapsed = timed(
            lambda: [_run(query, db, options, cache) for _ in range(ROUNDS)]
        )
    finally:
        gc.enable()
    return result[-1], elapsed / ROUNDS


def test_e20a_cost_based_join_order_beats_rule_order():
    """Cost-picked plans beat the rule order on the mixed workload."""
    db = build_database(generate(E20_SCALE))
    db.analyze()
    report = ExperimentReport(
        experiment="E20a: rule-order vs cost-based join ordering",
        claim="statistics-driven join ordering avoids the FROM-order "
        "cross join and wins the mixed workload end to end",
        columns=["query", "rows", "rule t(ms)", "cost t(ms)", "speedup"],
        slug="e20",
    )
    rule_total = cost_total = 0.0
    for label, sql in WORKLOAD:
        query = parse_query(sql)
        rule_result, t_rule = _bench(query, db, None, PlanCache())
        cost_result, t_cost = _bench(
            query, db, PlannerOptions(use_stats=True), PlanCache()
        )
        assert cost_result.multiset() == rule_result.multiset()
        rule_total += t_rule
        cost_total += t_cost
        report.add_row(
            label,
            len(rule_result),
            t_rule * 1e3,
            t_cost * 1e3,
            speedup(t_rule, t_cost),
        )
    ratio = speedup(rule_total, cost_total)
    report.add_row(
        "mixed workload total", "", rule_total * 1e3, cost_total * 1e3, ratio
    )
    report.note(
        f"{E20_SCALE.suppliers} suppliers x "
        f"{E20_SCALE.parts_per_supplier} parts; identical result "
        "multisets per query; plan caches primed per mode"
    )
    report.show()
    assert ratio > 1.0, f"cost-based order lost overall ({ratio:.2f}x)"


def test_e20b_adaptive_q_error_converges():
    """Max q-error drops monotonically to <= 2 within five runs."""
    db = build_database(generate(E20_SCALE))
    db.analyze()
    GLOBAL_CORRECTIONS.clear()
    report = ExperimentReport(
        experiment="E20b: adaptive feedback loop on a correlated predicate",
        claim="folding observed cardinalities drives the per-query max "
        "q-error to <= 2 within five runs, monotonically",
        columns=["run", "max q-error", "corrections folded"],
        slug="e20",
    )
    errors = []
    try:
        with repro.Connection.local(db) as connection:
            for round_number in range(1, ROUNDS + 1):
                cursor = connection.execute(ADAPTIVE_SQL, adaptive=True)
                outcome = cursor.executed.outcome
                error = outcome.analysis.analysis.max_q_error()
                errors.append(error)
                report.add_row(
                    round_number,
                    f"{error:.2f}",
                    outcome.stats.adaptive_corrections,
                )
    finally:
        report.note(
            "q-error = max(est/actual, actual/est); corrections are "
            "EWMA-blended per plan-node fingerprint"
        )
        report.show()
        GLOBAL_CORRECTIONS.clear()
    assert errors[0] > 2.0, "the misestimate the loop must fix is gone"
    assert errors[-1] <= 2.0, f"did not converge: {errors}"
    assert all(
        later <= earlier for earlier, later in zip(errors, errors[1:])
    ), f"q-error not monotone: {errors}"
