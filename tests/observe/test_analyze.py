"""EXPLAIN ANALYZE: the analysis sink, actuals, and annotations."""

from repro.engine import execute_planned
from repro.observe import (
    NodeStats,
    PlanAnalysis,
    TRACER,
    execute_analyzed,
    explain_analyze,
    set_tracing,
)

JOIN_SQL = (
    "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"
)


class TestExecuteAnalyzed:
    def test_result_matches_the_plain_execution(self, small_db):
        plain = execute_planned(JOIN_SQL, small_db)
        analyzed = execute_analyzed(JOIN_SQL, small_db)
        assert analyzed.result.same_rows(plain)

    def test_every_node_carries_actuals(self, small_db):
        analyzed = execute_analyzed(JOIN_SQL, small_db)
        node_stats = analyzed.analysis.for_node(analyzed.plan)
        assert node_stats.loops == 1
        assert node_stats.rows == len(analyzed.result)
        for line in analyzed.explain().splitlines():
            assert "actual rows=" in line or "[never executed]" in line

    def test_estimates_and_q_error_are_annotated(self, small_db):
        text = execute_analyzed(JOIN_SQL, small_db).explain()
        assert "est rows=" in text
        assert "q-error=" in text

    def test_host_variables_are_honoured(self, small_db):
        analyzed = execute_analyzed(
            "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :N",
            small_db,
            params={"N": 3},
        )
        assert analyzed.result.rows == [(3,)]

    def test_to_dict_mirrors_the_plan_tree(self, small_db):
        import json

        payload = execute_analyzed(JOIN_SQL, small_db).to_dict()
        json.dumps(payload)  # must not raise
        assert payload["wall_ms"] > 0
        plan = payload["plan"]
        assert plan["loops"] == 1
        assert "children" in plan
        assert payload["stats"]["rows_scanned"] > 0

    def test_spans_attach_when_tracing(self, small_db):
        previous = set_tracing(True)
        TRACER.clear()
        try:
            execute_analyzed(JOIN_SQL, small_db)
            root = TRACER.last_root()
            executes = [s for s in root.walk() if s.name == "plan.execute"]
            assert len(executes) == 1
            # The per-operator actuals hang under the one execution.
            assert executes[0].children[0].name.startswith("operator.")
        finally:
            set_tracing(previous)
            TRACER.clear()

    def test_explain_analyze_one_shot(self, small_db):
        text = explain_analyze(JOIN_SQL, small_db)
        assert "actual rows=" in text


class TestNodeStats:
    def test_q_error_is_symmetric_and_floored(self):
        stats = NodeStats(loops=1, rows=10, est_rows=5.0)
        assert stats.q_error == 2.0
        stats = NodeStats(loops=1, rows=5, est_rows=10.0)
        assert stats.q_error == 2.0
        # Zero actual rows floor at one: q-error never divides by zero.
        stats = NodeStats(loops=1, rows=0, est_rows=1.0)
        assert stats.q_error == 1.0

    def test_q_error_uses_per_loop_actuals(self):
        stats = NodeStats(loops=4, rows=40, est_rows=10.0)
        assert stats.q_error == 1.0

    def test_unexecuted_nodes_annotate_as_never_executed(self):
        class FakeNode:
            def label(self):
                return "Fake"

            def children(self):
                return []

        analysis = PlanAnalysis()
        node = FakeNode()
        analysis.register(node)
        assert analysis.annotate(node) == "  [never executed]"
        assert analysis.for_node(object()) is None
        assert analysis.annotate(object()) == ""
