"""Property tests: vectorized execution ≡ the tuple interpreter.

The columnar engine's whole contract is byte-identity — same rows, same
sequence, same work accounting — so these properties drive it with
randomized schemas, NULL-bearing data, and random SPJ queries:

* vectorized output matches the interpreter row for row,
* the shared engine counters agree exactly (only the path-descriptive
  ``vectorized_*`` counters may differ),
* every plan node is opened as often and yields as many rows in both
  modes (a batch pipeline handing rows to a row-shaped parent neither
  opens nor observes a node twice),
* under seeded ``vectorized_eval`` fault schedules the demotion ladder
  lands back on the interpreter without changing a single row,
* batch size never affects results, only batch counts.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import PlannerOptions, execute_planned
from repro.engine.stats import Stats
from repro.observe.analyze import PlanAnalysis
from repro.resilience import FAULTS, SITE_VECTORIZED_EVAL
from repro.workloads import (
    GeneratorConfig,
    random_catalog,
    random_database,
    random_query,
)

CONFIG = GeneratorConfig(max_tables=2, max_columns=3, max_rows=6)
COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _world(seed):
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    query = random_query(rng, catalog, CONFIG)
    return database, query


def _actuals(analysis, node=None):
    """``(label, loops, rows)`` per plan node, in pre-order."""
    node = node or analysis.plan
    seen = analysis.for_node(node)
    yield node.label(), seen.loops, seen.rows
    for child in node.children():
        yield from _actuals(analysis, child)


@settings(max_examples=100, **COMMON)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    join_method=st.sampled_from(["hash", "merge", "nested"]),
    distinct_method=st.sampled_from(["sort", "hash"]),
)
def test_vectorized_is_byte_identical_to_tuple(
    seed, join_method, distinct_method
):
    database, query = _world(seed)
    options = PlannerOptions(join_method, distinct_method)
    tuple_stats, vec_stats = Stats(), Stats()
    tuple_analysis, vec_analysis = PlanAnalysis(), PlanAnalysis()
    reference = execute_planned(
        query, database, options=options, engine_mode="tuple",
        stats=tuple_stats, analysis=tuple_analysis,
    )
    vectorized = execute_planned(
        query, database, options=options, engine_mode="vectorized",
        stats=vec_stats, analysis=vec_analysis,
    )
    assert vectorized.columns == reference.columns
    assert vectorized.rows == reference.rows  # sequence, not just multiset
    assert list(_actuals(vec_analysis)) == list(_actuals(tuple_analysis))
    for name, value in tuple_stats.as_dict().items():
        if name.startswith("vectorized") or name.startswith("plan_cache"):
            continue
        assert getattr(vec_stats, name) == value, name


@settings(max_examples=60, **COMMON)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    batch_rows=st.sampled_from([1, 2, 3, 5, 64]),
)
def test_batch_size_never_changes_results(seed, batch_rows):
    database, query = _world(seed)
    reference = execute_planned(query, database, engine_mode="tuple")
    vectorized = execute_planned(
        query, database, engine_mode="vectorized", batch_rows=batch_rows
    )
    assert vectorized.rows == reference.rows


@settings(max_examples=40, **COMMON)
@given(
    seed=st.integers(min_value=0, max_value=2_000),
    chaos_seed=st.sampled_from([0, 1, 2]),
    after=st.integers(min_value=0, max_value=3),
)
def test_vectorized_faults_demote_without_changing_rows(
    seed, chaos_seed, after
):
    """A probabilistic vectorized_eval schedule forces mid-stream
    demotion; the interpreter fallback must reproduce the reference
    answer exactly."""
    database, query = _world(seed)
    reference = execute_planned(query, database, engine_mode="tuple")
    FAULTS.seed(chaos_seed)
    stats = Stats()
    with FAULTS.inject(
        SITE_VECTORIZED_EVAL, after=after, probability=0.5
    ):
        faulted = execute_planned(
            query, database, engine_mode="vectorized", stats=stats,
            batch_rows=2,
        )
    assert faulted.rows == reference.rows
