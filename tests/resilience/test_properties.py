"""Property: fault-injected executions never poison a cache.

For random workloads and every exception-raising fault site, a faulted
execution either matches the fault-free baseline or raises a typed
error — and, crucially, whatever it left in the caches must be harmless:
a later fault-free run over the same (possibly warm) caches must equal a
fresh-cache baseline.  Corrupt-kind faults are excluded by design: they
exist precisely to poison a verdict so the safe-mode tests can catch it.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import clear_all_caches
from repro.engine import execute_planned
from repro.errors import ReproError
from repro.resilience import (
    FAULTS,
    SITE_FINGERPRINT,
    SITE_INDEX_BUILD,
    SITE_OPERATOR,
    SITE_PLAN_CACHE,
)
from repro.workloads import (
    GeneratorConfig,
    random_catalog,
    random_database,
    random_query,
)

CONFIG = GeneratorConfig(max_tables=2, max_columns=3, max_rows=6)
COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

FAULT_SITES = [
    SITE_PLAN_CACHE,
    SITE_INDEX_BUILD,
    SITE_FINGERPRINT,
    SITE_OPERATOR,
]


def _workload(seed):
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    query = random_query(rng, catalog, CONFIG)
    return database, query


@settings(max_examples=60, **COMMON)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    site=st.sampled_from(FAULT_SITES),
    after=st.integers(min_value=0, max_value=6),
)
def test_faulted_executions_never_poison_caches(seed, site, after):
    database, query = _workload(seed)
    FAULTS.reset()
    clear_all_caches()
    baseline = execute_planned(query, database).multiset()

    clear_all_caches()
    with FAULTS.inject(site, after=after, times=1):
        try:
            faulted = execute_planned(query, database)
        except ReproError:
            faulted = None  # typed failure: acceptable, rows discarded
        if faulted is not None:
            # When a fallback ladder absorbed the fault, the rows must
            # be right — a fault may cost time, never correctness.
            assert faulted.multiset() == baseline

    # Whatever the faulted run cached, a clean run over those warm
    # caches must still equal the fresh-cache truth.
    assert execute_planned(query, database).multiset() == baseline
    clear_all_caches()
    assert execute_planned(query, database).multiset() == baseline
