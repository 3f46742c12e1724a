"""The chaos contract, sweep-tested over the paper's own workload.

For every worked example E1-E11 and every (site, kind, trigger) scenario
in the matrix, an execution under injected faults must end one of two
ways:

* the correct result — byte-identical multiset to the fault-free run —
  reached through a fallback ladder, or
* a typed :class:`~repro.errors.ReproError`.

A wrong answer, or a raw non-library exception escaping the engine, is
a failure.  The matrix seed is settable via ``CHAOS_SEED`` so CI can
fan the sweep out over several deterministic replays.
"""

import os
import random

import pytest

from repro import clear_all_caches
from repro.engine import execute_planned
from repro.resilience.guarded import run_guarded
from repro.core.rewrite import unquarantine_all
from repro.errors import ReproError
from repro.ims import ImsGateway
from repro.resilience import (
    FAULTS,
    SITE_COMPILE,
    SITE_COMPILED_EVAL,
    SITE_DLI,
    SITE_FINGERPRINT,
    SITE_INDEX_BUILD,
    SITE_OPERATOR,
    SITE_PLAN_CACHE,
    SITE_UNIQUENESS,
    RetryPolicy,
)
from repro.workloads import (
    PAPER_QUERIES,
    SupplierScale,
    build_database,
    build_ims_database,
    generate,
)

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Engine-side fault scenarios: (site, kwargs) applied one at a time.
ENGINE_SCENARIOS = [
    (SITE_COMPILE, {}),
    (SITE_COMPILED_EVAL, {"after": 1, "times": 1}),
    (SITE_COMPILED_EVAL, {"probability": 0.3}),
    (SITE_PLAN_CACHE, {}),
    (SITE_INDEX_BUILD, {}),
    (SITE_FINGERPRINT, {}),
    (SITE_UNIQUENESS, {}),
    (SITE_OPERATOR, {"after": 5, "times": 1}),
    (SITE_OPERATOR, {"probability": 0.05}),
]

SCALE = SupplierScale(suppliers=10, parts_per_supplier=4, agents_per_supplier=2)


@pytest.fixture(scope="module")
def data():
    return generate(SCALE)


@pytest.fixture(scope="module")
def db(data):
    return build_database(data)


@pytest.fixture(scope="module")
def ims_db(data):
    return build_ims_database(data)


def _baselines(db):
    """Fault-free reference multisets, computed once per module."""
    clear_all_caches()
    results = {}
    for query in PAPER_QUERIES:
        results[query.example] = execute_planned(
            query.sql, db, params=query.params
        ).multiset()
    return results


@pytest.fixture(scope="module")
def baselines(db):
    return _baselines(db)


@pytest.mark.parametrize(
    "site,kwargs",
    ENGINE_SCENARIOS,
    ids=lambda value: str(value),
)
def test_chaos_engine_matrix(db, baselines, site, kwargs):
    FAULTS.seed(CHAOS_SEED)
    for query in PAPER_QUERIES:
        clear_all_caches()
        with FAULTS.inject(site, **kwargs):
            try:
                result = execute_planned(query.sql, db, params=query.params)
            except ReproError:
                continue  # typed failure: acceptable outcome
            # Any non-ReproError exception propagates and fails the test.
        assert result.multiset() == baselines[query.example], (
            f"E{query.example} returned a wrong answer under a "
            f"{site!r} fault"
        )


@pytest.mark.parametrize("site,kwargs", ENGINE_SCENARIOS[:6], ids=str)
def test_chaos_guarded_matrix(db, baselines, site, kwargs):
    """run_guarded under the same faults: safe mode may not lie either."""
    FAULTS.seed(CHAOS_SEED)
    rng = random.Random(CHAOS_SEED)
    for query in PAPER_QUERIES:
        if query.example in ("10", "11"):
            continue  # navigational-profile examples: exercised via IMS
        clear_all_caches()
        unquarantine_all()
        with FAULTS.inject(site, **kwargs):
            try:
                outcome = run_guarded(
                    query.sql,
                    db,
                    params=query.params,
                    safe_mode=rng.random() < 0.5,
                )
            except ReproError:
                continue
        assert outcome.result.multiset() == baselines[query.example]


def test_chaos_gateway_transients(ims_db):
    """Example 10 through the gateway under a flaky DL/I region."""
    gateway = ImsGateway(
        ims_db, retry_policy=RetryPolicy(base_delay=0.0, max_delay=0.0)
    )
    sql = (
        "SELECT ALL S.* FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO = P.SNO AND P.PNO = :PARTNO"
    )
    expected = gateway.execute(sql, params={"PARTNO": 2}).multiset()

    FAULTS.seed(CHAOS_SEED)
    for after in (0, 1, 3, 7):
        with FAULTS.inject(SITE_DLI, kind="transient", after=after, times=2):
            result = gateway.execute(sql, params={"PARTNO": 2})
        assert result.multiset() == expected

    with FAULTS.inject(SITE_DLI, kind="transient", probability=0.2):
        try:
            result = gateway.execute(sql, params={"PARTNO": 2})
        except ReproError:
            return
    assert result.multiset() == expected
