"""Every fast path degrades to its slow twin with identical results."""

import pytest

from repro import Stats
from repro.engine import execute_planned
from repro.errors import InjectedFaultError
from repro.resilience import (
    FAULTS,
    SITE_COMPILE,
    SITE_COMPILED_EVAL,
    SITE_INDEX_BUILD,
    SITE_OPERATOR,
    SITE_PLAN_CACHE,
)

FILTER_SQL = (
    "SELECT P.PNO, P.PNAME FROM PARTS P "
    "WHERE P.COLOR = 'RED' AND P.PNO > 9"
)
KEYED_SQL = "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = 2"
JOIN_SQL = (
    "SELECT S.SNAME, P.PNO FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"
)


def _clean(sql, db, **kwargs):
    stats = Stats()
    return execute_planned(sql, db, stats=stats, **kwargs), stats


def test_compile_fault_falls_back_to_interpreter(tiny_db):
    expected, clean = _clean(FILTER_SQL, tiny_db)
    assert clean.compiled_evals > 0  # the fast path is normally taken

    stats = Stats()
    with FAULTS.inject(SITE_COMPILE):
        result = execute_planned(FILTER_SQL, tiny_db, stats=stats)

    assert result.same_rows(expected)
    assert stats.compile_fallbacks >= 1
    assert stats.compiled_evals == 0  # nothing ever compiled
    assert stats.predicate_evals == clean.predicate_evals


def test_compiled_predicate_fails_mid_stream(tiny_db):
    # Pinned to the tuple interpreter: this test verifies the per-row
    # demotion arithmetic of the row-at-a-time path.  The vectorized
    # path's demotion has its own site (vectorized_eval) and coverage.
    expected, clean = _clean(FILTER_SQL, tiny_db, engine_mode="tuple")

    stats = Stats()
    # Let the closure evaluate two rows, then blow up once: the operator
    # must re-evaluate THAT row interpretively and finish the stream.
    with FAULTS.inject(SITE_COMPILED_EVAL, after=2, times=1):
        result = execute_planned(
            FILTER_SQL, tiny_db, stats=stats, engine_mode="tuple"
        )

    assert result.same_rows(expected)
    assert stats.compile_fallbacks >= 1
    assert 0 < stats.compiled_evals < stats.predicate_evals
    assert stats.predicate_evals == clean.predicate_evals


def test_join_residual_falls_back_mid_stream(tiny_db):
    expected, _ = _clean(JOIN_SQL, tiny_db)
    stats = Stats()
    with FAULTS.inject(SITE_COMPILED_EVAL, after=1, times=1):
        result = execute_planned(JOIN_SQL, tiny_db, stats=stats)
    assert result.same_rows(expected)


def test_index_build_fault_falls_back_to_scan(tiny_db):
    # Fault first, while the lazy index is still cold — a prior clean
    # run would build it and the build site would never trigger.
    stats = Stats()
    with FAULTS.inject(SITE_INDEX_BUILD):
        result = execute_planned(KEYED_SQL, tiny_db, stats=stats)
    assert stats.index_fallbacks >= 1  # the probe failed and degraded

    expected, clean = _clean(KEYED_SQL, tiny_db)
    assert clean.index_probes > 0 and clean.index_fallbacks == 0
    assert result.same_rows(expected)


def test_plan_cache_fault_replans(tiny_db):
    expected, _ = _clean(KEYED_SQL, tiny_db)

    stats = Stats()
    with FAULTS.inject(SITE_PLAN_CACHE):
        result = execute_planned(KEYED_SQL, tiny_db, stats=stats)

    assert result.same_rows(expected)
    assert stats.cache_skips >= 1
    assert stats.plan_cache_misses == 1
    assert stats.plan_cache_hits == 0


def test_operator_fault_is_typed_not_a_wrong_answer(tiny_db):
    # Tuple-pinned: the after=3 trigger schedule counts per-row ticks.
    with FAULTS.inject(SITE_OPERATOR, after=3):
        with pytest.raises(InjectedFaultError) as info:
            execute_planned(FILTER_SQL, tiny_db, engine_mode="tuple")
    assert info.value.site == "operator_next"


def test_fallbacks_preserve_warm_cache_correctness(tiny_db):
    """A faulted run must not leave anything poisoned behind."""
    expected, _ = _clean(FILTER_SQL, tiny_db)
    with FAULTS.inject(SITE_COMPILE):
        execute_planned(FILTER_SQL, tiny_db)
    # Fault disarmed: the same text must take the fast path again, warm.
    stats = Stats()
    result = execute_planned(FILTER_SQL, tiny_db, stats=stats)
    assert result.same_rows(expected)
    assert stats.compiled_evals > 0
    assert stats.compile_fallbacks == 0
