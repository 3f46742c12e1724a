"""Partition-parallel execution: byte-identical results and gating.

The contract under test: with a parallel execution context, eligible
operators split work into row-range morsels, and the output **sequence**
(not just the multiset) is identical to the serial operator's — plus
all the conservative-gating rules that keep ineligible paths serial.
"""

import pytest

from repro import Stats
from repro.engine import execute_planned
from repro.engine import ParallelOptions
from repro.engine.parallel import (
    MorselPool,
    ParallelExecution,
    parallel_execution,
    shared_pool,
)
from repro.resilience import FAULTS, SITE_OPERATOR
from repro.workloads import (
    PAPER_QUERIES,
    SupplierScale,
    build_database,
    generate,
)

#: Aggressive options: tiny morsels, no cost gate — forces the parallel
#: paths even on the small worked-example instance.
FORCED = ParallelOptions(workers=4, morsel_size=7, min_parallel_rows=1)


@pytest.fixture(scope="module")
def db():
    return build_database(
        generate(SupplierScale(suppliers=12, parts_per_supplier=4, agents_per_supplier=2))
    )


@pytest.fixture(scope="module")
def big_db():
    return build_database(
        generate(SupplierScale(suppliers=300, parts_per_supplier=10, agents_per_supplier=3))
    )


@pytest.mark.parametrize(
    "query", PAPER_QUERIES, ids=lambda q: f"E{q.example}"
)
def test_paper_examples_byte_identical(db, query):
    """E1-E11: the parallel row *sequence* equals the serial one."""
    serial = execute_planned(query.sql, db, params=query.params)
    parallel = execute_planned(
        query.sql, db, params=query.params, parallel=FORCED
    )
    assert parallel.columns == serial.columns
    assert parallel.rows == serial.rows  # sequence, not just multiset


def test_large_join_byte_identical_and_actually_parallel(big_db):
    sql = (
        "SELECT S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"
    )
    serial_stats, parallel_stats = Stats(), Stats()
    serial = execute_planned(sql, big_db, stats=serial_stats)
    parallel = execute_planned(
        sql,
        big_db,
        stats=parallel_stats,
        parallel=ParallelOptions(workers=4, morsel_size=128, min_parallel_rows=256),
    )
    assert parallel.rows == serial.rows
    assert parallel_stats.parallel_joins >= 1
    assert parallel_stats.parallel_morsels > 1
    # Work accounting is thread-count independent.  parallel_* and
    # vectorized_* counters describe which code path ran (parallel joins
    # delegate to the tuple machinery), so they legitimately differ.
    for name, value in serial_stats.as_dict().items():
        if (
            name.startswith("parallel")
            or name.startswith("plan_cache")
            or name.startswith("vectorized")
        ):
            continue
        assert getattr(parallel_stats, name) == value, name


def test_small_inputs_stay_serial(db):
    """The cost gate: inputs below min_parallel_rows never go parallel."""
    stats = Stats()
    execute_planned(
        "SELECT SNO FROM SUPPLIER WHERE BUDGET > 0",
        db,
        stats=stats,
        parallel=ParallelOptions(workers=4, min_parallel_rows=1_000_000),
    )
    assert stats.parallel_scans == 0
    assert stats.parallel_joins == 0
    assert stats.parallel_morsels == 0


def test_armed_faults_disable_parallelism(big_db):
    """With any fault armed, per-row trigger opportunities must be
    preserved — so execution stays serial."""
    stats = Stats()
    # probability=0.0: armed but never fires, isolating the gating test.
    with FAULTS.inject(SITE_OPERATOR, probability=0.0):
        execute_planned(
            "SELECT S.SNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
            big_db,
            stats=stats,
            parallel=ParallelOptions(workers=4, morsel_size=64, min_parallel_rows=1),
        )
    assert stats.parallel_scans == 0
    assert stats.parallel_joins == 0


def test_workers_one_normalizes_to_serial():
    assert parallel_execution(ParallelOptions(workers=1)) is None
    assert parallel_execution(None) is None
    live = parallel_execution(ParallelOptions(workers=2))
    assert isinstance(live, ParallelExecution)
    assert parallel_execution(live) is live


def test_morsel_ranges_cover_input_exactly():
    par = ParallelExecution(
        ParallelOptions(workers=2, morsel_size=10), shared_pool(2)
    )
    morsels = par.morsels(35)
    assert morsels == [(0, 10), (10, 20), (20, 30), (30, 35)]
    assert par.morsels(0) == []


def test_parallel_options_validation():
    with pytest.raises(ValueError):
        ParallelOptions(workers=0)
    with pytest.raises(ValueError):
        ParallelOptions(morsel_size=0)
    with pytest.raises(ValueError):
        ParallelOptions(min_parallel_rows=-1)


def test_pool_run_ordered_preserves_order_and_propagates():
    pool = MorselPool(workers=4)
    try:
        items = list(range(50))
        assert pool.run_ordered(lambda x: x * 2, items) == [
            x * 2 for x in items
        ]
        collected = []
        pool.run_ordered(lambda x: x, items, collect=collected.append)
        assert collected == items

        def boom(x):
            if x == 3:
                raise RuntimeError("worker died")
            return x

        with pytest.raises(RuntimeError):
            pool.run_ordered(boom, items)
    finally:
        pool.shutdown()
