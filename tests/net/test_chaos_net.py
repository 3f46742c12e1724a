"""Chaos over the network fault sites.

With seeded faults firing at ``net_accept`` (request admission) and
``net_write`` (every response/stream-chunk write), a retrying client
must end every query one of two ways: the correct rows, or a typed
:class:`~repro.errors.ReproError`.  A wrong or truncated result that
passes for success is a failure — the stream footer and the envelope
``retryable`` contract exist precisely so the client can tell."""

from __future__ import annotations

import random

import pytest

import repro
from repro.engine import execute_planned
from repro.errors import ReproError
from repro.net.server import QueryServer
from repro.resilience import (
    FAULTS,
    RetryPolicy,
    SITE_NET_ACCEPT,
    SITE_NET_WRITE,
    SITE_OPERATOR,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

QUERIES = [
    "SELECT S.SNO FROM SUPPLIER S",
    "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 2",
    "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
]

RETRY = RetryPolicy(max_attempts=6, base_delay=0.01, multiplier=2.0, max_delay=0.1)


@pytest.fixture()
def baselines(tiny_db):
    return {
        sql: sorted(map(repr, execute_planned(sql, tiny_db).rows))
        for sql in QUERIES
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stream", [False, True], ids=["plain", "stream"])
def test_chaos_net_sites(tiny_db, baselines, seed, stream):
    FAULTS.seed(seed)
    with QueryServer(tiny_db, workers=2, stream_chunk_rows=2) as server:
        conn = repro.connect(
            server.url,
            retry_policy=RETRY,
            stream=stream,
            rng=random.Random(seed),
        )
        with FAULTS.inject(SITE_NET_ACCEPT, probability=0.25):
            with FAULTS.inject(SITE_NET_WRITE, probability=0.15):
                for round_number in range(3):
                    for sql in QUERIES:
                        try:
                            rows = conn.execute(sql).fetchall()
                        except ReproError:
                            continue  # typed failure: acceptable outcome
                        assert sorted(map(repr, rows)) == baselines[sql], (
                            f"wrong answer under net chaos "
                            f"(seed={seed}, stream={stream}): {sql}"
                        )
        conn.close()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chaos_net_and_engine_together(tiny_db, baselines, seed):
    """Wire faults and engine faults at once: still correct-or-typed."""
    FAULTS.seed(seed)
    with QueryServer(tiny_db, workers=2) as server:
        conn = repro.connect(
            server.url, retry_policy=RETRY, rng=random.Random(100 + seed)
        )
        with FAULTS.inject(SITE_NET_WRITE, probability=0.2):
            with FAULTS.inject(SITE_OPERATOR, probability=0.1):
                for sql in QUERIES:
                    try:
                        rows = conn.execute(sql).fetchall()
                    except ReproError:
                        continue
                    assert sorted(map(repr, rows)) == baselines[sql]
        conn.close()


def test_accept_fault_is_retryable_503(tiny_db):
    """A deterministic accept fault maps to the retryable envelope and
    a single retry rides over it."""
    FAULTS.seed(0)
    with QueryServer(tiny_db, workers=1) as server:
        conn = repro.connect(
            server.url, retry_policy=RETRY, rng=random.Random(3)
        )
        with FAULTS.inject(SITE_NET_ACCEPT, times=1):
            rows = conn.execute(
                "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 1"
            ).fetchall()
        assert rows == [(1,)]
        assert conn._backend.retries >= 1
        conn.close()
