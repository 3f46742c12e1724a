"""Examples 1-11 over HTTP must be byte-identical to direct execution.

The wire adds a JSON codec and a worker handoff between the caller and
the engine; neither may perturb results.  Every paper query runs twice
— through a local :class:`~repro.api.Connection` and through a
:class:`~repro.net.server.QueryServer` — and must produce the same
columns and the same row multiset (≐ semantics, NULLs included), plus
the same rewrite trail, both plain and streamed.

``golden_examples.json`` pins the trail itself: ``GuardedOutcome.sql``,
``.rules``, the audit records and ``Cursor.executed.sql`` for every
example, captured before ASTs (rather than re-parsed text) started
travelling down the request path.  Both engine modes must reproduce it
byte for byte."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.net.server import QueryServer
from repro.workloads import (
    PAPER_QUERIES,
    SupplierScale,
    build_database,
    generate,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

SCALE = SupplierScale(suppliers=15, parts_per_supplier=4, agents_per_supplier=2)


@pytest.fixture(scope="module")
def db():
    return build_database(generate(SCALE))


@pytest.fixture(scope="module")
def served(db):
    with QueryServer(db, workers=2, stream_chunk_rows=7) as server:
        yield server


@pytest.mark.parametrize(
    "query", PAPER_QUERIES, ids=lambda q: f"E{q.example}"
)
def test_examples_identical_over_http(query, db, served):
    with repro.connect(db) as local_conn:
        local = local_conn.execute(query.sql, query.params or None)
        local_rows = local.fetchall()
        local_executed = local.executed
    with repro.connect(served.url) as remote_conn:
        remote = remote_conn.execute(query.sql, query.params or None)
        remote_rows = remote.fetchall()
        remote_executed = remote.executed

    assert remote.columns == local.columns
    assert sorted(map(repr, remote_rows)) == sorted(map(repr, local_rows))
    assert remote_executed.rewritten == local_executed.rewritten
    assert remote_executed.rules == local_executed.rules
    assert remote_executed.sql == local_executed.sql


GOLDEN = json.loads(
    Path(__file__).with_name("golden_examples.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("mode", ["tuple", "vectorized"])
@pytest.mark.parametrize(
    "query", PAPER_QUERIES, ids=lambda q: f"E{q.example}"
)
def test_rewrite_trail_matches_golden(query, mode, db, served):
    golden = GOLDEN[f"E{query.example}"]
    repro.clear_all_caches()
    with repro.connect(db) as local_conn:
        local = local_conn.execute(
            query.sql, query.params or None, engine_mode=mode
        )
        outcome = local.outcome
        assert outcome.sql == golden["outcome_sql"]
        assert outcome.rules == golden["rules"]
        assert outcome.audit.to_dicts() == golden["audit"]
        assert local.executed.sql == golden["executed_sql"]
        assert repro.to_sql(outcome.query) == golden["outcome_sql"]
    with repro.connect(served.url) as remote_conn:
        remote = remote_conn.execute(
            query.sql, query.params or None, engine_mode=mode
        )
        assert remote.executed.sql == golden["executed_sql"]
        assert remote.executed.rules == golden["rules"]


@pytest.mark.parametrize(
    "query", PAPER_QUERIES, ids=lambda q: f"E{q.example}"
)
def test_examples_identical_streamed(query, db, served):
    with repro.connect(db) as local_conn:
        local_rows = local_conn.execute(
            query.sql, query.params or None
        ).fetchall()
    with repro.connect(served.url, stream=True) as remote_conn:
        remote_rows = remote_conn.execute(
            query.sql, query.params or None
        ).fetchall()
    assert sorted(map(repr, remote_rows)) == sorted(map(repr, local_rows))
