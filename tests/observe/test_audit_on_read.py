"""The audit trail is filed on read.

Rules decide — and compute the verdicts they decide on — while they
run.  What only a reader of the trail needs is built the first time the
trail is read: the printed target query, the witness dict, and the
standalone Algorithm 1 verdict for a query no rule touched.  These tests
pin that a request builds none of it, that reading builds exactly what
an eager trail held, that DDL between the request and the reading never
leaks into the evidence, and that the trail holds no reference back to
the optimizer result that filed it.
"""

from __future__ import annotations

import functools
import gc
import random
import sys
import weakref

import pytest

import repro
import repro.core.rewrite.engine
import repro.core.uniqueness
import repro.observe.audit
from repro.core.rewrite import Optimizer
from repro.core.theorem2 import SubqueryUniqueness
from repro.core.uniqueness import UniquenessResult
from repro.observe.audit import VERDICT
from repro.sql import parse_query
from repro.workloads import SupplierScale, build_database, generate

from ..sql.test_parser_golden import _load_workloads

SCALE = SupplierScale(suppliers=20, parts_per_supplier=4, agents_per_supplier=2)
POINT = (
    "key_lookup.supplier",
    "key_lookup.agent",
    "key_join_point.part",
    "key_join_point.agent",
)
ANALYTIC = (
    "filter_scan",
    "key_join",
    "distinct_removable",
    "distinct_needed",
    "exists_probe",
    "intersect",
)
KEYED = (
    "CREATE TABLE T (A INT NOT NULL, B INT, PRIMARY KEY (A));"
    "INSERT INTO T VALUES (1, 10), (2, 20), (3, 20);"
)


def spy_on(monkeypatch, owner, name, calls, everywhere=True):
    """Count calls of ``owner.name`` into *calls* — when *owner* is a
    module and *everywhere* is set, in every ``repro`` module that
    imported it by name."""
    original = getattr(owner, name)

    @functools.wraps(original)
    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    if isinstance(owner, type) or not everywhere:
        monkeypatch.setattr(owner, name, spy)
        return
    for loaded in list(sys.modules.values()):
        if (
            getattr(loaded, "__name__", "").startswith("repro")
            and vars(loaded).get(name) is original
        ):
            monkeypatch.setattr(loaded, name, spy)


@pytest.fixture()
def evidence(monkeypatch):
    """Calls of what only a reader needs: witnesses, fallback verdicts
    and audit-target prints."""
    calls: list[str] = []
    spy_on(monkeypatch, UniquenessResult, "witness", calls)
    spy_on(monkeypatch, SubqueryUniqueness, "witness", calls)
    spy_on(monkeypatch, repro.core.rewrite.engine, "_fallback_verdict", calls)
    # The trail's own name for the printer: target prints only.
    spy_on(monkeypatch, repro.observe.audit, "to_sql", calls, everywhere=False)
    return calls


@pytest.fixture(scope="module")
def supplier_db():
    return build_database(generate(SCALE))


def template_ops() -> dict:
    """``template_id -> (sql, params)`` for the point and analytic
    templates of ``benchmarks/e2e/workloads.py``."""
    workloads = _load_workloads()
    rng = random.Random(7)
    dims = workloads.Dims(
        SCALE.suppliers, SCALE.parts_per_supplier, SCALE.agents_per_supplier
    )
    return {
        template_id: (
            workloads.TEMPLATES[template_id].sql,
            workloads._draw(template_id, rng, dims),
        )
        for template_id in POINT + ANALYTIC
    }


OPS = template_ops()


@pytest.mark.parametrize("template_id", list(OPS))
def test_execute_builds_no_evidence(template_id, supplier_db, evidence):
    sql, params = OPS[template_id]
    repro.clear_all_caches()
    with repro.connect(supplier_db) as conn:
        for _ in range(2):  # cold, then warm
            cursor = conn.execute(sql, params)
            cursor.fetchall()
            assert evidence == []
        # Reading is what builds it — which also shows the spies work.
        records = cursor.outcome.audit.records
    assert records and evidence


def test_optimize_false_files_one_verdict_run_on_read(tiny_db, monkeypatch):
    verdicts: list[str] = []
    spy_on(monkeypatch, repro.core.uniqueness, "test_uniqueness", verdicts)
    with repro.connect(tiny_db) as conn:
        cursor = conn.execute(
            "SELECT DISTINCT S.SCITY FROM SUPPLIER S", optimize=False
        )
        assert sorted(cursor.fetchall()) == [
            ("Chicago",), ("New York",), ("Toronto",)
        ]
    assert verdicts == []  # no Algorithm 1 on the request
    records = cursor.outcome.audit.records
    assert verdicts == ["test_uniqueness"]
    assert [(r.rule, r.theorem, r.decision) for r in records] == [
        ("optimizer", "Algorithm 1", VERDICT)
    ]
    assert records[0].target == "SELECT DISTINCT S.SCITY FROM SUPPLIER S"
    assert "may contain duplicates" in records[0].note


def _drop_and_recreate_keyless(db):
    db.catalog.drop("T")
    db.run_script("CREATE TABLE T (A INT, B INT);")


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT T.A, T.B FROM T WHERE T.A = 2",  # standalone verdict
        "SELECT DISTINCT T.A FROM T",  # a rule's decision and witness
        "SELECT DISTINCT T.B FROM T",  # a rejection
    ],
)
def test_ddl_before_reading_never_reaches_the_evidence(sql):
    """The same request on two twin databases: one trail is read before
    the DDL, the other after it."""
    before_db = repro.Database.from_script(KEYED)
    after_db = repro.Database.from_script(KEYED)
    repro.clear_all_caches()
    with repro.connect(before_db) as conn:
        eager = conn.execute(sql).outcome.audit.to_dicts()
    repro.clear_all_caches()
    with repro.connect(after_db) as conn:
        outcome = conn.execute(sql).outcome
    _drop_and_recreate_keyless(after_db)
    read = outcome.audit.to_dicts()

    # What the new, keyless catalog would have said.
    keyless = Optimizer.for_relational(after_db.catalog).optimize(sql)
    assert "without a candidate key" in keyless.proof_sketch()
    assert "without a candidate key" not in repr(read)
    if eager[0]["rule"] != "optimizer":
        assert read == eager  # rule evidence rests on verdicts already made
    else:
        (record,) = read
        assert record["target"] == eager[0]["target"]
        assert record["witness"] == {}
        assert "catalog changed" in record["note"]


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT T.A FROM T WHERE T.A = 2",
        "SELECT DISTINCT T.A FROM T",
        "SELECT T.A FROM T INTERSECT SELECT T.B FROM T",
        "SELECT DISTINCT T.B FROM T WHERE EXISTS "
        "(SELECT * FROM T U WHERE U.A = T.B)",
    ],
)
def test_optimize_result_is_freed_without_the_collector(sql):
    db = repro.Database.from_script(KEYED)
    optimizer = Optimizer.for_relational(db.catalog)
    query = parse_query(sql)
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = optimizer.optimize(query)
        ref = weakref.ref(result)
        audit = result.audit
        del result
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert len(audit) >= 1  # the trail outlives the result and still reads


def test_duplicate_filings_collapse_on_read():
    trail = repro.AuditTrail()
    query = parse_query("SELECT DISTINCT T.A FROM T")
    built = []

    def witness():
        built.append(1)
        return {"k": 1}

    for _ in range(3):  # the fixpoint loop files the same decision again
        trail.record("r", "Theorem 1", "fired", query, "n", witness)
    assert trail and built == []
    assert [r.target for r in trail] == ["SELECT DISTINCT T.A FROM T"]
    assert built == [1]  # only the kept record's witness is built
