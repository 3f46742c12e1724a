"""A served rewrite is the fresh optimizer's rewrite.

A rewrite outcome depends only on the statement text, the catalog and
the rules that are live — never on the rows or the bindings.  Whatever
the request path keeps between requests, every read must serve what a
fresh ``Optimizer.for_relational(catalog).optimize(parse(text))`` would:
the same SQL, the same rules, the same audit trail, and rows equal to
executing that fresh form.  The checks run cold and warm, and across
everything that may change the answer: DDL that adds a key or a foreign
key, a quarantined rule, a safe-mode mismatch and the cache switch.
"""

import threading

import pytest

import repro
from repro import UniquenessResult, set_caches_enabled
from repro.core.rewrite import Optimizer, quarantine_rule, unquarantine_all
from repro.engine import Database, execute_planned
from repro.resilience import FAULTS, SITE_UNIQUENESS
from repro.sql.parser import parse_query
from repro.workloads import PAPER_QUERIES, SupplierScale, build_database, generate

#: The six analytic templates of the end-to-end benchmark.
ANALYTIC = {
    "filter_scan": (
        "SELECT P.SNO, P.PNO, P.PNAME FROM PARTS P "
        "WHERE P.COLOR = :COLOR AND P.SNO BETWEEN :LO AND :HI",
        {"COLOR": "RED", "LO": 1, "HI": 10},
    ),
    "key_join": (
        "SELECT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO = P.SNO AND S.SCITY = :CITY AND S.SNO BETWEEN :LO AND :HI",
        {"CITY": "Toronto", "LO": 1, "HI": 12},
    ),
    "distinct_removable": (
        "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO = P.SNO AND P.COLOR = :COLOR AND S.SNO BETWEEN :LO AND :HI",
        {"COLOR": "BLUE", "LO": 2, "HI": 12},
    ),
    "distinct_needed": (
        "SELECT DISTINCT S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO = P.SNO AND P.COLOR = :COLOR AND S.SNO BETWEEN :LO AND :HI",
        {"COLOR": "RED", "LO": 1, "HI": 12},
    ),
    "exists_probe": (
        "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S "
        "WHERE S.SCITY = :CITY AND S.SNO BETWEEN :LO AND :HI AND EXISTS "
        "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PNO)",
        {"CITY": "Chicago", "LO": 1, "HI": 12, "PNO": 2},
    ),
    "intersect": (
        "SELECT ALL S.SNO FROM SUPPLIER S "
        "WHERE S.SCITY = :CITY AND S.SNO BETWEEN :LO AND :HI "
        "INTERSECT SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = :ACITY",
        {"CITY": "Toronto", "LO": 1, "HI": 12, "ACITY": "Ottawa"},
    ),
}

#: Every worked example of the paper (E1-E11; E5 is not a query).
CASES = [(q.sql, q.params or None) for q in PAPER_QUERIES] + list(ANALYTIC.values())
IDS = [f"E{q.example}" for q in PAPER_QUERIES] + list(ANALYTIC)

#: DDL that moves the catalog fingerprint: a new table with a key and a
#: foreign key into SUPPLIER.
EXTRA_DDL = (
    "CREATE TABLE EXTRA (X INT NOT NULL, SNO INT, PRIMARY KEY (X), "
    "FOREIGN KEY (SNO) REFERENCES SUPPLIER (SNO));"
)


@pytest.fixture()
def db():
    return build_database(
        generate(SupplierScale(suppliers=12, parts_per_supplier=4, agents_per_supplier=2))
    )


def fresh(sql, database):
    """What a fresh relational optimizer makes of *sql* right now."""
    return Optimizer.for_relational(database.catalog).optimize(parse_query(sql))


def served(database, sql, params):
    with repro.connect(database) as conn:
        cursor = conn.execute(sql, params)
        cursor.fetchall()
    return cursor


def assert_served_is_fresh(database, sql, params):
    """Serve *sql* and check it against a fresh optimization."""
    cursor = served(database, sql, params)
    outcome = cursor.outcome
    expected = fresh(sql, database)
    assert outcome.sql == expected.sql == cursor.executed.sql
    assert outcome.rules == list(dict.fromkeys(s.rule for s in expected.steps))
    assert outcome.rewritten == expected.changed
    assert outcome.audit.to_dicts() == expected.audit.to_dicts()
    rows = execute_planned(expected.query, database, params=params)
    assert outcome.result.same_rows(rows)
    return outcome


@pytest.mark.parametrize("sql,params", CASES, ids=IDS)
def test_cold_and_warm_reads_serve_the_fresh_rewrite(db, sql, params):
    repro.clear_all_caches()
    cold = assert_served_is_fresh(db, sql, params)
    warm = assert_served_is_fresh(db, sql, params)
    assert warm.audit is not cold.audit  # a trail per request


@pytest.mark.parametrize("sql,params", CASES, ids=IDS)
def test_ddl_between_reads_serves_the_fresh_rewrite(db, sql, params):
    assert_served_is_fresh(db, sql, params)
    db.run_script(EXTRA_DDL)
    assert_served_is_fresh(db, sql, params)
    assert_served_is_fresh(db, sql, params)


@pytest.mark.parametrize("sql,params", CASES, ids=IDS)
def test_quarantine_between_reads_serves_the_fresh_rewrite(db, sql, params):
    first = assert_served_is_fresh(db, sql, params)
    for rule in first.rules:
        quarantine_rule(rule, "differential test")
    quarantined = assert_served_is_fresh(db, sql, params)
    assert not set(first.rules) & set(quarantined.rules)
    assert_served_is_fresh(db, sql, params)
    unquarantine_all()
    lifted = assert_served_is_fresh(db, sql, params)
    assert lifted.rules == first.rules


@pytest.mark.parametrize("sql,params", CASES, ids=IDS)
def test_caches_off_serves_the_fresh_rewrite(db, sql, params):
    assert_served_is_fresh(db, sql, params)
    previous = set_caches_enabled(False)
    try:
        assert_served_is_fresh(db, sql, params)
        assert_served_is_fresh(db, sql, params)
    finally:
        set_caches_enabled(previous)
    assert_served_is_fresh(db, sql, params)


# -- DDL that changes the decision --------------------------------------

KEYLESS = "CREATE TABLE T (A INT NOT NULL, B INT); INSERT INTO T VALUES (1, 1), (1, 1);"
KEYED = "CREATE TABLE T (A INT NOT NULL, B INT, PRIMARY KEY (A)); INSERT INTO T VALUES (1, 1);"
PROJECTION = "SELECT DISTINCT T.A, T.B FROM T"

PARENT = "CREATE TABLE P (K INT NOT NULL, PRIMARY KEY (K)); INSERT INTO P VALUES (1), (2);"
CHILD = "CREATE TABLE C (N INT NOT NULL, K INT NOT NULL, PRIMARY KEY (N));"
CHILD_FK = (
    "CREATE TABLE C (N INT NOT NULL, K INT NOT NULL, PRIMARY KEY (N), "
    "FOREIGN KEY (K) REFERENCES P (K));"
)
CHILD_ROWS = "INSERT INTO C VALUES (10, 1), (11, 2);"
JOINED = "SELECT C.N FROM C, P WHERE C.K = P.K"


def _recreate(database, name, script):
    database.catalog.drop(name)
    database.run_script(script)


def test_added_key_changes_the_served_rewrite():
    database = Database.from_script(KEYLESS)
    assert assert_served_is_fresh(database, PROJECTION, None).rules == []
    assert_served_is_fresh(database, PROJECTION, None)
    _recreate(database, "T", KEYED)
    keyed = assert_served_is_fresh(database, PROJECTION, None)
    assert keyed.rules == ["distinct-elimination"]
    assert_served_is_fresh(database, PROJECTION, None)
    _recreate(database, "T", KEYLESS)
    assert assert_served_is_fresh(database, PROJECTION, None).rules == []


def test_added_foreign_key_changes_the_served_rewrite():
    database = Database.from_script(PARENT + CHILD + CHILD_ROWS)
    assert assert_served_is_fresh(database, JOINED, None).rules == []
    assert_served_is_fresh(database, JOINED, None)
    _recreate(database, "C", CHILD_FK + CHILD_ROWS)
    eliminated = assert_served_is_fresh(database, JOINED, None)
    assert eliminated.rules == ["join-elimination"]
    assert_served_is_fresh(database, JOINED, None)


# -- a safe-mode mismatch ------------------------------------------------

DUPLICATES = (
    "CREATE TABLE SUPPLIER (SNO INT, SNAME VARCHAR(30), PRIMARY KEY (SNO));"
    "INSERT INTO SUPPLIER VALUES (1, 'Smith'), (2, 'Smith'), (3, 'Blake');"
)
DUPLICATE_SQL = "SELECT DISTINCT S.SNAME FROM SUPPLIER S"


def test_safe_mode_mismatch_evicts_and_the_next_read_reoptimizes(monkeypatch):
    database = Database.from_script(DUPLICATES)
    with FAULTS.inject(
        SITE_UNIQUENESS,
        kind="corrupt",
        corruptor=lambda _: UniquenessResult(True, "corrupted verdict"),
    ):
        with repro.connect(database) as conn:
            caught = conn.execute(DUPLICATE_SQL, safe_mode=True).outcome
    assert caught.mismatch and caught.evicted >= 1
    # Lifting the quarantine restores the key the poisoned outcome was
    # kept under: only the eviction keeps it from being served again.
    unquarantine_all()
    optimized = []
    original = Optimizer.optimize

    def counting(self, query):
        optimized.append(query)
        return original(self, query)

    monkeypatch.setattr(Optimizer, "optimize", counting)
    outcome = assert_served_is_fresh(database, DUPLICATE_SQL, None)
    assert optimized, "the read after the eviction re-optimizes"
    assert outcome.rules == [] and sorted(outcome.result.rows) == [
        ("Blake",), ("Smith",)
    ]


# -- one trail per request -------------------------------------------------


@pytest.mark.parametrize("sql,params", [ANALYTIC["intersect"], CASES[0]],
                         ids=["intersect", "E1"])
def test_threads_reading_one_warm_statement_see_whole_trails(db, sql, params):
    served(db, sql, params)  # warm
    expected = fresh(sql, db).audit
    threads = 8
    start = threading.Barrier(threads)
    read: list = [None] * threads

    def reader(slot):
        audit = served(db, sql, params).outcome.audit
        start.wait()
        read[slot] = (audit.proof_sketch(), audit.to_dicts())

    workers = [threading.Thread(target=reader, args=(n,)) for n in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert read == [(expected.proof_sketch(), expected.to_dicts())] * threads
