"""Safe mode: verified fallback for the rewrite layer itself.

The attack staged here is the worst case for a uniqueness-driven
optimizer: Algorithm 1 is made to return an *unsound* YES (via a corrupt
fault), ``distinct-elimination`` fires on a query whose projection is
NOT duplicate-free, and the poisoned verdict lands in the analysis
cache.  Safe mode must catch the changed multiset, quarantine the rule,
evict the poisoned entries, and serve the reference answer.
"""

import pytest

from repro import Stats, UniquenessResult
from repro.resilience.guarded import run_guarded
from repro.core.rewrite import quarantined_rules
from repro.engine import Database
from repro.errors import RewriteMismatchError, exit_code_for
from repro.resilience import FAULTS, SITE_UNIQUENESS

SCRIPT = """
CREATE TABLE SUPPLIER (
  SNO INT, SNAME VARCHAR(30), SCITY VARCHAR(20),
  PRIMARY KEY (SNO));
INSERT INTO SUPPLIER VALUES
  (1, 'Smith', 'Toronto'),
  (2, 'Smith', 'Chicago'),
  (3, 'Blake', 'Toronto');
"""

#: SNAME is not a key: DISTINCT is required and normally survives.
DUPLICATE_SQL = "SELECT DISTINCT S.SNAME FROM SUPPLIER S"
CORRECT_ROWS = [("Blake",), ("Smith",)]

#: SNO is the key: DISTINCT elimination here is legitimately sound.
SOUND_SQL = "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S"


def _unsound_yes(result):
    return UniquenessResult(True, "corrupted verdict")


@pytest.fixture()
def db():
    return Database.from_script(SCRIPT)


def _inject_unsound_verdict():
    return FAULTS.inject(
        SITE_UNIQUENESS, kind="corrupt", corruptor=_unsound_yes
    )


def test_corrupt_verdict_without_safe_mode_leaks_duplicates(db):
    """Establish the hazard: unguarded, the bad rewrite changes rows."""
    with _inject_unsound_verdict():
        outcome = run_guarded(DUPLICATE_SQL, db, safe_mode=False)
    assert outcome.rewritten and "distinct-elimination" in outcome.rules
    assert sorted(outcome.result.rows) == [("Blake",), ("Smith",), ("Smith",)]

    # Worse: the unsound YES was cached.  Even with the fault disarmed,
    # the same text replays the poisoned verdict.
    replay = run_guarded(DUPLICATE_SQL, db, safe_mode=False)
    assert replay.rewritten  # served from the poisoned cache


def test_safe_mode_detects_quarantines_and_serves_reference(db):
    with _inject_unsound_verdict():
        outcome = run_guarded(DUPLICATE_SQL, db, safe_mode=True)

    assert outcome.verified and outcome.mismatch
    assert outcome.quarantined == ["distinct-elimination"]
    assert outcome.evicted >= 1
    assert outcome.sql == DUPLICATE_SQL  # the reference text
    assert sorted(outcome.result.rows) == CORRECT_ROWS
    assert "distinct-elimination" in quarantined_rules()
    assert "MISMATCH" in outcome.describe()

    # The quarantine holds process-wide: the rule no longer fires, so
    # later executions are correct even without safe mode.
    later = run_guarded(DUPLICATE_SQL, db, safe_mode=False)
    assert not later.rewritten
    assert sorted(later.result.rows) == CORRECT_ROWS


def test_mismatch_keeps_no_analysis(db):
    """The served rows are the reference run's, which the analysis sink
    (attached to the rewritten run) did not observe."""
    from repro.api import run_with_options
    from repro.options import ExecutionOptions

    options = ExecutionOptions(analyze=True, safe_mode=True)
    with _inject_unsound_verdict():
        outcome = run_with_options(DUPLICATE_SQL, db, options=options)
    assert outcome.mismatch and outcome.analysis is None
    assert sorted(outcome.result.rows) == CORRECT_ROWS


def test_eviction_purges_the_poisoned_verdict(db):
    """After quarantine + eviction, lifting the quarantine is safe: the
    poisoned cache entry is gone, so Algorithm 1 re-runs and says NO."""
    from repro.core.rewrite import unquarantine_all

    with _inject_unsound_verdict():
        run_guarded(DUPLICATE_SQL, db, safe_mode=True)
    unquarantine_all()

    clean = run_guarded(DUPLICATE_SQL, db, safe_mode=False)
    assert not clean.rewritten  # fresh verdict: SNAME is not a key
    assert sorted(clean.result.rows) == CORRECT_ROWS


def test_strict_mode_raises_typed_error(db):
    with _inject_unsound_verdict():
        with pytest.raises(RewriteMismatchError) as info:
            run_guarded(DUPLICATE_SQL, db, safe_mode=True, strict=True)
    assert info.value.rules == ["distinct-elimination"]
    assert info.value.sql == DUPLICATE_SQL
    assert exit_code_for(info.value) == 8
    # Strict mode still quarantined before raising.
    assert "distinct-elimination" in quarantined_rules()


def test_sound_rewrites_verify_clean(db):
    outcome = run_guarded(SOUND_SQL, db, safe_mode=True)
    assert outcome.rewritten and outcome.verified and not outcome.mismatch
    assert sorted(outcome.result.rows) == [
        (1, "Smith"), (2, "Smith"), (3, "Blake"),
    ]
    assert "verified" in outcome.describe()
    assert quarantined_rules() == {}


def test_sampling_checks_first_then_every_nth(db):
    verified = []
    for _ in range(7):
        outcome = run_guarded(SOUND_SQL, db, safe_mode=True, sample_every=3)
        verified.append(outcome.verified)
    assert verified == [True, False, False, True, False, False, True]

    with pytest.raises(ValueError):
        run_guarded(SOUND_SQL, db, safe_mode=True, sample_every=0)


def test_checking_every_execution_keeps_no_per_text_state(db):
    """Every front door runs safe mode at ``sample_every=1``; served
    traffic with distinct literals must not grow a counter per text."""
    from repro.resilience import guarded

    for key in range(50):
        outcome = run_guarded(
            f"SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = {key}",
            db,
            safe_mode=True,
        )
        assert outcome.rewritten and outcome.verified
    assert guarded._sample_counters == {}


def test_unchanged_queries_skip_the_cross_check(db):
    outcome = run_guarded(
        "SELECT S.SNAME FROM SUPPLIER S", db, safe_mode=True
    )
    assert not outcome.rewritten and not outcome.verified
    assert "not rewritten" in outcome.describe()


def test_run_guarded_accepts_stats_sink(db):
    stats = Stats()
    outcome = run_guarded(SOUND_SQL, db, stats=stats)
    assert outcome.stats is stats
    assert stats.rows_scanned > 0
