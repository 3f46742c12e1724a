"""Retry-with-backoff, alone and wrapped around the IMS gateway."""

import pytest

from repro.errors import TransientError
from repro.ims import GatewayStats, ImsGateway
from repro.resilience import FAULTS, SITE_DLI, RetryPolicy, call_with_retry
from repro.workloads import SupplierScale, build_ims_database, generate

# Example 10's join, the gateway's canonical workload.
JOIN_SQL = (
    "SELECT ALL S.* FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND P.PNO = :PARTNO"
)
PARAMS = {"PARTNO": 3}

#: No real sleeping in tests.
FAST = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0)


@pytest.fixture(scope="module")
def ims_db():
    return build_ims_database(
        generate(SupplierScale(suppliers=10, parts_per_supplier=4))
    )


class TestCallWithRetry:
    def test_succeeds_after_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("GL")
            return "ok"

        retries = []
        sleeps = []
        assert (
            call_with_retry(
                flaky,
                policy=RetryPolicy(
                    max_attempts=4,
                    base_delay=0.25,
                    max_delay=1.0,
                    jitter=0.0,
                ),
                sleep=sleeps.append,
                on_retry=lambda n, e: retries.append((n, e.status)),
            )
            == "ok"
        )
        assert len(calls) == 3
        assert retries == [(1, "GL"), (2, "GL")]
        assert sleeps == [0.25, 0.5]  # exponential, un-jittered

    def test_exhausted_attempts_propagate_the_error(self):
        def always_fails():
            raise TransientError("GG")

        with pytest.raises(TransientError):
            call_with_retry(always_fails, policy=FAST, sleep=lambda s: None)

    def test_non_retryable_errors_propagate_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            call_with_retry(broken, policy=FAST, sleep=lambda s: None)
        assert len(calls) == 1

    def test_jitter_only_shrinks_the_delay(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=1.0)
        import random

        rng = random.Random(3)
        for retry_number in range(1, 6):
            raw = min(1.0, 0.1 * 2.0 ** (retry_number - 1))
            jittered = policy.delay(retry_number, rng)
            assert 0 <= jittered <= raw

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestGatewayRetry:
    def test_transient_dli_faults_are_retried_to_the_same_rows(self, ims_db):
        gateway = ImsGateway(ims_db, retry_policy=FAST)
        clean_stats = GatewayStats()
        expected = gateway.execute(JOIN_SQL, params=PARAMS, stats=clean_stats)
        assert len(expected.rows) > 0

        stats = GatewayStats()
        # Two transient failures partway into the DL/I program, then clean.
        with FAULTS.inject(SITE_DLI, kind="transient", after=2, times=2):
            result = gateway.execute(JOIN_SQL, params=PARAMS, stats=stats)

        assert result.same_rows(expected)
        assert stats.retries == 2
        # Per-attempt counters describe the SUCCESSFUL attempt only.
        assert stats.dli.calls_to("PARTS", "GNP") == clean_stats.dli.calls_to(
            "PARTS", "GNP"
        )
        assert stats.dli.total_calls() == clean_stats.dli.total_calls()

    def test_persistent_transient_fault_surfaces_typed(self, ims_db):
        gateway = ImsGateway(ims_db, retry_policy=FAST)
        with FAULTS.inject(SITE_DLI, kind="transient", status="GL"):
            with pytest.raises(TransientError):
                gateway.execute(JOIN_SQL, params=PARAMS)

    def test_default_policy_applies_when_none_given(self, ims_db):
        gateway = ImsGateway(ims_db)
        stats = GatewayStats()
        with FAULTS.inject(SITE_DLI, kind="transient", times=1):
            result = gateway.execute(JOIN_SQL, params=PARAMS, stats=stats)
        assert stats.retries == 1
        assert len(result.rows) > 0
