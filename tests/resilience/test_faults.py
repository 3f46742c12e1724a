"""The fault injector itself: counting, determinism, arming discipline."""

import pytest

from repro.errors import InjectedFaultError, TransientError
from repro.resilience import FAULTS, FaultInjector, FaultSpec
from repro.resilience.faults import ALL_SITES, iter_sites


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("index_build", kind="meltdown")

    def test_after_skips_opportunities(self):
        injector = FaultInjector()
        spec = injector.arm(FaultSpec("index_build", after=2))
        injector.check("index_build")
        injector.check("index_build")
        with pytest.raises(InjectedFaultError):
            injector.check("index_build")
        assert spec.triggered == 3 and spec.fired == 1

    def test_times_bounds_firings(self):
        injector = FaultInjector()
        spec = injector.arm(FaultSpec("index_build", times=2))
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                injector.check("index_build")
        injector.check("index_build")  # exhausted: no longer fires
        assert spec.fired == 2 and spec.triggered == 3

    def test_probability_is_seed_deterministic(self):
        def firing_pattern(seed):
            injector = FaultInjector(seed=seed)
            injector.arm(FaultSpec("index_build", probability=0.5))
            pattern = []
            for _ in range(20):
                try:
                    injector.check("index_build")
                    pattern.append(False)
                except InjectedFaultError:
                    pattern.append(True)
            return pattern

        assert firing_pattern(7) == firing_pattern(7)
        assert any(firing_pattern(7)) and not all(firing_pattern(7))


class TestFaultInjector:
    def test_unarmed_is_a_noop(self):
        injector = FaultInjector()
        assert not injector.armed
        injector.check("index_build")  # no spec: nothing raised
        assert injector.corrupt("uniqueness", 42) == 42

    def test_sites_are_independent(self):
        injector = FaultInjector()
        injector.arm(FaultSpec("index_build"))
        injector.check("plan_cache")  # different site: untouched
        with pytest.raises(InjectedFaultError) as info:
            injector.check("index_build")
        assert info.value.site == "index_build"

    def test_transient_kind_raises_typed_ims_error(self):
        injector = FaultInjector()
        injector.arm(FaultSpec("dli_call", kind="transient", status="GL"))
        with pytest.raises(TransientError) as info:
            injector.check("dli_call")
        assert info.value.status == "GL"

    def test_custom_error_factory(self):
        injector = FaultInjector()
        injector.arm(FaultSpec("index_build", error=lambda: KeyError("boom")))
        with pytest.raises(KeyError):
            injector.check("index_build")

    def test_corrupt_routes_values_and_check_ignores_it(self):
        injector = FaultInjector()
        injector.arm(
            FaultSpec("uniqueness", kind="corrupt", corruptor=lambda v: -v)
        )
        injector.check("uniqueness")  # corrupt faults never raise here
        assert injector.corrupt("uniqueness", 5) == -5

    def test_corrupt_without_corruptor_is_an_arming_error(self):
        injector = FaultInjector()
        injector.arm(FaultSpec("uniqueness", kind="corrupt"))
        with pytest.raises(ValueError):
            injector.corrupt("uniqueness", 5)

    def test_inject_context_manager_disarms(self):
        injector = FaultInjector()
        with injector.inject("index_build") as spec:
            assert injector.armed and injector.specs("index_build") == [spec]
            with pytest.raises(InjectedFaultError):
                injector.check("index_build")
        assert not injector.armed
        injector.check("index_build")

    def test_disarm_restores_armed_flag_with_other_specs(self):
        injector = FaultInjector()
        first = injector.arm(FaultSpec("index_build"))
        injector.arm(FaultSpec("plan_cache"))
        injector.disarm(first)
        assert injector.armed
        injector.reset()
        assert not injector.armed and injector.specs() == []

    def test_global_injector_and_site_constants(self):
        assert isinstance(FAULTS, FaultInjector)
        assert tuple(iter_sites()) == ALL_SITES
        assert len(set(ALL_SITES)) == len(ALL_SITES)
