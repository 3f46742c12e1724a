"""ExecutionOptions: the one frozen value shared by the facade, the
service, and the HTTP schema — construction, layering, and the wire
round trip."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.resilience import ResourceBudget


class TestConstruction:
    def test_defaults(self):
        options = ExecutionOptions()
        assert options.timeout is None
        assert options.row_budget is None
        assert not options.safe_mode
        assert not options.analyze
        assert options.optimize
        assert options.budget() is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionOptions().safe_mode = True

    def test_create_from_budget(self):
        budget = ResourceBudget(timeout=2.0, row_budget=100)
        options = ExecutionOptions.create(budget=budget, safe_mode=True)
        assert options.timeout == 2.0
        assert options.row_budget == 100
        assert options.safe_mode
        derived = options.budget()
        assert derived.timeout == 2.0 and derived.row_budget == 100

    def test_override_is_the_one_normalizer(self):
        base = ExecutionOptions(
            safe_mode=True, autocommit=False, engine_mode="vectorized"
        )
        assert base.override() is base  # nothing to rebuild or re-validate
        budget = ResourceBudget(timeout=2.0, row_budget=100)
        layered = base.override(budget=budget, row_budget=7, deadline=5)
        assert (layered.timeout, layered.row_budget) == (2.0, 7)
        assert 0 < layered.deadline.remaining() <= 5
        # Fields an override does not name survive it.
        assert layered.safe_mode and not layered.autocommit
        assert layered.engine_mode == "vectorized"
        assert ExecutionOptions.create(
            budget=budget, engine_mode="vectorized"
        ) == ExecutionOptions().override(
            timeout=2.0, row_budget=100, engine_mode="vectorized"
        )
        with pytest.raises(TypeError):
            base.override(sample_every=25)
        # One query runs on one thread: no parallelism option exists.
        with pytest.raises(TypeError):
            base.override(parallel=2)
        with pytest.raises(TypeError):
            ExecutionOptions.create(parallel=2)
        # The cluster forwards whole queries: no shard-slice option exists.
        with pytest.raises(TypeError):
            ExecutionOptions.create(scan_ranges={"PARTS": (0, 4)})
        with pytest.raises(TypeError):
            base.override(budget=2.0)
        with pytest.raises(ValueError):
            base.override(timeout=0)

    def test_budget_is_clamped_to_the_deadline(self):
        from repro.errors import DeadlineExpiredError

        options = ExecutionOptions.create(timeout=30.0, deadline=0.5, row_budget=9)
        budget = options.budget()
        assert budget.timeout <= 0.5 and budget.row_budget == 9
        assert ExecutionOptions.create(deadline=0.5).budget().timeout <= 0.5
        with pytest.raises(DeadlineExpiredError):
            ExecutionOptions.create(deadline=-1.0).budget()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionOptions(timeout=0)
        with pytest.raises(ValueError):
            ExecutionOptions(row_budget=-1)


class TestMerging:
    def test_override_wins_on_non_defaults(self):
        base = ExecutionOptions(timeout=5.0, safe_mode=True)
        merged = base.merged(ExecutionOptions(row_budget=10))
        assert merged.timeout == 5.0
        assert merged.row_budget == 10
        assert merged.safe_mode

    def test_none_override_is_identity(self):
        base = ExecutionOptions(timeout=5.0)
        assert base.merged(None) is base

    def test_optimize_false_survives_merge(self):
        merged = DEFAULT_OPTIONS.merged(ExecutionOptions(optimize=False))
        assert not merged.optimize


class TestWire:
    def test_round_trip(self):
        options = ExecutionOptions(
            timeout=1.5,
            row_budget=42,
            safe_mode=True,
            analyze=True,
            optimize=False,
            engine_mode="vectorized",
        )
        assert ExecutionOptions.from_wire(options.to_wire()) == options

    def test_defaults_encode_empty(self):
        assert ExecutionOptions().to_wire() == {}
        assert ExecutionOptions.from_wire(None) == ExecutionOptions()
        assert ExecutionOptions.from_wire({}) == ExecutionOptions()

    def test_unknown_key_rejected(self):
        with pytest.raises(ProtocolError):
            ExecutionOptions.from_wire({"bogus": 1})
        with pytest.raises(ProtocolError, match=r"unknown option\(s\): parallel"):
            ExecutionOptions.from_wire({"parallel": 2})
        with pytest.raises(
            ProtocolError, match=r"unknown option\(s\): scan_ranges"
        ):
            ExecutionOptions.from_wire({"scan_ranges": {"PARTS": [0, 4]}})

    def test_bad_types_rejected(self):
        with pytest.raises(ProtocolError):
            ExecutionOptions.from_wire({"timeout": "fast"})
        with pytest.raises(ProtocolError):
            ExecutionOptions.from_wire({"safe_mode": 1})
