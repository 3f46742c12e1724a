"""One frozen options object for every execution surface.

Budgets, safe mode, engine mode, deadlines: every per-query knob
lives in :class:`ExecutionOptions`.  The :mod:`repro.api` facade,
:meth:`repro.service.QueryService.submit`, and the HTTP request schema
(:mod:`repro.net.protocol`) all carry this one immutable value, and :meth:`ExecutionOptions.to_wire` /
:meth:`ExecutionOptions.from_wire` round-trip it local → service →
socket without loss.

Import discipline: this module depends only on the leaf dataclass
:class:`~repro.resilience.budgets.ResourceBudget` plus
:mod:`repro.errors`, so every layer — engine, service, net, CLI — can
import it without cycles.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Any

from .engine.columnar import ENGINE_MODES
from .errors import ProtocolError
from .resilience.admission import PRIORITIES, PRIORITY_INTERACTIVE
from .resilience.budgets import ResourceBudget
from .resilience.deadline import Deadline


@dataclass(frozen=True)
class ExecutionOptions:
    """Everything that shapes one query execution, in one frozen value.

    Attributes:
        timeout: per-query wall-clock budget in seconds (None = none).
        row_budget: rows the query may *process* (None = unlimited).
        safe_mode: cross-check uniqueness rewrites against the
            unrewritten plan; quarantine rules on a mismatch.
        analyze: additionally run EXPLAIN ANALYZE instrumentation and
            attach per-operator actuals to the outcome.
        optimize: apply the rewrite rules at all (False = execute the
            query exactly as written).
        stats: plan with the statistics-driven cost model — collected
            table statistics (``Database.analyze()``) feed cardinality
            estimates and cost-based join-order enumeration; without
            fresh statistics the planner falls back to rule order.
        adaptive: feed observed cardinalities from this (analyzed) run
            back into the adaptive correction store, and consult prior
            corrections while planning; implies statistics-driven
            planning and forces an instrumented execution.
        engine_mode: ``"tuple"`` (row-at-a-time interpreter/compiled
            closures), ``"vectorized"`` (columnar batches), ``"auto"``
            (vectorize exactly when faults are disarmed), or None to
            defer to :func:`repro.engine.columnar.default_engine_mode`.
        batch_rows: rows per column batch in vectorized mode (None =
            the engine default).
        deadline: end-to-end :class:`~repro.resilience.deadline.Deadline`
            — the instant the *client* stops caring.  Queue wait spends
            it, the effective execution timeout is clamped to what is
            left, and an already-expired deadline is rejected before any
            operator runs.  Crosses the wire as remaining milliseconds
            (``deadline_ms``).
        priority: admission priority class — ``"interactive"``
            (default, shed last) or ``"batch"`` (shed first under
            load).
        autocommit: when True (default), each statement outside an
            explicit ``BEGIN`` block commits on its own.  When False,
            the connection opens an implicit MVCC transaction before
            the first statement and holds it until ``commit()`` /
            ``rollback()`` — the DB-API 2.0 posture.  Crosses the wire
            only when False.

    The class is frozen and built from frozen parts, so a value can key
    caches, cross threads, and be shared between a session default and
    a per-query override without defensive copies.
    """

    timeout: float | None = None
    row_budget: int | None = None
    safe_mode: bool = False
    analyze: bool = False
    optimize: bool = True
    stats: bool = False
    adaptive: bool = False
    engine_mode: str | None = None
    batch_rows: int | None = None
    deadline: Deadline | None = None
    priority: str = PRIORITY_INTERACTIVE
    autocommit: bool = True

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.row_budget is not None and self.row_budget <= 0:
            raise ValueError("row budget must be positive")
        if self.engine_mode is not None and self.engine_mode not in ENGINE_MODES:
            raise ValueError(
                f"engine_mode must be one of {', '.join(ENGINE_MODES)}"
            )
        if self.batch_rows is not None and self.batch_rows <= 0:
            raise ValueError("batch_rows must be positive")
        if self.priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {', '.join(PRIORITIES)}"
            )

    # -- construction ---------------------------------------------------

    @classmethod
    def create(cls, **loose: Any) -> "ExecutionOptions":
        """Build options from the looser spellings :meth:`override` takes."""
        return DEFAULT_OPTIONS.override(**loose)

    def override(self, **loose: Any) -> "ExecutionOptions":
        """These options with keyword overrides on top.

        The one place the looser spellings are understood — every field
        name is accepted, plus: ``budget`` (a
        :class:`~repro.resilience.budgets.ResourceBudget`) expands into
        ``timeout``/``row_budget``, an explicitly passed field winning
        over the budget's; ``deadline`` accepts seconds-from-now as
        shorthand for ``Deadline.after(seconds)``.  Fields not named
        keep this value's setting, no overrides returns this value
        itself, and an unknown keyword raises :class:`TypeError`.
        """
        if not loose:
            return self
        # Runs per call when a caller passes keywords (a deadline per
        # request): each shorthand is looked at only when it was passed.
        if "budget" in loose:
            budget = loose.pop("budget")
            if budget is not None:
                if not isinstance(budget, ResourceBudget):
                    raise TypeError("budget must be a ResourceBudget")
                loose.setdefault("timeout", budget.timeout)
                loose.setdefault("row_budget", budget.row_budget)
        deadline = loose.get("deadline")
        if isinstance(deadline, (int, float)) and not isinstance(deadline, bool):
            loose["deadline"] = Deadline.after(float(deadline))
        if not loose.keys() <= _DEFAULTS.keys():
            unknown = ", ".join(sorted(loose.keys() - _DEFAULTS.keys()))
            raise TypeError(f"unknown option(s): {unknown}")
        options = self._with(loose)
        options.__post_init__()
        return options

    # -- derived views --------------------------------------------------

    def budget(self) -> ResourceBudget | None:
        """The :class:`ResourceBudget` one execution gets, if any.

        The timeout is the smaller of ``timeout`` and what ``deadline``
        has left right now; an already-expired deadline raises
        :class:`~repro.errors.DeadlineExpiredError` here.
        """
        timeout = self.timeout
        if self.deadline is not None:
            timeout = self.deadline.clamp_timeout(timeout)
        if timeout is None and self.row_budget is None:
            return None
        return ResourceBudget(timeout=timeout, row_budget=self.row_budget)

    def merged(self, override: "ExecutionOptions | None") -> "ExecutionOptions":
        """These options with every non-default field of *override* on top.

        Used by the service and the HTTP server to layer a per-query
        request over a session's defaults: a field the request left at
        its default keeps the session's value.
        """
        if override is None:
            return self
        if self.__dict__ == _DEFAULTS:
            return override  # the common session: nothing to layer under
        changes = {
            name: value
            for name, value in override.__dict__.items()
            if value != _DEFAULTS[name]
        }
        # Every value comes from a validated ExecutionOptions and every
        # check in __post_init__ is per field, so the copy skips them.
        return self._with(changes) if changes else self

    def _with(self, changes: Mapping[str, Any]) -> "ExecutionOptions":
        """A copy with *changes* set, unchecked.  Not
        ``dataclasses.replace``, which walks every field again: options
        are layered per request, on the client and on the server."""
        options = object.__new__(ExecutionOptions)
        options.__dict__.update(self.__dict__, **changes)
        return options

    # -- wire round-trip ------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        """A JSON-ready dict, omitting fields at their defaults."""
        payload: dict[str, Any] = {}
        if self.timeout is not None:
            payload["timeout"] = self.timeout
        if self.row_budget is not None:
            payload["row_budget"] = self.row_budget
        if self.safe_mode:
            payload["safe_mode"] = True
        if self.analyze:
            payload["analyze"] = True
        if not self.optimize:
            payload["optimize"] = False
        if self.stats:
            payload["stats"] = True
        if self.adaptive:
            payload["adaptive"] = True
        if self.engine_mode is not None:
            payload["engine_mode"] = self.engine_mode
        if self.batch_rows is not None:
            payload["batch_rows"] = self.batch_rows
        if self.deadline is not None:
            # Remaining milliseconds, re-anchored by the receiving hop:
            # the two processes share no clock, monotonic or otherwise.
            payload["deadline_ms"] = self.deadline.to_wire_ms()
        if self.priority != PRIORITY_INTERACTIVE:
            payload["priority"] = self.priority
        if not self.autocommit:
            payload["autocommit"] = False
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any] | None) -> "ExecutionOptions":
        """Parse the wire dict; unknown keys raise a typed error.

        The strictness is deliberate: a typo'd option silently ignored
        on the server would make local and remote execution diverge,
        which is exactly what the unified facade exists to prevent.
        """
        if payload is None:
            return cls()
        if not isinstance(payload, Mapping):
            raise ProtocolError("options must be a JSON object")
        # The deadline travels as remaining milliseconds, not as the
        # local Deadline object, so the wire name differs from the field.
        known = {spec.name for spec in fields(cls)} - {"deadline"}
        known.add("deadline_ms")
        unknown = set(payload) - known
        if unknown:
            raise ProtocolError(
                f"unknown option(s): {', '.join(sorted(unknown))}"
            )
        kwargs: dict[str, Any] = {}
        for name in ("timeout", "row_budget"):
            if payload.get(name) is not None:
                value = payload[name]
                if not isinstance(value, (int, float)) or isinstance(
                    value, bool
                ):
                    raise ProtocolError(f"option {name!r} must be a number")
                kwargs[name] = int(value) if name == "row_budget" else float(value)
        for name in (
            "safe_mode",
            "analyze",
            "optimize",
            "stats",
            "adaptive",
            "autocommit",
        ):
            if name in payload:
                value = payload[name]
                if not isinstance(value, bool):
                    raise ProtocolError(f"option {name!r} must be a boolean")
                kwargs[name] = value
        if payload.get("engine_mode") is not None:
            value = payload["engine_mode"]
            if not isinstance(value, str) or value not in ENGINE_MODES:
                raise ProtocolError(
                    "option 'engine_mode' must be one of "
                    + ", ".join(repr(mode) for mode in ENGINE_MODES)
                )
            kwargs["engine_mode"] = value
        if payload.get("batch_rows") is not None:
            value = payload["batch_rows"]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError("option 'batch_rows' must be an integer")
            kwargs["batch_rows"] = value
        if payload.get("deadline_ms") is not None:
            value = payload["deadline_ms"]
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or value < 0
            ):
                raise ProtocolError(
                    "option 'deadline_ms' must be a non-negative number"
                )
            kwargs["deadline"] = Deadline.from_wire_ms(float(value))
        if payload.get("priority") is not None:
            value = payload["priority"]
            if not isinstance(value, str) or value not in PRIORITIES:
                raise ProtocolError(
                    "option 'priority' must be one of "
                    + ", ".join(repr(p) for p in PRIORITIES)
                )
            kwargs["priority"] = value
        try:
            return DEFAULT_OPTIONS.override(**kwargs)
        except ValueError as error:
            raise ProtocolError(f"invalid options: {error}") from None


#: The all-defaults value layered under every merge.
DEFAULT_OPTIONS = ExecutionOptions()
_DEFAULTS = DEFAULT_OPTIONS.__dict__
