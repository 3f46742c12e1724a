"""Per-query resource budgets and the cooperative execution guard.

A :class:`ResourceBudget` states the limits (wall-clock seconds, rows
processed); an :class:`ExecutionGuard` enforces them from inside the
operator loops.  Operators call :meth:`ExecutionGuard.tick` once per row
they touch; the guard counts rows, honours a cooperative cancellation
flag (settable from any thread), and re-reads the clock every
:data:`CLOCK_CHECK_INTERVAL` ticks so the per-row cost stays a counter
increment and a couple of attribute tests.

Budget violations raise the typed taxonomy of :mod:`repro.errors`:
:class:`~repro.errors.QueryTimeout`, :class:`~repro.errors.RowBudgetExceeded`,
:class:`~repro.errors.QueryCancelled` — all under ``ExecutionError`` so
existing callers that catch execution failures keep working.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..errors import QueryCancelled, QueryTimeout, RowBudgetExceeded

#: Ticks between wall-clock reads; a power of two so the modulo is cheap.
CLOCK_CHECK_INTERVAL = 256


@dataclass(frozen=True)
class ResourceBudget:
    """Declarative limits for one query execution.

    Attributes:
        timeout: wall-clock seconds (None = unlimited).
        row_budget: rows an execution may *process* — scanned, joined, or
            filtered, not just output — so a runaway cross product trips
            the budget long before it materializes (None = unlimited).
    """

    timeout: float | None = None
    row_budget: int | None = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.row_budget is not None and self.row_budget <= 0:
            raise ValueError("row budget must be positive")

    @property
    def unlimited(self) -> bool:
        """Whether this budget never constrains anything."""
        return self.timeout is None and self.row_budget is None

    def guard(self, clock: Callable[[], float] = time.monotonic) -> "ExecutionGuard":
        """A fresh guard enforcing this budget, started now."""
        return ExecutionGuard(self, clock=clock)


class ExecutionGuard:
    """Enforces one :class:`ResourceBudget` over one execution.

    The clock is injectable for deterministic tests.  Guards are cheap
    to construct; make a fresh one per execution so the deadline starts
    when the query does.
    """

    def __init__(
        self,
        budget: ResourceBudget | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.budget = budget or ResourceBudget()
        self._clock = clock
        self._started = clock()
        self._deadline = (
            None
            if self.budget.timeout is None
            else self._started + self.budget.timeout
        )
        self._row_budget = self.budget.row_budget  # hot-loop local
        # The tick count at which tick() next reads the clock.
        self._next_clock_check = (
            float("inf") if self._deadline is None else CLOCK_CHECK_INTERVAL
        )
        self.rows_processed = 0
        self.cancelled = False
        self._cancel_reason = ""

    # ------------------------------------------------------------------

    def cancel(self, reason: str = "") -> None:
        """Request cooperative cancellation (safe from another thread).

        The execution raises :class:`~repro.errors.QueryCancelled` at its
        next tick.
        """
        self._cancel_reason = reason
        self.cancelled = True

    def elapsed(self) -> float:
        """Seconds since the guard was constructed."""
        return self._clock() - self._started

    def tick(self, rows: int = 1) -> None:
        """Account *rows* processed rows; raise if any limit is breached."""
        if self.cancelled:
            raise QueryCancelled(self._cancel_reason)
        processed = self.rows_processed + rows
        self.rows_processed = processed
        budget = self._row_budget
        if budget is not None and processed > budget:
            raise RowBudgetExceeded(budget, processed)
        if processed >= self._next_clock_check:
            # An interval boundary was crossed somewhere in this batch
            # of rows: one comparison per tick, with or without a clock.
            self._next_clock_check = (
                processed - processed % CLOCK_CHECK_INTERVAL + CLOCK_CHECK_INTERVAL
            )
            self.check_deadline()

    def check_deadline(self) -> None:
        """Unconditional wall-clock check (operators with long per-row
        work — a correlated subquery, a DL/I sweep — call this directly)."""
        if self._deadline is not None and self._clock() > self._deadline:
            raise QueryTimeout(self.budget.timeout, self.elapsed())
