"""End-to-end deadlines: one absolute point in time a query's answer
stops being useful.

A :class:`Deadline` differs from a per-query *timeout* in what it
measures: a timeout bounds execution from the moment the engine starts,
while a deadline is fixed when the **client** gives up — everything in
between (network transit, admission-queue wait, scheduling) spends the
same budget.  A query that waited 900ms of a 1s deadline gets 100ms of
execution; one that waited past its deadline is rejected with
:class:`~repro.errors.DeadlineExpiredError` *before* any operator runs.

Wire form: deadlines cross the HTTP boundary as **remaining
milliseconds** (the ``X-Deadline-Ms`` header, or the ``deadline_ms``
options field), never as absolute times — the two processes share no
clock, monotonic or otherwise.  Each hop re-anchors the remaining
budget against its own monotonic clock, so skew can only make the
server *more* conservative by the transit time, never less.

The class is a frozen value (like everything in
:class:`~repro.options.ExecutionOptions`), so it can ride inside the
options object across threads without copies; the injectable clock is
excluded from comparison so two deadlines are equal exactly when they
expire at the same instant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from ..errors import DeadlineExpiredError

#: HTTP request header carrying the remaining budget in milliseconds.
DEADLINE_HEADER = "X-Deadline-Ms"


@dataclass(frozen=True, slots=True)
class Deadline:
    """An absolute expiry instant on the local monotonic clock.

    Attributes:
        expires_at: monotonic timestamp after which the answer is
            worthless to whoever asked.
        clock: time source (injectable for deterministic tests;
            excluded from equality).
    """

    expires_at: float
    clock: Callable[[], float] = field(
        default=time.monotonic, compare=False, repr=False
    )

    # -- construction ---------------------------------------------------

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline *seconds* from now (negative = already expired)."""
        return cls(clock() + seconds, clock)

    @classmethod
    def from_wire_ms(
        cls, ms: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """Re-anchor a remaining-milliseconds wire value locally."""
        return cls(clock() + ms / 1000.0, clock)

    # -- views ----------------------------------------------------------

    def remaining(self) -> float:
        """Seconds left; zero or negative once expired."""
        return self.expires_at - self.clock()

    def remaining_ms(self) -> float:
        """Milliseconds left; zero or negative once expired."""
        return self.remaining() * 1000.0

    @property
    def expired(self) -> bool:
        """Whether the deadline has already passed."""
        return self.remaining() <= 0.0

    def to_wire_ms(self) -> float:
        """The wire form: remaining milliseconds, floored at zero so a
        stale value decodes to an immediately-expired deadline rather
        than a nonsensical negative budget."""
        return max(0.0, self.remaining_ms())

    # -- enforcement ----------------------------------------------------

    def check(self, waited: float | None = None) -> float:
        """The remaining seconds, or raise if the deadline has passed.

        *waited* annotates the error with how long the query sat in an
        admission queue before the check, for operators reading logs.
        """
        remaining = self.remaining()
        if remaining <= 0.0:
            raise DeadlineExpiredError(remaining * 1000.0, waited)
        return remaining

    def clamp_timeout(self, timeout: float | None) -> float:
        """The *effective* execution timeout under this deadline: the
        smaller of the caller's own timeout and what the deadline has
        left.  Raises :class:`~repro.errors.DeadlineExpiredError` when
        nothing is left."""
        remaining = self.check()
        return remaining if timeout is None else min(timeout, remaining)
