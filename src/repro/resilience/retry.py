"""Bounded, jittered exponential backoff for transient failures.

The IMS gateway's DL/I calls can fail transiently (§6's multidatabase
setting: lock timeouts, buffer shortages in the remote region).  DL/I
reads are side-effect free here, so the whole iterative program can be
re-run from scratch; :func:`call_with_retry` does exactly that with a
deterministic, seeded jitter so tests replay identically.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Tuple, Type, TypeVar

from ..errors import TransientError

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Shape of the backoff schedule.

    Attributes:
        max_attempts: total tries, including the first (>= 1).
        base_delay: sleep before the first retry, in seconds.
        multiplier: exponential growth factor per retry.
        max_delay: cap on any single sleep.
        jitter: fraction of the delay drawn uniformly at random and
            *subtracted*, de-synchronizing concurrent retriers while
            keeping the sleep bounded by the undithered schedule.
    """

    max_attempts: int = 4
    base_delay: float = 0.001
    multiplier: float = 2.0
    max_delay: float = 0.05
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")

    def delay(self, retry_number: int, rng: random.Random) -> float:
        """The sleep before retry *retry_number* (1-based), jittered."""
        raw = min(
            self.max_delay, self.base_delay * self.multiplier ** (retry_number - 1)
        )
        if self.jitter:
            raw -= raw * self.jitter * rng.random()
        return raw


def call_with_retry(
    fn: Callable[[], T],
    policy: RetryPolicy | None = None,
    retryable: Tuple[Type[BaseException], ...] = (TransientError,),
    rng: random.Random | None = None,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> T:
    """Run *fn*, retrying *retryable* failures with exponential backoff.

    Non-retryable exceptions propagate immediately; a retryable one
    propagates only after the final attempt.  *on_retry* is called with
    ``(retry_number, error)`` before each sleep, so callers can count
    retries and reset per-attempt state.
    """
    policy = policy or RetryPolicy()
    rng = rng or random.Random(0)
    attempt = 1
    while True:
        try:
            return fn()
        except retryable as error:
            if attempt >= policy.max_attempts:
                raise
            if on_retry is not None:
                on_retry(attempt, error)
            sleep(policy.delay(attempt, rng))
            attempt += 1
