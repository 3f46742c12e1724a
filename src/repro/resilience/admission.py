"""Adaptive load shedding: priority-aware admission control.

The service's bounded queue (PR 4) sheds load only at the cliff edge —
when the queue is physically full, every caller gets the same 429.
This module adds the gradient before the cliff: an
:class:`AdmissionController` tracks an exponentially-weighted moving
average of *observed queue wait* (the time between submit and a worker
picking the query up) and of the *deadline budgets* clients declare,
and starts rejecting **batch**-priority queries once predicted wait
approaches typical deadlines.  Interactive traffic keeps the whole
queue until the hard bound; batch traffic is the shock absorber.

Two priority classes cross every layer (HTTP header ``X-Priority``, the
``priority`` field of :class:`~repro.options.ExecutionOptions`):

* ``"interactive"`` (default) — a human is waiting; shed last.
* ``"batch"`` — a job is waiting; shed first, retry cheaply later.

Why EWMA of observed wait rather than queue length × mean service
time: the wait a dequeued query actually experienced already folds in
worker count, stalls, GIL contention, and fault storms — it is the
ground truth the prediction wants to converge to, with no model of the
service's internals to drift out of date.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from ..errors import LoadShedError

#: Priority classes, shed-last first.
PRIORITY_INTERACTIVE = "interactive"
PRIORITY_BATCH = "batch"
PRIORITIES = (PRIORITY_INTERACTIVE, PRIORITY_BATCH)

#: HTTP request header naming the priority class.
PRIORITY_HEADER = "X-Priority"


@dataclass(frozen=True)
class SheddingPolicy:
    """Tuning knobs for the admission controller.

    Attributes:
        target_delay: assumed typical client deadline (seconds) when no
            client has declared one yet; replaced by the EWMA of
            declared deadline budgets as they are observed.
        batch_shed_at: shed batch queries once predicted queue wait
            reaches this fraction of the typical deadline.
        wait_smoothing: EWMA weight of each newly observed queue wait
            (higher = faster reaction, noisier estimate).
        min_queue: never shed while fewer than this many queries are
            queued — an idle service must admit everything, whatever
            stale estimate the last storm left behind.
    """

    target_delay: float = 1.0
    batch_shed_at: float = 0.5
    wait_smoothing: float = 0.3
    min_queue: int = 1

    def __post_init__(self) -> None:
        if self.target_delay <= 0:
            raise ValueError("target_delay must be positive")
        if not 0.0 < self.batch_shed_at <= 1.0:
            raise ValueError("batch_shed_at must be a fraction in (0, 1]")
        if not 0.0 < self.wait_smoothing <= 1.0:
            raise ValueError("wait_smoothing must be a fraction in (0, 1]")
        if self.min_queue < 0:
            raise ValueError("min_queue must be non-negative")


class AdmissionController:
    """Decides, per submission, whether the queue may accept the query.

    Thread-safe leaf: one lock guards the two EWMAs; the decision reads
    them and the caller-supplied queue length, holds no other lock, and
    never blocks.  Workers feed it :meth:`observe_wait` on dequeue;
    submitters feed :meth:`observe_deadline` so "typical deadline"
    tracks what clients actually ask for.
    """

    def __init__(
        self,
        policy: SheddingPolicy | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy if policy is not None else SheddingPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._ewma_wait = 0.0
        self._ewma_deadline: float | None = None
        self.shed_total = 0  # diagnostic; metrics carry the labelled count

    # -- observations ---------------------------------------------------

    def observe_wait(self, seconds: float) -> None:
        """Fold one observed queue wait into the prediction."""
        alpha = self.policy.wait_smoothing
        with self._lock:
            self._ewma_wait += alpha * (seconds - self._ewma_wait)

    def observe_deadline(self, seconds: float) -> None:
        """Fold one declared deadline budget into "typical deadline"."""
        if seconds <= 0:
            return
        alpha = self.policy.wait_smoothing
        with self._lock:
            if self._ewma_deadline is None:
                self._ewma_deadline = seconds
            else:
                self._ewma_deadline += alpha * (seconds - self._ewma_deadline)

    # -- views ----------------------------------------------------------

    def predicted_wait(self) -> float:
        """The controller's current queue-delay estimate (seconds)."""
        with self._lock:
            return self._ewma_wait

    def typical_deadline(self) -> float:
        """EWMA of declared deadlines, or the policy's assumption."""
        with self._lock:
            if self._ewma_deadline is not None:
                return self._ewma_deadline
        return self.policy.target_delay

    def snapshot(self) -> dict:
        """JSON-ready view for ``/healthz`` and the soak report."""
        return {
            "predicted_wait_ms": self.predicted_wait() * 1000.0,
            "typical_deadline_ms": self.typical_deadline() * 1000.0,
            "shed_total": self.shed_total,
        }

    # -- the decision ---------------------------------------------------

    def admit(self, priority: str, queue_length: int, depth: int) -> None:
        """Admit or raise :class:`~repro.errors.LoadShedError`.

        Interactive queries are never shed here — the bounded queue's
        hard 429 remains their only rejection.  Batch queries are shed
        once predicted wait crosses the policy fraction of the typical
        deadline, provided the queue is actually occupied.
        """
        if priority != PRIORITY_BATCH:
            return
        if queue_length < max(self.policy.min_queue, 1):
            return
        predicted = self.predicted_wait()
        threshold = self.typical_deadline() * self.policy.batch_shed_at
        if predicted >= threshold:
            self.shed_total += 1
            raise LoadShedError(priority, predicted, depth)
