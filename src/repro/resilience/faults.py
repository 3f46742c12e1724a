"""Deterministic, seedable fault injection for the engine's fast paths.

Every cache and index fast path (plan/uniqueness caches, hash
indexes), the operator row loops and every external call (DL/I, the
HTTP tier, the commit apply) has a *hook*: a named site
that consults the process-wide :data:`FAULTS` injector.  Tests and the
chaos benchmark arm typed faults at a site through a context-manager
API and the hooked code either degrades through its fallback ladder or
raises a typed :class:`~repro.errors.ReproError` — never a wrong answer.

Sites (the strings the hooks pass to :meth:`FaultInjector.check`):

========================  ====================================================
``plan_cache``            plan-cache lookup/store
``index_build``           lazy hash-index construction
``operator_next``         physical operator row loops (via ``ExecContext.tick``)
``fingerprint``           cache fingerprint computation (fail-closed paths)
``uniqueness``            Algorithm 1 verdicts (corrupt-verdict faults)
``dli_call``              every DL/I ``GU``/``GN``/``GNP`` call
``net_accept``            HTTP request admission (:mod:`repro.net.serving`)
``net_read``              HTTP request-body reads (truncation/socket faults)
``net_write``             HTTP response/stream-chunk writes
``wal_commit``            transaction commit apply (:mod:`repro.engine.txn`) —
                          fires *before* any shared state changes, so an
                          injected failure aborts the transaction cleanly
========================  ====================================================

Fault kinds:

* ``"exception"`` — raise (default :class:`InjectedFaultError`, or any
  exception factory via ``error=``),
* ``"transient"`` — raise :class:`TransientError` with a status code,
* ``"slow"`` — sleep ``delay`` seconds before continuing,
* ``"corrupt"`` — leave :meth:`check` alone; sites that produce values
  route them through :meth:`corrupt`, which applies the spec's
  ``corruptor`` — this is how an unsound Algorithm 1 verdict is staged.

Determinism: trigger counting (``after``/``times``) is exact, and
probabilistic injection draws from the injector's own seeded RNG, so a
scenario replays identically under the same seed.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..errors import InjectedFaultError, TransientError

# Canonical site names (hooks and tests share these constants).
SITE_PLAN_CACHE = "plan_cache"
SITE_INDEX_BUILD = "index_build"
SITE_OPERATOR = "operator_next"
SITE_FINGERPRINT = "fingerprint"
SITE_UNIQUENESS = "uniqueness"
SITE_DLI = "dli_call"
SITE_NET_ACCEPT = "net_accept"
SITE_NET_READ = "net_read"
SITE_NET_WRITE = "net_write"
SITE_WAL_COMMIT = "wal_commit"

ALL_SITES = (
    SITE_PLAN_CACHE,
    SITE_INDEX_BUILD,
    SITE_OPERATOR,
    SITE_FINGERPRINT,
    SITE_UNIQUENESS,
    SITE_DLI,
    SITE_NET_ACCEPT,
    SITE_NET_READ,
    SITE_NET_WRITE,
    SITE_WAL_COMMIT,
)

KIND_EXCEPTION = "exception"
KIND_TRANSIENT = "transient"
KIND_SLOW = "slow"
KIND_CORRUPT = "corrupt"

_KINDS = (KIND_EXCEPTION, KIND_TRANSIENT, KIND_SLOW, KIND_CORRUPT)


@dataclass
class FaultSpec:
    """One armed fault: where, what, and when it fires.

    Attributes:
        site: hook name the fault applies to.
        kind: one of the fault kinds above.
        after: skip this many trigger opportunities before firing.
        times: fire at most this many times (None = every opportunity).
        probability: chance of firing per opportunity, drawn from the
            injector's seeded RNG (1.0 = always).
        error: exception factory for ``exception`` faults.
        status: DL/I status code for ``transient`` faults.
        delay: sleep seconds for ``slow`` faults.
        corruptor: value transformer for ``corrupt`` faults.
        triggered: opportunities seen so far (diagnostic).
        fired: times the fault actually fired (diagnostic).
    """

    site: str
    kind: str = KIND_EXCEPTION
    after: int = 0
    times: int | None = None
    probability: float = 1.0
    error: Callable[[], Exception] | None = None
    status: str = "GG"
    delay: float = 0.0
    corruptor: Callable[[Any], Any] | None = None
    triggered: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def should_fire(self, rng: random.Random) -> bool:
        """Account one trigger opportunity; decide whether to fire."""
        self.triggered += 1
        if self.triggered <= self.after:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        if self.probability < 1.0 and rng.random() >= self.probability:
            return False
        self.fired += 1
        return True


class FaultInjector:
    """Registry of armed :class:`FaultSpec` objects with hook entry points.

    The hot-path contract: ``armed`` is a plain bool attribute kept in
    sync with the spec list, so hooks cost one attribute test per row
    when no fault is armed.

    Thread safety: trigger accounting (``should_fire`` mutates spec
    counters and draws from the shared RNG) runs under the injector's
    lock, so a seeded schedule stays exact when service workers hit the
    hooks concurrently.  ``slow`` faults *sleep outside the lock* —
    they model storage/network latency, and concurrent stalls must
    overlap the way real I/O waits do, not serialize behind the
    injector.  The lock is a leaf in the process locking order.
    """

    def __init__(self, seed: int = 0) -> None:
        self._specs: list[FaultSpec] = []
        self._rng = random.Random(seed)
        self._lock = threading.RLock()
        self.armed = False

    # ------------------------------------------------------------------
    # arming

    def seed(self, seed: int) -> None:
        """Re-seed the probability RNG (scenario replay)."""
        with self._lock:
            self._rng = random.Random(seed)

    def arm(self, spec: FaultSpec) -> FaultSpec:
        """Register *spec*; returns it for inspection."""
        with self._lock:
            self._specs.append(spec)
            self.armed = True
        return spec

    def disarm(self, spec: FaultSpec) -> None:
        """Remove *spec* (missing specs are ignored)."""
        with self._lock:
            if spec in self._specs:
                self._specs.remove(spec)
            self.armed = bool(self._specs)

    def reset(self) -> None:
        """Drop every armed fault."""
        with self._lock:
            self._specs.clear()
            self.armed = False

    def inject(self, site: str, **kwargs: Any) -> "_Injection":
        """Context manager arming one fault for the ``with`` body::

            with FAULTS.inject("index_build", times=1):
                execute_planned(sql, db)   # first build fails, falls back
        """
        return _Injection(self, FaultSpec(site, **kwargs))

    def specs(self, site: str | None = None) -> list[FaultSpec]:
        """Armed specs, optionally restricted to one site."""
        with self._lock:
            if site is None:
                return list(self._specs)
            return [spec for spec in self._specs if spec.site == site]

    # ------------------------------------------------------------------
    # hook entry points

    def check(self, site: str) -> None:
        """Fire any armed exception/transient/slow fault for *site*.

        Hooks call this at each opportunity; corrupt faults never fire
        here (value-producing sites use :meth:`corrupt`).
        """
        if not self.armed:
            return
        stall = 0.0
        try:
            with self._lock:
                for spec in self._specs:
                    if spec.site != site or spec.kind == KIND_CORRUPT:
                        continue
                    if not spec.should_fire(self._rng):
                        continue
                    if spec.kind == KIND_SLOW:
                        stall += spec.delay
                        continue
                    if spec.kind == KIND_TRANSIENT:
                        raise TransientError(
                            spec.status, f"injected at {site}"
                        )
                    if spec.error is not None:
                        raise spec.error()
                    raise InjectedFaultError(site)
        finally:
            # Sleep outside the lock: concurrent simulated-I/O stalls
            # must overlap across workers, not queue behind the injector.
            if stall:
                time.sleep(stall)

    def corrupt(self, site: str, value: Any) -> Any:
        """Route a produced *value* through any armed corrupt fault."""
        if not self.armed:
            return value
        with self._lock:
            for spec in self._specs:
                if spec.site != site or spec.kind != KIND_CORRUPT:
                    continue
                if not spec.should_fire(self._rng):
                    continue
                if spec.corruptor is None:
                    raise ValueError(
                        f"corrupt fault at {site!r} armed without a corruptor"
                    )
                value = spec.corruptor(value)
        return value


class _Injection:
    """The context manager behind :meth:`FaultInjector.inject`."""

    def __init__(self, injector: FaultInjector, spec: FaultSpec) -> None:
        self._injector = injector
        self.spec = spec

    def __enter__(self) -> FaultSpec:
        return self._injector.arm(self.spec)

    def __exit__(self, *exc_info: object) -> None:
        self._injector.disarm(self.spec)


#: Process-wide injector every hook consults.
FAULTS = FaultInjector()


def iter_sites() -> Iterator[str]:
    """Every canonical hook site name."""
    return iter(ALL_SITES)
