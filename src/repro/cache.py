"""Process-wide memoization caches for the hot analysis/planning paths.

The paper's batch scenarios (the E10 CASE-tool audit, templated OLTP
workloads) re-run the *same* analysis over and over: the same SQL text
is parsed, normalized to CNF, and pushed through Algorithm 1 for
every occurrence of a template.  This module supplies the shared cache
machinery that amortizes that work:

* :class:`LRUCache` — a small bounded mapping with hit/miss counters,
* a global enable switch (:func:`set_caches_enabled`) so benchmarks and
  property tests can A/B cached against uncached execution,
* a registry so :func:`clear_all_caches` and :func:`cache_stats` see
  every cache in the process.

Correctness contract: every cache key must include a *fingerprint* of
whatever mutable state the cached computation depends on.  Catalogs
expose ``Catalog.fingerprint()`` (bumped by DDL) and databases
``Database.fingerprint()`` (additionally bumped by data changes), so a
stale entry can never be returned — after a DDL or data mutation the
key simply no longer matches.  Entries for dead fingerprints age out of
the LRU naturally.

Concurrency contract: every cache is shared by all sessions of a
:class:`~repro.service.QueryService`, so each instance carries its own
leaf lock (see DESIGN.md §3e for the locking order).  The lock is held
only for dictionary bookkeeping — never while computing a value — so
two sessions may race to *compute* the same entry, but an entry, once
stored, is never lost or half-written, and the hit/miss counters never
drop an update.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from .errors import ResourceError
from .resilience.faults import FAULTS, SITE_FINGERPRINT

#: Sentinel distinguishing "no cached value" from a cached ``None``.
MISSING = object()


class BuiltOnRead:
    """A dataclass field that may be given a zero-argument builder in
    place of its value: the first read calls the builder and keeps what
    it returns.  The field's default is ``None``, read as *default()*.

    For per-request records whose costlier fields most requests never
    read.  Two threads reading one record at once may both build.
    """

    def __init__(self, default: Callable[[], Any]) -> None:
        self.default = default

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, record: Any, owner: type | None = None) -> Any:
        if record is None:
            return None  # the dataclass default
        value = record.__dict__[self.slot]
        if value is None or callable(value):
            value = record.__dict__[self.slot] = (value or self.default)()
        return value

    def __set__(self, record: Any, value: Any) -> None:
        record.__dict__[self.slot] = value

_enabled = True
_registry: "list[LRUCache]" = []


def set_caches_enabled(enabled: bool) -> bool:
    """Globally enable or disable every registered cache.

    Returns the previous setting so callers can restore it.  Disabling
    does not drop existing entries; re-enabling resumes hits against
    whatever is still cached (use :func:`clear_all_caches` for a cold
    start).
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def caches_enabled() -> bool:
    """Whether the process-wide caches are currently active."""
    return _enabled


class LRUCache:
    """A bounded least-recently-used mapping with hit/miss counters.

    Lookups honor the global enable switch: while caches are disabled
    every :meth:`get` misses (without counting) and :meth:`put` is a
    no-op, which is what lets benchmarks time the uncached path without
    tearing the caches down.

    Thread safety: every method is guarded by a per-cache lock, so
    concurrent get/put from service workers cannot corrupt the LRU
    order, lose entries, or drop counter updates.  The lock is a leaf
    in the process locking order — nothing else is ever acquired while
    it is held.
    """

    def __init__(self, name: str, maxsize: int = 512) -> None:
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        _registry.append(self)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> Any:
        """The cached value for *key*, or :data:`MISSING`."""
        if not _enabled:
            return MISSING
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return MISSING
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store *value* under *key*, evicting the oldest past maxsize."""
        if not _enabled:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._data.clear()

    def evict_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose *key* satisfies *predicate*.

        Safe mode uses this to purge poisoned entries: a corrupted
        verdict or plan is keyed on (fingerprint, query text, ...), so
        evicting by query text removes it for every fingerprint.
        Returns the number of entries dropped.
        """
        with self._lock:
            doomed = [key for key in self._data if predicate(key)]
            for key in doomed:
                del self._data[key]
            return len(doomed)

    def reset_counters(self) -> None:
        """Zero the hit/miss counters."""
        with self._lock:
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        """Counters and occupancy as a plain dictionary."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._data),
                "maxsize": self.maxsize,
            }


def clear_all_caches(reset_counters: bool = False) -> None:
    """Empty every registered cache (optionally zeroing counters too)."""
    for cache in _registry:
        cache.clear()
        if reset_counters:
            cache.reset_counters()


def cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/occupancy counters for every registered cache, by name."""
    return {cache.name: cache.stats() for cache in _registry}


def evict_by_text(text: str) -> int:
    """Evict, from every registered cache, entries keyed on *text*.

    The analysis/plan/strategy caches all key on
    ``(fingerprint, query text, options)``; this drops any entry whose
    second component equals *text*, across every fingerprint.  Returns
    the total number of entries evicted.
    """

    def matches(key: object) -> bool:
        return isinstance(key, tuple) and len(key) >= 2 and key[1] == text

    return sum(cache.evict_where(matches) for cache in _registry)


def safe_fingerprint(source: Any) -> Hashable | None:
    """*source*.fingerprint(), or None when computing it fails.

    Fail-closed contract: a ``None`` fingerprint means the caller must
    skip its cache entirely — neither serve a cached value (it could be
    stale for the current, unknowable state) nor store a new one (it
    would be keyed on a lie).  Guard errors must not be swallowed into a
    cache skip, so resource errors propagate.
    """
    try:
        FAULTS.check(SITE_FINGERPRINT)
        return source.fingerprint()
    except ResourceError:
        raise
    except Exception:
        return None
