"""Hierarchical trace spans with a near-zero-cost disabled path.

A :class:`Span` is a context manager recording wall time, free-form
attributes, and — when a stats sink is supplied — the delta of its
counters over the span's lifetime (snapshots at enter and exit, the
difference taken when read).  Spans nest: entering a span while
another is open attaches it as a child, so one traced query produces a
tree mirroring the layers it passed through (guard → rewrite →
plan cache → planner → execution).

Cost discipline: tracing is off by default, and the instrumented hot
paths guard every site with one attribute test (``TRACER.enabled``)
before building any arguments.  :meth:`Tracer.span` itself returns a
shared no-op context manager when disabled, so even unguarded sites pay
only a method call and an empty ``with``.  This module imports nothing
from the engine — stats sinks are duck-typed on ``snapshot()`` and
``__sub__`` — so any layer can import it without cycles.
"""

from __future__ import annotations

import threading
import time
from typing import Any


class Span:
    """One timed, attributed node of a trace tree.

    Entered spans are wired into the owning tracer's stack; manually
    constructed spans (``tracer=None``) are inert containers used to
    synthesize per-operator subtrees after an instrumented execution.
    """

    __slots__ = (
        "name",
        "attributes",
        "started",
        "ended",
        "children",
        "_tracer",
        "_stats",
        "_before",
        "_after",
    )

    def __init__(
        self,
        name: str,
        attributes: dict[str, Any] | None = None,
        tracer: "Tracer | None" = None,
        stats: Any | None = None,
    ) -> None:
        self.name = name
        self.attributes: dict[str, Any] = attributes or {}
        self.started = 0.0
        self.ended = 0.0
        self.children: list[Span] = []
        self._tracer = tracer
        self._stats = stats
        self._before = None
        self._after = None

    # -- context manager ------------------------------------------------

    def __enter__(self) -> "Span":
        if self._stats is not None:
            self._before = self._stats.snapshot()
        if self._tracer is not None:
            self._tracer._stack.append(self)
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.ended = time.perf_counter()
        if self._stats is not None and self._before is not None:
            self._after = self._stats.snapshot()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._close(self)
        return False  # never suppress

    # -- reporting ------------------------------------------------------

    @property
    def stats_delta(self) -> Any | None:
        """The counters' change over the span, or ``None`` without a
        stats sink (or before the span closed).  Computed on read from
        the two snapshots: closing a span only copies the counters."""
        if self._after is None:
            return None
        return self._after - self._before

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds between enter and exit."""
        return self.ended - self.started

    def render(self, indent: int = 0) -> str:
        """The span subtree as an indented text block."""
        pad = "  " * indent
        line = f"{pad}{self.name} ({self.elapsed * 1000:.3f} ms)"
        if self.attributes:
            rendered = ", ".join(
                f"{key}={value}" for key, value in self.attributes.items()
            )
            line += f" [{rendered}]"
        delta = self.stats_delta
        if delta is not None:
            described = delta.describe()
            if described and described != "(no work recorded)":
                line += f" {{{described}}}"
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form of the span subtree."""
        payload: dict[str, Any] = {
            "name": self.name,
            "elapsed_ms": self.elapsed * 1000,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        delta = self.stats_delta
        if delta is not None:
            payload["stats"] = {
                name: value
                for name, value in delta.as_dict().items()
                if value
            }
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def walk(self):
        """Yield this span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


class _NullSpan:
    """The shared disabled-path context manager: enters to None."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span trees for one process.

    ``enabled`` gates everything; ``max_spans`` bounds memory — once the
    budget is spent further spans degrade to the shared no-op (the trace
    is truncated, never the execution).

    Thread safety: the open-span stack is *per thread*, so spans opened
    on different service workers nest within their own thread's tree
    and never interleave; completed root trees are collected under a
    leaf lock.  One query's span tree therefore stays coherent no
    matter which worker ran it.
    """

    def __init__(self, max_spans: int = 10_000, max_roots: int = 256) -> None:
        self.enabled = False
        self.max_spans = max_spans
        self.max_roots = max_roots
        self.truncated = 0
        self.roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._count = 0

    @property
    def _stack(self) -> list[Span]:
        """This thread's open-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self, name: str, stats: Any | None = None, **attributes: Any
    ) -> Any:
        """A context manager for one traced section.

        Yields the :class:`Span` when tracing is enabled, else None —
        call sites guard optional attribute updates with ``if span:``.
        """
        if not self.enabled:
            return NULL_SPAN
        with self._lock:
            if self._count >= self.max_spans:
                self.truncated += 1
                return NULL_SPAN
            self._count += 1
        return Span(name, dict(attributes) or {}, tracer=self, stats=stats)

    def attach(self, span: Span) -> None:
        """Adopt an already-finished span tree (synthesized subtrees)."""
        if not self.enabled:
            return
        size = sum(1 for _ in span.walk())
        with self._lock:
            if self._count + size > self.max_spans:
                self.truncated += size
                return
            self._count += size
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            with self._lock:
                if len(self.roots) < self.max_roots:
                    self.roots.append(span)

    def _close(self, span: Span) -> None:
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # exception unwound past open children
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                if len(self.roots) < self.max_roots:
                    self.roots.append(span)

    # -- inspection -----------------------------------------------------

    def last_root(self) -> Span | None:
        """The most recently completed top-level span, if any."""
        return self.roots[-1] if self.roots else None

    def render(self) -> str:
        """Every collected root span tree, rendered."""
        if not self.roots:
            return "(no spans recorded)"
        blocks = [root.render() for root in self.roots]
        if self.truncated:
            blocks.append(f"({self.truncated} span(s) dropped over budget)")
        return "\n".join(blocks)

    def to_dicts(self) -> list[dict[str, Any]]:
        """JSON-ready list of the collected root span trees."""
        return [root.to_dict() for root in self.roots]

    def clear(self) -> None:
        """Drop collected spans and reset the budget (keeps ``enabled``)."""
        with self._lock:
            self.roots.clear()
            self._local = threading.local()  # drops every thread's stack
            self._count = 0
            self.truncated = 0


#: The process-wide tracer every instrumented layer reports to.
TRACER = Tracer()


def set_tracing(enabled: bool) -> bool:
    """Toggle the global tracer; returns the previous state."""
    previous = TRACER.enabled
    TRACER.enabled = enabled
    return previous


def tracing_enabled() -> bool:
    """Whether the global tracer is currently collecting spans."""
    return TRACER.enabled
