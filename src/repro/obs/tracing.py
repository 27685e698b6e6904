"""Hierarchical spans: where does the maintenance window actually go?

The paper's batch-window accounting (§2.3, Figure 9) splits maintenance
into one online number (propagate) and one offline number (refresh).  This
module provides the finer instrument: a tree of *spans*, each with a
wall-clock duration, free-form tags, and integer counters (rows scanned,
delta rows emitted, slots validated, ...), recorded by the engine's hot
paths whenever a :class:`TraceRecorder` is active.

Tracing is **off by default** and costs one module-global ``None`` check
per instrumented *operation* (never per row) when off.  Three ways to turn
it on or keep it off:

* ``with trace():`` — record spans for the duration of the block (the
  ``repro trace`` CLI and the tests use this);
* ``REPRO_TRACE=1`` in the environment — install a process-wide ambient
  recorder at import time (how the CI overhead smoke enables tracing
  without touching benchmark code);
* ``REPRO_TRACE=0`` — the kill-switch: ``trace()`` yields the shared
  no-op recorder and every ``span()`` call returns the no-op span, so
  instrumentation cannot perturb a measurement no matter what the code
  under test requests.

Spans nest per thread.  Maintenance runs on one thread, so its spans
form one tree.  A span opened on a thread with no open span of its own
(a :class:`~repro.serve.QueryServer` worker answering a query, say) is
parented at the recorder's root.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Iterator

__all__ = [
    "NOOP_SPAN",
    "NullRecorder",
    "Span",
    "TraceRecorder",
    "current_span",
    "active_recorder",
    "enabled",
    "install_recorder",
    "span",
    "trace",
    "trace_kill_switch",
]

_span_ids = itertools.count(1)


class Span:
    """One timed node of the trace tree."""

    __slots__ = (
        "span_id", "name", "tags", "counters", "children", "parent",
        "started", "ended",
    )

    def __init__(self, name: str, parent: "Span | None" = None,
                 tags: dict[str, Any] | None = None):
        self.span_id = next(_span_ids)
        self.name = name
        self.parent = parent
        self.tags: dict[str, Any] = dict(tags) if tags else {}
        self.counters: dict[str, int | float] = {}
        self.children: list[Span] = []
        self.started = time.perf_counter()
        self.ended: float | None = None

    # -- recording -----------------------------------------------------

    def add(self, counter: str, n: int | float = 1) -> None:
        """Accumulate *n* into the named counter."""
        self.counters[counter] = self.counters.get(counter, 0) + n

    def set_tag(self, key: str, value: Any) -> None:
        self.tags[key] = value

    def finish(self) -> None:
        if self.ended is None:
            self.ended = time.perf_counter()

    # -- introspection -------------------------------------------------

    @property
    def seconds(self) -> float:
        """Wall-clock duration (up to now for a still-open span)."""
        end = self.ended if self.ended is not None else time.perf_counter()
        return end - self.started

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, children in order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """The first descendant (or self) with *name*, depth-first."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [node for node in self.walk() if node.name == name]

    def total_counter(self, counter: str) -> int | float:
        """Sum of *counter* over this span and all descendants."""
        return sum(node.counters.get(counter, 0) for node in self.walk())

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.seconds:.6f}s, "
            f"{len(self.children)} children)"
        )


class _SpanContext:
    """Context manager that opens/closes one span on a recorder.

    Deliberately not a ``@contextmanager`` generator: a plain object with
    ``__enter__``/``__exit__`` is cheaper and lets ``span(...)`` return the
    same type shape whether tracing is on (this) or off (the no-op span).
    """

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "TraceRecorder", span: Span):
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        self._recorder._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder._pop(self._span)
        self._span.finish()
        if exc_type is not None:
            self._span.set_tag("error", exc_type.__name__)
        return False


class _NoopSpan:
    """Absorbs the whole span API at near-zero cost; used when tracing is
    off so instrumented code needs no conditionals around counter hits."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, counter: str, n: int | float = 1) -> None:
        pass

    def set_tag(self, key: str, value: Any) -> None:
        pass

    @property
    def seconds(self) -> float:
        return 0.0


#: The shared do-nothing span/context manager.
NOOP_SPAN = _NoopSpan()


class TraceRecorder:
    """Collects a span tree; thread-safe.

    Every recorder owns a synthetic root span named ``trace``.  Spans
    opened while the recorder is active attach to the opening thread's
    innermost span, or to the root when the thread has none (so spans from
    executor worker threads are never lost, merely parented at the root
    unless an explicit ``parent=`` is given).
    """

    def __init__(self) -> None:
        self.root = Span("trace")
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span stack ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Span | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def span(self, name: str, parent: Span | None = None,
             **tags: Any) -> _SpanContext:
        """A context manager recording one span under *parent* (default:
        the calling thread's innermost span, else the root)."""
        if parent is None:
            parent = self.current() or self.root
        child = Span(name, parent, tags)
        with self._lock:
            parent.children.append(child)
        return _SpanContext(self, child)

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- results -------------------------------------------------------

    def finish(self) -> Span:
        """Close the root span and return it."""
        self.root.finish()
        return self.root

    def spans(self, name: str) -> list[Span]:
        """All recorded spans with *name*."""
        return self.root.find_all(name)


class NullRecorder:
    """The recorder handed out under ``REPRO_TRACE=0``: swallows spans."""

    def __init__(self) -> None:
        self.root = Span("trace")

    def span(self, name: str, parent: Span | None = None, **tags: Any):
        return NOOP_SPAN

    def current(self) -> None:
        return None

    def finish(self) -> Span:
        self.root.finish()
        return self.root

    def spans(self, name: str) -> list[Span]:
        return []


def trace_kill_switch() -> bool:
    """``True`` when ``REPRO_TRACE=0`` forbids tracing entirely."""
    return os.environ.get("REPRO_TRACE", "").strip() == "0"


#: The active recorder, or ``None`` when tracing is off.  Process-wide by
#: design: maintenance spans from worker threads must land in the same tree.
_active: TraceRecorder | None = None


def active_recorder() -> TraceRecorder | None:
    return _active


def enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _active is not None


def current_span() -> Span | None:
    """The calling thread's innermost open span (``None`` when off).

    This is the per-operation fast path used by ``Table.scan`` and friends:
    one global read and a ``None`` check when tracing is off.
    """
    recorder = _active
    if recorder is None:
        return None
    return recorder.current() or recorder.root


def span(name: str, parent: Span | None = None, **tags: Any):
    """Open a span on the active recorder; a shared no-op when tracing is
    off.  Usable as a context manager either way::

        with span("group_by", table=table.name) as sp:
            sp.add("rows_in", len(rows))
    """
    recorder = _active
    if recorder is None:
        return NOOP_SPAN
    return recorder.span(name, parent=parent, **tags)


def install_recorder(recorder: TraceRecorder | None) -> TraceRecorder | NullRecorder | None:
    """Install (or with ``None``, clear) the process-wide recorder.

    Returns the recorder actually installed — the shared no-op recorder
    when the ``REPRO_TRACE=0`` kill-switch is set.  Prefer the
    :func:`trace` context manager; this exists for long-lived embedders.
    """
    global _active
    if recorder is not None and trace_kill_switch():
        return NullRecorder()
    _active = recorder
    return recorder


class _TracingBlock:
    """Context manager form of recorder installation (re-entrant: a nested
    block reuses the outer recorder rather than replacing it)."""

    def __init__(self) -> None:
        self._installed = False

    def __enter__(self) -> TraceRecorder | NullRecorder:
        global _active
        if trace_kill_switch():
            return NullRecorder()
        if _active is not None:
            return _active
        _active = TraceRecorder()
        self._installed = True
        return _active

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _active
        if self._installed:
            if _active is not None:
                _active.finish()
            _active = None
        return False


def trace() -> _TracingBlock:
    """Record spans for the duration of the block::

        with trace() as recorder:
            run_nightly_maintenance(warehouse)
        print(format_span_tree(recorder.root))

    Under ``REPRO_TRACE=0`` the block yields a :class:`NullRecorder` and
    records nothing.  Nested blocks share the outermost recorder.
    """
    return _TracingBlock()


# Ambient tracing: REPRO_TRACE=1 turns the whole process on at import time,
# which is how the CI overhead smoke compares traced vs untraced benchmark
# runs without modifying the benchmark.
if os.environ.get("REPRO_TRACE", "").strip() == "1":  # pragma: no cover
    _active = TraceRecorder()
