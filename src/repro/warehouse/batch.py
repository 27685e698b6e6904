"""Batch-window accounting: how long is the warehouse offline?

The paper's central operational claim is that splitting maintenance into
*propagate* (runs while the warehouse stays readable) and *refresh* (runs
inside the nightly batch window, warehouse offline) shrinks the window.
This module provides the stopwatch used by the maintenance drivers and the
benchmarks: phases are recorded with wall-clock durations and classified as
online or offline, and a :class:`BatchReport` summarises the window.

The clock is built on the observability layer
(:mod:`repro.obs.tracing`): every phase opens a span tagged
``window="online"`` or ``window="offline"``, so whenever a trace recorder
is active the batch-window split can be *re-derived from span tags alone*
(:meth:`BatchReport.from_spans`) and must agree with the clock's own
report.  With tracing off, phases are timed directly and nothing else is
recorded.

Phases may nest (e.g. an offline ``apply-base`` inside a broader offline
``batch`` phase); nested phases are recorded with their nesting ``depth``
and only outermost (depth-0) phases contribute to the online/offline
totals, so the window is never double-counted.  Re-entering a phase name
that is still open raises — overlapping same-name phases are always an
instrumentation bug, and silently accepting them would corrupt the report.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import MaintenanceError
from ..obs import tracing


@dataclass(frozen=True)
class Phase:
    """One timed maintenance phase.

    ``depth`` is the phase-nesting depth at the time the phase opened: 0
    for outermost phases (the only ones counted into the window totals),
    1 for a phase opened inside another phase, and so on.
    """

    name: str
    seconds: float
    offline: bool
    depth: int = 0


@dataclass
class BatchReport:
    """Accumulated timing for one maintenance run.

    ``offline_seconds`` is the simulated batch window (refresh and base-table
    update); ``online_seconds`` is work overlapped with query service
    (propagate).  Only outermost phases (``depth == 0``) contribute, so a
    phase nested inside another never double-counts the window.
    """

    phases: list[Phase] = field(default_factory=list)

    @property
    def online_seconds(self) -> float:
        return sum(p.seconds for p in self.phases if not p.offline and p.depth == 0)

    @property
    def offline_seconds(self) -> float:
        return sum(p.seconds for p in self.phases if p.offline and p.depth == 0)

    @property
    def total_seconds(self) -> float:
        return self.online_seconds + self.offline_seconds

    def seconds_for(self, name: str) -> float:
        """Total seconds across phases called *name* (any depth)."""
        return sum(p.seconds for p in self.phases if p.name == name)

    def merge(self, other: "BatchReport") -> "BatchReport":
        """Return a report combining both runs' phases."""
        return BatchReport(phases=self.phases + other.phases)

    def summary(self) -> str:
        """A one-line human-readable summary."""
        return (
            f"online {self.online_seconds:.3f}s, "
            f"offline (batch window) {self.offline_seconds:.3f}s, "
            f"total {self.total_seconds:.3f}s"
        )

    @classmethod
    def from_spans(cls, root: "tracing.Span") -> "BatchReport":
        """Rebuild a report from a span tree using only ``window`` tags.

        A span tagged ``window`` becomes a phase; its depth is the number
        of window-tagged ancestors.  This is the observability-layer view
        of the batch window: when the clock ran under an active trace
        recorder, the result matches the clock's own report.
        """
        phases: list[Phase] = []

        def walk(span: "tracing.Span", depth: int) -> None:
            window = span.tags.get("window")
            here = depth
            if window is not None:
                phases.append(Phase(
                    name=span.tags.get("phase", span.name),
                    seconds=span.seconds,
                    offline=(window == "offline"),
                    depth=depth,
                ))
                here = depth + 1
            for child in span.children:
                walk(child, here)

        walk(root, 0)
        return cls(phases=phases)


class BatchWindowClock:
    """Records named phases into a :class:`BatchReport`.

    Usage::

        clock = BatchWindowClock()
        with clock.online("propagate"):
            ...   # summary-delta computation; warehouse stays readable
        with clock.offline("refresh"):
            ...   # summary tables locked
        report = clock.report

    Extra keyword arguments become tags on the phase's span (visible in
    traces, ignored otherwise).  A clock belongs to one maintenance run on
    one thread.  Re-entering a phase *name* that is currently open raises
    :class:`~repro.errors.MaintenanceError`.
    """

    def __init__(self) -> None:
        self.report = BatchReport()
        self._open: list[str] = []

    @contextmanager
    def _timed(self, name: str, offline: bool, **tags: Any) -> Iterator[None]:
        if name in self._open:
            raise MaintenanceError(
                f"batch phase {name!r} re-entered while still open"
            )
        depth = len(self._open)
        self._open.append(name)
        window = "offline" if offline else "online"
        started = time.perf_counter()
        span_cm = tracing.span(name, window=window, **tags)
        span = span_cm.__enter__()
        try:
            yield
        finally:
            span_cm.__exit__(None, None, None)
            # Use the span's own clock when a real span was recorded, so the
            # report and the span tree agree exactly.
            if span is tracing.NOOP_SPAN:
                elapsed = time.perf_counter() - started
            else:
                elapsed = span.seconds
            self._open.pop()
            self.report.phases.append(Phase(name, elapsed, offline, depth))

    def online(self, name: str, **tags: Any) -> Iterator[None]:
        """Time an online phase (warehouse available to readers)."""
        return self._timed(name, offline=False, **tags)

    def offline(self, name: str, **tags: Any) -> Iterator[None]:
        """Time an offline phase (inside the batch window)."""
        return self._timed(name, offline=True, **tags)
