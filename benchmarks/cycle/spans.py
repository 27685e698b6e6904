"""The benchmark's own spans, recorded around its calls into the program.

A traced run keeps every span in memory — name, start, end, parent, cycle
id, and whether it is a probe — and writes them as JSON lines when the run
ends.  A *probe* repeats a public call on the same data outside the cycle
to cost something the cycle does inside one call (the copy and the
certificate inside a versioned refresh); probes never count towards their
cycle's time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    cycle: int | None
    probe: bool
    start: float
    end: float = 0.0
    detail: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of one thread (the maintainer drives every traced
    call; the open-loop reader keeps plain timestamps instead)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.cycle: int | None = None

    @contextmanager
    def span(
        self, name: str, detail: str | None = None, probe: bool = False
    ) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        span = Span(
            len(self.spans), name, parent, self.cycle, probe, self.clock(),
            detail=detail,
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def children(self, parent: Span) -> list[Span]:
        return [span for span in self.spans if span.parent == parent.id]

    def coverage(self, parent: Span) -> float:
        """Share of *parent*'s time its direct children account for."""
        covered = sum(child.seconds for child in self.children(parent))
        return covered / parent.seconds if parent.seconds else 1.0

    def seconds(self, name: str, cycle: int, detail: str | None = None) -> float:
        """Time of every span called *name* in *cycle* (of one *detail*,
        when given), summed."""
        return sum(
            span.seconds for span in self.spans
            if span.name == name and span.cycle == cycle
            and (detail is None or span.detail == detail)
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")
