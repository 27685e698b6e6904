"""An open-loop load generator: requests are due on a fixed schedule.

Request *i* is due at ``start + i / rate`` whatever happened to the
requests before it.  One thread issues them in order, so a request that
stalls makes the ones behind it late, and their lateness is part of their
latency: every latency is taken from the due time, not from the moment the
request could finally be sent.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple


class Timing(NamedTuple):
    due: float
    start: float
    end: float

    @property
    def latency(self) -> float:
        return self.end - self.due

    @property
    def wait(self) -> float:
        """How late the request started: queueing behind earlier requests
        plus the generator's own lateness (sleep overshoot, and the wait
        for the interpreter lock after waking)."""
        return self.start - self.due

    @property
    def service(self) -> float:
        return self.end - self.start


def run_open_loop(
    count: int,
    rate: float,
    issue: Callable[[int], None],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Timing]:
    """Issue *count* requests at *rate* per second; ``issue(i)`` returns
    when request *i* is answered."""
    begin = clock()
    timings = []
    for index in range(count):
        due = begin + index / rate
        ahead = due - clock()
        if ahead > 0:
            sleep(ahead)
        start = clock()
        issue(index)
        timings.append(Timing(due, start, clock()))
    return timings
