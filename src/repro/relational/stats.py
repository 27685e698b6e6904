"""Optional tuple-access accounting for the relational engine.

The paper argues for the D-lattice in *tuple accesses*: "using a
summary-delta table to compute other summary-delta tables will likely
require fewer tuple accesses than computing each summary-delta table from
the changes directly" (§2.2).  Seconds on a Python substrate are a noisy
proxy for that claim; this module lets benchmarks measure it directly.

Accounting is off by default and costs one branch per *operation* (not per
row) when disabled: ``Table.scan`` wraps its iterator only while a
:func:`measuring` block is active.

The collector is shared process-wide, and the ``QueryServer`` pool's
worker threads (:mod:`repro.serve.server`) charge it concurrently with
each other and with maintenance, so every charge goes through
:meth:`AccessStats.add`, which serialises the read-modify-write under a
lock.  Bare ``stats.rows_scanned += n`` from instrumented code
would silently lose increments under thread interleaving — an undercount,
not a crash — which is exactly the failure mode the lock exists to prevent.
Charges happen per operation, never per row, so the lock is uncontended in
practice.

Usage::

    from repro.relational.stats import measuring

    with measuring() as stats:
        run_propagate()
    print(stats.rows_scanned, stats.index_lookups)
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ..obs.tracing import current_span

#: The counter attributes of :class:`AccessStats`, in canonical order.
#: Their sum is the paper's "tuple accesses" unit.
ACCESS_FIELDS = (
    "rows_scanned",
    "rows_inserted",
    "rows_deleted",
    "rows_updated",
    "index_lookups",
)


@dataclass
class AccessStats:
    """Counters accumulated while a ``measuring()`` block is active."""

    rows_scanned: int = 0
    rows_inserted: int = 0
    rows_deleted: int = 0
    rows_updated: int = 0
    index_lookups: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, counter: str, n: int = 1) -> None:
        """Accumulate *n* into the named counter, safely across threads."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    @property
    def total_accesses(self) -> int:
        return (
            self.rows_scanned
            + self.rows_inserted
            + self.rows_deleted
            + self.rows_updated
            + self.index_lookups
        )

    def snapshot(self) -> "AccessStats":
        with self._lock:
            return AccessStats(
                rows_scanned=self.rows_scanned,
                rows_inserted=self.rows_inserted,
                rows_deleted=self.rows_deleted,
                rows_updated=self.rows_updated,
                index_lookups=self.index_lookups,
            )

    def since(self, before: "AccessStats") -> "AccessStats":
        """The accesses accumulated after *before* was snapshotted."""
        now = self.snapshot()
        return AccessStats(**{
            name: getattr(now, name) - getattr(before, name)
            for name in ACCESS_FIELDS
        })

    def as_dict(self) -> dict[str, int]:
        """Plain-data form (the ledger's ``access`` block)."""
        frozen = self.snapshot()
        data = {name: getattr(frozen, name) for name in ACCESS_FIELDS}
        data["total"] = frozen.total_accesses
        return data


#: The active collector, or None when accounting is off.
_active: AccessStats | None = None


def collector() -> AccessStats | None:
    """The currently active collector (``None`` when accounting is off)."""
    return _active


def charge_access(counter: str, count: int) -> None:
    """Charge *count* tuple accesses to the active collector and span: the
    one accounting primitive, called once per operation with totals equal
    to a per-row count's."""
    if not count:
        return
    if _active is not None:
        _active.add(counter, count)
    span = current_span()
    if span is not None:
        span.add(counter, count)


@contextmanager
def measuring() -> Iterator[AccessStats]:
    """Enable tuple-access accounting for the duration of the block.

    Nested blocks share the outermost collector.
    """
    global _active
    if _active is not None:
        yield _active
        return
    stats = AccessStats()
    _active = stats
    try:
        yield stats
    finally:
        _active = None
