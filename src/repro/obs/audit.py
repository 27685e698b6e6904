"""Incremental consistency certificates and integrity events.

The paper's Figure 7 / Theorem 5.1 claim is an *equivalence*: after
propagate + refresh, every summary table equals what full
rematerialization would have produced.  This module makes that claim an
observable quantity instead of an assumption:

* :func:`row_digest` / :func:`rows_certificate` — an order-independent
  64-bit checksum over canonicalised ``(group-key, aggregate-values)``
  tuples.  The combiner is modular addition, so the certificate is
  *invertible*: removing a row subtracts its digest, which is what lets
  refresh maintain it in O(|summary-delta|) rather than O(|view|).
  :func:`columns_digests` hashes a batch given column-wise, one hash call
  per row.
* :class:`ViewCertificate` — the live, incrementally maintained
  certificate of one summary table, with a per-slot digest column whose
  sum over the live slots is the certificate: each written row is hashed
  once, and the digest of a row replaced or deleted is read from the
  column, never re-hashed.  It is a table mutation observer
  (:meth:`repro.relational.table.Table.attach_observer`), so every
  mutation path — refresh on a shadow copy, the group-recompute
  baseline, compaction — keeps it consistent without the callers knowing
  it exists, and ``publish`` checks the rows at the written slots against
  the column (:meth:`repro.views.materialize.MaterializedView.publish`).
* :class:`ViewFreshness` — per-view freshness: last refresh timestamp,
  run id, kind, and cumulative delta rows applied.
* :class:`IntegrityEvent` — one alertable integrity finding, with a
  severity, fed to the metrics registry and the run ledger by the audit
  driver (:mod:`repro.warehouse.health`).

Certificates never touch the tuple-access accounting
(:mod:`repro.relational.stats`): they are metadata maintenance, not data
access, and charging them would skew the cost model's
predicted-vs-actual comparisons.  Their work is visible instead through
the dedicated ``cert_digests`` span counter and the
``integrity.cert_digests`` metric.
"""

from __future__ import annotations

import hashlib
import struct
import sys
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Sequence

from .tracing import current_span

__all__ = [
    "CERT_MASK",
    "IntegrityEvent",
    "SEVERITIES",
    "ViewCertificate",
    "ViewFreshness",
    "columns_certificate",
    "columns_digests",
    "record_events",
    "row_digest",
    "rows_certificate",
]

#: Certificates live in the 64-bit ring Z/2^64 (addition mod 2^64).
CERT_MASK = (1 << 64) - 1

_PACK_LEN = struct.Struct("<I").pack

#: Types whose equal values canonicalise to equal bytes (exact types only:
#: a subclass may override ``__str__``/``__eq__``).
_BY_VALUE_TYPES = frozenset({int, float, bool, str, type(None)})

#: Rows digested per block by :func:`columns_digests`.
_BLOCK_ROWS = 1 << 15

_BIG_ENDIAN = sys.byteorder == "big"


def _canonical_bytes(value: Any) -> bytes:
    """One cell canonicalised to bytes, type-tagged.

    Numeric canonicalisation matters: refresh arithmetic can legitimately
    produce ``5.0`` where recomputation produces ``5`` — SQL semantics
    treat them as the same aggregate value, so they must digest
    identically.  Integral floats are therefore hashed in integer form.
    ``bool`` is hashed as its integer value (Python bools compare equal
    to 0/1 and can appear in either form after arithmetic).
    """
    if value is None:
        return b"n"
    if isinstance(value, bool):
        return b"i" + str(int(value)).encode()
    if isinstance(value, int):
        return b"i" + str(value).encode()
    if isinstance(value, float):
        if value == value and value not in (float("inf"), float("-inf")) \
                and value == int(value):
            return b"i" + str(int(value)).encode()
        return b"f" + repr(value).encode()
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    return b"o" + repr(value).encode("utf-8")


def row_digest(row: Iterable[Any]) -> int:
    """One row's 64-bit digest (order of *cells* matters; order of rows
    in the table does not, because digests combine by addition)."""
    hasher = hashlib.blake2b(digest_size=8)
    for value in row:
        cell = _canonical_bytes(value)
        hasher.update(_PACK_LEN(len(cell)))
        hasher.update(cell)
    return int.from_bytes(hasher.digest(), "little")


def _cell_part(value: Any) -> bytes:
    """What :func:`row_digest` feeds the hash for one cell."""
    cell = _canonical_bytes(value)
    return _PACK_LEN(len(cell)) + cell


def columns_digests(columns: Sequence[Sequence[Any]], count: int) -> array:
    """Each of *count* rows' :func:`row_digest`, the rows given
    column-wise, in row order as an ``array('Q')``.

    The per-row interpreter work is one hash call: each column is first
    mapped to its cells' hash input through a table holding one entry per
    *distinct* value.  Sharing an entry between equal values is sound for
    the built-in scalars only (``0 == 0.0 == False`` all canonicalise to
    ``i0``; a ``Decimal`` equal to an ``int`` does not), so a column
    holding any other type is canonicalised cell by cell.  Rows are taken
    a block at a time, which bounds the working memory whatever the
    table's size.  *count* is needed for zero-arity rows, which have no
    column to measure.
    """
    if not columns:
        return array("Q", [row_digest(())]) * count
    blake2b = hashlib.blake2b
    digests = array("Q")
    for start in range(0, count, _BLOCK_ROWS):
        parts = []
        for column in columns:
            # A typed array boxes a new object per read; listing the block
            # once makes the table's keys the very objects looked up, so
            # NaN (never equal to itself) is still found, by identity.
            cells = list(column[start:start + _BLOCK_ROWS])
            if _BY_VALUE_TYPES.issuperset(map(type, cells)):
                table = {value: _cell_part(value) for value in set(cells)}
                parts.append(map(table.__getitem__, cells))
            else:
                parts.append(map(_cell_part, cells))
        digests.frombytes(b"".join([
            blake2b(row, digest_size=8).digest()
            for row in map(b"".join, zip(*parts))
        ]))
    if _BIG_ENDIAN:
        digests.byteswap()  # a digest reads as a little-endian integer
    return digests


def columns_certificate(columns: Sequence[Sequence[Any]], count: int) -> int:
    """The certificate of *count* rows given column-wise: the sum of their
    :func:`columns_digests`, equal bit for bit to ``sum(row_digest(row))``
    over the transposed rows."""
    return sum(columns_digests(columns, count)) & CERT_MASK


def rows_certificate(rows: Iterable[Iterable[Any]]) -> int:
    """The order-independent certificate of a collection of rows."""
    rows = list(map(tuple, rows))
    arities = set(map(len, rows))
    groups = [rows] if len(arities) < 2 else [
        [row for row in rows if len(row) == arity] for arity in arities
    ]
    return sum(
        columns_certificate(list(zip(*group)), len(group)) for group in groups
    ) & CERT_MASK


class ViewCertificate:
    """The incrementally maintained certificate of one summary table.

    Attach to the view's stored table as a mutation observer; the value
    then tracks the table's live contents exactly.  Beside it the
    certificate keeps a *digest column*, :attr:`digests`: at index *s*,
    the :func:`row_digest` of the row stored at slot *s*, so the value is
    the column's sum over the live slots.  An insert hashes the new rows
    and adds their digests; an update hashes the new rows and swaps them
    for the old rows' digests, read from the column; a delete subtracts
    the column's digests and hashes nothing; a compaction moves digests
    with the rows it moves.  Each row hashed charges the ``cert_digests``
    counter on the active span — the proof obligation that certificate
    maintenance is O(|summary-delta|) (counters scale with rows written,
    never with the view size).
    """

    __slots__ = ("value", "digests", "digests_computed")

    def __init__(self, value: int = 0, digests: array | None = None):
        self.value = value & CERT_MASK
        #: Slot *s*'s row digest at index *s*, meaningful at live slots
        #: only; a slot past the end reads as 0.
        self.digests = array("Q") if digests is None else digests
        #: Total digests computed over this certificate's lifetime (the
        #: O(|delta|) accounting the acceptance tests assert on).
        self.digests_computed = 0

    @classmethod
    def from_columns(
        cls, columns: Sequence[Sequence[Any]], count: int
    ) -> "ViewCertificate":
        """Certificate of *count* rows given column-wise, stored at slots
        0 to *count* − 1 (what a dense table's ``Table.columns()``
        returns, so a table is never transposed into tuples)."""
        digests = columns_digests(columns, count)
        certificate = cls(sum(digests), digests)
        certificate.digests_computed = count
        return certificate

    @classmethod
    def from_table(cls, table) -> "ViewCertificate":
        """Certificate of a table's live rows, each digest at its slot
        (0 at a dead one)."""
        certificate = cls.from_columns(table.columns(), len(table))
        slots = table.live_slots()
        if len(slots) and slots[-1] != len(slots) - 1:
            packed, certificate.digests = certificate.digests, array(
                "Q", bytes(8 * (slots[-1] + 1))
            )
            deque(map(certificate.digests.__setitem__, slots, packed), 0)
        return certificate

    def at(self, slots: Sequence[int]) -> tuple[int, ...]:
        """The digest column at *slots*, in their order (0 past its end):
        one C-level gather."""
        digests = self.digests
        if max(slots, default=-1) >= len(digests):
            return tuple(digests[slot] if slot < len(digests) else 0
                         for slot in slots)
        if len(slots) > 1:
            return itemgetter(*slots)(digests)
        return tuple(map(digests.__getitem__, slots))

    def _charge(self, n: int) -> None:
        self.digests_computed += n
        span = current_span()
        if span is not None:
            span.add("cert_digests", n)

    def _store(self, slots: Sequence[int], digests: Sequence[int]) -> None:
        column = self.digests
        reach = max(slots, default=-1) + 1 - len(column)
        if reach > 0:
            column.frombytes(bytes(8 * reach))
        deque(map(column.__setitem__, slots, digests), 0)

    # -- table observer protocol --------------------------------------
    # Each mutation arrives as a batch: the slots it wrote and, for an
    # insert or an update, the rows now stored there, column-wise.

    def rows_inserted(self, slots: Sequence[int],
                      columns: Sequence[Sequence[Any]]) -> None:
        digests = columns_digests(columns, len(slots))
        self._store(slots, digests)
        self.value = (self.value + sum(digests)) & CERT_MASK
        self._charge(len(slots))

    def rows_deleted(self, slots: Sequence[int],
                     columns: Sequence[Sequence[Any]]) -> None:
        self.value = (self.value - sum(self.at(slots))) & CERT_MASK

    def rows_updated(self, slots: Sequence[int],
                     columns: Sequence[Sequence[Any]]) -> None:
        digests = columns_digests(columns, len(slots))
        old = sum(self.at(slots))
        self._store(slots, digests)
        self.value = (self.value - old + sum(digests)) & CERT_MASK
        self._charge(len(slots))

    def rows_moved(self, sources: Sequence[int], targets: Sequence[int],
                   size: int) -> None:
        """A compaction moved the rows at *sources* to *targets* and cut
        the table to *size* slots."""
        self._store(targets, self.at(sources))
        del self.digests[size:]

    def truncated(self) -> None:
        self.value = 0
        del self.digests[:]

    # -- presentation --------------------------------------------------

    @property
    def hex(self) -> str:
        return f"{self.value:016x}"

    def __repr__(self) -> str:
        return f"ViewCertificate(0x{self.hex})"


@dataclass
class ViewFreshness:
    """Per-view freshness: when (and by which run) it was last refreshed.

    ``staleness_seconds`` measures time since the last refresh — or since
    the view was materialised, which counts as fresh: a freshly built
    view equals recomputation by construction.
    """

    created_ts: float = field(default_factory=time.time)
    last_refresh_ts: float | None = None
    last_refresh_run_id: int | None = None
    last_refresh_kind: str | None = None
    refresh_count: int = 0
    #: Cumulative summary-delta rows applied across all refreshes.
    applied_delta_rows: int = 0

    def mark_refreshed(self, delta_rows: int = 0,
                       ts: float | None = None) -> None:
        """Record one successful refresh (called by ``apply_refresh``
        after the refreshed copy is published)."""
        self.last_refresh_ts = ts if ts is not None else time.time()
        self.refresh_count += 1
        self.applied_delta_rows += delta_rows

    def note_run(self, run_id: int | None, kind: str | None) -> None:
        """Attach the ledger run id / kind of the driver that refreshed
        this view (stamped after the ledger append assigns the id)."""
        self.last_refresh_run_id = run_id
        self.last_refresh_kind = kind

    def staleness_seconds(self, now: float | None = None) -> float:
        now = now if now is not None else time.time()
        anchor = self.last_refresh_ts
        if anchor is None:
            anchor = self.created_ts
        return max(0.0, now - anchor)

    def as_dict(self) -> dict[str, Any]:
        return {
            "last_refresh_ts": self.last_refresh_ts,
            "last_refresh_run_id": self.last_refresh_run_id,
            "last_refresh_kind": self.last_refresh_kind,
            "refresh_count": self.refresh_count,
            "applied_delta_rows": self.applied_delta_rows,
        }


#: Integrity event severities, mildest first.
SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class IntegrityEvent:
    """One alertable integrity finding."""

    severity: str
    kind: str
    view: str
    message: str
    ts: float = field(default_factory=time.time)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; expected one of "
                f"{SEVERITIES}"
            )

    def as_dict(self) -> dict[str, Any]:
        return {
            "severity": self.severity,
            "kind": self.kind,
            "view": self.view,
            "message": self.message,
            "ts": self.ts,
        }


def record_events(events: Iterable[IntegrityEvent], metrics=None) -> None:
    """Feed integrity events to the metrics registry.

    Unlike the engine hot paths this records unconditionally — audits are
    explicit operator actions, and a detected corruption must never be
    dropped because tracing happened to be off.
    """
    # Lazy: repro.obs.metrics is cheap, but keep audit importable without
    # dragging the registry in at module-import time.
    from . import metrics as obs_metrics

    registry = metrics if metrics is not None else obs_metrics.registry()
    for event in events:
        registry.counter("integrity.events",
                         labels={"severity": event.severity}).inc()
        registry.counter("integrity.findings",
                         labels={"kind": event.kind,
                                 "view": event.view}).inc()
