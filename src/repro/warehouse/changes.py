"""Deferred change sets: the ``pos_ins`` / ``pos_del`` tables.

Warehouses defer source changes during the day and apply them in a nightly
batch (paper, Sections 1–2).  A :class:`ChangeSet` holds the deferred
insertions and deletions for one base table, in tables sharing that base
table's schema.  The maintenance algorithms read the change set during
*propagate*; :meth:`ChangeSet.apply_to` applies it to the base table (before
*refresh*, as the paper assumes, so MIN/MAX recomputation sees updated base
data).

Deletion semantics are bag-style: each deletion row removes exactly one
matching occurrence from the base table, found through the base table's
index when the batch is small against the table and by one scan otherwise.
``apply_to`` is transactional: every deferred deletion is validated against
the base table *before* any mutation, so an inconsistent batch raises
:class:`~repro.errors.InconsistentDeltaError` with the base table untouched.

Every enqueue call is stamped as a **lineage batch**: a monotonically
assigned batch id plus ingest timestamp drawn from the process-wide
:func:`~repro.obs.lineage.lineage_clock`, accumulated in
:attr:`ChangeSet.lineage`.  Propagate snapshots the lineage onto the
summary deltas it computes, and the refresh paths pin it — with per-batch
ingest→publish lag — into the epoch manifests of every view the batch
reaches (:mod:`repro.obs.lineage`).  :meth:`batch` groups several enqueues
under one batch id (a micro-batch); :meth:`merge` composes two change
sets' rows *and* lineages; :meth:`clear` resets both.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from itertools import chain
from typing import Any, Iterable, Iterator, Sequence

from ..errors import InconsistentDeltaError, TableError
from ..obs import tracing
from ..obs.lineage import BatchLineage, lineage_clock
from ..relational.schema import Schema
from ..relational.table import Row, Table, charge_access


class ChangeSet:
    """Deferred insertions and deletions for one base table.

    Parameters
    ----------
    base_name:
        Name of the table the changes apply to (e.g. ``"pos"``); used to
        name the change tables ``{base_name}_ins`` / ``{base_name}_del`` as
        in the paper.
    schema:
        The base table's schema.
    """

    def __init__(self, base_name: str, schema: Schema | Sequence[str]):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.base_name = base_name
        self.insertions = Table(f"{base_name}_ins", schema)
        self.deletions = Table(f"{base_name}_del", schema)
        #: Batches (batch id → ingest timestamp) deferred here and not
        #: yet cleared; every enqueue stamps one unless a :meth:`batch`
        #: scope is open.
        self.lineage = BatchLineage()
        self._open_batch: int | None = None

    def __repr__(self) -> str:
        return (
            f"ChangeSet({self.base_name!r}, +{len(self.insertions)} "
            f"-{len(self.deletions)})"
        )

    @property
    def schema(self) -> Schema:
        return self.insertions.schema

    def _stamp(self) -> None:
        """Stamp the enqueue that is about to happen with a batch id."""
        if self._open_batch is not None:
            return   # grouped under the surrounding batch() scope
        batch_id, ingest_ts = lineage_clock().next_batch()
        self.lineage.stamp(batch_id, ingest_ts)

    @contextmanager
    def batch(self) -> Iterator[int]:
        """Group every enqueue inside the ``with`` block under one batch id.

        The micro-batch primitive: a streaming source that delivers a
        burst of rows stamps them as one unit of visibility tracking
        instead of one batch per row.  Yields the batch id.  Scopes do
        not nest (the outer scope keeps its id).
        """
        if self._open_batch is not None:
            yield self._open_batch
            return
        batch_id, ingest_ts = lineage_clock().next_batch()
        self.lineage.stamp(batch_id, ingest_ts)
        self._open_batch = batch_id
        try:
            yield batch_id
        finally:
            self._open_batch = None

    def insert(self, row: Sequence[Any]) -> None:
        """Defer an insertion."""
        self._stamp()
        self.insertions.insert(row)

    def delete(self, row: Sequence[Any]) -> None:
        """Defer a deletion (one bag occurrence of *row*)."""
        self._stamp()
        self.deletions.insert(row)

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        self._stamp()
        return self.insertions.insert_many(rows)

    def delete_many(self, rows: Iterable[Sequence[Any]]) -> int:
        self._stamp()
        return self.deletions.insert_many(rows)

    def merge(self, other: "ChangeSet") -> None:
        """Accumulate *other*'s deferred rows and lineage into this set.

        The streaming-accumulation primitive: small change sets produced
        continuously compose into the one the next maintenance cycle
        consumes, and the merged lineage keeps every contributing batch's
        original ingest timestamp (so visibility lag measures from true
        arrival, not from the merge).
        """
        if other.schema != self.schema:
            raise TableError(
                f"cannot merge change set for {other.base_name!r} into "
                f"{self.base_name!r}: schemas differ"
            )
        self.insertions.insert_many(other.insertions.scan())
        self.deletions.insert_many(other.deletions.scan())
        self.lineage.merge(other.lineage)

    def size(self) -> int:
        """Total number of deferred change tuples."""
        return len(self.insertions) + len(self.deletions)

    def is_empty(self) -> bool:
        return self.size() == 0

    def clear(self) -> None:
        """Drop all deferred changes (after they have been applied)."""
        self.insertions.truncate()
        self.deletions.truncate()
        self.lineage.clear()

    def apply_to(self, base: Table) -> None:
        """Apply the deferred changes to *base* in bulk, transactionally.

        Deletions are resolved by counting the requested rows and walking
        candidate base rows in scan order, counting each match down — of
        several equal rows, the ones a scan meets first go.  Candidates
        come from one of two plans, chosen per call:

        * **index** — a batch under an eighth of an indexed base: the
          distinct keys of the deletion rows go to the base's most
          selective index in one ``lookup_many``, and only the rows filed
          under them are gathered and compared: work proportional to the
          batch, not to the base.
        * **scan** — otherwise: every live row of the base, up to the
          last one the batch was looking for.

        Both doom the same slots in the same order (cross-tested), so
        later slot assignment does not depend on which ran.  Only after
        *every* change validates does any mutation happen, so a bad batch
        — a deletion matching no base row — raises
        :class:`~repro.errors.InconsistentDeltaError` with *base* exactly
        as it was.  Runs under an ``apply_base`` span: counters
        ``deleted`` and ``inserted`` and, when deletions were resolved,
        the tag ``plan`` and ``candidate_rows`` (base rows compared).
        """
        if base.schema != self.schema:
            raise TableError(
                f"change set for {self.base_name!r} does not match schema of "
                f"table {base.name!r}"
            )
        with tracing.span("apply_base", table=base.name) as span:
            doomed_slots = (
                self._resolve_deletions(base, span) if len(self.deletions)
                else []
            )
            # Validation complete — mutations from here on cannot fail: the
            # doomed slots were live when read, and every deferred
            # insertion was arity-checked against this same schema when it
            # entered the change tables.
            span.add("deleted", base.delete_slots(doomed_slots))
            span.add("inserted", base.insert_many(self.insertions.scan()))

    def _resolve_deletions(self, base: Table, span: Any) -> list[int]:
        """The slots of *base* the deferred deletions remove, in scan
        order; read-only, raising if a deletion matches no row."""
        remaining = len(self.deletions)
        columns = self.deletions.columns()
        charge_access("rows_scanned", remaining)
        wanted: Counter[Row] = Counter(zip(*columns))
        index = max(base.indexes.values(), key=len, default=None)
        # A probed row costs more than a scanned one: with the few rows
        # per key of a fact table's composite index the two plans cost
        # the same at |base| / |deletions| of about 8 on both benchmark
        # fact tables, the scan winning below and the index above
        # (EXPERIMENTS.md "PR 28") — the probes-against-scan comparison
        # ``base_recompute_fn`` makes for MIN/MAX recomputation, with the
        # per-row costs measured.
        if index is not None and 8 * remaining < len(base):
            span.set_tag("plan", "index")
            keys = dict.fromkeys(index.keys_of(columns))
            slots = base.scan_order(
                chain.from_iterable(index.lookup_many(keys))
            )
            candidates = zip(slots, zip(*base.take(slots)))
        else:
            span.set_tag("plan", "scan")
            candidates = base.slots()
        doomed_slots: list[int] = []
        compared = 0
        for slot, row in candidates:
            compared += 1
            count = wanted.get(row, 0)
            if count:
                wanted[row] = count - 1
                doomed_slots.append(slot)
                remaining -= 1
                if not remaining:
                    break
        span.add("candidate_rows", compared)
        if remaining:
            missing = [row for row, count in wanted.items() if count > 0]
            raise InconsistentDeltaError(
                f"{remaining} deferred deletion(s) match no row in "
                f"{base.name!r}; first missing row: {missing[0]!r}"
            )
        return doomed_slots
