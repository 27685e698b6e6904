"""Materialisation of summary views and the stored-view wrapper.

:func:`materialize` computes a summary view from scratch: join the fact
table with the view's dimension tables, apply the selection, and
hash-aggregate on the group-by attributes.  This is both the initial load
path and the *rematerialisation* baseline the paper benchmarks against.

:class:`MaterializedView` couples the resolved definition with its stored
table (indexed on the group-by columns, as in the paper's experimental
setup) and provides user-facing reads that hide synthetic columns and
evaluate derived (``AVG``) outputs.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Sequence

from ..errors import DefinitionError, PublishError
from ..obs import metrics as obs_metrics
from ..obs.audit import (
    CERT_MASK,
    ViewCertificate,
    ViewFreshness,
    columns_digests,
)
from ..obs.lineage import ViewLineage
from ..obs.tracing import current_span
from ..relational.aggregation import group_by as physical_group_by
from ..relational.expressions import col
from ..relational.operators import select
from ..relational.schema import Schema
from ..relational.stats import charge_access
from ..relational.table import Table
from .definition import SummaryViewDefinition


def compute_rows(definition: SummaryViewDefinition, name: str | None = None) -> Table:
    """Compute the view's content from base data (no wrapper, no index)."""
    if not definition.is_resolved():
        raise DefinitionError(
            f"view {definition.name!r} must be resolved before materialisation"
        )
    source = definition.fact.join_dimensions(
        definition.fact.table, definition.dimensions,
        definition.referenced_columns(),
    )
    if definition.where is not None:
        source = select(source, definition.where)
    aggregates = [
        (output.name,
         output.function.argument if output.function.argument is not None else col(
             source.schema.columns[0]),
         output.function.base_reducer())
        for output in definition.aggregates
    ]
    return physical_group_by(
        source, definition.group_by, aggregates, name=name or definition.name
    )


def project_user_columns(
    stored: Table,
    definition: SummaryViewDefinition,
    wanted: Sequence[str],
    name: str,
) -> Table:
    """The *wanted* user columns of rows *stored* in *definition*'s storage
    schema: self-maintainability companions dropped, derived (AVG) outputs
    evaluated with SQL division semantics (null numerator or a zero or
    null denominator gives null).  One gather per stored column and one
    pass per derived column; charged as one scan of *stored* plus one
    insert per row."""
    columns = dict(zip(stored.schema.columns, stored.columns()))
    charge_access("rows_scanned", len(stored))
    derived = {spec.name: spec for spec in definition.derived}
    out = []
    for column in wanted:
        spec = derived.get(column)
        if spec is None:
            out.append(columns[column][:])  # a borrowed column goes in as a slice
        else:
            out.append([
                None if numerator is None or not denominator
                else numerator / denominator
                for numerator, denominator in zip(
                    columns[spec.numerator], columns[spec.denominator]
                )
            ])
    result = Table(name, Schema(wanted))
    result.adopt_batch(out)
    return result


@dataclass(frozen=True)
class EpochStats:
    """One view's epoch lifecycle, as of one collection pass.

    ``retained`` counts *superseded* epochs some reader still keeps alive
    (the current epoch is always alive by construction and is not
    counted); ``collected`` is the cumulative number of superseded epochs
    whose storage has been freed; ``watermark`` is the oldest epoch still
    reachable — the current epoch when no old reader survives, which is
    the healthy steady state.
    """

    current: int
    retained: int
    collected: int
    watermark: int

    def as_dict(self) -> dict[str, int]:
        return {
            "current": self.current,
            "retained": self.retained,
            "collected": self.collected,
            "watermark": self.watermark,
        }


@dataclass(frozen=True)
class ViewVersion:
    """One published epoch of a view's stored table, never mutated.

    The epoch number is the version's whole identity — result caches key
    on it — because a view changes only by installing a new version.
    Readers that hold a :class:`ViewVersion` keep its table (and
    certificate) alive for as long as they reference it, so a query can
    keep reading a consistent snapshot while maintenance publishes newer
    epochs — the interpreter's garbage collector is the version store.
    """

    epoch: int
    table: Table
    certificate: ViewCertificate


def index_group_key(table: Table, definition: SummaryViewDefinition):
    """Build *table*'s index on *definition*'s group-by columns: unique,
    because the group-by columns are a summary table's key."""
    return table.create_index(list(definition.group_by), unique=True)


class ShadowVersion:
    """A next-epoch build in progress: a private copy of the view's table.

    What :func:`repro.core.refresh.refresh` applies Figure 7 to
    (``definition`` / ``table`` / ``group_key_index``).  Nothing the
    shadow does is visible to readers until :meth:`MaterializedView.publish`.
    """

    def __init__(
        self,
        definition: SummaryViewDefinition,
        table: Table,
        certificate: ViewCertificate,
        base_epoch: int,
    ):
        self.definition = definition
        self.table = table
        self.certificate = certificate
        #: Epoch current when the shadow was begun — the one it copies,
        #: unless it copies a table a reader pinned earlier.
        self.base_epoch = base_epoch
        #: Epoch this shadow will become once published.
        self.epoch = self.base_epoch + 1

    def __repr__(self) -> str:
        return (
            f"ShadowVersion({self.definition.name!r}, "
            f"epoch {self.base_epoch} -> {self.epoch})"
        )

    def group_key_index(self):
        if not self.definition.group_by:
            return None
        return self.table.index_on(list(self.definition.group_by))

    def read(self) -> Table:
        """User-facing content, as :meth:`MaterializedView.read` gives it."""
        definition = self.definition
        return project_user_columns(
            self.table, definition, definition.user_columns(),
            f"{definition.name}_read",
        )


class MaterializedView:
    """A stored summary table: resolved definition + indexed rows.

    The stored table lives inside an epoch-numbered :class:`ViewVersion`;
    ``view.table`` always resolves to the *current* version's table, which
    nothing mutates.  Maintenance
    (:func:`repro.core.refresh.apply_refresh`) builds a
    :class:`ShadowVersion` off to the side and installs it with
    :meth:`publish`, rematerialisation installs fresh rows with
    :meth:`install` — either way a single reference swap, atomic under the
    interpreter lock, so concurrent readers either see the whole old
    epoch or the whole new one and never a mix.
    """

    def __init__(self, definition: SummaryViewDefinition, table: Table):
        self.definition = definition
        self._version = ViewVersion(0, table, self._adopt(table))
        #: Serialises publishers; readers never take it.
        self._publish_lock = threading.Lock()
        #: Per-view freshness (last refresh time / run id / kind).
        self.freshness = ViewFreshness()
        #: Per-view change-set lineage: the epoch manifests recorded by
        #: committed refreshes (which batches became visible, with their
        #: ingest→publish lags).  See :mod:`repro.obs.lineage`.
        self.lineage = ViewLineage()
        #: ``(epoch, delta)``: the summary delta the last
        #: :func:`~repro.core.refresh.apply_refresh` published as *epoch*
        #: (what a cached answer one epoch older is rolled forward with).
        self.last_delta = None
        #: Epoch retention tracking: weak references to the *tables* of
        #: superseded epochs (the table is what a pinned plan actually
        #: holds onto, so its liveness is the retention signal), plus the
        #: cumulative count of epochs already freed.  Guarded by its own
        #: lock — collection must not contend with publishers.
        self._superseded: dict[int, weakref.ref] = {}
        self._collected_epochs = 0
        self._epoch_lock = threading.Lock()

    def __repr__(self) -> str:
        return f"MaterializedView({self.definition.name!r}, {len(self.table)} rows)"

    def _adopt(self, table: Table) -> ViewCertificate:
        """Make freshly computed rows a stored table of this view: the
        schema checked, the group-key index built
        (:func:`index_group_key`), and the incremental
        consistency certificate attached, kept in sync from here on
        through the table's mutation observers.  The certificate is a full
        digest of ``table.columns()`` — not ``scan()`` — because
        certificate bookkeeping must not charge tuple-access accounting;
        it keeps each row's digest at the row's slot."""
        definition = self.definition
        if table.schema != definition.storage_schema():
            raise DefinitionError(
                f"stored table for {definition.name!r} has schema "
                f"{list(table.schema.columns)}, expected "
                f"{list(definition.storage_schema().columns)}"
            )
        if definition.group_by:
            index_group_key(table, definition)
        certificate = ViewCertificate.from_table(table)
        table.attach_observer(certificate)
        return certificate

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def table(self) -> Table:
        """The current epoch's stored table."""
        return self._version.table

    @property
    def certificate(self) -> ViewCertificate:
        """The current epoch's consistency certificate."""
        return self._version.certificate

    @property
    def epoch(self) -> int:
        """Number of published swaps; 0 for a freshly materialised view."""
        return self._version.epoch

    def pin(self) -> ViewVersion:
        """Capture the current version for the duration of a read.

        A single attribute load — atomic under the interpreter lock — so
        the caller gets a consistent ``(epoch, table, certificate)``
        triple no matter how many publishes race with it.
        """
        return self._version

    def version_stamp(self) -> tuple[int, int]:
        """The view's state as (epoch, refresh count), which lineage
        manifests record.

        A refresh moves it in two steps (the epoch at the swap, the count
        when freshness is marked), so result caches key on the pinned
        version's epoch instead.
        """
        return (self._version.epoch, self.freshness.refresh_count)

    def begin_version(self, table: Table | None = None) -> ShadowVersion:
        """Copy the current version into a private next-epoch shadow.

        The copy (:meth:`Table.copy`: a structural clone, O(|view|) bytes
        at memcpy speed, no row moved) carries the rows, indexes and
        domains but not the observers; the shadow gets its own
        certificate: the current one's value, and a copy of its per-slot
        digest column made by one more memcpy, maintained incrementally
        while the refresh mutates the shadow table (a written row is
        hashed once; the row it replaces is read from the column).  Every
        row of the shadow starts in the slot it has in the current
        version and the shadow's storage records the slots written from
        here on — what :meth:`publish` re-reads.

        *table* — an earlier epoch's table a reader pinned — is copied
        instead of the current one, for a read that compensates it
        (:func:`repro.core.compensation.read_through_delta`); that copy's
        certificate is digested from its rows in full, and publishing it
        is validated against the current epoch like any shadow's.
        """
        current = self._version
        if table is None:
            copy = current.table.copy()
            certificate = ViewCertificate(
                current.certificate.value, current.certificate.digests[:]
            )
        else:
            copy = table.copy()
            certificate = ViewCertificate.from_table(copy)
        copy.attach_observer(certificate)
        return ShadowVersion(self.definition, copy, certificate, current.epoch)

    def publish(self, shadow: ShadowVersion) -> ViewVersion:
        """Atomically install *shadow* as the new current version.

        Refuses a shadow whose base epoch is no longer current — a racing
        maintainer published since :meth:`begin_version` — and a torn
        build: a shadow whose incrementally-maintained certificate
        disagrees with what its storage holds.

        **What is re-read.**  The shadow's storage recorded every slot
        written since it was cloned (:meth:`Table.written_slots` — kept by
        the store's write primitives, below the table's indexes and
        observers).  Only the shadow's live rows at those slots are
        gathered and hashed, once each; no row of the base is read.  Three
        checks, in this order:

        1. the maintained certificate equals the base version's, less the
           base's per-slot digests at the written slots live in the base,
           plus the new digests (``certificate mismatch``);
        2. each row at a written slot is filed in the shadow's indexes
           where it is stored (``index mismatch``);
        3. each new digest equals the shadow's digest column at its slot
           (``certificate mismatch``), so the column the next shadow
           copies is exact.

        Every other slot is a memcpy of the base, rows and digests alike,
        and the base's column was checked the same way when it was
        published (or digested in full when it was installed), so the
        pass is O(slots written), not O(|view|).

        On success the swap is a single reference assignment; committed
        epochs are never unpublished, and a refused shadow leaves the
        published version as it was.  The span the caller opened, if any,
        gets ``written_slots`` and ``validated_rows`` (rows hashed).
        """
        with self._publish_lock:
            current = self._version
            if shadow.base_epoch != current.epoch:
                raise PublishError(
                    f"stale shadow for {self.name!r}: built from epoch "
                    f"{shadow.base_epoch}, current is epoch {current.epoch}"
                )
            self._validate(current, shadow)
            version = self._swap_in(shadow.table, shadow.certificate)
        # Outside the publish lock: prune epochs no reader kept alive and
        # refresh the retention gauges (serving telemetry records
        # unconditionally — see repro.obs.serving).
        self.collect_epochs()
        return version

    def _validate(self, base: ViewVersion, shadow: ShadowVersion) -> None:
        """Raise :class:`PublishError` unless *shadow*'s storage bears out
        its maintained certificate (see :meth:`publish`)."""
        table, certificate = shadow.table, shadow.certificate
        written = table.written_slots()
        slots, new = table.take_live(written)
        digests = columns_digests(new, len(slots))
        gone = base.table.live_among(written)
        expected = (
            base.certificate.value - sum(base.certificate.at(gone))
            + sum(digests)
        ) & CERT_MASK
        span = current_span()
        if span is not None:
            span.add("validated_rows", len(slots))
            span.add("written_slots", len(written))
        if certificate.value != expected:
            raise PublishError(
                f"certificate mismatch publishing epoch "
                f"{shadow.epoch} of {self.name!r}: maintained "
                f"{certificate.hex}, recomputed "
                f"{ViewCertificate(expected).hex}"
            )
        if not table.indexes_hold(slots, new):
            raise PublishError(
                f"index mismatch publishing epoch {shadow.epoch} of "
                f"{self.name!r}: a row at a written slot is not indexed "
                f"there"
            )
        if certificate.at(slots) != tuple(digests):
            raise PublishError(
                f"certificate mismatch publishing epoch {shadow.epoch} of "
                f"{self.name!r}: the digest column disagrees with a row at "
                f"a written slot"
            )

    def _swap_in(
        self, table: Table, certificate: ViewCertificate
    ) -> ViewVersion:
        """The single reference swap to the next epoch (publish lock
        held); the superseded table is tracked for retention."""
        current = self._version
        version = ViewVersion(current.epoch + 1, table, certificate)
        self._version = version
        with self._epoch_lock:
            self._superseded[current.epoch] = weakref.ref(current.table)
        return version

    def install(self, table: Table) -> ViewVersion:
        """Publish *table* — this view's rows computed afresh, held by
        nobody else — as the next epoch.

        The rematerialisation counterpart of :meth:`publish`: the table is
        indexed and certified from its own rows off to the side, then
        installed by the same swap, so cached answers stop matching and a
        reader pinned on the old epoch keeps its rows.
        """
        certificate = self._adopt(table)
        with self._publish_lock:
            version = self._swap_in(table, certificate)
        self.collect_epochs()
        return version

    def collect_epochs(self, metrics=None) -> EpochStats:
        """Drop tracking for superseded epochs no reader keeps alive and
        publish the retention gauges; returns the resulting stats.

        The interpreter's garbage collector is the version store, so
        "collecting" an epoch means noticing its table became
        unreachable: the weak reference registered at publish time has
        died.  Runs after every publish and on every ``/metrics`` scrape;
        cost is O(retained epochs), which the collection itself keeps
        bounded.
        """
        with self._epoch_lock:
            dead = [
                epoch for epoch, ref in self._superseded.items()
                if ref() is None
            ]
            for epoch in dead:
                del self._superseded[epoch]
            self._collected_epochs += len(dead)
            stats = EpochStats(
                current=self._version.epoch,
                retained=len(self._superseded),
                collected=self._collected_epochs,
                watermark=min(
                    self._superseded, default=self._version.epoch
                ),
            )
        registry = metrics if metrics is not None else obs_metrics.registry()
        labels = {"view": self.name}
        registry.gauge("epochs.published", labels=labels).set(stats.current)
        registry.gauge("epochs.retained", labels=labels).set(stats.retained)
        registry.gauge("epochs.collected", labels=labels).set(stats.collected)
        registry.gauge("epochs.watermark", labels=labels).set(stats.watermark)
        return stats

    def epoch_stats(self) -> EpochStats:
        """The epoch lifecycle counts without touching the gauges (and
        without collecting — a pure read of the current tracking state)."""
        with self._epoch_lock:
            alive = [
                epoch for epoch, ref in self._superseded.items()
                if ref() is not None
            ]
            return EpochStats(
                current=self._version.epoch,
                retained=len(alive),
                collected=self._collected_epochs,
                watermark=min(alive, default=self._version.epoch),
            )

    def group_key_index(self):
        """The index on the group-by columns (``None`` for global views)."""
        if not self.definition.group_by:
            return None
        return self.table.index_on(list(self.definition.group_by))

    def read(self) -> Table:
        """User-facing content: synthetic columns hidden, derived outputs
        (AVG) evaluated with SQL division semantics."""
        definition = self.definition
        return project_user_columns(
            self.table, definition, definition.user_columns(),
            f"{definition.name}_read",
        )

    @staticmethod
    def build(definition: SummaryViewDefinition) -> "MaterializedView":
        """Resolve *definition*, compute it from base data, and wrap it."""
        resolved = definition if definition.is_resolved() else definition.resolved()
        table = compute_rows(resolved)
        return MaterializedView(resolved, table)

    def rematerialize(self) -> None:
        """Recompute this view's rows from base data and publish them as
        the next epoch (:meth:`install`)."""
        self.install(compute_rows(self.definition))
