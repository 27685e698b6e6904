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
from dataclasses import dataclass, replace
from typing import Sequence

from ..errors import DefinitionError, PublishError
from ..obs import metrics as obs_metrics
from ..obs.audit import (
    CERT_MASK,
    ViewCertificate,
    ViewFreshness,
    certificates_enabled,
    columns_certificate,
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
    """One immutable-once-published epoch of a view's stored table.

    Readers that hold a :class:`ViewVersion` keep its table (and
    certificate) alive for as long as they reference it, so a query can
    keep reading a consistent snapshot while maintenance publishes newer
    epochs — the interpreter's garbage collector is the version store.
    """

    epoch: int
    table: Table
    certificate: ViewCertificate | None
    #: In-place refreshes applied to this epoch's table since it was
    #: installed (the versioned path never mutates a published table).
    revision: int = 0

    def stamp(self) -> tuple[int, int]:
        """Identity for cache keys: ``(epoch, revision)``.

        Both come from the one version object a reader pinned, and a
        publish or an in-place refresh installs a new one, so either
        moves the stamp exactly once.
        """
        return (self.epoch, self.revision)


class ShadowVersion:
    """A next-epoch build in progress: a private copy of the view's table.

    Duck-types the slice of :class:`MaterializedView` that the refresh
    machinery touches (``definition`` / ``table`` / ``group_key_index``),
    so :func:`repro.core.refresh.refresh` internals can maintain the
    shadow exactly as they would the live view.  Nothing the shadow does
    is visible to readers until :meth:`MaterializedView.publish`.
    """

    def __init__(
        self,
        definition: SummaryViewDefinition,
        table: Table,
        certificate: ViewCertificate | None,
        base_stamp: tuple[int, int],
    ):
        self.definition = definition
        self.table = table
        self.certificate = certificate
        #: :meth:`ViewVersion.stamp` of the published version this shadow
        #: was copied from; a publish or an in-place refresh moves it.
        self.base_stamp = base_stamp
        #: Epoch of that version.
        self.base_epoch = base_stamp[0]
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


class MaterializedView:
    """A stored summary table: resolved definition + indexed rows.

    The stored table lives inside an epoch-numbered :class:`ViewVersion`;
    ``view.table`` always resolves to the *current* version's table, and
    in-place maintenance keeps mutating it exactly as before.  The
    versioned path (:func:`repro.core.transactional.refresh_versioned`)
    instead builds a :class:`ShadowVersion` off to the side and installs
    it with :meth:`publish` — a single reference swap, atomic under the
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

    def _adopt(self, table: Table) -> ViewCertificate | None:
        """Make freshly computed rows a stored table of this view: the
        schema checked, the group-key index built, and the incremental
        consistency certificate attached, kept in sync from here on
        through the table's mutation observers (``None`` when disabled
        through ``REPRO_CERTIFICATES=0``).  The certificate is a full
        digest of ``table.columns()`` — not ``scan()`` — because
        certificate bookkeeping must not charge tuple-access accounting."""
        definition = self.definition
        if table.schema != definition.storage_schema():
            raise DefinitionError(
                f"stored table for {definition.name!r} has schema "
                f"{list(table.schema.columns)}, expected "
                f"{list(definition.storage_schema().columns)}"
            )
        if definition.group_by:
            table.create_index(list(definition.group_by))
        if not certificates_enabled():
            return None
        certificate = ViewCertificate.from_columns(table.columns(), len(table))
        table.attach_observer(certificate)
        return certificate

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def table(self) -> Table:
        """The current epoch's stored table (in-place paths mutate it)."""
        return self._version.table

    @property
    def certificate(self) -> ViewCertificate | None:
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

        Changes whenever either a versioned swap publishes a new epoch or
        an in-place refresh mutates the current one — but in two steps
        for a versioned refresh (the epoch at the swap, the count when
        freshness is marked), so result caches stamp entries with
        ``pin().stamp()`` instead.
        """
        return (self._version.epoch, self.freshness.refresh_count)

    def mark_refreshed_in_place(self, delta_rows: int) -> None:
        """Record a refresh that mutated the current epoch's table:
        freshness, and the next revision of the same version, so answers
        cached from the table's earlier state stop matching."""
        self.freshness.mark_refreshed(delta_rows)
        with self._publish_lock:
            current = self._version
            self._version = replace(current, revision=current.revision + 1)

    def begin_version(self) -> ShadowVersion:
        """Copy the current version into a private next-epoch shadow.

        The copy (:meth:`Table.copy`: a structural clone, O(|view|) bytes
        at memcpy speed, no row moved) carries the rows, indexes and
        domains but not the observers; the shadow gets its own
        certificate, seeded O(1) from the current one's digest-sum and
        maintained incrementally while the refresh mutates the shadow
        table.  On columnar storage every row of the shadow starts in the
        slot it has in the current version and the shadow's storage
        records the slots written from here on — what :meth:`publish`
        re-reads.
        """
        current = self._version
        table = current.table.copy()
        certificate: ViewCertificate | None = None
        if current.certificate is not None:
            certificate = ViewCertificate(current.certificate.value)
            table.attach_observer(certificate)
        return ShadowVersion(
            self.definition, table, certificate, current.stamp()
        )

    def publish(self, shadow: ShadowVersion) -> ViewVersion:
        """Atomically install *shadow* as the new current version.

        Refuses a shadow whose base has moved since :meth:`begin_version`
        — a racing maintainer published, or an in-place refresh changed
        the epoch's table — and, when certificates are enabled, a torn
        build: a shadow whose incrementally-maintained certificate
        disagrees with what its storage holds.

        **What is re-read.**  The shadow's storage recorded every slot
        written since it was cloned (:meth:`Table.written_slots` — kept by
        the store's write primitives, below the table's indexes and
        observers).  The certificate the shadow *should* carry is the base
        version's, less the digest of the base's live rows at those
        slots, plus the digest of the shadow's live rows at them, both
        gathered from storage now; the rows at the written slots must
        also be filed in the shadow's indexes where they are stored.
        Every other slot is a memcpy of the base, whose own certificate
        was validated when it was published (or digested in full when it
        was installed), so re-digesting it would prove nothing new: the
        pass is O(slots written), not O(|view|).  Where that argument has
        nothing to stand on or nothing to save, every stored row is
        digested as before: row and sharded storage (their copy
        re-inserts, so nothing is recorded), and a shadow that wrote half
        the view or more.  One consequence: a certificate an *in-place*
        refresh left wrong is carried forward by the next publish instead
        of being caught by it; :meth:`Warehouse.verify_certificates` and
        ``repro audit`` digest every stored row and are what re-prove it.

        On success the swap is a single reference assignment; committed
        epochs are never unpublished, and a refused shadow leaves the
        published version as it was.  The span the caller opened, if any,
        gets ``written_slots`` and ``validated_rows`` (rows digested).
        """
        with self._publish_lock:
            current = self._version
            if shadow.base_stamp != current.stamp():
                raise PublishError(
                    f"stale shadow for {self.name!r}: built from epoch "
                    f"{shadow.base_epoch} revision {shadow.base_stamp[1]}, "
                    f"current is epoch {current.epoch} revision "
                    f"{current.revision}"
                )
            if shadow.certificate is not None:
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
        table = shadow.table
        written = table.written_slots()
        if written is not None:
            slots, new = table.take_live(written)
        if written is None or 2 * len(written) >= len(table):
            validated = len(table)
            expected = columns_certificate(table.columns(), validated)
        else:
            gone, old = base.table.take_live(written)
            validated = len(gone) + len(slots)
            expected = (
                base.certificate.value
                - columns_certificate(old, len(gone))
                + columns_certificate(new, len(slots))
            ) & CERT_MASK
        span = current_span()
        if span is not None:
            span.add("validated_rows", validated)
            if written is not None:
                span.add("written_slots", len(written))
        if shadow.certificate.value != expected:
            raise PublishError(
                f"certificate mismatch publishing epoch "
                f"{shadow.epoch} of {self.name!r}: maintained "
                f"{shadow.certificate.hex}, recomputed "
                f"{ViewCertificate(expected).hex}"
            )
        if written is not None and not table.indexes_hold(slots, new):
            raise PublishError(
                f"index mismatch publishing epoch {shadow.epoch} of "
                f"{self.name!r}: a row at a written slot is not indexed "
                f"there"
            )

    def _swap_in(
        self, table: Table, certificate: ViewCertificate | None
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
