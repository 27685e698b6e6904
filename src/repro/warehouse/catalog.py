"""The warehouse catalog: base tables, summary tables, deferred changes.

:class:`Warehouse` is the top-level stateful object an application works
with.  It owns the fact tables, dimension tables, materialised summary
tables, and per-fact-table deferred :class:`~repro.warehouse.changes.ChangeSet`
objects.  Maintenance drivers (:mod:`repro.core.maintenance` for one view,
:mod:`repro.lattice.plan` for a lattice of views) operate on a warehouse.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..errors import DefinitionError, TableError
from ..lattice.derives import smallest_deriving_view
from ..views.definition import SummaryViewDefinition
from ..views.materialize import MaterializedView, compute_rows
from .changes import ChangeSet
from .dimension import DimensionTable
from .fact import FactTable


class Warehouse:
    """A star-schema warehouse with materialised summary tables."""

    def __init__(self) -> None:
        self.facts: dict[str, FactTable] = {}
        self.dimensions: dict[str, DimensionTable] = {}
        self.views: dict[str, MaterializedView] = {}
        self._pending: dict[str, ChangeSet] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_dimension(self, dimension: DimensionTable) -> DimensionTable:
        """Register a dimension table."""
        if dimension.name in self.dimensions:
            raise TableError(f"dimension {dimension.name!r} already registered")
        self.dimensions[dimension.name] = dimension
        return dimension

    def add_fact(self, fact: FactTable) -> FactTable:
        """Register a fact table (its dimensions are registered implicitly)."""
        if fact.name in self.facts:
            raise TableError(f"fact table {fact.name!r} already registered")
        self.facts[fact.name] = fact
        for fk in fact.foreign_keys:
            if fk.dimension.name not in self.dimensions:
                self.dimensions[fk.dimension.name] = fk.dimension
        return fact

    def partition_fact(
        self, fact_name: str, date_column: str = "date", width: int = 1
    ):
        """Date-partition a registered fact table (idempotent).

        Re-stores the fact as per-date-range shards
        (:class:`~repro.warehouse.partition.PartitionedFactTable`); nightly
        maintenance then takes the shard-parallel path whenever
        ``REPRO_PARTITION`` (or an explicit ``PropagateOptions.partition``)
        turns it on, and expiration drops whole expired segments.
        """
        from .partition import partition_fact

        if fact_name not in self.facts:
            raise TableError(f"no fact table named {fact_name!r}")
        return partition_fact(
            self.facts[fact_name], date_column=date_column, width=width
        )

    def define_summary_table(
        self, definition: SummaryViewDefinition
    ) -> MaterializedView:
        """Resolve, materialise, index, and register a summary table.

        The rows come down the V-lattice (paper, Section 5): from the
        smallest already-defined view of the same fact that derives this
        one, through the Theorem 5.1 edge query, and from the fact table
        only when no view derives it or none is smaller than the fact
        table.  Either way the view is indexed and certified from its own
        rows, and it starts in step with the views already defined —
        those are what maintenance keeps consistent with each other.
        Integer aggregates come out identical from either source; a float
        SUM taken from a view is a sum of that view's partial sums, the
        from-base value up to rounding (as a refresh leaves any float SUM).
        """
        if definition.name in self.views:
            raise DefinitionError(
                f"summary table {definition.name!r} already defined"
            )
        if definition.fact.name not in self.facts:
            raise DefinitionError(
                f"view {definition.name!r} references unregistered fact table "
                f"{definition.fact.name!r}"
            )
        resolved = definition if definition.is_resolved() else definition.resolved()
        source = smallest_deriving_view(resolved, self.views.values())
        if source is None or len(source.version.table) >= len(resolved.fact.table):
            table = compute_rows(resolved)
        else:
            table = source.edge.apply(source.version.table)
        view = MaterializedView(resolved, table)
        self.views[definition.name] = view
        return view

    def view(self, name: str) -> MaterializedView:
        """Look up a summary table by name."""
        try:
            return self.views[name]
        except KeyError:
            raise DefinitionError(f"no summary table named {name!r}") from None

    # ------------------------------------------------------------------
    # Deferred changes
    # ------------------------------------------------------------------

    def pending_changes(self, fact_name: str) -> ChangeSet:
        """The deferred change set for *fact_name* (created on demand)."""
        if fact_name not in self.facts:
            raise TableError(f"no fact table named {fact_name!r}")
        changes = self._pending.get(fact_name)
        if changes is None:
            changes = ChangeSet(fact_name, self.facts[fact_name].table.schema)
            self._pending[fact_name] = changes
        return changes

    def stage_insertions(self, fact_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Defer insertions into *fact_name*."""
        return self.pending_changes(fact_name).insert_many(rows)

    def stage_deletions(self, fact_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Defer deletions from *fact_name*."""
        return self.pending_changes(fact_name).delete_many(rows)

    def stage_changes(self, fact_name: str, changes: ChangeSet) -> int:
        """Merge a pre-built change set into the pending one, keeping the
        original batch ids and ingest timestamps (re-staging row by row
        would restamp every tuple and zero out its accumulated lag)."""
        pending = self.pending_changes(fact_name)
        pending.merge(changes)
        return changes.size()

    def apply_pending_to_base(self, fact_name: str) -> None:
        """Apply the deferred changes to the base fact table (keeping the
        change set available for view maintenance)."""
        changes = self.pending_changes(fact_name)
        changes.apply_to(self.facts[fact_name].table)

    def discard_pending(self, fact_name: str) -> None:
        """Drop the deferred change set after maintenance completes."""
        self.pending_changes(fact_name).clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def views_over(self, fact_name: str) -> list[MaterializedView]:
        """All summary tables defined over *fact_name*."""
        return [
            view for view in self.views.values()
            if view.definition.fact.name == fact_name
        ]

    def freshness(self) -> dict[str, Any]:
        """Per-view freshness trackers, keyed by view name."""
        return {name: view.freshness for name, view in self.views.items()}

    def pending_counts(self, fact_name: str) -> dict[str, int]:
        """Deferred change counts for *fact_name*: insertions, deletions."""
        changes = self.pending_changes(fact_name)
        return {
            "insertions": len(changes.insertions),
            "deletions": len(changes.deletions),
        }

    def verify_certificates(self) -> dict[str, bool]:
        """Certificate-based consistency check of every summary table.

        For each view the *stored* certificate (re-digested from the
        current rows) is compared against the *expected* certificate of
        a from-scratch recomputation — ``certificate == recompute``
        certifies the view without a row-by-row table comparison — and,
        when incremental certificates are enabled, the *maintained*
        certificate must also equal the stored one (drift means the
        table was mutated outside maintenance).  Returns
        ``{view_name: consistent}``; raises nothing.
        """
        from ..obs.audit import rows_certificate

        results: dict[str, bool] = {}
        for name, view in self.views.items():
            stored = rows_certificate(view.table.rows())
            expected = rows_certificate(compute_rows(view.definition).rows())
            consistent = stored == expected
            if view.certificate is not None:
                consistent = consistent and view.certificate.value == stored
            results[name] = consistent
        return results

    def verify_views(self) -> dict[str, bool]:
        """Check every summary table against from-scratch recomputation.

        An operational safety net: run it after maintenance (or after a
        crash) to confirm no view has drifted from its definition.  Returns
        ``{view_name: consistent}``; raises nothing.
        """
        results: dict[str, bool] = {}
        for name, view in self.views.items():
            expected = compute_rows(view.definition).sorted_rows()
            results[name] = view.table.sorted_rows() == expected
        return results

    def assert_views_consistent(self) -> None:
        """Like :meth:`verify_views` but raises on the first stale view."""
        from ..errors import MaintenanceError

        for name, consistent in self.verify_views().items():
            if not consistent:
                raise MaintenanceError(
                    f"summary table {name!r} does not match recomputation "
                    "from its base data"
                )

    def __repr__(self) -> str:
        return (
            f"Warehouse({len(self.facts)} facts, {len(self.dimensions)} "
            f"dimensions, {len(self.views)} summary tables)"
        )
