"""Single-view maintenance driver: propagate → apply base → refresh.

:func:`maintain_view` runs the full summary-delta pipeline for one summary
table, timing each phase with the batch-window clock:

1. *propagate* (online): compute the summary delta from the deferred
   change set — the summary table is not locked;
2. *apply base changes* (offline): update the base fact table;
3. *refresh* (offline): apply the delta to the summary table, recomputing
   MIN/MAX groups from the updated base data where Figure 7 requires it.

Maintaining *many* views together, sharing work along the D-lattice, is the
job of :mod:`repro.lattice.plan`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..relational.aggregation import group_by as physical_group_by
from ..relational.expressions import col
from ..relational.operators import select
from ..relational.table import Table
from ..views.definition import SummaryViewDefinition
from ..views.materialize import MaterializedView
from ..warehouse.batch import BatchReport, BatchWindowClock
from ..warehouse.changes import ChangeSet
from .deltas import SummaryDelta
from .propagate import PropagateOptions, compute_summary_delta
from .refresh import GroupKey, RecomputeFn, RefreshStats, RefreshVariant, refresh


def base_recompute_fn(
    definition: SummaryViewDefinition,
    use_index: bool = True,
) -> RecomputeFn:
    """Build the batched MIN/MAX recomputation callback for a view.

    The callback reads the fact table *as it stands when called* — i.e.
    after the deferred changes have been applied, matching the paper's
    assumption — and chooses between two strategies per invocation:

    * **index-assisted** (:mod:`repro.core.recompute`): probe a composite
      fact index with the candidate keys each group implies — the
      RDBMS-optimizer plan, cost independent of the fact-table size;
    * **batched scan**: one filtered pass over fact ⋈ dimensions for all
      requested groups — the fallback when no feasible index exists or the
      probe count would exceed the scan.

    Both produce identical values (cross-tested); ``use_index=False``
    forces the scan.
    """

    def recompute_by_scan(keys: list[GroupKey]) -> dict[GroupKey, tuple]:
        wanted = set(keys)
        source = definition.fact.join_dimensions(
            definition.fact.table, definition.dimensions,
            definition.referenced_columns(),
        )
        if definition.where is not None:
            source = select(source, definition.where)
        key_positions = source.schema.positions(definition.group_by)

        filtered = Table(f"recompute_{definition.name}", source.schema)
        for row in source.scan():
            if tuple(row[p] for p in key_positions) in wanted:
                filtered.insert(row)

        aggregates = [
            (output.name,
             output.function.argument if output.function.argument is not None
             else col(source.schema.columns[0]),
             output.function.base_reducer())
            for output in definition.aggregates
        ]
        grouped = physical_group_by(filtered, definition.group_by, aggregates)
        arity = len(definition.group_by)
        return {row[:arity]: row[arity:] for row in grouped.scan()}

    def recompute(keys: list[GroupKey]) -> dict[GroupKey, tuple]:
        if use_index:
            from .recompute import plan_index_recompute, recompute_groups_via_index

            plan = plan_index_recompute(definition)
            if plan is not None:
                estimated_probes = plan.estimated_probes_per_group * len(keys)
                if estimated_probes < len(definition.fact.table):
                    return recompute_groups_via_index(plan, keys)
        return recompute_by_scan(keys)

    return recompute


@dataclass
class MaintenanceResult:
    """Everything one maintenance run produced."""

    delta: SummaryDelta
    stats: RefreshStats
    report: BatchReport


def maintain_view(
    view: MaterializedView,
    changes: ChangeSet,
    options: PropagateOptions = PropagateOptions(),
    variant: RefreshVariant = RefreshVariant.CURSOR,
    apply_base_changes: bool = True,
    clock: BatchWindowClock | None = None,
) -> MaintenanceResult:
    """Maintain one summary table through the summary-delta method.

    Set ``apply_base_changes=False`` when the caller has already applied the
    change set to the base fact table (e.g. when maintaining several views
    over the same fact table); the change set itself is never cleared here.
    """
    clock = clock or BatchWindowClock()

    with clock.online(f"propagate:{view.name}"):
        delta = compute_summary_delta(view.definition, changes, options)

    if apply_base_changes:
        with clock.offline("apply-base"):
            changes.apply_to(view.definition.fact.table)

    with clock.offline(f"refresh:{view.name}"):
        stats = refresh(
            view,
            delta,
            recompute=base_recompute_fn(view.definition),
            variant=variant,
        )
    return MaintenanceResult(delta=delta, stats=stats, report=clock.report)
