"""Single-view maintenance driver: propagate → apply base → refresh.

:func:`maintain_view` runs the full summary-delta pipeline for one summary
table, timing each phase with the batch-window clock:

1. *propagate* (online): compute the summary delta from the deferred
   change set — the summary table is not locked;
2. *apply base changes* (offline): update the base fact table;
3. *refresh* (offline): apply the delta to a copy of the summary table,
   reading the MIN/MAX values of the groups Figure 7 flags from the
   updated base data (:func:`base_recompute_fn`), and publish the copy
   as the view's next epoch.

Maintaining *many* views together, sharing work along the D-lattice, is the
job of :mod:`repro.lattice.plan`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import tracing
from ..views.definition import SummaryViewDefinition
from ..views.materialize import MaterializedView
from ..warehouse.batch import BatchReport, BatchWindowClock
from ..warehouse.changes import ChangeSet
from .deltas import SummaryDelta
from .propagate import PropagateOptions, compute_summary_delta
from .recompute import recompute_extrema
from .refresh import GroupKey, RecomputeFn, RefreshStats, apply_refresh


def base_recompute_fn(definition: SummaryViewDefinition) -> RecomputeFn:
    """Figure 7's recompute callback for *definition*: group keys → each
    group's MIN/MAX values, read from the fact table as it stands when
    called — i.e. after the deferred changes have been applied, matching
    the paper's assumption.

    Each call takes the cheapest exact plan of
    :func:`repro.core.recompute.recompute_extrema` — the ordered index
    probe, the pooled index gather or the scan — under a ``recompute``
    span tagged with the ``plan`` and counting ``groups``, ``probes`` and
    ``gathered_rows``.
    """

    def recompute(keys: list[GroupKey]) -> dict[GroupKey, tuple]:
        with tracing.span("recompute", view=definition.name) as span:
            values, counts = recompute_extrema(definition, keys)
            span.set_tag("plan", counts.plan)
            span.add("groups", counts.groups)
            span.add("probes", counts.probes)
            span.add("gathered_rows", counts.gathered_rows)
        return values

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
        stats = apply_refresh(
            view, delta, recompute=base_recompute_fn(view.definition)
        )
    return MaintenanceResult(delta=delta, stats=stats, report=clock.report)
