"""The nightly maintenance driver: one call to maintain a whole warehouse.

This is the operational entry point a deployment would schedule: for every
fact table with deferred changes, maintain all its summary tables through
the summary-delta lattice, apply the base changes, clear the change sets,
and report the batch-window split.  Fact tables without pending changes
are skipped entirely — their summary tables need no work.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

from ..errors import MaintenanceError
from ..obs import tracing
from .batch import BatchReport, BatchWindowClock
from .catalog import Warehouse


@dataclass
class NightlyResult:
    """Outcome of one warehouse-wide nightly run."""

    #: Per-fact-table maintenance results (only facts that had changes).
    per_fact: dict[str, object] = field(default_factory=dict)
    report: BatchReport = field(default_factory=BatchReport)

    @property
    def facts_maintained(self) -> list[str]:
        return sorted(self.per_fact)

    @property
    def views_maintained(self) -> int:
        return sum(len(result.stats) for result in self.per_fact.values())


def run_nightly_maintenance(
    warehouse: Warehouse,
    verify: bool | str = False,
    **maintain_kwargs,
) -> NightlyResult:
    """Maintain every summary table of every changed fact table.

    Keyword arguments are forwarded to
    :func:`repro.lattice.plan.maintain_lattice` (options, use_lattice,
    auxiliary, ...).  With ``verify=True`` the run finishes by
    checking every summary table against recomputation — expensive, but the
    definitive post-deployment smoke test.  ``verify="certificate"`` checks
    through :meth:`Warehouse.verify_certificates` instead: one recompute
    digest pass per view, no row-by-row table comparison.
    """
    from ..core.propagate import PropagateOptions
    from ..lattice.plan import maintain_lattice, maintenance_record
    from ..obs.ledger import active_ledger, suspended_ledger
    from ..relational.stats import measuring

    clock: BatchWindowClock = maintain_kwargs.pop("clock", None) or BatchWindowClock()
    result = NightlyResult(report=clock.report)

    ledger = active_ledger()
    change_counts = {"insertions": 0, "deletions": 0}
    # Warehouse-wide manifest high-water marks, so the single "nightly"
    # record carries every manifest the run published.
    lineage_marks = {
        name: len(view.lineage) for name, view in warehouse.views.items()
    }
    with ExitStack() as scope:
        if ledger is not None:
            # The warehouse-wide record subsumes the per-fact ones, so
            # suspend the ledger around the per-fact calls — one nightly
            # run appends exactly one "nightly" record.
            scope.enter_context(suspended_ledger())
            access = scope.enter_context(measuring())
            access_before = access.snapshot()
        with tracing.span("nightly", facts=len(warehouse.facts)) as nightly_span:
            for fact_name in sorted(warehouse.facts):
                changes = warehouse.pending_changes(fact_name)
                if changes.is_empty():
                    continue
                change_counts["insertions"] += len(changes.insertions)
                change_counts["deletions"] += len(changes.deletions)
                with tracing.span("fact:" + fact_name) as fact_span:
                    fact_span.add("changes", changes.size())
                    views = warehouse.views_over(fact_name)
                    if views:
                        result.per_fact[fact_name] = maintain_lattice(
                            views, changes, clock=clock, **maintain_kwargs
                        )
                    else:
                        with clock.offline("apply-base", fact=fact_name):
                            changes.apply_to(warehouse.facts[fact_name].table)
                    warehouse.discard_pending(fact_name)
            nightly_span.add("facts_maintained", len(result.per_fact))
        maintained_views = [
            name
            for fact_result in result.per_fact.values()
            for name in fact_result.stats
        ]
        if ledger is not None:
            all_stats = {
                name: stats
                for fact_result in result.per_fact.values()
                for name, stats in fact_result.stats.items()
            }
            stamped = ledger.append(maintenance_record(
                kind="nightly",
                options=maintain_kwargs.get("options", PropagateOptions()),
                use_lattice=maintain_kwargs.get("use_lattice", True),
                phases=clock.report.phases,
                access=access.since(access_before),
                stats=all_stats,
                change_counts=change_counts,
                estimate=None,
                freshness={
                    name: warehouse.views[name].freshness.as_dict()
                    for name in maintained_views
                },
                lineage={
                    name: manifest.as_dict()
                    for name in maintained_views
                    for manifest in warehouse.views[name].lineage.manifests_since(
                        lineage_marks[name]
                    )
                },
            ))
            run_id = stamped["run_id"]
        else:
            run_id = None
        for name in maintained_views:
            warehouse.views[name].freshness.note_run(run_id, "nightly")

    if verify == "certificate":
        stale = [
            name
            for name, consistent in warehouse.verify_certificates().items()
            if not consistent
        ]
        if stale:
            raise MaintenanceError(
                f"nightly certificate verification failed for views: {stale}"
            )
    elif verify:
        stale = [
            name for name, consistent in warehouse.verify_views().items()
            if not consistent
        ]
        if stale:
            raise MaintenanceError(
                f"nightly verification failed for views: {stale}"
            )
    return result
