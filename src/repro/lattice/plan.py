"""Multi-view maintenance: propagate and refresh a whole lattice.

This is the paper's Section 5.5 put together:

* :func:`propagate_lattice` computes every summary delta in topological
  order — roots directly from the change set, every other view's delta from
  its parent's delta through the shared edge query (Theorem 5.1).  Because
  a summary delta is already aggregated, deriving from it touches far fewer
  tuples than re-deriving from the raw changes: this is the gap between the
  solid and dotted "Propagate" lines of Figure 9.
* :func:`propagate_without_lattice` is the dotted-line baseline — every
  delta computed independently from the change set.
* :func:`refresh_lattice` refreshes every materialised view from its delta
  (order is immaterial; refresh never reads other summary tables).
* :func:`maintain_lattice` is the nightly driver: propagate online, apply
  base changes offline, refresh offline.
* :func:`rematerialize_with_lattice` is the paper's "Rematerialize" series:
  recompute the roots from base data and derive every other view from its
  parent, all inside the batch window.
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.deltas import SummaryDelta
from ..core.maintenance import base_recompute_fn
from ..core.propagate import PropagateOptions, compute_summary_delta
from ..core.refresh import RefreshStats, apply_refresh
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..obs.ledger import active_ledger
from ..errors import LatticeError, MaintenanceError
from ..relational.fused import prepare_fused_scan
from ..relational.stats import collector as stats_collector
from ..relational.stats import measuring
from ..views.materialize import MaterializedView, compute_rows
from ..warehouse.batch import BatchReport, BatchWindowClock
from ..warehouse.changes import ChangeSet
from .cost import (
    PlanCostEstimate,
    collect_statistics,
    estimate_plan_cost,
    group_fusion_choice,
)
from .vlattice import ViewLattice


def build_lattice_for_views(
    views: Sequence[MaterializedView],
) -> ViewLattice:
    """Build a V-lattice for materialised views, using their current row
    counts as the size hints for cost-based parent selection."""
    definitions = [view.definition for view in views]
    size_hints = {view.name: len(view.table) for view in views}
    return ViewLattice.build(definitions, size_hints=size_hints)


def propagate_lattice(
    lattice: ViewLattice,
    changes: ChangeSet,
    options: PropagateOptions = PropagateOptions(),
    clock: BatchWindowClock | None = None,
) -> dict[str, SummaryDelta]:
    """Compute all summary deltas, exploiting the D-lattice.

    Nodes are computed one after another in topological order: roots
    directly from the change set, every other node from its parent's delta
    through the Theorem 5.1 edge query.  Each node records its own
    ``propagate:<name>`` phase on *clock*.

    The roots come first, then the derived nodes as *sibling groups*
    (:meth:`~repro.lattice.vlattice.ViewLattice.sibling_groups`, level by
    level) — derived nodes sharing a derivation parent — whose k group-bys
    are fused into a single compiled pass over the parent's delta
    (:mod:`repro.relational.fused`): one scan instead of k join+aggregate
    pipelines.  Each node still gets its own ``propagate:<name>`` phase and
    ``node:<name>`` span; the one shared input scan is charged to the
    group's first node (the *scan owner*), so span-subtree access totals
    still equal the :class:`~repro.relational.stats.AccessStats` totals.
    Nodes whose edge falls outside the fused-kernel subset fall back to
    the per-child path, tagged ``shared_scan_fallback`` on their group's
    span.
    """
    clock = clock or BatchWindowClock()
    deltas: dict[str, SummaryDelta] = {}
    levels = lattice.propagation_levels()
    depth_of = {
        name: depth for depth, level in enumerate(levels) for name in level
    }

    def compute(name: str) -> SummaryDelta:
        node = lattice.node(name)
        with clock.online(
            f"propagate:{name}", node=name,
            kind="root" if node.is_root else "derived",
            level=depth_of[name],
        ), tracing.span("node:" + name) as node_span:
            if node.is_root:
                return compute_summary_delta(node.definition, changes, options)
            parent_delta = deltas.get(node.parent)
            if parent_delta is None:
                raise LatticeError(
                    f"parent delta {node.parent!r} missing for {name!r}"
                )
            rows = node.edge.apply_delta(parent_delta.table, options.policy)
            node_span.add("delta_rows", len(rows))
            return SummaryDelta(
                node.definition, rows, options.policy,
                lineage=parent_delta.lineage,
            )

    def charge(counter: str, amount: int, span: "tracing.Span") -> None:
        """Charge *amount* access units to the active collector and the
        node span, mirroring how the relational operators account (both
        sides, so span subtotals equal AccessStats totals)."""
        if not amount:
            return
        stats = stats_collector()
        if stats is not None:
            stats.add(counter, amount)
        if span is not tracing.NOOP_SPAN:
            span.add(counter, amount)

    def compute_group(names: Sequence[str]) -> dict[str, SummaryDelta]:
        """Compute one sibling group's deltas through the fused kernel,
        falling back to the per-child path when the kernel declines."""
        parent_name = lattice.node(names[0]).parent
        parent_delta = deltas.get(parent_name)
        if parent_delta is None:
            raise LatticeError(
                f"parent delta {parent_name!r} missing for {names[0]!r}"
            )
        children = [
            lattice.node(name).edge.fused_child(options.policy)
            for name in names
        ]
        scan = prepare_fused_scan(parent_delta.table.schema, children)
        with tracing.span(
            f"shared_scan:{parent_name}", children=len(names),
        ) as group_span:
            if scan is None:
                group_span.set_tag("shared_scan_fallback", "unsupported-edge")
                return {name: compute(name) for name in names}
            group_span.set_tag("scans_saved", len(names) - 1)
            if tracing.enabled():
                registry = obs_metrics.registry()
                registry.counter("propagate.shared_scan.groups").inc()
                registry.counter("propagate.shared_scan.scans_saved").inc(
                    len(names) - 1
                )
            source = parent_delta.table
            n = len(source)
            out: dict[str, SummaryDelta] = {}
            groups: list[dict] = []
            probes: list[int] = []
            for index, name in enumerate(names):
                with clock.online(
                    f"propagate:{name}", node=name,
                    kind="derived", level=depth_of[name], shared_scan=True,
                ), tracing.span("node:" + name) as node_span:
                    if index == 0:
                        # The single input scan (and the fold it feeds) is
                        # charged to — and timed inside — the scan owner.
                        charge("rows_scanned", n, node_span)
                        groups, probes = scan.fold_columns(
                            source.columns(), n
                        )
                    charge("index_lookups", probes[index], node_span)
                    table = scan.finalize(index, groups[index])
                    node_span.add("delta_rows", len(table))
                    out[name] = SummaryDelta(
                        lattice.node(name).definition, table, options.policy,
                        lineage=parent_delta.lineage,
                    )
            return out

    with tracing.span("propagate", views=len(lattice.order)):
        for name in lattice.order:
            if lattice.node(name).is_root:
                deltas[name] = compute(name)
        # Sibling groups come level by level, so every parent delta is
        # ready before its group runs.
        for group in lattice.sibling_groups():
            # Cost-based fusion (mirrored by estimate_plan_cost): a lone
            # child with no dimension joins gains nothing from the fused
            # kernel, so replay the edge directly.
            if group_fusion_choice(
                [len(lattice.node(name).edge.dimension_joins) for name in group]
            ):
                deltas.update(compute_group(group))
            else:
                deltas[group[0]] = compute(group[0])
        # Report deltas in lattice order regardless of the group walk.
        return {name: deltas[name] for name in lattice.order}


def propagate_without_lattice(
    definitions: Sequence,
    changes: ChangeSet,
    options: PropagateOptions = PropagateOptions(),
    clock: BatchWindowClock | None = None,
) -> dict[str, SummaryDelta]:
    """Baseline: compute every delta directly from the change set."""
    clock = clock or BatchWindowClock()
    deltas: dict[str, SummaryDelta] = {}
    for definition in definitions:
        with clock.online(f"propagate-direct:{definition.name}",
                          node=definition.name):
            deltas[definition.name] = compute_summary_delta(
                definition, changes, options
            )
    return deltas


def refresh_lattice(
    views: Mapping[str, MaterializedView],
    deltas: Mapping[str, SummaryDelta],
    clock: BatchWindowClock | None = None,
) -> dict[str, RefreshStats]:
    """Refresh every view from its delta (inside the batch window), each
    through :func:`~repro.core.refresh.apply_refresh`: a copy-and-swap
    publish that concurrent readers can overlap with."""
    clock = clock or BatchWindowClock()
    stats: dict[str, RefreshStats] = {}
    for name, view in views.items():
        delta = deltas.get(name)
        if delta is None:
            raise MaintenanceError(f"no summary delta computed for view {name!r}")
        with clock.offline(f"refresh:{name}", node=name):
            stats[name] = apply_refresh(
                view, delta, recompute=base_recompute_fn(view.definition)
            )
    return stats


@dataclass
class LatticeMaintenanceResult:
    """Outcome of one full nightly maintenance run."""

    deltas: dict[str, SummaryDelta] = field(default_factory=dict)
    stats: dict[str, RefreshStats] = field(default_factory=dict)
    report: BatchReport = field(default_factory=BatchReport)

    @property
    def propagate_seconds(self) -> float:
        return self.report.online_seconds

    @property
    def refresh_seconds(self) -> float:
        return sum(
            phase.seconds
            for phase in self.report.phases
            if phase.offline and phase.name.startswith("refresh:")
        )


def maintain_lattice(
    views: Sequence[MaterializedView],
    changes: ChangeSet,
    options: PropagateOptions = PropagateOptions(),
    use_lattice: bool = True,
    lattice: ViewLattice | None = None,
    apply_base_changes: bool = True,
    auxiliary: Sequence = (),
    clock: BatchWindowClock | None = None,
) -> LatticeMaintenanceResult:
    """Nightly summary-delta maintenance for a set of views.

    All views must aggregate the same fact table, the one *changes* applies
    to.  ``use_lattice=False`` gives the paper's propagate-without-lattice
    baseline while keeping refresh identical.

    *auxiliary* accepts extra view *definitions* that are not materialised:
    their summary deltas are computed and placed in the lattice so that
    several materialised views can derive from one shared intermediate —
    the partially-materialised-lattice idea of Section 3.4 applied to the
    D-lattice.  Auxiliary deltas are never refreshed into any table.
    """
    if not views:
        raise MaintenanceError("no views to maintain")
    fact = views[0].definition.fact
    if any(view.definition.fact is not fact for view in views):
        raise MaintenanceError(
            "views span multiple fact tables; maintain each fact table's "
            "views separately"
        )
    clock = clock or BatchWindowClock()
    views_by_name = {view.name: view for view in views}

    ledger = active_ledger()
    phase_mark = len(clock.report.phases)
    estimate: PlanCostEstimate | None = None
    change_counts = {
        "insertions": len(changes.insertions),
        "deletions": len(changes.deletions),
    }
    # Manifest high-water marks: anything recorded past these during this
    # run is ours, and goes into the ledger record's lineage section.
    lineage_marks = {view.name: len(view.lineage) for view in views}
    with ExitStack() as scope:
        if ledger is not None:
            access = scope.enter_context(measuring())
            access_before = access.snapshot()

        if use_lattice:
            if lattice is None:
                definitions = [view.definition for view in views]
                size_hints = {view.name: len(view.table) for view in views}
                for definition in auxiliary:
                    resolved = (
                        definition if definition.is_resolved()
                        else definition.resolved()
                    )
                    if resolved.name in views_by_name:
                        raise MaintenanceError(
                            f"auxiliary node {resolved.name!r} clashes with a "
                            "materialised view"
                        )
                    definitions.append(resolved)
                lattice = ViewLattice.build(definitions, size_hints=size_hints)
            if ledger is not None:
                # Predict before anything runs: table sizes and pending
                # changes are exactly what the plan will see.
                estimate = estimate_plan_cost(
                    lattice, collect_statistics(lattice, changes, views=views)
                )
            deltas = propagate_lattice(lattice, changes, options, clock)
            deltas = {
                name: delta for name, delta in deltas.items()
                if name in views_by_name
            }
        else:
            deltas = propagate_without_lattice(
                [view.definition for view in views], changes, options, clock
            )

        if apply_base_changes:
            with clock.offline("apply-base", fact=fact.name):
                changes.apply_to(fact.table)

        stats = refresh_lattice(views_by_name, deltas, clock)
        result = LatticeMaintenanceResult(
            deltas=deltas, stats=stats, report=clock.report
        )
        if ledger is not None:
            stamped = ledger.append(maintenance_record(
                kind="maintain_lattice",
                options=options,
                use_lattice=use_lattice,
                phases=clock.report.phases[phase_mark:],
                access=access.since(access_before),
                stats=stats,
                change_counts=change_counts,
                estimate=estimate,
                freshness={
                    view.name: view.freshness.as_dict() for view in views
                },
                lineage={
                    view.name: manifest.as_dict()
                    for view in views
                    for manifest in view.lineage.manifests_since(
                        lineage_marks[view.name]
                    )
                },
            ))
            run_id = stamped["run_id"]
        else:
            run_id = None
        for view in views:
            view.freshness.note_run(run_id, "maintain_lattice")
    return result


def engine_config(options: PropagateOptions, use_lattice: bool) -> dict:
    """The engine configuration as plain data (the ledger's ``engine``)."""
    config = dataclasses.asdict(options)
    config["policy"] = options.policy.value
    config["use_lattice"] = use_lattice
    return config


def maintenance_record(
    kind: str,
    options: PropagateOptions,
    use_lattice: bool,
    phases: Sequence,
    access,
    stats: Mapping[str, RefreshStats],
    change_counts: Mapping[str, int],
    estimate: PlanCostEstimate | None,
    freshness: Mapping[str, dict] | None = None,
    lineage: Mapping[str, dict] | None = None,
) -> dict:
    """Build one run-ledger record (see :mod:`repro.obs.ledger` for the
    schema).  Only depth-0 phases are recorded — nested phases would
    double-count the window, exactly as in :class:`BatchReport`."""
    top_level = [phase for phase in phases if phase.depth == 0]
    record = {
        "kind": kind,
        "engine": engine_config(options, use_lattice),
        "phases": [
            {"name": p.name, "seconds": p.seconds, "offline": p.offline}
            for p in top_level
        ],
        "online_s": sum(p.seconds for p in top_level if not p.offline),
        "offline_s": sum(p.seconds for p in top_level if p.offline),
        "access": access.as_dict() if access is not None else None,
        "views": {
            name: {
                "delta_rows": s.delta_rows,
                "inserted": s.inserted,
                "updated": s.updated,
                "deleted": s.deleted,
                "recomputed": s.recomputed,
            }
            for name, s in sorted(stats.items())
        },
        "changes": dict(change_counts),
        "freshness": {
            name: dict(fields) for name, fields in sorted(freshness.items())
        } if freshness is not None else None,
        "lineage": {
            name: dict(manifest) for name, manifest in sorted(lineage.items())
        } if lineage is not None else None,
        "predictions": None,
        "predicted_with_lattice": None,
        "predicted_without_lattice": None,
    }
    if estimate is not None:
        record["predictions"] = {
            node.name: {
                "propagate_accesses": node.propagate_accesses,
                "delta_rows": node.delta_rows,
            }
            for node in estimate.nodes.values()
        }
        record["predicted_with_lattice"] = estimate.with_lattice_accesses
        record["predicted_without_lattice"] = estimate.without_lattice_accesses
    return record


def rematerialize_with_lattice(
    views: Sequence[MaterializedView],
    lattice: ViewLattice | None = None,
    clock: BatchWindowClock | None = None,
) -> BatchReport:
    """Recompute all views inside the batch window, deriving along the
    lattice (the paper's "Rematerialize" series); each view's fresh table
    is published as its next epoch."""
    clock = clock or BatchWindowClock()
    lattice = lattice or build_lattice_for_views(views)
    views_by_name = {view.name: view for view in views}
    for name in lattice.order:
        node = lattice.node(name)
        view = views_by_name.get(name)
        if view is None:
            raise MaintenanceError(f"lattice mentions unknown view {name!r}")
        with clock.offline(f"rematerialize:{name}"):
            if node.is_root:
                rows = compute_rows(node.definition)
            else:
                # Topological order: the parent's new epoch is installed.
                rows = node.edge.apply(views_by_name[node.parent].table)
            view.install(rows)
    return clock.report
