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
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.deltas import SummaryDelta
from ..core.maintenance import base_recompute_fn
from ..core.propagate import PropagateOptions, compute_summary_delta
from ..core.refresh import (
    RefreshMode,
    RefreshStats,
    RefreshVariant,
    apply_refresh,
    resolve_refresh_mode,
)
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


def propagation_levels(lattice: ViewLattice) -> list[list[str]]:
    """Group the D-lattice nodes into parent-depth levels (antichains).

    Delegates to the lattice's memoized
    :meth:`~repro.lattice.vlattice.ViewLattice.propagation_levels` — the
    decomposition depends only on the (immutable) plan, so explain, the
    cost model, and repeated maintenance runs share one computation.
    Callers must treat the result as read-only.
    """
    return lattice.propagation_levels()


def effective_level_workers(
    options: PropagateOptions, levels: Sequence[Sequence[str]]
) -> tuple[int, bool]:
    """The worker count a level-parallel walk would use, and whether the
    schedule should fall back to the serial topological walk.

    With no explicit ``max_workers`` the pool is capped at the CPU count:
    same-level node computations are pure-CPU folds, so threads beyond
    cores only add dispatch overhead (the ``lattice`` section of
    ``BENCH_propagate.json`` recorded level-parallel as a net *slowdown* on
    a 1-CPU container before this fallback existed).  One effective worker
    means no overlap is possible, so the serial walk — identical deltas,
    zero dispatch overhead — is the right schedule.
    """
    widest = max((len(level) for level in levels), default=1)
    requested = options.max_workers or os.cpu_count() or 1
    workers = max(1, min(requested, widest))
    return workers, workers <= 1


def propagate_lattice(
    lattice: ViewLattice,
    changes: ChangeSet,
    options: PropagateOptions = PropagateOptions(),
    clock: BatchWindowClock | None = None,
) -> dict[str, SummaryDelta]:
    """Compute all summary deltas, exploiting the D-lattice.

    With ``options.level_parallel`` the strict topological walk is replaced
    by level scheduling (:func:`propagation_levels`): sibling nodes of one
    antichain are dispatched together on a thread pool, with a barrier
    between levels so every node still reads a fully computed parent delta.
    Each node's delta is computed by the same code either way, so the
    resulting deltas are identical; only wall-clock overlap changes.  Each
    node still records its own ``propagate:<name>`` phase on *clock*
    (concurrent phases overlap in wall-clock time, as in any parallel
    schedule).

    When :func:`effective_level_workers` reports a single effective worker
    the walk automatically falls back to the serial schedule; the decision
    is tagged on the ``propagate`` span (``level_parallel_fallback``) so a
    trace — and ``repro explain`` — shows which schedule actually ran.

    With shared-scan propagation active (``options.shared_scan``, default
    the ``REPRO_SHARED_SCAN`` environment switch) every level is first
    partitioned into *sibling groups* — derived nodes sharing a derivation
    parent — and each group's k group-bys are fused into a single compiled
    pass over the parent's delta (:mod:`repro.relational.fused`): one scan
    instead of k join+aggregate pipelines.  Groups, not nodes, become the
    unit of level-parallel dispatch.  Each node still gets its own
    ``propagate:<name>`` phase and ``node:<name>`` span; the one shared
    input scan is charged to the group's first node (the *scan owner*), so
    span-subtree access totals still equal the
    :class:`~repro.relational.stats.AccessStats` totals.  Nodes whose edge
    falls outside the fused-kernel subset fall back to the per-child path,
    tagged ``shared_scan_fallback`` on their group's span.
    """
    clock = clock or BatchWindowClock()
    deltas: dict[str, SummaryDelta] = {}
    levels = lattice.propagation_levels()
    depth_of = {
        name: depth for depth, level in enumerate(levels) for name in level
    }
    workers, fallback = effective_level_workers(options, levels)
    run_level_parallel = options.level_parallel and not fallback
    shared_scan = options.shared_scan_active()

    def compute(name: str,
                parent_span: "tracing.Span | None" = None) -> SummaryDelta:
        node = lattice.node(name)
        with clock.online(
            f"propagate:{name}", parent=parent_span, node=name,
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

    def compute_group(
        names: Sequence[str],
        parent_span: "tracing.Span | None" = None,
    ) -> dict[str, SummaryDelta]:
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
                return {
                    name: compute(name, parent_span=parent_span)
                    for name in names
                }
            group_span.set_tag("scans_saved", len(names) - 1)
            if tracing.enabled():
                registry = obs_metrics.registry()
                registry.counter("propagate.shared_scan.groups").inc()
                registry.counter("propagate.shared_scan.scans_saved").inc(
                    len(names) - 1
                )
            source = parent_delta.table
            n = len(source)
            if options.parallel:
                # Shared-scan × parallel compose: chunk the one input scan.
                # All three backends work — the process backend ships the
                # (picklable) fused children and recompiles the kernel per
                # worker process, degrading to threads if pickling fails.
                fold_strategy = "chunked"
            elif source.storage == "column" and scan.supports_columns:
                fold_strategy = "columns"
            else:
                fold_strategy = "rows"
            group_span.set_tag("fold", fold_strategy)
            out: dict[str, SummaryDelta] = {}
            groups: list[dict] = []
            probes: list[int] = []
            for index, name in enumerate(names):
                with clock.online(
                    f"propagate:{name}", parent=parent_span, node=name,
                    kind="derived", level=depth_of[name], shared_scan=True,
                ), tracing.span("node:" + name) as node_span:
                    if index == 0:
                        # The single input scan (and the fold it feeds) is
                        # charged to — and timed inside — the scan owner.
                        charge("rows_scanned", n, node_span)
                        if fold_strategy == "chunked":
                            groups, probes = scan.fold_chunked(
                                source.rows(), options.chunks,
                                backend=options.backend,
                                max_workers=options.max_workers,
                            )
                        elif fold_strategy == "columns":
                            groups, probes = scan.fold_columns(
                                source.columns(), n
                            )
                        else:
                            groups, probes = scan.fold(source.rows())
                    charge("index_lookups", probes[index], node_span)
                    table = scan.finalize(
                        index, groups[index], storage=source.storage
                    )
                    node_span.add("delta_rows", len(table))
                    out[name] = SummaryDelta(
                        lattice.node(name).definition, table, options.policy,
                        lineage=parent_delta.lineage,
                    )
            return out

    def level_units(level: Sequence[str]) -> list[tuple[str, ...]]:
        """Partition one level into dispatch units: sibling groups under
        shared scan, single nodes otherwise (roots are always single)."""
        if not shared_scan:
            return [(name,) for name in level]
        units: list[tuple[str, ...]] = []
        group_at: dict[str, int] = {}
        for name in level:
            node = lattice.node(name)
            if node.is_root:
                units.append((name,))
                continue
            position = group_at.get(node.parent)
            if position is None:
                group_at[node.parent] = len(units)
                units.append((name,))
            else:
                units[position] = units[position] + (name,)
        return units

    def run_unit(
        unit: tuple[str, ...],
        parent_span: "tracing.Span | None" = None,
    ) -> dict[str, SummaryDelta]:
        if len(unit) == 1:
            node = lattice.node(unit[0])
            if (
                not shared_scan
                or node.is_root
                # Cost-based fusion (mirrored by estimate_plan_cost): a
                # lone child with no dimension joins gains nothing from
                # the fused kernel, so replay the edge directly.
                or not group_fusion_choice(
                    [len(node.edge.dimension_joins)]
                )
            ):
                return {unit[0]: compute(unit[0], parent_span=parent_span)}
        return compute_group(unit, parent_span=parent_span)

    with tracing.span(
        "propagate", views=len(lattice.order),
        level_parallel=run_level_parallel, shared_scan=shared_scan,
    ) as propagate_span:
        if options.level_parallel and fallback:
            propagate_span.set_tag("level_parallel_fallback", "single-worker")
        if not run_level_parallel:
            if not shared_scan:
                for name in lattice.order:
                    deltas[name] = compute(name)
                return deltas
            for level in levels:
                for unit in level_units(level):
                    deltas.update(run_unit(unit))
            # Report deltas in lattice order regardless of the level walk.
            return {name: deltas[name] for name in lattice.order}

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for depth, level in enumerate(levels):
                units = level_units(level)
                with tracing.span(
                    f"level:{depth}", nodes=len(level), units=len(units),
                ) as level_span:
                    if len(units) == 1:  # no dispatch overhead for singletons
                        deltas.update(run_unit(units[0]))
                        continue
                    # Worker threads have their own (empty) span stacks, so
                    # their node spans must be parented explicitly.
                    anchor = (
                        level_span
                        if level_span is not tracing.NOOP_SPAN
                        else None
                    )
                    results = pool.map(
                        lambda unit: run_unit(unit, parent_span=anchor), units
                    )
                    for computed in results:
                        deltas.update(computed)
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
    variant: RefreshVariant = RefreshVariant.CURSOR,
    clock: BatchWindowClock | None = None,
    mode: RefreshMode | str | None = None,
) -> dict[str, RefreshStats]:
    """Refresh every view from its delta (inside the batch window).

    *mode* selects the application discipline per
    :class:`~repro.core.refresh.RefreshMode` (``None`` resolves the
    ``REPRO_VERSIONED`` default); ``VERSIONED`` turns the offline
    refresh phases into copy-and-swap publishes that concurrent readers
    can overlap with."""
    clock = clock or BatchWindowClock()
    resolved_mode = resolve_refresh_mode(mode)
    stats: dict[str, RefreshStats] = {}
    for name, view in views.items():
        delta = deltas.get(name)
        if delta is None:
            raise MaintenanceError(f"no summary delta computed for view {name!r}")
        with clock.offline(f"refresh:{name}", node=name):
            stats[name] = apply_refresh(
                view,
                delta,
                recompute=base_recompute_fn(view.definition),
                variant=variant,
                mode=resolved_mode,
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
    variant: RefreshVariant = RefreshVariant.CURSOR,
    use_lattice: bool = True,
    lattice: ViewLattice | None = None,
    apply_base_changes: bool = True,
    auxiliary: Sequence = (),
    clock: BatchWindowClock | None = None,
    mode: RefreshMode | str | None = None,
) -> LatticeMaintenanceResult:
    """Nightly summary-delta maintenance for a set of views.

    All views must aggregate the same fact table, the one *changes* applies
    to.  ``use_lattice=False`` gives the paper's propagate-without-lattice
    baseline while keeping refresh identical.  *mode* picks the refresh
    discipline (in-place / atomic / versioned copy-and-swap); ``None``
    resolves the ``REPRO_VERSIONED`` environment default.

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
    mode = resolve_refresh_mode(mode)
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
                    lattice,
                    collect_statistics(lattice, changes, views=views),
                    shared_scan=options.shared_scan_active(),
                )
            partitioned = (
                getattr(fact, "partition", None)
                if options.partition_active() else None
            )
            if partitioned is not None:
                from ..warehouse.partition import propagate_partitioned

                deltas = propagate_partitioned(
                    lattice, partitioned, changes, options, clock
                )
            else:
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
                partitioned = (
                    getattr(fact, "partition", None)
                    if options.partition_active() else None
                )
                if partitioned is not None:
                    # Per-shard apply: whole expired segments drop O(1),
                    # semantics identical to ChangeSet.apply_to.
                    partitioned.apply_changes(changes)
                else:
                    changes.apply_to(views[0].definition.fact.table)

        stats = refresh_lattice(views_by_name, deltas, variant, clock, mode=mode)
        result = LatticeMaintenanceResult(
            deltas=deltas, stats=stats, report=clock.report
        )
        if ledger is not None:
            stamped = ledger.append(maintenance_record(
                kind="maintain_lattice",
                options=options,
                use_lattice=use_lattice,
                variant=variant,
                mode=mode,
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


def engine_config(
    options: PropagateOptions,
    use_lattice: bool,
    variant: RefreshVariant,
    mode: RefreshMode | str | None = None,
) -> dict:
    """The engine configuration as plain data (the ledger's ``engine``)."""
    config = dataclasses.asdict(options)
    config["policy"] = options.policy.value
    config["use_lattice"] = use_lattice
    config["variant"] = variant.value
    config["mode"] = resolve_refresh_mode(mode).value
    return config


def maintenance_record(
    kind: str,
    options: PropagateOptions,
    use_lattice: bool,
    variant: RefreshVariant,
    phases: Sequence,
    access,
    stats: Mapping[str, RefreshStats],
    change_counts: Mapping[str, int],
    estimate: PlanCostEstimate | None,
    freshness: Mapping[str, dict] | None = None,
    mode: RefreshMode | str | None = None,
    lineage: Mapping[str, dict] | None = None,
) -> dict:
    """Build one run-ledger record (see :mod:`repro.obs.ledger` for the
    schema).  Only depth-0 phases are recorded — nested phases would
    double-count the window, exactly as in :class:`BatchReport`."""
    top_level = [phase for phase in phases if phase.depth == 0]
    record = {
        "kind": kind,
        "engine": engine_config(options, use_lattice, variant, mode),
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
