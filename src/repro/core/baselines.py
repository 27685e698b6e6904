"""Maintenance baselines the paper compares against.

Two alternatives to the summary-delta method:

* **Rematerialisation** — recompute each summary table from base data
  inside the batch window.  The naive per-view form lives here; the
  lattice-exploiting form the paper actually plots (derive lower views from
  higher ones) lives in :func:`repro.lattice.plan.rematerialize_with_lattice`.

* **Affected-group recomputation** — the classic delta-paradigm approach
  for aggregate views ([GMS93]/[GL95]-style): identify the groups touched
  by the change set, recompute exactly those groups from the (updated) base
  data, and splice them into the view with deletes + inserts.  Unlike the
  summary-delta method it must read the base table during the batch window,
  which is precisely the cost the paper's method avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..relational.operators import select
from ..views.materialize import MaterializedView
from ..warehouse.batch import BatchReport, BatchWindowClock
from ..warehouse.changes import ChangeSet
from .recompute import RecomputeCounts, recompute_groups_via_scan
from .refresh import RefreshStats


def rematerialize_views(
    views: Sequence[MaterializedView],
    clock: BatchWindowClock | None = None,
) -> BatchReport:
    """Recompute every view from base data (no lattice), offline."""
    clock = clock or BatchWindowClock()
    for view in views:
        with clock.offline(f"rematerialize:{view.name}"):
            view.rematerialize()
    return clock.report


@dataclass
class GroupRecomputeResult:
    """Outcome of one affected-group recomputation run."""

    affected_groups: int
    stats: RefreshStats
    report: BatchReport


def maintain_by_group_recompute(
    view: MaterializedView,
    changes: ChangeSet,
    apply_base_changes: bool = True,
    clock: BatchWindowClock | None = None,
) -> GroupRecomputeResult:
    """Delta-paradigm baseline: recompute the affected groups from base.

    Phase 1 (online) computes the set of affected group keys from the
    change set.  Phase 2 (offline) applies base changes, recomputes those
    groups in one pass over fact ⋈ dimensions (the scan gather of
    :mod:`repro.core.recompute`, every aggregate), splices the fresh rows
    into a copy of the view and publishes it as the next epoch.
    """
    clock = clock or BatchWindowClock()
    definition = view.definition
    fact = definition.fact

    with clock.online(f"affected-groups:{view.name}"):
        affected = _affected_group_keys(view, changes)

    if apply_base_changes:
        with clock.offline("apply-base"):
            changes.apply_to(fact.table)

    stats = RefreshStats(delta_rows=len(affected))
    with clock.offline(f"group-recompute:{view.name}"):
        fresh = recompute_groups_via_scan(
            definition, affected, definition.aggregates,
            RecomputeCounts("scan", groups=len(affected)),
        )
        fresh_by_key = {key: key + values for key, values in fresh.items()}
        shadow = view.begin_version()
        table = shadow.table
        index = shadow.group_key_index()
        for key in affected:
            slot = index.lookup_one(key) if index is not None else None
            new_row = fresh_by_key.get(key)
            if slot is not None and new_row is None:
                table.delete_slot(slot)
                stats.deleted += 1
            elif slot is not None:
                table.update_slot(slot, new_row)
                stats.updated += 1
            elif new_row is not None:
                table.insert(new_row)
                stats.inserted += 1
        table.compact()
        view.publish(shadow)
    return GroupRecomputeResult(
        affected_groups=len(affected), stats=stats, report=clock.report
    )


def _affected_group_keys(
    view: MaterializedView, changes: ChangeSet
) -> set[tuple[Any, ...]]:
    """Group keys of the view touched by the change set."""
    definition = view.definition
    keys: set[tuple[Any, ...]] = set()
    for rows in (changes.insertions, changes.deletions):
        if not len(rows):
            continue
        joined = definition.fact.join_dimensions(rows, definition.dimensions)
        if definition.where is not None:
            joined = select(joined, definition.where)
        positions = joined.schema.positions(definition.group_by)
        for row in joined.scan():
            keys.add(tuple(row[p] for p in positions))
    return keys
