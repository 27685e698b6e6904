"""Atomic refresh: all-or-nothing application of a summary delta.

The paper assumes refresh runs inside an exclusive batch window, but a
production warehouse also needs refresh to be *atomic*: if the process
dies mid-refresh, readers must never see a summary table with half the
delta applied.  :func:`refresh_atomically` provides that guarantee on the
in-memory engine with an undo log:

1. decisions are computed first, read-only (the OUTER_JOIN discipline);
2. MIN/MAX recomputations run *before* any view mutation (they read base
   data, which is independent of the view);
3. mutations are applied one by one, each recording its inverse;
4. any failure rolls the log back in reverse order, restoring the exact
   pre-refresh contents.

The failure hook exists for fault-injection tests: it is invoked before
every mutation with the step index and may raise.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import MaintenanceError
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..obs.lineage import record_publish as lineage_record_publish
from ..views.materialize import MaterializedView
from .deltas import SummaryDelta
from .refresh import (
    GroupLocator,
    RecomputeFn,
    RefreshPlan,
    RefreshStats,
    RefreshVariant,
    _record_refresh_stats,
    _refresh_impl,
    decide_all,
    recomputed_rows,
)

FailureHook = Callable[[int], None]

#: Fault-injection hook for the versioned path: invoked with the stage
#: name (``"build"`` before the shadow refresh, ``"publish"`` after the
#: shadow is complete but before the swap) and may raise.
StageHook = Callable[[str], None]


class UndoLog:
    """Inverse operations for the mutations applied so far."""

    def __init__(self, view: MaterializedView):
        self._view = view
        self._entries: list[tuple[str, Any]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def record_insert(self, slot: int) -> None:
        self._entries.append(("insert", slot))

    def record_delete(self, old_row: tuple) -> None:
        self._entries.append(("delete", old_row))

    def record_update(self, slot: int, old_row: tuple) -> None:
        self._entries.append(("update", (slot, old_row)))

    def rollback(self) -> None:
        """Undo everything, most recent first."""
        table = self._view.table
        for kind, payload in reversed(self._entries):
            if kind == "insert":
                table.delete_slot(payload)
            elif kind == "delete":
                table.insert(payload)
            else:
                slot, old_row = payload
                table.update_slot(slot, old_row)
        self._entries.clear()


def refresh_atomically(
    view: MaterializedView,
    delta: SummaryDelta,
    recompute: RecomputeFn | None = None,
    failure_hook: FailureHook | None = None,
) -> RefreshStats:
    """Apply *delta* to *view* atomically; roll back on any failure.

    Semantically identical to
    :func:`repro.core.refresh.refresh` — the decision logic is shared —
    but mutations are journaled and reverted if anything (including the
    injected *failure_hook*) raises.
    """
    if delta.definition.name != view.definition.name:
        raise MaintenanceError(
            f"delta for {delta.definition.name!r} applied to view "
            f"{view.definition.name!r}"
        )
    with tracing.span(
        "refresh_atomic", view=view.definition.name,
    ) as refresh_span:
        locator = GroupLocator(view)
        refresh_span.set_tag("indexed", locator.indexed)
        stats = _refresh_atomically_impl(
            view, delta, recompute, failure_hook, refresh_span, locator
        )
        _record_refresh_stats(refresh_span, stats, locator)
        view.mark_refreshed_in_place(stats.delta_rows)
        # Commit reached (a rollback raised past us): pin the delta's
        # batches to the view's new version stamp.
        lineage_record_publish(view, delta, mode="atomic")
        return stats


def refresh_versioned(
    view: MaterializedView,
    delta: SummaryDelta,
    recompute: RecomputeFn | None = None,
    failure_hook: StageHook | None = None,
) -> RefreshStats:
    """Apply *delta* to a shadow copy of *view* and atomically publish it.

    The copy-on-refresh discipline behind concurrent serving:

    1. :meth:`~repro.views.materialize.MaterializedView.begin_version`
       copies the current epoch's table (rows + index definitions) into a
       private :class:`~repro.views.materialize.ShadowVersion` whose
       certificate is seeded O(1) from the live one;
    2. the shared Figure 7 machinery refreshes the shadow in its batch
       "summary-delta join" form (:attr:`RefreshVariant.OUTER_JOIN`): a
       private shadow has no observer of intermediate states, so there is
       nothing a per-tuple cursor could buy — readers see none of it;
    3. the shadow is compacted (:meth:`Table.compact`: the slots the
       refresh's deletions emptied are filled from the tail), so a
       published table is dense and readers scan it without a liveness
       filter;
    4. :meth:`~repro.views.materialize.MaterializedView.publish` validates
       the shadow's incrementally-maintained certificate against the rows
       stored at the slots the shadow wrote and installs it with one
       reference swap.  Steps 3 and 4 run under a ``publish`` span that
       counts ``compacted_rows``, ``written_slots`` and ``validated_rows``.

    A failure anywhere — including the injected *failure_hook*, invoked
    with ``"build"`` then ``"publish"`` — simply abandons the shadow: the
    published epoch, its certificate, and every pinned reader snapshot
    are untouched, and committed epochs are never unpublished.
    """
    if delta.definition.name != view.definition.name:
        raise MaintenanceError(
            f"delta for {delta.definition.name!r} applied to view "
            f"{view.definition.name!r}"
        )
    variant = RefreshVariant.OUTER_JOIN
    with tracing.span(
        "refresh_versioned", view=view.definition.name, variant=variant.value,
    ) as span:
        shadow = view.begin_version()
        span.set_tag("base_epoch", shadow.base_epoch)
        if failure_hook is not None:
            failure_hook("build")
        locator = GroupLocator(shadow)
        span.set_tag("indexed", locator.indexed)
        stats = _refresh_impl(shadow, delta, recompute, variant, False, locator)
        if failure_hook is not None:
            failure_hook("publish")
        with tracing.span("publish", view=view.definition.name) as publish_span:
            publish_span.add("compacted_rows", shadow.table.compact())
            published = view.publish(shadow)
        span.set_tag("epoch", published.epoch)
        _record_refresh_stats(span, stats, locator)
        if tracing.enabled():
            obs_metrics.registry().counter("refresh.published_epochs").inc()
        view.freshness.mark_refreshed(stats.delta_rows)
        # Published — a failed build or publish raised before this point,
        # leaving no manifest; the batches became visible at this epoch.
        lineage_record_publish(view, delta, mode="versioned")
        return stats


def _refresh_atomically_impl(
    view: MaterializedView,
    delta: SummaryDelta,
    recompute: RecomputeFn | None,
    failure_hook: FailureHook | None,
    refresh_span,
    locator: GroupLocator,
) -> RefreshStats:
    plan = RefreshPlan(view.definition, delta.policy)
    stats = RefreshStats(delta_rows=len(delta.table))
    name = view.definition.name

    # Phase 1: read-only decisions (one scan of the delta, one locator
    # probe per delta row).  Phase 2: recomputations resolved before the
    # view is touched.
    actions = decide_all(view, delta, plan, locator)
    recomputed = recomputed_rows(name, actions, recompute)

    # Phase 3: journaled application.
    undo = UndoLog(view)
    step = 0
    try:
        for row in actions.inserts:
            if failure_hook is not None:
                failure_hook(step)
            slot = view.table.insert(row)
            undo.record_insert(slot)
            stats.inserted += 1
            step += 1
        for slot in actions.deletes:
            if failure_hook is not None:
                failure_hook(step)
            old_row = view.table.delete_slot(slot)
            undo.record_delete(old_row)
            stats.deleted += 1
            step += 1
        for slot, new_row in actions.updates:
            if failure_hook is not None:
                failure_hook(step)
            old_row = view.table.row_at(slot)
            view.table.update_slot(slot, new_row)
            undo.record_update(slot, old_row)
            stats.updated += 1
            step += 1
        for slot, new_row in recomputed:
            if failure_hook is not None:
                failure_hook(step)
            if slot is None:
                inserted_at = view.table.insert(new_row)
                undo.record_insert(inserted_at)
            else:
                old_row = view.table.row_at(slot)
                view.table.update_slot(slot, new_row)
                undo.record_update(slot, old_row)
            stats.recomputed += 1
            step += 1
    except BaseException as failure:
        undo_entries = len(undo)
        with tracing.span("rollback", view=name) as rollback_span:
            rollback_span.set_tag("cause", type(failure).__name__)
            rollback_span.add("undo_entries", undo_entries)
            rollback_span.add("rolled_back_steps", step)
            undo.rollback()
        if tracing.enabled():
            registry = obs_metrics.registry()
            registry.counter("refresh.rollbacks").inc()
            registry.counter("refresh.rolled_back_entries").inc(undo_entries)
        raise
    refresh_span.add("undo_entries", len(undo))
    if tracing.enabled():
        obs_metrics.registry().counter("refresh.undo_entries").inc(len(undo))
    return stats
