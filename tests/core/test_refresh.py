"""The Figure 7 refresh algorithm: insert/update/delete/recompute paths."""

import pytest

from repro.core import (
    MinMaxPolicy,
    PropagateOptions,
    apply_refresh,
    base_recompute_fn,
    compute_summary_delta,
    refresh,
)
from repro.errors import InconsistentDeltaError, MaintenanceError
from repro.views import MaterializedView
from repro.warehouse import ChangeSet

from ..conftest import (
    assert_view_matches_recomputation,
    build_shadow,
    minmax_definition,
    sic_definition,
    sid_definition,
)


def run_maintenance(pos, view, change_rows, delete_rows=(), *,
                    policy=MinMaxPolicy.PAPER):
    """Propagate, apply base changes, refresh; return the stats."""
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(change_rows)
    changes.delete_many(delete_rows)
    delta = compute_summary_delta(
        view.definition, changes, PropagateOptions(policy=policy)
    )
    changes.apply_to(pos.table)
    return refresh(view, delta, recompute=base_recompute_fn(view.definition))


class TestActions:
    def test_insert_new_group(self, pos):
        view = build_shadow(sid_definition(pos))
        stats = run_maintenance(pos, view, [(4, 13, 9, 2, 1.3)])
        assert stats.inserted == 1 and stats.updated == 0
        assert_view_matches_recomputation(view)

    def test_update_existing_group(self, pos):
        view = build_shadow(sid_definition(pos))
        stats = run_maintenance(pos, view, [(1, 10, 1, 7, 1.0)])
        assert stats.updated == 1 and stats.inserted == 0
        assert_view_matches_recomputation(view)

    def test_delete_group_when_count_reaches_zero(self, pos):
        view = build_shadow(sid_definition(pos))
        stats = run_maintenance(pos, view, [], [(2, 12, 3, 5, 1.6)])
        assert stats.deleted == 1
        assert_view_matches_recomputation(view)

    def test_mixed_batch(self, pos):
        view = build_shadow(sid_definition(pos))
        stats = run_maintenance(
            pos, view,
            [(1, 10, 1, 7, 1.0), (4, 13, 9, 2, 1.3)],
            [(2, 12, 3, 5, 1.6)],
        )
        assert (stats.inserted, stats.updated, stats.deleted) == (1, 1, 1)
        assert_view_matches_recomputation(view)

    def test_cancelling_changes_leave_view_intact(self, pos):
        view = build_shadow(sid_definition(pos))
        before = view.table.sorted_rows()
        stats = run_maintenance(
            pos, view,
            [(1, 10, 1, 2, 1.0)],
            [(1, 10, 1, 2, 1.0)],
        )
        assert stats.deleted == 0
        assert view.table.sorted_rows() == before


class TestMinMaxRecompute:
    def test_deleting_the_minimum_triggers_recompute(self, pos):
        view = build_shadow(sic_definition(pos))
        # (3, 'fruit') holds dates {1, 4}; delete the date-1 row.
        stats = run_maintenance(pos, view, [], [(3, 10, 1, 6, 1.0)])
        assert stats.recomputed == 1
        assert_view_matches_recomputation(view)
        by_key = {row[:2]: row for row in view.table.scan()}
        position = view.table.schema.position("EarliestSale")
        assert by_key[(3, "fruit")][position] == 4

    def test_deleting_non_minimum_updates_without_recompute(self, pos):
        view = build_shadow(sic_definition(pos))
        # (3, 'fruit') dates {1, 4}; delete the date-4 row: min survives.
        stats = run_maintenance(pos, view, [], [(3, 13, 4, 2, 1.3)])
        assert stats.recomputed == 0
        assert_view_matches_recomputation(view)

    def test_insertion_lowering_min_paper_policy_recomputes(self, pos):
        # PAPER policy is conservative: an insertion below the stored MIN
        # also trips the recompute check (delta min <= stored min).
        view = build_shadow(sic_definition(pos))
        stats = run_maintenance(pos, view, [(2, 12, 1, 1, 1.5)], [])
        assert stats.recomputed == 1
        assert_view_matches_recomputation(view)

    def test_insertion_lowering_min_split_policy_avoids_recompute(self, pos):
        view = build_shadow(sic_definition(pos))
        stats = run_maintenance(
            pos, view, [(2, 12, 1, 1, 1.5)], [], policy=MinMaxPolicy.SPLIT
        )
        assert stats.recomputed == 0
        assert_view_matches_recomputation(view)

    def test_split_policy_still_recomputes_on_min_deletion(self, pos):
        view = build_shadow(sic_definition(pos))
        stats = run_maintenance(
            pos, view, [], [(3, 10, 1, 6, 1.0)], policy=MinMaxPolicy.SPLIT
        )
        assert stats.recomputed == 1
        assert_view_matches_recomputation(view)

    def test_max_recompute(self, pos):
        view = build_shadow(minmax_definition(pos))
        # Region 'east' has dates {1, 4}; delete the date-4 row (the MAX).
        stats = run_maintenance(pos, view, [], [(3, 13, 4, 2, 1.3)])
        assert stats.recomputed == 1
        assert_view_matches_recomputation(view)

    def test_recompute_without_source_raises(self, pos):
        view = build_shadow(sic_definition(pos))
        changes = ChangeSet("pos", pos.table.schema)
        changes.delete((3, 10, 1, 6, 1.0))
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        with pytest.raises(MaintenanceError, match="recompute"):
            refresh(view, delta, recompute=None)


class TestInconsistencies:
    def test_deletion_from_missing_group_raises(self, pos):
        view = build_shadow(sid_definition(pos))
        changes = ChangeSet("pos", pos.table.schema)
        changes.delete((9, 10, 1, 1, 1.0))  # group never existed
        delta = compute_summary_delta(view.definition, changes)
        with pytest.raises(InconsistentDeltaError, match="new group"):
            refresh(view, delta)

    def test_overdeletion_raises(self, pos):
        view = build_shadow(sid_definition(pos))
        changes = ChangeSet("pos", pos.table.schema)
        for _ in range(3):  # group (1,10,1) has only 2 rows
            changes.delete((1, 10, 1, 2, 1.0))
        delta = compute_summary_delta(view.definition, changes)
        with pytest.raises(InconsistentDeltaError, match="COUNT"):
            refresh(view, delta)

    def test_mismatched_delta_and_view_raises(self, pos):
        view = build_shadow(sid_definition(pos))
        other = build_shadow(sic_definition(pos))
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert((1, 10, 1, 1, 1.0))
        delta = compute_summary_delta(other.definition, changes)
        with pytest.raises(MaintenanceError, match="applied to view"):
            refresh(view, delta)


class TestPublishedViewGuard:
    """A published view's table is an epoch readers may hold: refresh
    refuses it, and a view changes only through ``apply_refresh``."""

    def test_refresh_refuses_a_materialized_view(self, pos):
        view = MaterializedView.build(sid_definition(pos))
        pinned = view.pin()
        rows = list(view.table.rows())
        certificate = view.certificate.value
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert_many([(1, 10, 1, 7, 1.0), (4, 13, 9, 2, 1.3)])
        changes.delete((2, 12, 3, 5, 1.6))
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        with pytest.raises(MaintenanceError, match="apply_refresh"):
            refresh(view, delta, base_recompute_fn(view.definition))
        assert view.pin() is pinned
        assert view.table.rows() == rows
        assert view.certificate.value == certificate
        assert view.freshness.refresh_count == 0
        assert len(view.lineage) == 0

    def test_apply_refresh_publishes_the_next_epoch(self, pos):
        view = MaterializedView.build(sid_definition(pos))
        pinned = view.pin()
        rows = list(view.table.rows())
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert_many([(1, 10, 1, 7, 1.0), (4, 13, 9, 2, 1.3)])
        changes.delete((2, 12, 3, 5, 1.6))
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        stats = apply_refresh(view, delta, base_recompute_fn(view.definition))
        assert (stats.inserted, stats.updated, stats.deleted) == (1, 1, 1)
        assert view.epoch == 1 and view.table is not pinned.table
        assert pinned.table.rows() == rows       # the old epoch is intact
        assert view.freshness.refresh_count == 1
        assert_view_matches_recomputation(view)


class TestStats:
    def test_delta_rows_counted(self, pos):
        view = build_shadow(sid_definition(pos))
        stats = run_maintenance(
            pos, view, [(1, 10, 1, 7, 1.0), (4, 13, 9, 2, 1.3)]
        )
        assert stats.delta_rows == 2
        assert stats.touched == 2

    def test_stats_addition(self, pos):
        from repro.core import RefreshStats

        total = RefreshStats(1, 1, 0, 0, 0) + RefreshStats(2, 0, 1, 1, 1)
        assert total.delta_rows == 3 and total.touched == 4
