"""Maintenance baselines: rematerialisation and affected-group recompute."""

import pytest

from repro.core import maintain_by_group_recompute, rematerialize_views
from repro.views import MaterializedView
from repro.warehouse import BatchWindowClock, ChangeSet

from ..conftest import (
    assert_view_matches_recomputation,
    sic_definition,
    sid_definition,
)


class TestRematerializeViews:
    def test_recomputes_after_base_change(self, pos):
        view = MaterializedView.build(sid_definition(pos))
        pos.table.insert((1, 10, 1, 9, 1.0))
        report = rematerialize_views([view])
        assert_view_matches_recomputation(view)
        assert report.offline_seconds >= 0
        assert report.online_seconds == 0  # all work is in the batch window

    def test_multiple_views(self, pos):
        views = [
            MaterializedView.build(sid_definition(pos)),
            MaterializedView.build(sic_definition(pos)),
        ]
        pos.table.insert((4, 13, 9, 1, 1.3))
        rematerialize_views(views)
        for view in views:
            assert_view_matches_recomputation(view)


class TestGroupRecompute:
    @pytest.fixture
    def changes(self, pos):
        change_set = ChangeSet("pos", pos.table.schema)
        change_set.insert((1, 10, 1, 7, 1.0))
        change_set.insert((4, 13, 9, 2, 1.3))   # new group for SID
        change_set.delete((2, 12, 3, 5, 1.6))   # empties its SID group
        return change_set

    def test_matches_recomputation(self, pos, changes):
        view = MaterializedView.build(sid_definition(pos))
        maintain_by_group_recompute(view, changes)
        assert_view_matches_recomputation(view)

    def test_counts_affected_groups(self, pos, changes):
        view = MaterializedView.build(sid_definition(pos))
        result = maintain_by_group_recompute(view, changes)
        assert result.affected_groups == 3
        assert result.stats.inserted == 1
        assert result.stats.updated == 1
        assert result.stats.deleted == 1

    def test_minmax_handled_for_free(self, pos):
        # Affected-group recompute recomputes from base data anyway, so
        # MIN deletions need no special casing — at the price the paper's
        # method avoids paying.
        view = MaterializedView.build(sic_definition(pos))
        change_set = ChangeSet("pos", pos.table.schema)
        change_set.delete((3, 10, 1, 6, 1.0))  # deletes the group minimum
        maintain_by_group_recompute(view, change_set)
        assert_view_matches_recomputation(view)

    def test_phase_classification(self, pos, changes):
        view = MaterializedView.build(sid_definition(pos))
        clock = BatchWindowClock()
        maintain_by_group_recompute(view, changes, clock=clock)
        offline_names = [p.name for p in clock.report.phases if p.offline]
        # The defining drawback: group recomputation reads base data in the
        # batch window.
        assert any(name.startswith("group-recompute") for name in offline_names)

    def test_skip_base_application(self, pos, changes):
        view = MaterializedView.build(sid_definition(pos))
        changes.apply_to(pos.table)
        maintain_by_group_recompute(view, changes, apply_base_changes=False)
        assert_view_matches_recomputation(view)

    def test_publishes_the_spliced_copy_as_the_next_epoch(self, pos, changes):
        """The splice goes into a shadow copy, validated and published:
        a reader pinned on the old epoch keeps its rows."""
        from repro.obs.audit import rows_certificate

        view = MaterializedView.build(sid_definition(pos))
        pinned = view.pin()
        rows = pinned.table.rows()
        maintain_by_group_recompute(view, changes)
        assert view.epoch == 1 and view.table is not pinned.table
        assert pinned.table.rows() == rows
        assert view.certificate.value == rows_certificate(view.table.rows())
        assert view.table.verify_indexes()
        assert_view_matches_recomputation(view)
