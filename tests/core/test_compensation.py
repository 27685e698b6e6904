"""Compensated reads: fresh answers from a stale view + pending delta."""

import pytest

from repro.core import compute_summary_delta, read_through_delta
from repro.errors import MaintenanceError
from repro.views import MaterializedView, compute_rows
from repro.warehouse import ChangeSet

from ..conftest import sic_definition, sid_definition


@pytest.fixture
def staged(pos):
    view = MaterializedView.build(sid_definition(pos))
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert((1, 10, 1, 7, 1.0))
    changes.insert((4, 13, 9, 2, 1.3))
    changes.delete((2, 12, 3, 5, 1.6))
    delta = compute_summary_delta(view.definition, changes)
    return pos, view, changes, delta


class TestReadThroughDelta:
    def test_snapshot_reflects_pending_changes(self, staged):
        pos, view, changes, delta = staged
        snapshot = read_through_delta(view, delta)
        # The compensated snapshot equals recomputation over base+changes.
        changes.apply_to(pos.table)
        expected = compute_rows(view.definition).sorted_rows()
        assert snapshot.table.sorted_rows() == expected

    def test_stored_view_untouched(self, staged):
        pos, view, changes, delta = staged
        before = view.table.sorted_rows()
        read_through_delta(view, delta)
        assert view.table.sorted_rows() == before

    def test_snapshot_is_queryable(self, staged):
        pos, view, changes, delta = staged
        snapshot = read_through_delta(view, delta)
        read = snapshot.read()
        assert "TotalQuantity" in read.schema
        # A private next-epoch shadow, never published.
        assert (snapshot.base_epoch, snapshot.epoch, view.epoch) == (0, 1, 0)

    def test_refresh_after_compensated_read_agrees(self, staged):
        from repro.core import apply_refresh, base_recompute_fn

        pos, view, changes, delta = staged
        snapshot = read_through_delta(view, delta)
        changes.apply_to(pos.table)
        apply_refresh(view, delta, recompute=base_recompute_fn(view.definition))
        assert view.table.sorted_rows() == snapshot.table.sorted_rows()

    def test_pinned_earlier_epoch_is_compensated(self, staged):
        """A reader that pinned epoch 0 compensates epoch 0's rows, even
        after the view has published epoch 1."""
        from repro.core import apply_refresh

        pos, view, changes, delta = staged
        pinned = view.pin()
        expected = read_through_delta(view, delta).table.sorted_rows()
        other = ChangeSet("pos", pos.table.schema)
        other.insert((2, 11, 2, 4, 1.1))
        other_delta = compute_summary_delta(view.definition, other)
        other.apply_to(pos.table)
        apply_refresh(view, other_delta)
        assert view.epoch == 1
        snapshot = read_through_delta(view, delta, table=pinned.table)
        assert snapshot.table.sorted_rows() == expected
        assert snapshot.table is not pinned.table

    def test_minmax_threat_fails_fast_without_recompute(self, pos):
        view = MaterializedView.build(sic_definition(pos))
        changes = ChangeSet("pos", pos.table.schema)
        changes.delete((3, 10, 1, 6, 1.0))  # deletes a group minimum
        delta = compute_summary_delta(view.definition, changes)
        with pytest.raises(MaintenanceError, match="recompute"):
            read_through_delta(view, delta)

    def test_minmax_safe_cases_work(self, pos):
        view = MaterializedView.build(sic_definition(pos))
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert((2, 13, 9, 1, 1.2))  # date above every minimum
        delta = compute_summary_delta(view.definition, changes)
        snapshot = read_through_delta(view, delta)
        changes.apply_to(pos.table)
        assert snapshot.table.sorted_rows() == compute_rows(
            view.definition
        ).sorted_rows()
