"""The single-view maintenance driver (propagate → apply → refresh)."""

import pytest

from repro.core import (
    MinMaxPolicy,
    PropagateOptions,
    maintain_view,
)
from repro.views import MaterializedView
from repro.warehouse import BatchWindowClock, ChangeSet

from ..conftest import (
    assert_view_matches_recomputation,
    sic_definition,
    sid_definition,
)


@pytest.fixture
def view(pos):
    return MaterializedView.build(sid_definition(pos))


@pytest.fixture
def changes(pos):
    change_set = ChangeSet("pos", pos.table.schema)
    change_set.insert((1, 10, 1, 7, 1.0))
    change_set.insert((4, 13, 9, 2, 1.3))
    change_set.delete((2, 12, 3, 5, 1.6))
    return change_set


class TestDriver:
    def test_full_run_matches_recomputation(self, pos, view, changes):
        maintain_view(view, changes)
        assert_view_matches_recomputation(view)

    def test_base_changes_applied(self, pos, view, changes):
        before = len(pos.table)
        maintain_view(view, changes)
        assert len(pos.table) == before + 1  # +2 −1

    def test_apply_base_changes_can_be_skipped(self, pos, view, changes):
        before = len(pos.table)
        changes_copy_applied_manually = changes
        # Caller applies base changes itself (e.g. multi-view maintenance).
        delta_result = maintain_view(
            view, changes_copy_applied_manually, apply_base_changes=False
        )
        assert len(pos.table) == before
        assert delta_result.stats.touched > 0

    def test_change_set_not_cleared(self, view, changes):
        maintain_view(view, changes)
        assert changes.size() == 3

    def test_phases_timed(self, pos, view, changes):
        clock = BatchWindowClock()
        result = maintain_view(view, changes, clock=clock)
        names = [phase.name for phase in result.report.phases]
        assert names == ["propagate:SID_sales", "apply-base", "refresh:SID_sales"]
        offline = [phase.offline for phase in result.report.phases]
        assert offline == [False, True, True]

    def test_result_carries_delta_and_stats(self, pos, view, changes):
        result = maintain_view(view, changes)
        assert len(result.delta) == 3
        assert result.stats.inserted == 1
        assert result.stats.deleted == 1
        assert result.stats.updated == 1

    @pytest.mark.parametrize("policy", list(MinMaxPolicy))
    def test_all_option_combinations(self, pos, policy):
        view = MaterializedView.build(sic_definition(pos))
        change_set = ChangeSet("pos", pos.table.schema)
        change_set.insert((2, 13, 1, 3, 1.2))
        change_set.delete((3, 10, 1, 6, 1.0))
        maintain_view(
            view,
            change_set,
            options=PropagateOptions(policy=policy, pre_aggregate=True),
        )
        assert_view_matches_recomputation(view)

    def test_empty_change_set_is_a_noop(self, pos, view):
        before = view.table.sorted_rows()
        result = maintain_view(view, ChangeSet("pos", pos.table.schema))
        assert view.table.sorted_rows() == before
        assert result.stats.touched == 0
