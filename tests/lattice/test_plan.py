"""Multi-view maintenance plans: propagate/refresh/rematerialise a lattice."""

import pytest

from repro.core import MinMaxPolicy, PropagateOptions
from repro.errors import MaintenanceError
from repro.lattice import (
    build_lattice_for_views,
    maintain_lattice,
    propagate_without_lattice,
    rematerialize_with_lattice,
)
from repro.views import MaterializedView, compute_rows
from repro.warehouse import BatchWindowClock
from repro.workload import (
    RetailConfig,
    generate_retail,
    insertion_generating_changes,
    retail_view_definitions,
    update_generating_changes,
)

from ..conftest import assert_view_matches_recomputation


def fresh_setup(seed=31, pos_rows=2000):
    data = generate_retail(RetailConfig(pos_rows=pos_rows, seed=seed))
    views = [
        MaterializedView.build(definition)
        for definition in retail_view_definitions(data.pos)
    ]
    return data, views


class TestMaintainLattice:
    @pytest.mark.parametrize("use_lattice", [True, False])
    def test_update_generating_changes(self, use_lattice):
        data, views = fresh_setup()
        changes = update_generating_changes(data.pos, data.config, 200, data.rng)
        maintain_lattice(views, changes, use_lattice=use_lattice)
        for view in views:
            assert_view_matches_recomputation(view)

    def test_insertion_generating_changes(self):
        data, views = fresh_setup()
        changes = insertion_generating_changes(data.pos, data.config, 200, data.rng)
        result = maintain_lattice(views, changes)
        for view in views:
            assert_view_matches_recomputation(view)
        # Date-grouped views receive only inserts for new-date changes.
        assert result.stats["SID_sales"].updated == 0
        assert result.stats["SID_sales"].inserted > 0
        assert result.stats["sCD_sales"].updated == 0
        # Date-less views are updated, not extended.
        assert result.stats["sR_sales"].inserted == 0

    @pytest.mark.parametrize("policy", list(MinMaxPolicy))
    def test_policy_matrix(self, policy):
        data, views = fresh_setup(seed=37, pos_rows=1000)
        changes = update_generating_changes(data.pos, data.config, 100, data.rng)
        maintain_lattice(
            views, changes, options=PropagateOptions(policy=policy)
        )
        for view in views:
            assert_view_matches_recomputation(view)

    def test_propagate_online_refresh_offline(self):
        data, views = fresh_setup(seed=41, pos_rows=500)
        changes = update_generating_changes(data.pos, data.config, 50, data.rng)
        clock = BatchWindowClock()
        maintain_lattice(views, changes, clock=clock)
        for phase in clock.report.phases:
            if phase.name.startswith("propagate"):
                assert not phase.offline
            else:
                assert phase.offline

    def test_mixed_fact_tables_rejected(self):
        data_a, views_a = fresh_setup(seed=43, pos_rows=200)
        data_b, views_b = fresh_setup(seed=44, pos_rows=200)
        changes = update_generating_changes(data_a.pos, data_a.config, 10, data_a.rng)
        with pytest.raises(MaintenanceError, match="multiple fact tables"):
            maintain_lattice(views_a + views_b, changes)

    def test_empty_view_list_rejected(self):
        data, _views = fresh_setup(seed=45, pos_rows=100)
        changes = update_generating_changes(data.pos, data.config, 10, data.rng)
        with pytest.raises(MaintenanceError, match="no views"):
            maintain_lattice([], changes)

    def test_result_surfaces_per_view_deltas_and_stats(self):
        data, views = fresh_setup(seed=47, pos_rows=500)
        changes = update_generating_changes(data.pos, data.config, 50, data.rng)
        result = maintain_lattice(views, changes)
        assert set(result.deltas) == {view.name for view in views}
        assert set(result.stats) == {view.name for view in views}
        assert result.propagate_seconds > 0
        assert result.refresh_seconds > 0


class TestPropagateWithoutLattice:
    def test_equals_lattice_propagation(self):
        data, views = fresh_setup(seed=51, pos_rows=1000)
        changes = update_generating_changes(data.pos, data.config, 100, data.rng)
        lattice = build_lattice_for_views(views)
        from repro.lattice import propagate_lattice

        with_lattice = propagate_lattice(lattice, changes)
        without = propagate_without_lattice(
            [view.definition for view in views], changes
        )
        for view in views:
            assert (
                with_lattice[view.name].table.sorted_rows()
                == without[view.name].table.sorted_rows()
            )


class TestRematerializeWithLattice:
    def test_derives_children_from_parents(self):
        data, views = fresh_setup(seed=53, pos_rows=1000)
        # Perturb the base data, then rematerialise through the lattice.
        data.pos.table.insert((1, 1, 1, 5, 1.0))
        data.pos.table.insert((2, 2, 2, 5, 1.0))
        report = rematerialize_with_lattice(views)
        for view in views:
            assert_view_matches_recomputation(view)
        assert report.online_seconds == 0

    def test_stale_views_fully_replaced(self):
        data, views = fresh_setup(seed=57, pos_rows=500)
        views[0].table.truncate()  # corrupt one view entirely
        rematerialize_with_lattice(views)
        for view in views:
            assert_view_matches_recomputation(view)
