"""Full nightly-batch scenarios across several consecutive maintenance runs."""

import pytest

from repro.core import MinMaxPolicy, PropagateOptions
from repro.lattice import build_lattice_for_views, maintain_lattice
from repro.views import compute_rows
from repro.workload import (
    RetailConfig,
    build_retail_warehouse,
    generate_retail,
    insertion_generating_changes,
    update_generating_changes,
)

from ..conftest import assert_view_matches_recomputation


class TestConsecutiveNights:
    def test_five_nights_of_mixed_changes(self):
        data = generate_retail(RetailConfig(pos_rows=2000, seed=101))
        warehouse = build_retail_warehouse(data)
        views = warehouse.views_over("pos")
        for night in range(5):
            if night % 2 == 0:
                changes = update_generating_changes(
                    data.pos, data.config, 100, data.rng
                )
            else:
                changes = insertion_generating_changes(
                    data.pos, data.config, 100, data.rng
                )
            maintain_lattice(views, changes)
            for view in views:
                assert_view_matches_recomputation(view)

    def test_lattice_rebuilt_per_night_reflects_new_sizes(self):
        data = generate_retail(RetailConfig(pos_rows=1000, seed=103))
        warehouse = build_retail_warehouse(data)
        views = warehouse.views_over("pos")
        first = build_lattice_for_views(views)
        changes = insertion_generating_changes(data.pos, data.config, 500, data.rng)
        maintain_lattice(views, changes, lattice=first)
        second = build_lattice_for_views(views)
        # Plan stays valid; root unchanged.
        assert second.node("SID_sales").is_root

    def test_warehouse_pending_changes_workflow(self):
        data = generate_retail(RetailConfig(pos_rows=500, seed=107))
        warehouse = build_retail_warehouse(data)
        views = warehouse.views_over("pos")

        # Day: analysts' changes accumulate in the deferred change set.
        staged = update_generating_changes(data.pos, data.config, 40, data.rng)
        warehouse.stage_insertions("pos", staged.insertions.scan())
        warehouse.stage_deletions("pos", staged.deletions.scan())

        # Night: one maintenance run drains the change set.
        maintain_lattice(views, warehouse.pending_changes("pos"))
        warehouse.discard_pending("pos")
        for view in views:
            assert_view_matches_recomputation(view)
        assert warehouse.pending_changes("pos").is_empty()


class TestHeavyDeletionScenario:
    def test_deleting_most_of_a_small_warehouse(self):
        data = generate_retail(RetailConfig(pos_rows=300, seed=109))
        warehouse = build_retail_warehouse(data)
        views = warehouse.views_over("pos")
        from repro.warehouse import ChangeSet

        changes = ChangeSet("pos", data.pos.table.schema)
        rows = data.pos.table.rows()
        changes.delete_many(rows[:250])
        maintain_lattice(views, changes)
        for view in views:
            assert_view_matches_recomputation(view)

    def test_emptying_the_warehouse_entirely(self):
        data = generate_retail(RetailConfig(pos_rows=100, seed=113))
        warehouse = build_retail_warehouse(data)
        views = warehouse.views_over("pos")
        from repro.warehouse import ChangeSet

        changes = ChangeSet("pos", data.pos.table.schema)
        changes.delete_many(data.pos.table.rows())
        maintain_lattice(views, changes)
        for view in views:
            assert len(view.table) == 0
            assert_view_matches_recomputation(view)


class TestOptionMatrix:
    @pytest.mark.parametrize("policy", list(MinMaxPolicy))
    @pytest.mark.parametrize("pre_aggregate", [False, True])
    @pytest.mark.parametrize("use_lattice", [False, True])
    def test_every_configuration_converges(
        self, policy, pre_aggregate, use_lattice
    ):
        data = generate_retail(RetailConfig(pos_rows=600, seed=127))
        warehouse = build_retail_warehouse(data)
        views = warehouse.views_over("pos")
        changes = update_generating_changes(data.pos, data.config, 60, data.rng)
        maintain_lattice(
            views,
            changes,
            options=PropagateOptions(policy=policy, pre_aggregate=pre_aggregate),
            use_lattice=use_lattice,
        )
        for view in views:
            assert_view_matches_recomputation(view)
