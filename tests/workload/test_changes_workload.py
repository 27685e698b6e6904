"""The paper's update-generating and insertion-generating change mixes."""

import pytest

from repro.errors import WorkloadError
from repro.workload import (
    RetailConfig,
    expiration_changes,
    generate_retail,
    insertion_generating_changes,
    update_generating_changes,
)


@pytest.fixture(scope="module")
def data():
    return generate_retail(RetailConfig(pos_rows=3000, seed=77))


class TestUpdateGenerating:
    def test_equal_insertions_and_deletions(self, data):
        changes = update_generating_changes(data.pos, data.config, 200, data.rng)
        assert len(changes.insertions) == 100
        assert len(changes.deletions) == 100

    def test_insertions_reuse_existing_group_values(self, data):
        changes = update_generating_changes(data.pos, data.config, 200, data.rng)
        existing = {row[:3] for row in data.pos.table.scan()}
        for row in changes.insertions.scan():
            assert row[:3] in existing

    def test_deletions_are_existing_rows(self, data):
        changes = update_generating_changes(data.pos, data.config, 200, data.rng)
        existing = data.pos.table.rows()
        for row in changes.deletions.scan():
            assert row in existing

    def test_changes_applicable(self, data):
        pos = generate_retail(RetailConfig(pos_rows=500, seed=3)).pos
        config = RetailConfig(pos_rows=500, seed=3)
        import random

        changes = update_generating_changes(pos, config, 100, random.Random(1))
        before = len(pos.table)
        changes.apply_to(pos.table)
        assert len(pos.table) == before

    def test_odd_size_rejected(self, data):
        with pytest.raises(WorkloadError, match="even"):
            update_generating_changes(data.pos, data.config, 3, data.rng)

    def test_oversized_deletion_rejected(self, data):
        with pytest.raises(WorkloadError, match="cannot delete"):
            update_generating_changes(data.pos, data.config, 10_000_000, data.rng)


class TestInsertionGenerating:
    def test_all_changes_are_insertions(self, data):
        changes = insertion_generating_changes(data.pos, data.config, 150, data.rng)
        assert len(changes.insertions) == 150
        assert len(changes.deletions) == 0

    def test_dates_are_new(self, data):
        max_existing = max(data.pos.table.column_values("date"))
        changes = insertion_generating_changes(data.pos, data.config, 150, data.rng)
        for row in changes.insertions.scan():
            assert row[2] > max_existing

    def test_store_and_item_values_from_existing_domains(self, data):
        changes = insertion_generating_changes(data.pos, data.config, 150, data.rng)
        for row in changes.insertions.scan():
            assert 1 <= row[0] <= data.config.n_stores
            assert 1 <= row[1] <= data.config.n_items

    def test_zero_new_dates_rejected(self, data):
        with pytest.raises(WorkloadError):
            insertion_generating_changes(
                data.pos, data.config, 10, data.rng, n_new_dates=0
            )


class TestExpiration:
    def test_deletes_exactly_the_oldest_dates(self, data):
        changes = expiration_changes(data.pos, n_oldest_dates=2)
        assert len(changes.insertions) == 0
        dates = {row[2] for row in changes.deletions.scan()}
        all_dates = sorted(set(data.pos.table.column_values("date")))
        assert dates == set(all_dates[:2])

    def test_covers_every_row_of_those_dates(self, data):
        changes = expiration_changes(data.pos, n_oldest_dates=1)
        oldest = min(data.pos.table.column_values("date"))
        in_base = sum(
            1 for row in data.pos.table.scan() if row[2] == oldest
        )
        assert len(changes.deletions) == in_base

    def test_applies_cleanly(self):
        data = generate_retail(RetailConfig(pos_rows=1000, seed=17))
        changes = expiration_changes(data.pos, n_oldest_dates=1)
        oldest = min(data.pos.table.column_values("date"))
        changes.apply_to(data.pos.table)
        assert oldest not in set(data.pos.table.column_values("date"))

    def test_maintains_views_correctly(self):
        from repro.lattice import maintain_lattice
        from repro.views import compute_rows
        from repro.workload import build_retail_warehouse

        data = generate_retail(RetailConfig(pos_rows=1000, seed=18))
        warehouse = build_retail_warehouse(data)
        views = warehouse.views_over("pos")
        changes = expiration_changes(data.pos, n_oldest_dates=2)
        result = maintain_lattice(views, changes)
        for view in views:
            assert view.table.sorted_rows() == compute_rows(
                view.definition
            ).sorted_rows()
        # The MIN(date) view must recompute heavily: expiring the oldest
        # days hits nearly every EarliestSale.
        assert result.stats["SiC_sales"].recomputed > 0

    def test_empty_fact_table(self, stores, items):
        from ..conftest import make_pos

        pos = make_pos(stores, items, rows=[])
        changes = expiration_changes(pos)
        assert changes.is_empty()


@pytest.mark.parametrize("generate", [
    lambda data: update_generating_changes(data.pos, data.config, 200, data.rng),
    lambda data: insertion_generating_changes(
        data.pos, data.config, 150, data.rng
    ),
    lambda data: expiration_changes(data.pos, 1),
], ids=["update", "insertion", "expiration"])
def test_generated_change_set_is_one_lineage_batch(data, generate):
    """A generated change set is one delivery: its rows share one batch."""
    changes = generate(data)
    assert changes.size() > 1
    assert len(changes.lineage) == 1
