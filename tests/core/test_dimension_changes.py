"""Section 4.1.4: maintenance under dimension-table changes."""

import pytest

from repro.core import (
    apply_refresh,
    base_recompute_fn,
    compute_summary_delta_combined,
    prepare_changes_combined,
)
from repro.core.dimension_changes import apply_all_changes
from repro.errors import MaintenanceError
from repro.views import MaterializedView
from repro.warehouse import ChangeSet

from ..conftest import (
    assert_view_matches_recomputation,
    minmax_definition,
    sic_definition,
    sid_definition,
)


def maintain_combined(view, fact_changes, dimension_changes):
    """Propagate (pre-update state) → apply all changes → refresh."""
    delta = compute_summary_delta_combined(
        view.definition, fact_changes, dimension_changes
    )
    apply_all_changes(fact_changes, dimension_changes, view.definition)
    apply_refresh(view, delta, recompute=base_recompute_fn(view.definition))


class TestDimensionOnlyChanges:
    def test_recategorising_an_item(self, pos, items):
        # Move item 12 (cola) from 'drink' to 'fruit'.
        view = MaterializedView.build(sic_definition(pos))
        dim_changes = ChangeSet("items", items.table.schema)
        dim_changes.delete((12, "cola", "drink", 1.5))
        dim_changes.insert((12, "cola", "fruit", 1.5))
        maintain_combined(view, None, {"items": dim_changes})
        assert_view_matches_recomputation(view)
        keys = {row[:2] for row in view.table.scan()}
        assert (2, "fruit") in keys       # store 2 sold cola
        assert (2, "drink") in keys       # store 2 still sells beer

    def test_group_emptied_by_dimension_change(self, pos, items):
        # Store 4 sells only cola; recategorising cola removes its 'drink'
        # group entirely.
        view = MaterializedView.build(sic_definition(pos))
        dim_changes = ChangeSet("items", items.table.schema)
        dim_changes.delete((12, "cola", "drink", 1.5))
        dim_changes.insert((12, "cola", "fruit", 1.5))
        maintain_combined(view, None, {"items": dim_changes})
        keys = {row[:2] for row in view.table.scan()}
        assert (4, "drink") not in keys and (4, "fruit") in keys

    def test_moving_a_store_between_regions(self, pos, stores):
        view = MaterializedView.build(minmax_definition(pos))
        dim_changes = ChangeSet("stores", stores.table.schema)
        dim_changes.delete((3, "nyc", "east"))
        dim_changes.insert((3, "nyc", "west"))
        maintain_combined(view, None, {"stores": dim_changes})
        assert_view_matches_recomputation(view)

    def test_irrelevant_dimension_rejected(self, pos, stores):
        view = MaterializedView.build(sic_definition(pos))  # joins items only
        dim_changes = ChangeSet("stores", stores.table.schema)
        dim_changes.delete((3, "nyc", "east"))
        with pytest.raises(MaintenanceError, match="does not join"):
            compute_summary_delta_combined(
                view.definition, None, {"stores": dim_changes}
            )


class TestCombinedChanges:
    def test_fact_and_dimension_changes_together(self, pos, items):
        view = MaterializedView.build(sic_definition(pos))
        fact_changes = ChangeSet("pos", pos.table.schema)
        fact_changes.insert((1, 12, 6, 2, 1.5))   # new cola sale at store 1
        fact_changes.delete((2, 11, 2, 4, 2.1))   # drop a beer sale
        dim_changes = ChangeSet("items", items.table.schema)
        dim_changes.delete((12, "cola", "drink", 1.5))
        dim_changes.insert((12, "cola", "fruit", 1.5))
        maintain_combined(view, fact_changes, {"items": dim_changes})
        assert_view_matches_recomputation(view)

    def test_cross_term_new_fact_row_joins_new_dimension_row(self, pos, items):
        # A brand-new item inserted into `items` AND sold in the same batch:
        # only the ΔF ⋈ ΔD cross term produces this contribution.
        view = MaterializedView.build(sic_definition(pos))
        dim_changes = ChangeSet("items", items.table.schema)
        dim_changes.insert((14, "kiwi", "fruit", 2.5))
        fact_changes = ChangeSet("pos", pos.table.schema)
        fact_changes.insert((2, 14, 7, 3, 2.5))
        maintain_combined(view, fact_changes, {"items": dim_changes})
        assert_view_matches_recomputation(view)
        keys = {row[:2] for row in view.table.scan()}
        assert (2, "fruit") in keys

    def test_fact_only_equals_plain_propagate(self, pos):
        from repro.core import compute_summary_delta

        definition = sid_definition(pos).resolved()
        fact_changes = ChangeSet("pos", pos.table.schema)
        fact_changes.insert((1, 10, 1, 7, 1.0))
        fact_changes.delete((2, 12, 3, 5, 1.6))
        combined = compute_summary_delta_combined(definition, fact_changes)
        plain = compute_summary_delta(definition, fact_changes)
        assert combined.table.sorted_rows() == plain.table.sorted_rows()

    def test_cancelled_contribution_to_missing_group_is_noop(self, pos, items):
        """Regression (found by hypothesis): inserting a fact row for an
        item while simultaneously moving that item OUT of its category nets
        a zero-count delta for a group the view never had — refresh must
        treat it as a no-op, not an inconsistency."""
        from repro.relational import Table
        from repro.warehouse import FactTable, ForeignKey

        from ..conftest import make_items, make_stores

        stores, fresh_items = make_stores(), make_items()
        empty_pos = FactTable(
            "pos", ["storeID", "itemID", "date", "qty", "price"],
            [ForeignKey("storeID", stores), ForeignKey("itemID", fresh_items)],
            [],
        )
        view = MaterializedView.build(sic_definition(empty_pos))
        fact_changes = ChangeSet("pos", empty_pos.table.schema)
        fact_changes.insert((1, 12, 1, None, 1.0))   # cola, currently 'drink'
        dim_changes = ChangeSet("items", fresh_items.table.schema)
        dim_changes.delete((12, "cola", "drink", 1.5))
        dim_changes.insert((12, "cola", "fruit", 1.5))
        maintain_combined(view, fact_changes, {"items": dim_changes})
        assert_view_matches_recomputation(view)
        keys = {row[:2] for row in view.table.scan()}
        assert (1, "drink") not in keys and (1, "fruit") in keys

    def test_min_on_new_group_with_cancelled_lower_date(self, pos, items):
        """Regression (found by hypothesis): a new group's MIN must not be
        taken from a contribution that a dimension-change cross term
        cancelled."""
        from repro.warehouse import FactTable, ForeignKey

        from ..conftest import make_items, make_stores

        stores, fresh_items = make_stores(), make_items()
        empty_pos = FactTable(
            "pos", ["storeID", "itemID", "date", "qty", "price"],
            [ForeignKey("storeID", stores), ForeignKey("itemID", fresh_items)],
            [],
        )
        view = MaterializedView.build(sic_definition(empty_pos))
        fact_changes = ChangeSet("pos", empty_pos.table.schema)
        fact_changes.insert((1, 10, 1, 1, 1.0))  # apple (fruit), date 1
        fact_changes.insert((1, 11, 2, 1, 2.0))  # beer (drink), date 2
        # Move apple into 'drink': its date-1 'fruit' contribution cancels,
        # and the NEW (1, 'drink') group must have EarliestSale per truth.
        dim_changes = ChangeSet("items", fresh_items.table.schema)
        dim_changes.delete((10, "apple", "fruit", 1.0))
        dim_changes.insert((10, "apple", "drink", 1.0))
        maintain_combined(view, fact_changes, {"items": dim_changes})
        assert_view_matches_recomputation(view)
        by_key = {row[:2]: row for row in view.table.scan()}
        position = view.table.schema.position("EarliestSale")
        assert by_key[(1, "drink")][position] == 1  # apple's date, moved in
        assert (1, "fruit") not in by_key

    def test_no_changes_gives_empty_delta(self, pos):
        definition = sid_definition(pos).resolved()
        delta = compute_summary_delta_combined(definition, None, {})
        assert len(delta) == 0

    def test_prepare_changes_combined_shape(self, pos, items):
        definition = sic_definition(pos).resolved()
        dim_changes = ChangeSet("items", items.table.schema)
        dim_changes.delete((12, "cola", "drink", 1.5))
        dim_changes.insert((12, "cola", "fruit", 1.5))
        pc = prepare_changes_combined(definition, None, {"items": dim_changes})
        # Cola appears in three fact rows (store 2 once, store 4 twice):
        # 3 fact rows × 2 dimension changes = 6 prepare rows.
        assert len(pc) == 6
        count_position = pc.schema.position("_TotalCount")
        assert sorted(row[count_position] for row in pc.scan()) == [-1] * 3 + [1] * 3
