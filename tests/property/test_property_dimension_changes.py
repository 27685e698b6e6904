"""Property-based testing of §4.1.4: dimension-change maintenance.

The invariant: for any base data, any consistent fact change set, and any
consistent dimension change set (rows moved between hierarchy positions),
the combined summary delta refreshed into the view equals recomputation
over the fully-updated bases.
"""

from hypothesis import given, settings, strategies as st

from repro.aggregates import CountStar, Min, Sum
from repro.core import (
    apply_refresh,
    base_recompute_fn,
    compute_summary_delta_combined,
)
from repro.core.dimension_changes import apply_all_changes
from repro.relational import col
from repro.views import MaterializedView, SummaryViewDefinition, compute_rows
from repro.warehouse import ChangeSet

from .test_property_refresh import N_ITEMS, build_fact, fact_rows

# Which items get re-assigned to which category (k0/k1/k2).
item_moves = st.dictionaries(
    st.integers(1, N_ITEMS), st.sampled_from(["k0", "k1", "k2"]), max_size=3
)


def category_view(pos):
    return SummaryViewDefinition.create(
        "v", pos, ["category"],
        [("n", CountStar()), ("total", Sum(col("qty"))),
         ("first", Min(col("date")))],
        dimensions=["items"],
    )


@settings(max_examples=40, deadline=None)
@given(base=fact_rows, inserted=fact_rows, moves=item_moves)
def test_combined_changes_equal_recomputation(base, inserted, moves):
    pos = build_fact(base)
    items = pos.dimension("items")
    view = MaterializedView.build(category_view(pos))

    fact_changes = ChangeSet("pos", pos.table.schema)
    fact_changes.insert_many(inserted)

    dim_changes = ChangeSet("items", items.table.schema)
    for item_id, new_category in moves.items():
        old_row = items.lookup(item_id)
        if old_row[1] == new_category:
            continue
        dim_changes.delete(old_row)
        dim_changes.insert((item_id, new_category))

    delta = compute_summary_delta_combined(
        view.definition, fact_changes, {"items": dim_changes}
    )
    apply_all_changes(fact_changes, {"items": dim_changes}, view.definition)
    apply_refresh(view, delta, recompute=base_recompute_fn(view.definition))

    assert view.table.sorted_rows() == compute_rows(view.definition).sorted_rows()


@settings(max_examples=25, deadline=None)
@given(base=fact_rows, moves=item_moves)
def test_dimension_only_changes(base, moves):
    pos = build_fact(base)
    items = pos.dimension("items")
    view = MaterializedView.build(category_view(pos))

    dim_changes = ChangeSet("items", items.table.schema)
    for item_id, new_category in moves.items():
        old_row = items.lookup(item_id)
        if old_row[1] == new_category:
            continue
        dim_changes.delete(old_row)
        dim_changes.insert((item_id, new_category))

    delta = compute_summary_delta_combined(
        view.definition, None, {"items": dim_changes}
    )
    apply_all_changes(None, {"items": dim_changes}, view.definition)
    apply_refresh(view, delta, recompute=base_recompute_fn(view.definition))

    assert view.table.sorted_rows() == compute_rows(view.definition).sorted_rows()


@settings(max_examples=25, deadline=None)
@given(base=fact_rows, batches=st.lists(fact_rows, min_size=1, max_size=4))
def test_multi_night_convergence(base, batches):
    """A week of consecutive insert-batches maintains exactly (the classic
    compositionality property: maintain ∘ maintain == maintain of union)."""
    from repro.core import compute_summary_delta
    from repro.views import MaterializedView

    pos = build_fact(base)
    view = MaterializedView.build(category_view(pos))
    for batch in batches:
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert_many(batch)
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        apply_refresh(view, delta, recompute=base_recompute_fn(view.definition))
    assert view.table.sorted_rows() == compute_rows(view.definition).sorted_rows()
