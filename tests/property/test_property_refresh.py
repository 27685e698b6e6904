"""Property-based testing of the fundamental maintenance invariant:

    for any base data and any consistent change set,
    maintain(view, changes) == recompute(view after changes)

across view shapes and min/max policies.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregates import Count, CountStar, Max, Min, Sum
from repro.core import (
    MinMaxPolicy,
    PropagateOptions,
    apply_refresh,
    base_recompute_fn,
    compute_summary_delta,
)
from repro.relational import col
from repro.views import MaterializedView, SummaryViewDefinition, compute_rows
from repro.warehouse import (
    ChangeSet,
    DimensionHierarchy,
    DimensionTable,
    FactTable,
    ForeignKey,
)

N_STORES = 4
N_ITEMS = 4
N_DATES = 5

fact_rows = st.lists(
    st.tuples(
        st.integers(1, N_STORES),               # storeID
        st.integers(1, N_ITEMS),                # itemID
        st.integers(1, N_DATES),                # date
        st.one_of(st.none(), st.integers(1, 9)),  # qty (nullable!)
        st.just(1.0),                           # price
    ),
    min_size=0,
    max_size=25,
)


def build_fact(rows):
    stores = DimensionTable(
        "stores",
        ["storeID", "city", "region"],
        [(i, f"c{(i - 1) // 2}", f"r{(i - 1) // 4}") for i in range(1, N_STORES + 1)],
        hierarchy=DimensionHierarchy("stores", ["storeID", "city", "region"]),
    )
    items = DimensionTable(
        "items",
        ["itemID", "category"],
        [(i, f"k{(i - 1) // 2}") for i in range(1, N_ITEMS + 1)],
        hierarchy=DimensionHierarchy("items", ["itemID", "category"]),
    )
    return FactTable(
        "pos",
        ["storeID", "itemID", "date", "qty", "price"],
        [ForeignKey("storeID", stores), ForeignKey("itemID", items)],
        rows,
    )


def make_view(pos, shape):
    if shape == "fine":
        return SummaryViewDefinition.create(
            "v", pos, ["storeID", "itemID", "date"],
            [("n", CountStar()), ("total", Sum(col("qty")))],
        )
    if shape == "minmax":
        return SummaryViewDefinition.create(
            "v", pos, ["storeID", "category"],
            [
                ("n", CountStar()),
                ("lo", Min(col("qty"))),
                ("hi", Max(col("qty"))),
                ("nq", Count(col("qty"))),
            ],
            dimensions=["items"],
        )
    if shape == "coarse":
        return SummaryViewDefinition.create(
            "v", pos, ["region"],
            [("n", CountStar()), ("total", Sum(col("qty"))),
             ("first", Min(col("date")))],
            dimensions=["stores"],
        )
    raise AssertionError(shape)


def split_changes(base_rows, inserted, delete_picks):
    """Build a consistent ChangeSet: delete a sampled subset of base rows
    (by index, deduplicated) and insert the generated rows."""
    indices = sorted({pick % len(base_rows) for pick in delete_picks}) if base_rows else []
    deletions = [base_rows[i] for i in indices]
    return inserted, deletions


@pytest.mark.parametrize("shape", ["fine", "minmax", "coarse"])
@pytest.mark.parametrize("policy", list(MinMaxPolicy))
@settings(max_examples=40, deadline=None)
@given(base=fact_rows, inserted=fact_rows, delete_picks=st.lists(st.integers(0, 10_000), max_size=15))
def test_maintenance_equals_recomputation(shape, policy, base, inserted, delete_picks):
    pos = build_fact(base)
    view = MaterializedView.build(make_view(pos, shape))
    to_insert, to_delete = split_changes(base, inserted, delete_picks)

    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(to_insert)
    changes.delete_many(to_delete)

    delta = compute_summary_delta(
        view.definition, changes, PropagateOptions(policy=policy)
    )
    changes.apply_to(pos.table)
    apply_refresh(view, delta, recompute=base_recompute_fn(view.definition))

    assert view.table.sorted_rows() == compute_rows(view.definition).sorted_rows()


@settings(max_examples=30, deadline=None)
@given(base=fact_rows, inserted=fact_rows)
def test_insert_only_changes_never_recompute(base, inserted):
    """All distributive aggregates are self-maintainable w.r.t. insertions:
    a pure-insert batch must never touch base data — except for the PAPER
    policy's conservative MIN/MAX check, so use SPLIT here."""
    pos = build_fact(base)
    view = MaterializedView.build(make_view(pos, "minmax"))
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(inserted)
    delta = compute_summary_delta(
        view.definition, changes, PropagateOptions(policy=MinMaxPolicy.SPLIT)
    )
    changes.apply_to(pos.table)
    stats = apply_refresh(view, delta, recompute=None)  # no base access allowed
    assert stats.recomputed == 0
    assert view.table.sorted_rows() == compute_rows(view.definition).sorted_rows()
