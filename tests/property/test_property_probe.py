"""Property tests of the ordered MIN/MAX probe (:mod:`repro.core.recompute`).

The fact table carries the paper's composite index on ``(storeID, itemID,
date)`` with the ``date`` and ``itemID`` domains tracked.  A view whose
group attributes the index pins recomputes its MIN/MAX through the ordered
early-exit probe; a ``where`` view and a view grouped by a column outside
the index take the pooled gather.  Whatever the plan, under either
:class:`MinMaxPolicy`, maintenance must equal recomputation from base data
and the SQLite backend's per-group SQL recompute.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregates import CountStar, Max, Min, Sum
from repro.core import (
    MinMaxPolicy,
    PropagateOptions,
    apply_refresh,
    base_recompute_fn,
    compute_summary_delta,
    compute_summary_delta_combined,
)
from repro.core.dimension_changes import apply_all_changes
from repro.relational import col, lit
from repro.sqlite_backend import SqliteWarehouse
from repro.views import MaterializedView, SummaryViewDefinition, compute_rows
from repro.warehouse import ChangeSet

from ..conftest import recorded_recomputes
from .test_property_refresh import N_ITEMS, build_fact, split_changes

N_DATES = 5

#: Fact rows with NULL dates (a MIN/MAX argument), NULL item ids (another
#: one, and a group key) and NULL quantities.
fact_rows = st.lists(
    st.tuples(
        st.integers(1, 4),                               # storeID
        st.integers(0, N_ITEMS).map(lambda i: i or None),  # itemID
        st.one_of(st.none(), st.integers(1, N_DATES)),   # date
        st.one_of(st.none(), st.integers(1, 9)),         # qty
        st.just(1.0),                                    # price
    ),
    max_size=25,
)


def indexed_fact(rows):
    pos = build_fact(rows)
    pos.table.create_index(["storeID", "itemID", "date"])
    pos.table.track_domain("date")
    pos.table.track_domain("itemID")
    return pos


def definitions(pos):
    """``(definition, ordered)``: whether the ordered probe is exact."""
    return [
        (SummaryViewDefinition.create(
            "by_store_category", pos, ["storeID", "category"],
            [("n", CountStar()), ("total", Sum(col("qty"))),
             ("lo", Min(col("date"))), ("hi", Max(col("date")))],
            dimensions=["items"],
        ), True),
        # itemID is enumerated from its tracked domain: items is not joined.
        (SummaryViewDefinition.create(
            "by_region", pos, ["region"],
            [("n", CountStar()), ("lo", Min(col("date"))),
             ("hi", Max(col("date")))],
            dimensions=["stores"],
        ), True),
        (SummaryViewDefinition.create(
            "filtered", pos, ["storeID", "category"],
            [("n", CountStar()), ("lo", Min(col("date"))),
             ("hi", Max(col("date")))],
            dimensions=["items"], where=col("qty").ge(lit(3)),
        ), False),
        # qty is no index column, so no provider pins it.
        (SummaryViewDefinition.create(
            "by_category_qty", pos, ["category", "qty"],
            [("n", CountStar()), ("lo", Min(col("date"))),
             ("hi", Max(col("date")))],
            dimensions=["items"],
        ), False),
        # Two arguments: MIN(itemID) walks the item keys with every date,
        # NULL included, as the other column's candidates; MAX(date) walks
        # the dates with every item key.
        (SummaryViewDefinition.create(
            "by_store_two_arguments", pos, ["storeID"],
            [("n", CountStar()), ("lo_item", Min(col("itemID"))),
             ("hi", Max(col("date")))],
            dimensions=["items"],
        ), True),
        # The argument itemID is also a group key, which a NULL item id
        # fixes to NULL: MAX(date) must still probe that group.
        (SummaryViewDefinition.create(
            "by_store_item", pos, ["storeID", "itemID"],
            [("n", CountStar()), ("lo_item", Min(col("itemID"))),
             ("hi", Max(col("date")))],
        ), True),
    ]


def maintain_and_compare(base, inserted, deleted, policy):
    """Maintain every view through Figure 7 and check it against
    recomputation and SQLite; returns each view's refresh stats and the
    plans its recomputes took."""
    pos = indexed_fact(base)
    views = [(MaterializedView.build(definition), ordered)
             for definition, ordered in definitions(pos)]
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(inserted)
    changes.delete_many(deleted)
    deltas = [
        compute_summary_delta(view.definition, changes,
                              PropagateOptions(policy=policy))
        for view, _ordered in views
    ]
    changes.apply_to(pos.table)

    sqlite_pos = build_fact(base)
    sqlite = SqliteWarehouse()
    sqlite.load_fact(sqlite_pos)
    for definition, _ordered in definitions(sqlite_pos):
        sqlite.define_summary_table(definition)
    sqlite_changes = ChangeSet("pos", sqlite_pos.table.schema)
    sqlite_changes.insert_many(inserted)
    sqlite_changes.delete_many(deleted)
    sqlite.maintain(sqlite_changes)

    outcome = {}
    for (view, ordered), delta in zip(views, deltas):
        with recorded_recomputes() as runs:
            stats = apply_refresh(
                view, delta, recompute=base_recompute_fn(view.definition)
            )
        rows = view.table.sorted_rows()
        assert rows == compute_rows(view.definition).sorted_rows(), view.name
        assert rows == [tuple(row) for row in sqlite.sorted_rows(view.name)], \
            view.name
        plans = {counts.plan for _name, counts in runs}
        assert plans <= ({"ordered"} if ordered else {"gather", "scan"})
        outcome[view.name] = (stats, plans)
    return outcome


@pytest.mark.parametrize("policy", list(MinMaxPolicy), ids=lambda p: p.name)
@settings(max_examples=40, deadline=None)
@given(base=fact_rows, inserted=fact_rows,
       delete_picks=st.lists(st.integers(0, 10_000), max_size=15))
def test_probe_and_gather_equal_recomputation_and_sqlite(
    policy, base, inserted, delete_picks
):
    to_insert, to_delete = split_changes(base, inserted, delete_picks)
    maintain_and_compare(base, to_insert, to_delete, policy)


#: Items 1 and 2 are category k0, items 3 and 4 k1; dates run 1..5.
BASE = [
    (1, 1, 1, 2, 1.0), (1, 2, 3, 2, 1.0), (1, 1, None, 5, 1.0),  # (1, k0)
    (2, 1, 5, 1, 1.0), (2, 2, 5, 4, 1.0),                        # (2, k0)
    (3, 3, 1, 1, 1.0), (3, 4, 1, None, 1.0),                     # (3, k1)
    (4, 3, 2, 3, 1.0),                                           # (4, k1)
    (1, 4, 4, 6, 1.0), (1, 3, None, None, 1.0),                  # (1, k1)
    (2, None, 2, 1, 1.0), (2, None, 4, 1, 1.0),                  # no item
]

#: name → (deleted rows, inserted rows, the by_store_category group whose
#: MIN/MAX is recomputed, or None).
SCENARIOS = {
    # MIN(date) of (1, k0) sits at the first candidate value; the walk
    # skips the NULL date and the now-empty 1 and 2, and hits 3.  Store 1
    # keeps MIN(itemID) 1 only through its NULL-date row.
    "min-deleted-at-first-value": ([(1, 1, 1, 2, 1.0)], [], (1, "k0")),
    # (2, k0) has rows only at the last date: both walks end there.
    "rows-only-at-last-value": ([(2, 1, 5, 1, 1.0)], [], (2, "k0")),
    # MAX(date) of (3, k1) sits at the first date, the MAX walk's last.
    "max-deleted-at-first-value": ([(3, 3, 1, 1, 1.0)], [], (3, "k1")),
    # MAX(date) of (1, k0) deleted; its NULL-date row is skipped.
    "max-deleted-beside-null": ([(1, 2, 3, 2, 1.0)], [(1, 2, None, 1, 1.0)],
                                (1, "k0")),
    # (1, k1) keeps only a NULL-date row: COUNT(date) 0, MIN/MAX NULL.
    "only-null-arguments-left": ([(1, 4, 4, 6, 1.0)], [], None),
    # (4, k1) loses its only row and is deleted.
    "emptied-group": ([(4, 3, 2, 3, 1.0)], [(4, 1, 4, 2, 1.0)], None),
    # MAX(date) of by_store_item's (2, NULL) group is deleted; its other
    # row, at date 2, is found with the NULL item id as the fixed value.
    "max-deleted-in-null-key-group": ([(2, None, 4, 1, 1.0)], [], None),
}


@pytest.mark.parametrize("policy", list(MinMaxPolicy), ids=lambda p: p.name)
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_scenarios(scenario, policy):
    deleted, inserted, recomputed_group = SCENARIOS[scenario]
    outcome = maintain_and_compare(BASE, inserted, deleted, policy)
    stats, plans = outcome["by_store_category"]
    if recomputed_group is None:
        assert stats.recomputed == 0
    else:
        assert stats.recomputed == 1 and plans == {"ordered"}
    if scenario == "emptied-group":
        assert stats.deleted == 1


def test_split_new_group_with_cross_terms():
    """Item 2 moves from k0 to k1 while one of its store-2 rows is
    deleted: (2, k1) is new to the view and its delta carries a
    deletion-side footprint (§4.1.4 cross terms), so refresh recomputes
    it and inserts it — COUNT and SUM from the delta, MIN/MAX probed."""
    pos = indexed_fact(BASE + [(2, 2, 4, 1, 1.0)])
    definition, _ordered = definitions(pos)[0]
    view = MaterializedView.build(definition)
    items = pos.dimension("items")
    moves = ChangeSet("items", items.table.schema)
    moves.delete(items.lookup(2))
    moves.insert((2, "k1"))
    fact_changes = ChangeSet("pos", pos.table.schema)
    fact_changes.delete((2, 2, 5, 4, 1.0))
    delta = compute_summary_delta_combined(
        view.definition, fact_changes, {"items": moves}
    )
    assert delta.policy is MinMaxPolicy.SPLIT
    apply_all_changes(fact_changes, {"items": moves}, view.definition)
    with recorded_recomputes() as runs:
        stats = apply_refresh(
            view, delta, recompute=base_recompute_fn(view.definition)
        )
    assert view.table.sorted_rows() == compute_rows(view.definition).sorted_rows()
    by_key = {row[:2]: row for row in view.table.rows()}
    assert by_key[(2, "k1")][2:6] == (1, 1, 4, 4)   # n, total, lo, hi
    assert stats.recomputed >= 1
    assert [counts.plan for _name, counts in runs] == ["ordered"]


def test_new_group_whose_sum_cancels_is_null():
    """Item 2 moves from k0 to k1 in the batch that inserts its first
    store-1 sale: the cross terms add and cancel that sale's quantity in
    (1, k0), which is new, so its SUM must be NULL (COUNT(qty) 0), not 0."""
    pos = indexed_fact([])
    definition, _ordered = definitions(pos)[0]
    view = MaterializedView.build(definition)
    items = pos.dimension("items")
    moves = ChangeSet("items", items.table.schema)
    moves.delete(items.lookup(2))
    moves.insert((2, "k1"))
    fact_changes = ChangeSet("pos", pos.table.schema)
    fact_changes.insert_many([(1, 1, None, None, 1.0), (1, 2, None, 1, 1.0)])
    delta = compute_summary_delta_combined(
        view.definition, fact_changes, {"items": moves}
    )
    apply_all_changes(fact_changes, {"items": moves}, view.definition)
    apply_refresh(view, delta, recompute=base_recompute_fn(view.definition))
    assert view.table.sorted_rows() == compute_rows(view.definition).sorted_rows()
    by_key = {row[:2]: row for row in view.table.rows()}
    assert by_key[(1, "k0")][2:4] == (1, None)      # n, total


def test_cancelled_extremum_where_none_was_stored():
    """(1, k0) stores only a NULL date.  Item 1 moves to k1 in the batch
    that inserts its date-2 sale: the cross terms add and cancel date 2 in
    (1, k0), whose stored MAX is NULL, so nothing stored is threatened —
    yet folding the insertion side alone would keep the cancelled 2.  The
    deletion-side footprint forces the recompute."""
    pos = indexed_fact([(1, 1, None, None, 1.0)])
    definition, _ordered = definitions(pos)[0]
    view = MaterializedView.build(definition)
    items = pos.dimension("items")
    moves = ChangeSet("items", items.table.schema)
    moves.delete(items.lookup(1))
    moves.insert((1, "k1"))
    fact_changes = ChangeSet("pos", pos.table.schema)
    fact_changes.insert_many([(1, 1, 2, None, 1.0), (1, 2, 1, None, 1.0)])
    delta = compute_summary_delta_combined(
        view.definition, fact_changes, {"items": moves}
    )
    apply_all_changes(fact_changes, {"items": moves}, view.definition)
    stats = apply_refresh(
        view, delta, recompute=base_recompute_fn(view.definition)
    )
    assert view.table.sorted_rows() == compute_rows(view.definition).sorted_rows()
    by_key = {row[:2]: row for row in view.table.rows()}
    assert by_key[(1, "k0")][4:6] == (1, 1)          # lo, hi
    assert stats.recomputed == 1


item_moves = st.dictionaries(
    st.integers(1, N_ITEMS), st.sampled_from(["k0", "k1", "k2"]), max_size=3
)


@settings(max_examples=40, deadline=None)
@given(base=fact_rows, inserted=fact_rows,
       delete_picks=st.lists(st.integers(0, 10_000), max_size=10),
       moves=item_moves)
def test_dimension_moves_equal_recomputation(base, inserted, delete_picks, moves):
    """Fact and dimension changes together, on the views that join items:
    SPLIT deltas whose new groups may carry cross terms, recomputed
    through the probe or the gather."""
    to_insert, to_delete = split_changes(base, inserted, delete_picks)
    pos = indexed_fact(base)
    items = pos.dimension("items")
    views = [(MaterializedView.build(definition), ordered)
             for definition, ordered in definitions(pos)
             if "items" in definition.dimensions]
    fact_changes = ChangeSet("pos", pos.table.schema)
    fact_changes.insert_many(to_insert)
    fact_changes.delete_many(to_delete)
    dim_changes = ChangeSet("items", items.table.schema)
    for item_id, category in moves.items():
        old_row = items.lookup(item_id)
        if old_row[1] != category:
            dim_changes.delete(old_row)
            dim_changes.insert((item_id, category))
    deltas = [
        compute_summary_delta_combined(
            view.definition, fact_changes, {"items": dim_changes}
        )
        for view, _ordered in views
    ]
    apply_all_changes(fact_changes, {"items": dim_changes}, views[0][0].definition)
    for (view, ordered), delta in zip(views, deltas):
        with recorded_recomputes() as runs:
            apply_refresh(
                view, delta, recompute=base_recompute_fn(view.definition)
            )
        assert view.table.sorted_rows() == \
            compute_rows(view.definition).sorted_rows(), view.name
        plans = {counts.plan for _name, counts in runs}
        assert plans <= ({"ordered"} if ordered else {"gather", "scan"})

