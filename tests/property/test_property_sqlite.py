"""Property-based cross-validation: in-memory engine vs SQLite backend.

For any base data and any consistent change set, both backends must land
on bit-identical summary tables.  Since the SQLite backend executes the
paper's literal SQL while the engine executes compiled plans, agreement
here is strong evidence that both read the paper the same way.
"""

from hypothesis import given, settings, strategies as st

from repro.aggregates import Count, CountStar, Min, Sum
from repro.core import apply_refresh, base_recompute_fn, compute_summary_delta
from repro.relational import col
from repro.sqlite_backend import SqliteWarehouse
from repro.views import MaterializedView, SummaryViewDefinition
from repro.warehouse import ChangeSet

from .test_property_refresh import build_fact, fact_rows, split_changes


def view_definition(pos):
    return SummaryViewDefinition.create(
        "v", pos, ["storeID", "category"],
        [
            ("n", CountStar()),
            ("total", Sum(col("qty"))),
            ("n_qty", Count(col("qty"))),
            ("first", Min(col("date"))),
        ],
        dimensions=["items"],
    )


@settings(max_examples=30, deadline=None)
@given(
    base=fact_rows,
    inserted=fact_rows,
    delete_picks=st.lists(st.integers(0, 10_000), max_size=10),
)
def test_backends_agree(base, inserted, delete_picks):
    to_insert, to_delete = split_changes(base, inserted, delete_picks)

    # Engine side.
    engine_pos = build_fact(base)
    engine_view = MaterializedView.build(view_definition(engine_pos))
    engine_changes = ChangeSet("pos", engine_pos.table.schema)
    engine_changes.insert_many(to_insert)
    engine_changes.delete_many(to_delete)
    delta = compute_summary_delta(engine_view.definition, engine_changes)
    engine_changes.apply_to(engine_pos.table)
    apply_refresh(engine_view, delta,
                  recompute=base_recompute_fn(engine_view.definition))

    # SQLite side (fresh fact instance so bases evolve independently).
    sqlite_pos = build_fact(base)
    warehouse = SqliteWarehouse()
    warehouse.load_fact(sqlite_pos)
    warehouse.define_summary_table(view_definition(sqlite_pos))
    sqlite_changes = ChangeSet("pos", sqlite_pos.table.schema)
    sqlite_changes.insert_many(to_insert)
    sqlite_changes.delete_many(to_delete)
    warehouse.maintain(sqlite_changes)

    sqlite_rows = [tuple(row) for row in warehouse.sorted_rows("v")]
    assert sqlite_rows == engine_view.table.sorted_rows()


@settings(max_examples=20, deadline=None)
@given(base=fact_rows, inserted=fact_rows)
def test_backends_agree_with_lattice(base, inserted):
    """Lattice-derived SQL deltas agree with the engine's D-lattice."""
    from repro.lattice import maintain_lattice

    engine_pos = build_fact(base)
    fine = SummaryViewDefinition.create(
        "fine", engine_pos, ["storeID", "itemID", "date"],
        [("n", CountStar()), ("total", Sum(col("qty")))],
    )
    coarse = SummaryViewDefinition.create(
        "coarse", engine_pos, ["category"],
        [("n", CountStar()), ("total", Sum(col("qty")))],
        dimensions=["items"],
    )
    engine_views = [MaterializedView.build(fine), MaterializedView.build(coarse)]
    engine_changes = ChangeSet("pos", engine_pos.table.schema)
    engine_changes.insert_many(inserted)
    maintain_lattice(engine_views, engine_changes)

    sqlite_pos = build_fact(base)
    warehouse = SqliteWarehouse()
    warehouse.load_fact(sqlite_pos)
    fine_sql = SummaryViewDefinition.create(
        "fine", sqlite_pos, ["storeID", "itemID", "date"],
        [("n", CountStar()), ("total", Sum(col("qty")))],
    )
    coarse_sql = SummaryViewDefinition.create(
        "coarse", sqlite_pos, ["category"],
        [("n", CountStar()), ("total", Sum(col("qty")))],
        dimensions=["items"],
    )
    warehouse.define_summary_table(fine_sql)
    warehouse.define_summary_table(coarse_sql)
    sqlite_changes = ChangeSet("pos", sqlite_pos.table.schema)
    sqlite_changes.insert_many(inserted)
    warehouse.maintain(sqlite_changes, use_lattice=True)

    for view in engine_views:
        sqlite_rows = [tuple(r) for r in warehouse.sorted_rows(view.name)]
        assert sqlite_rows == view.table.sorted_rows(), view.name
