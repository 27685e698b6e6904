"""Theorem 5.1 executed in SQL: the D-lattice on the SQLite backend."""

import re

import pytest

from repro.aggregates import CountStar, Min, Sum
from repro.core import MinMaxPolicy, PropagateOptions
from repro.lattice import build_lattice_for_views, maintain_lattice
from repro.relational import And, Case, Not, Or, col, lit
from repro.sqlite_backend import SqliteWarehouse, edge_delta_select_sql
from repro.views import MaterializedView, SummaryViewDefinition
from repro.warehouse import ChangeSet
from repro.workload import (
    RetailConfig,
    build_retail_warehouse,
    generate_retail,
    retail_view_definitions,
    update_generating_changes,
)

from ..conftest import (
    assert_view_matches_recomputation,
    make_items,
    make_pos,
    make_stores,
)


@pytest.fixture
def setup():
    data = generate_retail(RetailConfig(pos_rows=1500, seed=23))
    sqlite_wh = SqliteWarehouse()
    sqlite_wh.load_fact(data.pos)
    for definition in retail_view_definitions(data.pos):
        sqlite_wh.define_summary_table(definition)
    changes = update_generating_changes(data.pos, data.config, 200, data.rng)
    return data, sqlite_wh, changes


class TestEdgeSql:
    def test_edge_sql_matches_engine_edge(self, setup):
        data, sqlite_wh, changes = setup
        engine_views = [
            MaterializedView.build(definition)
            for definition in retail_view_definitions(data.pos)
        ]
        lattice = build_lattice_for_views(engine_views)
        node = lattice.node("SiC_sales")
        sql = edge_delta_select_sql(node.edge, "SID_sales")
        # Applied to the parent *summary table* it derives the child view.
        rows = sqlite_wh.connection.execute(sql).fetchall()
        expected = {tuple(r) for r in sqlite_wh.rows("SiC_sales")}
        assert {tuple(r) for r in rows} == expected

    def test_edge_sql_mentions_join_when_annotated(self, setup):
        data, sqlite_wh, changes = setup
        engine_views = [
            MaterializedView.build(definition)
            for definition in retail_view_definitions(data.pos)
        ]
        lattice = build_lattice_for_views(engine_views)
        sql = edge_delta_select_sql(lattice.node("SiC_sales").edge, "sd_SID_sales")
        assert '"items"' in sql
        sql = edge_delta_select_sql(lattice.node("sR_sales").edge, "sd_sCD_sales")
        assert '"stores"' not in sql  # region rides along, no join needed


class TestLatticeMaintenance:
    def test_lattice_propagate_order(self, setup):
        data, sqlite_wh, changes = setup
        sqlite_wh.load_changes(changes)
        order = sqlite_wh.propagate_lattice()
        assert order[0] == "SID_sales"
        assert set(order) == set(sqlite_wh.summaries)

    def test_lattice_maintenance_agrees_with_engine(self, setup):
        data, sqlite_wh, changes = setup
        engine_wh = build_retail_warehouse(data)
        views = engine_wh.views_over("pos")

        sqlite_wh.maintain(changes, use_lattice=True)
        maintain_lattice(views, changes)
        for view in views:
            sqlite_rows = [tuple(r) for r in sqlite_wh.sorted_rows(view.name)]
            assert sqlite_rows == view.table.sorted_rows(), view.name

    def test_lattice_and_direct_deltas_identical_in_sql(self, setup):
        data, sqlite_wh, changes = setup
        sqlite_wh.load_changes(changes)
        sqlite_wh.propagate_lattice()
        lattice_deltas = {
            name: sqlite_wh.sorted_rows(summary.delta_name)
            for name, summary in sqlite_wh.summaries.items()
        }
        for summary in sqlite_wh.summaries.values():
            sqlite_wh.propagate(summary)  # direct recomputation
        for name, summary in sqlite_wh.summaries.items():
            assert sqlite_wh.sorted_rows(summary.delta_name) == lattice_deltas[name]


def declined_definitions(pos):
    """A root and two derived views whose aggregate inputs put AND, OR and
    NOT inside a CASE: outside the codegen subset, so every group-by over
    them — the build, and the MIN recompute a deleted minimum forces —
    is the interpreted fold."""
    middling = Case(
        [(And(col("qty").gt(lit(1)), Not(col("qty").gt(lit(4)))), col("qty"))],
        lit(0),
    )
    small_sale_date = Case(
        [(Or(col("qty").is_null(), col("qty").lt(lit(3))), col("date"))],
        lit(None),
    )
    aggregates = [
        ("n", CountStar()),
        ("middling", Sum(middling)),
        ("first_small", Min(small_sale_date)),
    ]
    return [
        SummaryViewDefinition.create(
            "fine", pos, ["storeID", "itemID", "date"], aggregates,
        ),
        SummaryViewDefinition.create(
            "by_category", pos, ["category"], aggregates,
            dimensions=["items"],
        ),
        SummaryViewDefinition.create(
            "by_region", pos, ["region"], aggregates, dimensions=["stores"],
        ),
    ]


#: Change sets for the declined-shape views, each with the groups of
#: ``(by_category, by_region)`` a refresh recomputes under each policy.
DECLINED_CHANGES = {
    # The small sale of store 1 / item 10 on date 1 is the fruit
    # category's and the west region's MIN: both are recomputed.
    "minimum-deleted": dict(
        deleted=[(1, 10, 1, 2, 1.0)],
        inserted=[(2, 13, 5, None, 1.0), (4, 11, 3, 4, 1.0)],
        recomputed={MinMaxPolicy.PAPER: (1, 1), MinMaxPolicy.SPLIT: (1, 1)},
    ),
    # Every east sale leaves: the east region's group is deleted, and the
    # drink category loses one of its two minimum-date rows.
    "group-emptied": dict(
        deleted=[(3, 10, 1, 6, 1.0), (3, 13, 4, 2, 1.3),
                 (4, 12, 2, 1, 1.5), (4, 12, 2, 1, 1.5)],
        inserted=[],
        recomputed={MinMaxPolicy.PAPER: (1, 0), MinMaxPolicy.SPLIT: (1, 0)},
    ),
    # Insertions only, one lowering the drink and east minimum: the paper's
    # policy recomputes it, the split policy folds it in.
    "insert-lowers-minimum": dict(
        deleted=[],
        inserted=[(3, 11, 0, None, 2.0), (1, 13, 6, 3, 1.2),
                  (1, 13, 6, 3, 1.2)],
        recomputed={MinMaxPolicy.PAPER: (1, 1), MinMaxPolicy.SPLIT: (0, 0)},
    ),
}


@pytest.mark.parametrize("policy", list(MinMaxPolicy), ids=lambda p: p.name)
@pytest.mark.parametrize("case", list(DECLINED_CHANGES))
def test_declined_shape_end_to_end_agrees_with_sqlite(case, policy, per_child,
                                                      monkeypatch):
    """A view shape the batch kernel declines, maintained through the
    lattice with every sibling group on the per-child path, lands the
    SQLite backend's summary tables; the interpreted fold did the
    recomputation of the groups whose minimum was threatened."""
    from repro.relational import aggregation

    changes_rows = DECLINED_CHANGES[case]

    def changes_for(pos):
        changes = ChangeSet("pos", pos.table.schema)
        changes.delete_many(changes_rows["deleted"])
        changes.insert_many(changes_rows["inserted"])
        return changes

    engine_pos = make_pos(make_stores(), make_items())
    views = [MaterializedView.build(definition)
             for definition in declined_definitions(engine_pos)]
    folds = []
    fold_interpreted = aggregation._fold_interpreted
    monkeypatch.setattr(
        aggregation, "_fold_interpreted",
        lambda *args: folds.append(args[0].name) or fold_interpreted(*args),
    )
    with per_child():
        result = maintain_lattice(views, changes_for(engine_pos),
                                  PropagateOptions(policy=policy))
    recomputed = changes_rows["recomputed"][policy]
    assert (result.stats["by_category"].recomputed,
            result.stats["by_region"].recomputed) == recomputed
    # A recompute folds its gathered rows after the dimension join, so the
    # folded table is ``join(recompute_<view>,<dimension>)``.
    assert sorted(
        re.search(r"recompute_(\w+)", name).group(1)
        for name in folds if "recompute_" in name
    ) == [
        view for view, n in zip(("by_category", "by_region"), recomputed) if n
    ], "a recomputed group was not folded by the interpreted fold"

    sqlite_pos = make_pos(make_stores(), make_items())
    sqlite_wh = SqliteWarehouse()
    sqlite_wh.load_fact(sqlite_pos)
    for definition in declined_definitions(sqlite_pos):
        sqlite_wh.define_summary_table(definition)
    sqlite_wh.maintain(changes_for(sqlite_pos), use_lattice=True)
    for view in views:
        sqlite_rows = [tuple(r) for r in sqlite_wh.sorted_rows(view.name)]
        assert sqlite_rows == view.table.sorted_rows(), view.name
        assert_view_matches_recomputation(view)
