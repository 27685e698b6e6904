"""Differential testing of the shared-scan D-lattice engine.

Hypothesis generates random star-schema change sets and drives them through
a four-view lattice whose sibling groups exercise every Table 1 aggregate
kind (COUNT(*), COUNT(e), SUM, MIN, MAX) and both dimension-join shapes.
The fused shared-scan engine, the per-child pipelines it replaces, and
its per-child fallback run on the interpreter (the ``interpreted`` and
``per_child`` fixtures) must all produce byte-identical summary deltas;
end-to-end maintenance under the
shared engine must land the same final tables as from-scratch recomputation
and as the SQLite backend executing the paper's literal SQL.
"""

import pytest
from hypothesis import given, settings

from repro.aggregates import Count, CountStar, Max, Min, Sum
from repro.core import MinMaxPolicy, PropagateOptions
from repro.lattice import (
    build_lattice_for_views,
    maintain_lattice,
    propagate_lattice,
)
from repro.relational import col
from repro.sqlite_backend import SqliteWarehouse
from repro.views import MaterializedView, SummaryViewDefinition, compute_rows

from ..conftest import per_node_deltas
from ..property.test_property_refresh import build_fact, fact_rows, split_changes
from .harness import differ_message, rows_equivalent
from .test_engines_differential import build_changes, delete_picks


def lattice_definitions(pos):
    """Four views forming a D-lattice with a three-way sibling group.

    ``root`` carries every Table 1 aggregate kind; the three children all
    derive from it — two through dimension joins (items / stores), one
    twice removed in attribute granularity — so one shared scan fuses
    heterogeneous join and aggregate shapes.
    """

    def aggregates():
        return [
            ("n", CountStar()),
            ("total", Sum(col("qty"))),
            ("nq", Count(col("qty"))),
            ("lo", Min(col("qty"))),
            ("hi", Max(col("qty"))),
        ]

    return [
        SummaryViewDefinition.create(
            "root", pos, ["storeID", "itemID", "date"], aggregates()
        ),
        SummaryViewDefinition.create(
            "by_store_cat", pos, ["storeID", "category"], aggregates(),
            dimensions=["items"],
        ),
        SummaryViewDefinition.create(
            "by_city_date", pos, ["city", "date"], aggregates(),
            dimensions=["stores"],
        ),
        SummaryViewDefinition.create(
            "by_region", pos, ["region"], aggregates(),
            dimensions=["stores"],
        ),
    ]


@pytest.mark.parametrize("policy", list(MinMaxPolicy))
@settings(max_examples=15, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_shared_scan_deltas_byte_identical(
    interpreted, per_child, policy, base, inserted, picks
):
    """Fused, per-child, and interpreted fallback deltas are identical —
    same rows, same order, for every lattice node.  The last leg runs
    shared-scan propagation with every fused group declined, so each
    sibling group takes the per-child fallback on the interpreter."""
    pos = build_fact(base)
    views = [MaterializedView.build(d) for d in lattice_definitions(pos)]
    to_insert, to_delete = split_changes(base, inserted, picks)
    changes = build_changes(pos, to_insert, to_delete)
    lattice = build_lattice_for_views(views)

    legacy = per_node_deltas(lattice, changes, policy)
    shared = propagate_lattice(
        lattice, changes, PropagateOptions(policy=policy)
    )
    with interpreted(), per_child():
        fallback = propagate_lattice(
            lattice, changes, PropagateOptions(policy=policy)
        )

    for name in lattice.order:
        reference = legacy[name].rows()
        for label, run in (
            ("shared-scan", shared),
            ("interpreted fallback", fallback),
        ):
            actual = run[name].table.rows()
            assert actual == reference, differ_message(
                f"per-child and {label} deltas for {name!r}",
                base, to_insert, to_delete, reference, actual,
            )
        assert shared[name].table.name == legacy[name].name
        assert shared[name].table.schema == legacy[name].schema


@settings(max_examples=10, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_shared_scan_maintenance_matches_recompute_and_sqlite(
    base, inserted, picks
):
    """Full maintenance under the shared engine lands every view on the
    recomputed state, agrees with the SQLite backend, and leaves the
    group-key indexes exact."""
    to_insert, to_delete = split_changes(base, inserted, picks)

    pos = build_fact(base)
    views = [MaterializedView.build(d) for d in lattice_definitions(pos)]
    changes = build_changes(pos, to_insert, to_delete)
    maintain_lattice(views, changes)

    sqlite_pos = build_fact(base)
    warehouse = SqliteWarehouse()
    warehouse.load_fact(sqlite_pos)
    for definition in lattice_definitions(sqlite_pos):
        warehouse.define_summary_table(definition)
    warehouse.maintain(build_changes(sqlite_pos, to_insert, to_delete))

    for view in views:
        name = view.definition.name
        expected = compute_rows(view.definition).sorted_rows()
        assert rows_equivalent(expected, view.table.sorted_rows()), (
            differ_message(
                f"shared-scan maintenance and recomputation for {name!r}",
                base, to_insert, to_delete,
                expected, view.table.sorted_rows(),
            )
        )
        sqlite_rows = [tuple(row) for row in warehouse.sorted_rows(name)]
        assert rows_equivalent(sqlite_rows, view.table.sorted_rows()), (
            differ_message(
                f"sqlite and shared-scan tables for {name!r}",
                base, to_insert, to_delete,
                sqlite_rows, view.table.sorted_rows(),
            )
        )
        assert view.table.verify_indexes(), (
            f"maintenance left an inconsistent index on {name!r}"
        )
