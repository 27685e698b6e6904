#!/usr/bin/env python3
"""Cube lattices, a partially materialised cube, and maintaining it.

Walks the pipeline the paper assumes around its contribution:

1. build the combined lattice of Figure 5 (fact attributes × dimension
   hierarchies) — 24 candidate cube views;
2. keep a fixed handful of them: the partially materialised lattice of
   Section 3.4, whose edges say which kept view each other kept view is
   computed from;
3. materialise the kept views as generalized cube views and maintain them
   all with one summary-delta lattice pass.

Run:  python examples/cube_explorer.py
"""

from repro import CountStar, Sum, SummaryViewDefinition, col
from repro.lattice import (
    build_lattice_for_views,
    combined_lattice,
    grouping_label,
    maintain_lattice,
    restrict_to,
)
from repro.views import MaterializedView, compute_rows
from repro.workload import RetailConfig, generate_retail, update_generating_changes

ATTRIBUTE_ORDER = [
    "storeID", "city", "region", "itemID", "category", "date",
]

#: The Figure 5 nodes kept materialised.
KEPT = [
    # The top: the finest grain, from which every other node derives.
    frozenset({"storeID", "itemID", "date"}),
    # SiC_sales' grain (Figure 1): per store and item category.
    frozenset({"storeID", "category"}),
    # sCD_sales' grain without the region: per city and day.
    frozenset({"city", "date"}),
    # A roll-up of both dimension hierarchies.
    frozenset({"region", "category"}),
    # sR_sales' grain: per region.
    frozenset({"region"}),
    # The grand total.
    frozenset(),
]


def main() -> None:
    data = generate_retail(RetailConfig(pos_rows=20_000, seed=42))

    # 1. The combined lattice (paper, Figure 5).
    chains = [
        data.stores.hierarchy.levels,     # storeID -> city -> region
        data.items.hierarchy.levels,      # itemID -> category
        ("date",),
    ]
    lattice = combined_lattice(chains)
    print(f"Combined lattice: {len(lattice.nodes)} candidate cube views "
          f"(Figure 5 shows this structure for the retail schema).")

    # 2. Keep only KEPT (Section 3.4): an edge joins two kept nodes when
    #    one derives from the other through any path of dropped nodes.
    partial = restrict_to(lattice, KEPT)
    print(f"\nPartially materialised lattice: {len(partial.nodes)} views, "
          f"{len(partial.edges)} derivation edges:")
    for parent, child in partial.edges:
        print(f"  {grouping_label(parent, ATTRIBUTE_ORDER):<26} -> "
              f"{grouping_label(child, ATTRIBUTE_ORDER)}")

    # 3. Materialise the kept nodes as generalized cube views.
    views = []
    for node in partial.topological_order():
        group_by = [a for a in ATTRIBUTE_ORDER if a in node]
        dimensions = []
        if {"city", "region"} & node:
            dimensions.append("stores")
        if "category" in node:
            dimensions.append("items")
        name = "cube_" + ("_".join(group_by) if group_by else "all")
        definition = SummaryViewDefinition.create(
            name,
            data.pos,
            group_by=group_by,
            aggregates=[
                ("TotalCount", CountStar()),
                ("TotalQuantity", Sum(col("qty"))),
            ],
            dimensions=dimensions,
        )
        views.append(MaterializedView.build(definition))

    print("\nMaterialised views:")
    for view in views:
        print(f"  {view.name:<35} {len(view.table):>7,} rows")

    # 4. Maintain them all through one summary-delta lattice pass, each
    #    view's delta computed from its parent's (Theorem 5.1).
    plan = build_lattice_for_views(views)
    print("\nMaintenance plan:")
    print(plan.describe())
    changes = update_generating_changes(data.pos, data.config, 1_000, data.rng)
    result = maintain_lattice(views, changes, lattice=plan)
    print(f"\nMaintained all {len(views)} views: "
          f"propagate {result.propagate_seconds:.3f}s (online), "
          f"refresh {result.refresh_seconds:.3f}s (batch window).")
    for name, stats in result.stats.items():
        print(f"  {name:<35} {stats.updated:>5} updated, "
              f"{stats.inserted:>4} inserted, {stats.deleted:>4} deleted")

    matches = all(
        view.table.sorted_rows() == compute_rows(view.definition).sorted_rows()
        for view in views
    )
    print(f"\nEvery view matches recomputation from the base data: {matches}")
    if not matches:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
