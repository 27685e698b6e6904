#!/usr/bin/env python3
"""Maintaining summary tables when *dimension* tables change (§4.1.4).

Retail reality: items get recategorised and stores get reassigned between
regions.  Such changes never touch the fact table, yet every summary table
grouping on the affected hierarchy attributes must move history between
groups.  This example maintains the category- and region-grouped summary
tables through a simultaneous batch of fact AND dimension changes, using
the signed-delta expansion described in
``repro/core/dimension_changes.py``.

Run:  python examples/dimension_changes.py
"""

from repro import compute_summary_delta_combined
from repro.core import apply_refresh, base_recompute_fn
from repro.core.dimension_changes import apply_all_changes
from repro.views import compute_rows
from repro.warehouse import ChangeSet
from repro.workload import RetailConfig, build_retail_warehouse, generate_retail


def show(view, title):
    print(f"\n{title}")
    for row in view.read().sorted_rows()[:8]:
        print("  ", row)


def main() -> None:
    data = generate_retail(RetailConfig(
        pos_rows=5_000, n_items=12, n_categories=3, n_stores=8,
        n_cities=4, n_regions=2, seed=7,
    ))
    warehouse = build_retail_warehouse(data)
    sic = warehouse.view("SiC_sales")
    sr = warehouse.view("sR_sales")

    show(sr, "sR_sales before (sales by region):")

    # The batch: one store moves to the other region, one item changes
    # category, and ordinary sales keep arriving — all deferred together.
    store_row = data.stores.lookup(3)
    moved_store = (store_row[0], store_row[1], "region02"
                   if store_row[2] == "region01" else "region01")
    stores_changes = ChangeSet("stores", data.stores.table.schema)
    stores_changes.delete(store_row)
    stores_changes.insert(moved_store)

    item_row = data.items.lookup(5)
    recategorised = (item_row[0], item_row[1],
                     "cat01" if item_row[2] != "cat01" else "cat02",
                     item_row[3])
    items_changes = ChangeSet("items", data.items.table.schema)
    items_changes.delete(item_row)
    items_changes.insert(recategorised)

    pos_changes = ChangeSet("pos", data.pos.table.schema)
    pos_changes.insert((3, 5, 10, 4, 9.99))  # the moved store sells the
    pos_changes.insert((1, 5, 11, 2, 9.99))  # recategorised item, too

    print(f"\nBatch: move store 3 to {moved_store[2]}, move item 5 to "
          f"{recategorised[2]}, plus {pos_changes.size()} new sales.")

    # Propagate against the PRE-update state (still online)...
    dimension_changes = {"stores": stores_changes, "items": items_changes}
    deltas = {}
    for view in (sic, sr):
        relevant = {
            name: change_set
            for name, change_set in dimension_changes.items()
            if name in view.definition.dimensions
        }
        deltas[view.name] = compute_summary_delta_combined(
            view.definition, pos_changes, relevant
        )
        print(f"  summary delta for {view.name}: "
              f"{len(deltas[view.name])} affected groups")

    # ...then apply all base changes and refresh inside the batch window.
    apply_all_changes(pos_changes, dimension_changes, sic.definition)
    for view in (sic, sr):
        apply_refresh(view, deltas[view.name],
                      recompute=base_recompute_fn(view.definition))

    show(sr, "sR_sales after (store 3's entire history moved region):")

    # Prove it: maintained views equal recomputation from updated bases.
    for view in (sic, sr):
        assert view.table.sorted_rows() == \
            compute_rows(view.definition).sorted_rows()
    print("\nVerified: both maintained views match from-scratch "
          "recomputation over the updated base tables.")


if __name__ == "__main__":
    main()
