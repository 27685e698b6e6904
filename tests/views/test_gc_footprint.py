"""What a materialised view leaves for the cyclic garbage collector.

A summary table's group-key index is unique, so it maps each key to a
bare slot, and the batch fold keeps one accumulator list per aggregate:
neither holds a container per group.  The collector's full passes are
proportional to the containers it tracks, so these are gated as counts
(``gc.get_objects()`` / ``gc.is_tracked``), not as seconds.
"""

import gc

import pytest

from repro.relational import col
from repro.relational.aggregation import CountRowsReducer, MinReducer, SumReducer
from repro.relational.codegen import codegen_enabled, compile_batch_aggregation
from repro.relational.schema import Schema
from repro.views import MaterializedView
from repro.warehouse import FactTable, ForeignKey

from ..conftest import make_items, make_stores, sid_definition

SIZES = [10_000, 50_000]


def fact_rows(n):
    """*n* rows, each its own (storeID, itemID, date) group."""
    return [(1 + i % 4, 10 + (i // 4) % 4, i, 1 + i % 3, 1.0) for i in range(n)]


def tracked_reachable(root):
    """Objects the collector tracks that *root* reaches through tracked
    containers (what a full pass traverses on its behalf)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


@pytest.mark.parametrize("n", SIZES)
def test_materialising_adds_no_container_per_group(n):
    stores, items = make_stores(), make_items()
    pos = FactTable(
        "pos", ["storeID", "itemID", "date", "qty", "price"],
        [ForeignKey("storeID", stores), ForeignKey("itemID", items)],
        fact_rows(n),
    )
    definition = sid_definition(pos).resolved()
    gc.collect()
    before = len(gc.get_objects())
    view = MaterializedView.build(definition)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(view.table) == len(view.group_key_index()) == n
    assert added < n / 10


@pytest.mark.parametrize("n", SIZES)
def test_batch_fold_output_holds_constant_containers(n):
    if not codegen_enabled():
        pytest.skip("REPRO_CODEGEN=0: no compiled batch fold")
    schema = Schema(["k", "j", "v"])
    aggregates = [("n", col("v"), CountRowsReducer()),
                  ("s", col("v"), SumReducer()),
                  ("m", col("v"), MinReducer())]
    fold = compile_batch_aggregation(schema, ["k", "j"], aggregates).fold_columns
    columns = [list(range(n)), [i % 7 for i in range(n)], [None, 2] * (n // 2)]
    folded = fold(columns, n)
    gc.collect()
    # The result pair, the key -> ordinal dict, the list of accumulators
    # and one accumulator per aggregate; the key tuples hold only ints.
    assert tracked_reachable(folded) <= 3 + len(aggregates)
