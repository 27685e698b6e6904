"""Seed determinism of every generator, and the reference evaluator."""

import random

from inputs import (
    Domain,
    FactModel,
    QuerySpec,
    answer_total,
    cycle_rng,
    evaluate,
    fact_rows,
    item_rows,
    micro_batches,
    store_rows,
)

DOMAIN = Domain()


def load(seed):
    rng = random.Random(f"{seed}/load")
    return store_rows(DOMAIN), item_rows(DOMAIN, rng), fact_rows(DOMAIN, 2_000, rng)


def cycles(seed, kind, count=3):
    """The change batches of *count* cycles and the model they leave."""
    model = FactModel(DOMAIN, load(seed)[2])
    batches = []
    for cycle in range(1, count + 1):
        make = getattr(model, kind)
        batches.append(make(cycle_rng(seed, "w", cycle), 200))
    return batches, model


def test_loaded_rows_repeat_for_a_seed_and_differ_between_seeds():
    assert load(7) == load(7)
    assert load(7)[2] != load(8)[2]
    assert load(7)[1] != load(8)[1]          # item costs are drawn too


def test_dimension_rows_form_the_hierarchies():
    stores, items, _facts = load(1)
    city_of_region = {}
    for _store, city, region in stores:
        assert city_of_region.setdefault(city, region) == region
    assert len({row[0] for row in stores}) == DOMAIN.n_stores
    assert len({row[2] for row in items}) == DOMAIN.n_categories


def test_change_batches_repeat_for_a_seed():
    for kind in ("update_generating", "insertion_generating"):
        first, model_a = cycles(3, kind)
        second, model_b = cycles(3, kind)
        assert first == second
        assert model_a.live == model_b.live
        assert first != cycles(4, kind)[0]


def test_cycle_rng_depends_on_seed_workload_and_cycle():
    draws = {
        cycle_rng(seed, workload, cycle).random()
        for seed in (1, 2) for workload in ("a", "b") for cycle in (1, 2)
    }
    assert len(draws) == 8
    assert cycle_rng(1, "a", 1).random() == cycle_rng(1, "a", 1).random()


def test_update_generating_deletes_live_rows_and_inserts_into_their_groups():
    model = FactModel(DOMAIN, load(5)[2])
    before = list(model.live)
    groups = {row[:3] for row in before}
    inserts, deletes = model.update_generating(cycle_rng(5, "w", 1), 200)
    assert len(inserts) == len(deletes) == 100
    assert all(row[:3] in groups for row in inserts)
    remaining = list(before)
    for row in deletes:
        remaining.remove(row)                 # each one was a live row
    assert sorted(model.live) == sorted(remaining + inserts)
    assert model.sum_qty == sum(row[3] for row in model.live)


def test_insertion_generating_uses_only_new_dates():
    model = FactModel(DOMAIN, load(5)[2])
    newest = model.max_date
    inserts, deletes = model.insertion_generating(cycle_rng(5, "w", 1), 200)
    assert deletes == [] and len(inserts) == 200
    assert all(newest < row[2] <= newest + 5 for row in inserts)
    assert model.max_date == max(row[2] for row in inserts)
    assert model.sum_qty == sum(row[3] for row in model.live)


def test_micro_batches_partition_the_changes_in_order():
    inserts, deletes = list(range(250)), list(range(30))
    batches = micro_batches(inserts, deletes)
    assert len(batches) == 100
    assert [row for ins, _ in batches for row in ins] == inserts
    assert [row for _, dele in batches for row in dele] == deletes
    assert micro_batches([1, 2], []) == [([1], []), ([2], [])]


def test_evaluate_matches_a_naive_group_by():
    stores, items, facts = load(9)
    region = {row[0]: row[2] for row in stores}
    category = {row[0]: row[2] for row in items}
    queries = [
        QuerySpec(("region", "category"),
                  (("sales", "count", None), ("units", "sum", "qty"))),
        QuerySpec((), (("units", "sum", "qty"),)),
    ]
    by_group, total = evaluate(queries, facts, stores, items)
    expected = {}
    for store, item, _date, qty, _price in facts:
        key = (region[store], category[item])
        count, units = expected.get(key, (0, 0))
        expected[key] = (count + 1, units + qty)
    assert by_group == sorted(k + v for k, v in expected.items())
    assert total == [(sum(row[3] for row in facts),)]
    assert answer_total(queries[0], by_group) == total[0][0]
    assert answer_total(queries[1], total) == total[0][0]
