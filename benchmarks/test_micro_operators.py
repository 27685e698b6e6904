"""Micro-benchmarks of the relational substrate's hot operators.

These are conventional pytest-benchmark measurements (multiple rounds) of
the primitives every Figure 9 number is built from: hash aggregation, hash
join, indexed refresh lookups, and bulk change application.
"""

import random

import pytest

from repro.bench import scaled
from repro.core import base_recompute_fn, compute_summary_delta, refresh
from repro.relational import (
    CountRowsReducer,
    SumReducer,
    Table,
    col,
    group_by,
    hash_join,
)
from repro.views import MaterializedView
from repro.warehouse import ChangeSet
from repro.workload import (
    RetailConfig,
    generate_retail,
    sid_sales,
    update_generating_changes,
)

N_ROWS = 50_000


@pytest.fixture(scope="module")
def fact_table():
    rng = random.Random(5)
    return Table(
        "f",
        ["k", "d", "v"],
        [(rng.randint(1, 5_000), rng.randint(1, 100), rng.randint(1, 10))
         for _ in range(scaled(N_ROWS, minimum=1_000))],
    )


@pytest.fixture(scope="module")
def dim_table():
    return Table("d", ["k", "attr"], [(i, f"a{i % 50}") for i in range(1, 5_001)])


def test_group_by_throughput(benchmark, fact_table):
    result = benchmark(
        group_by,
        fact_table,
        ["k"],
        [("n", col("v"), CountRowsReducer()), ("s", col("v"), SumReducer())],
    )
    assert len(result) > 0


def test_hash_join_throughput(benchmark, fact_table, dim_table):
    result = benchmark(hash_join, fact_table, dim_table, [("k", "k")])
    assert len(result) == len(fact_table)


def test_hash_join_with_index(benchmark, fact_table, dim_table):
    dim_table.create_index(["k"])
    result = benchmark(hash_join, fact_table, dim_table, [("k", "k")])
    assert len(result) == len(fact_table)


@pytest.fixture(scope="module")
def refresh_workload():
    data = generate_retail(
        RetailConfig(pos_rows=scaled(N_ROWS, minimum=1_000), seed=11)
    )
    view = MaterializedView.build(sid_sales(data.pos))
    changes = update_generating_changes(
        data.pos, data.config, scaled(5_000), data.rng
    )
    delta = compute_summary_delta(view.definition, changes)
    changes.apply_to(data.pos.table)
    return data, view, delta


def test_refresh_throughput(benchmark, refresh_workload):
    data, view, delta = refresh_workload

    def run():
        scratch = view.begin_version()
        return refresh(
            scratch, delta, recompute=base_recompute_fn(view.definition)
        )

    stats = benchmark.pedantic(run, rounds=5, iterations=1)
    assert stats.touched > 0


def test_bulk_change_application(benchmark, fact_table):
    rows = fact_table.rows()

    def run():
        scratch = fact_table.copy()
        changes = ChangeSet("f", scratch.schema)
        changes.delete_many(rows[:1000])
        changes.insert_many(rows[:1000])
        changes.apply_to(scratch)
        return scratch

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result) == len(fact_table)
