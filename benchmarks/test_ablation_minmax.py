"""Ablation: the PAPER MIN/MAX policy vs our SPLIT extension.

The paper's refresh recomputes a group from base data whenever the delta
extremum ties or beats the stored extremum — including for pure insertions
that merely lower a MIN.  The SPLIT policy tracks insertion-side and
deletion-side extrema separately and recomputes only on deletions.

The workload where they diverge is *backfill*: late-arriving sales rows
dated before the current earliest sale.  Under PAPER every touched
SiC_sales group recomputes from base data; under SPLIT none do.
"""

import pytest

from repro.bench import scaled
from repro.core import (
    MinMaxPolicy,
    PropagateOptions,
    base_recompute_fn,
    compute_summary_delta,
    refresh,
)
from repro.views import MaterializedView, compute_rows
from repro.warehouse import ChangeSet
from repro.workload import RetailConfig, generate_retail, sic_sales



@pytest.fixture(scope="module")
def backfill_setup():
    data = generate_retail(
        RetailConfig(pos_rows=scaled(100_000, minimum=1_000), seed=71)
    )
    view = MaterializedView.build(sic_sales(data.pos))
    changes = ChangeSet("pos", data.pos.table.schema)
    for _ in range(scaled(10_000)):
        store_id = data.rng.randint(1, data.config.n_stores)
        item_id = data.rng.randint(1, data.config.n_items)
        qty = data.rng.randint(1, 10)
        changes.insert((store_id, item_id, 0, qty, 1.0))  # before day 1
    return data, view, changes


@pytest.mark.parametrize("policy", list(MinMaxPolicy), ids=lambda p: p.value)
def test_backfill_refresh(benchmark, backfill_setup, policy):
    data, view, changes = backfill_setup
    delta = compute_summary_delta(
        view.definition, changes, PropagateOptions(policy=policy)
    )
    applied = data.pos.table.copy()
    changes.apply_to(applied)

    # Refresh against a scratch copy so both policies see identical input;
    # point base_recompute at the updated copy via a patched fact clone.
    def run():
        scratch = view.begin_version()
        original_rows = data.pos.table
        data.pos.table = applied
        try:
            stats = refresh(
                scratch, delta, recompute=base_recompute_fn(view.definition)
            )
        finally:
            data.pos.table = original_rows
        return scratch, stats

    scratch, stats = benchmark.pedantic(run, rounds=3, iterations=1)
    print(f"\n  policy={policy.value}: recomputed {stats.recomputed} of "
          f"{stats.delta_rows} touched groups")
    if policy is MinMaxPolicy.SPLIT:
        assert stats.recomputed == 0
    else:
        assert stats.recomputed > 0  # the conservative cost the paper pays

    # Either way, the refreshed view equals recomputation over updated data.
    original_rows = data.pos.table
    data.pos.table = applied
    try:
        expected = compute_rows(view.definition).sorted_rows()
    finally:
        data.pos.table = original_rows
    assert scratch.table.sorted_rows() == expected
