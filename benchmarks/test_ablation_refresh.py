"""Ablation: per-tuple cursor refresh vs the "summary-delta join" variant.

Section 4.2 closes by observing that refresh is conceptually a left
outer-join between the summary-delta table and the summary table, and
Section 7 reports that a cursor-based refresh implemented *outside* the
database ran much slower than expected — vendors should build the join in.
This bench compares our two executions of the identical refresh decisions,
each applied to a shadow copy of every view (the copy is made outside the
timed region).
"""

import pytest

from repro.core import RefreshVariant, base_recompute_fn, refresh
from repro.lattice import build_lattice_for_views, propagate_lattice

from ablation_common import ablation_setup


@pytest.fixture(scope="module")
def prepared():
    data, views, changes = ablation_setup()
    lattice = build_lattice_for_views(views)
    deltas = propagate_lattice(lattice, changes)
    changes.apply_to(data.pos.table)
    return views, deltas


@pytest.mark.parametrize("variant", list(RefreshVariant), ids=lambda v: v.value)
def test_refresh_variant(benchmark, prepared, variant):
    views, deltas = prepared

    def shadows():
        return [view.begin_version() for view in views]

    def run(fresh_shadows):
        for shadow in fresh_shadows:
            refresh(
                shadow,
                deltas[shadow.definition.name],
                recompute=base_recompute_fn(shadow.definition),
                variant=variant,
            )
        return fresh_shadows

    refreshed = benchmark.pedantic(
        run,
        setup=lambda: ((shadows(),), {}),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    # Both variants must land on identical view contents.
    baseline = shadows()
    for shadow in baseline:
        refresh(
            shadow, deltas[shadow.definition.name],
            recompute=base_recompute_fn(shadow.definition),
            variant=RefreshVariant.CURSOR,
        )
    for got, expected in zip(refreshed, baseline):
        assert got.table.sorted_rows() == expected.table.sorted_rows()
