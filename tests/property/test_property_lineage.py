"""Property-based testing of the lineage conservation invariant:

    for any interleaving of enqueues, micro-batches, merges, and
    maintenance rounds, every batch id ends up in EXACTLY ONE epoch
    manifest per view — none lost, none duplicated —

plus the failure side: a refresh that fails before its commit point
records no manifest at all, and the retry publishes the batches once.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import apply_refresh, base_recompute_fn, compute_summary_delta
from repro.views import MaterializedView
from repro.warehouse import ChangeSet

from ..conftest import (
    make_items,
    make_pos,
    make_stores,
    sic_definition,
    sid_definition,
)


class Boom(RuntimeError):
    pass


# One interleaving step: stage a row (optionally inside a micro-batch
# scope, optionally routed through a side change set that is merged in)
# or run one maintenance round.
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("stage"),
            st.tuples(
                st.integers(1, 4),                 # storeID
                st.sampled_from([10, 11, 12, 13]),  # itemID
                st.integers(1, 5),                 # date
                st.one_of(st.none(), st.integers(1, 9)),  # qty
                st.just(1.0),                      # price
            ),
            st.sampled_from(["direct", "micro_batch", "merged"]),
        ),
        st.tuples(st.just("maintain")),
    ),
    min_size=1,
    max_size=12,
)

@given(steps=steps)
@settings(max_examples=60, deadline=None)
def test_every_batch_lands_in_exactly_one_manifest_per_view(steps):
    pos = make_pos(make_stores(), make_items())
    views = [
        MaterializedView.build(sid_definition(pos)),
        MaterializedView.build(sic_definition(pos)),
    ]
    pending = ChangeSet("pos", pos.table.schema)
    allocated: set[int] = set()

    def maintain():
        if pending.is_empty():
            return
        deltas = [
            compute_summary_delta(view.definition, pending)
            for view in views
        ]
        pending.apply_to(pos.table)
        for view, delta in zip(views, deltas):
            apply_refresh(
                view, delta, recompute=base_recompute_fn(view.definition)
            )
        pending.clear()

    for step in steps:
        if step[0] == "stage":
            _, row, route = step
            if route == "micro_batch":
                with pending.batch():
                    pending.insert(row)
            elif route == "merged":
                side = ChangeSet("pos", pos.table.schema)
                side.insert(row)
                pending.merge(side)
            else:
                pending.insert(row)
            allocated |= set(pending.lineage)
        else:
            maintain()
    maintain()   # flush whatever the interleaving left behind

    for view in views:
        # No loss: every allocated batch is in some manifest of the view.
        assert view.lineage.published_batches() == frozenset(allocated)
        # No duplication: the manifests partition the batches (and the
        # index maps each batch to the single manifest containing it).
        total = sum(
            len(manifest.batches) for manifest in view.lineage.manifests()
        )
        assert total == len(allocated)
        for batch_id in allocated:
            manifest = view.lineage.manifest_for(batch_id)
            assert manifest is not None
            assert batch_id in manifest


def _staged_view_and_delta():
    pos = make_pos(make_stores(), make_items())
    view = MaterializedView.build(sid_definition(pos))
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert((1, 10, 1, 5, 1.0))
    changes.insert((2, 11, 2, 3, 2.0))
    delta = compute_summary_delta(view.definition, changes)
    changes.apply_to(pos.table)
    return view, delta


@pytest.mark.parametrize("stage", ["build", "publish"])
def test_abandoned_refresh_records_no_manifest(stage):
    view, delta = _staged_view_and_delta()

    def hook(at):
        if at == stage:
            raise Boom(at)

    with pytest.raises(Boom):
        apply_refresh(view, delta, failure_hook=hook)
    assert len(view.lineage) == 0
    assert view.lineage.published_batches() == frozenset()

    # The retry publishes each batch exactly once.
    apply_refresh(view, delta)
    assert len(view.lineage) == 1
    manifest = view.lineage.last_manifest()
    assert manifest.epoch == view.epoch
    assert view.lineage.published_batches() == delta.lineage.batch_ids()
