"""Property: interleaved swap/read schedules preserve snapshot isolation.

Hypothesis generates a random base table, a stream of change batches, and
an arbitrary interleaving of two operations against one view:

* ``swap`` — run one versioned refresh (build shadow, publish);
* ``read`` — pin the current version, but *defer* evaluating it.

Snapshot isolation demands that every deferred read, evaluated only after
the whole schedule (including all later swaps) has run, equals the model
state of the view at the epoch it pinned — i.e. pins are true immutable
snapshots, epochs are monotonic, and no later swap can leak into an
earlier pin.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    PropagateOptions,
    apply_refresh,
    base_recompute_fn,
    compute_summary_delta,
)
from repro.views import MaterializedView
from repro.warehouse import ChangeSet

from ..property.test_property_refresh import build_fact, fact_rows, make_view

#: Per-swap change batches: small inserts keep examples fast to shrink.
change_batches = st.lists(
    st.lists(
        st.tuples(
            st.integers(1, 4),                   # storeID
            st.integers(1, 4),                   # itemID
            st.integers(1, 5),                   # date
            st.one_of(st.none(), st.integers(1, 9)),   # qty
            st.just(1.0),                        # price
        ),
        min_size=0, max_size=4,
    ),
    min_size=0, max_size=5,
)

#: True = swap (consume the next change batch), False = read (pin).
schedules = st.lists(st.booleans(), min_size=0, max_size=10)


@settings(max_examples=60, deadline=None)
@given(base=fact_rows, batches=change_batches, schedule=schedules)
def test_interleaved_swaps_and_reads_are_snapshot_isolated(
    base, batches, schedule
):
    pos = build_fact(base)
    view = MaterializedView.build(make_view(pos, "fine"))

    # Model: the exact row multiset of each published epoch.
    model = {0: sorted(view.table.rows())}
    pins = []   # (epoch at pin time, pinned ViewVersion)
    batch_iter = iter(batches)

    for do_swap in schedule:
        if do_swap:
            batch = next(batch_iter, None)
            if batch is None:
                break
            changes = ChangeSet("pos", pos.table.schema)
            changes.insert_many(batch)
            delta = compute_summary_delta(
                view.definition, changes, PropagateOptions()
            )
            changes.apply_to(pos.table)
            before = view.epoch
            apply_refresh(
                view, delta, recompute=base_recompute_fn(view.definition)
            )
            assert view.epoch == before + 1   # monotonic, never skips
            model[view.epoch] = sorted(view.table.rows())
        else:
            pins.append((view.epoch, view.pin()))

    # Evaluate every deferred read now, after all the swaps it was
    # interleaved with: each must reproduce its epoch's model state.
    for pinned_epoch, version in pins:
        assert version.epoch == pinned_epoch
        assert sorted(version.table.rows()) == model[pinned_epoch], (
            f"pin at epoch {pinned_epoch} no longer matches that epoch's "
            "state after later swaps"
        )

    # And the final published state is the latest model state.
    assert sorted(view.table.rows()) == model[view.epoch]
