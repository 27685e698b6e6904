"""Fault injection for the versioned path: a maintenance failure between
build and swap must be invisible — readers keep the old epoch, its
certificate stays intact, the warehouse audits green, and committed
epochs are never unpublished by any later failure or rollback."""

import threading

import pytest

from repro.core import (
    base_recompute_fn,
    compute_summary_delta,
    refresh_atomically,
    refresh_versioned,
)
from repro.errors import PublishError
from repro.obs.audit import rows_certificate
from repro.warehouse import ChangeSet
from repro.warehouse.health import audit_warehouse
from repro.workload import update_generating_changes

from ..conftest import assert_view_matches_recomputation
from .conftest import run_cycle


class Boom(RuntimeError):
    pass


def make_delta(view, pos, rows):
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(rows)
    delta = compute_summary_delta(view.definition, changes)
    return changes, delta


def snapshot_state(view):
    return (
        view.epoch,
        view.table,
        sorted(view.table.rows()),
        view.certificate.value if view.certificate else None,
    )


@pytest.mark.parametrize("stage", ["build", "publish"])
def test_failure_before_swap_preserves_old_epoch(retail, stage):
    data, warehouse = retail
    view = warehouse.views["sR_sales"]
    epoch, table, rows, cert = snapshot_state(view)

    changes, delta = make_delta(view, data.pos, [(1, 1, 1, 5, 1.0)])

    def hook(at):
        if at == stage:
            raise Boom(stage)

    with pytest.raises(Boom):
        refresh_versioned(view, delta, failure_hook=hook)

    # The abandoned shadow left no trace: same epoch, same table object,
    # same rows, same certificate.
    assert snapshot_state(view) == (epoch, table, rows, cert)
    assert view.certificate.value == rows_certificate(view.table.rows())

    # The warehouse still audits green (exit 0 of `repro audit`): base
    # changes had not been applied, so the served epoch is still exactly
    # consistent with base data.
    assert audit_warehouse(warehouse).passed

    # The same refresh succeeds afterwards: the failure was transient, not
    # corrupting.  Refresh every sibling view too so the whole warehouse
    # is current before the final audit.
    siblings = [
        (v, compute_summary_delta(v.definition, changes))
        for v in warehouse.views_over("pos")
        if v is not view
    ]
    changes.apply_to(data.pos.table)
    refresh_versioned(view, delta)
    assert view.epoch == epoch + 1
    assert_view_matches_recomputation(view)
    for sibling, sibling_delta in siblings:
        refresh_versioned(
            sibling,
            sibling_delta,
            recompute=base_recompute_fn(sibling.definition),
        )
    assert audit_warehouse(warehouse).passed


def test_maintenance_thread_death_leaves_readers_on_old_epoch(retail):
    """Kill the maintenance *thread* between build and swap; concurrent
    readers never notice."""
    data, warehouse = retail
    views = warehouse.views_over("pos")
    pinned = {view.name: view.pin() for view in views}
    before = {view.name: sorted(view.table.rows()) for view in views}

    changes = update_generating_changes(
        data.pos, data.config, 200, data.rng
    )
    deltas = {
        view.name: compute_summary_delta(view.definition, changes)
        for view in views
    }

    died = []

    def doomed_maintainer():
        def hook(stage):
            if stage == "publish":
                raise Boom("killed between build and swap")

        try:
            for view in views:
                refresh_versioned(
                    view,
                    deltas[view.name],
                    recompute=base_recompute_fn(view.definition),
                    failure_hook=hook,
                )
        except Boom as failure:
            died.append(failure)

    thread = threading.Thread(target=doomed_maintainer)
    thread.start()
    thread.join()
    assert died, "the injected fault never fired"

    for view in views:
        assert view.epoch == 0
        assert view.pin() is pinned[view.name]
        assert sorted(view.table.rows()) == before[view.name]
        assert view.certificate.value == rows_certificate(view.table.rows())
    assert audit_warehouse(warehouse).passed

    # A healthy maintainer finishes the job from where the dead one never
    # got: the deltas are still valid for epoch 0.
    changes.apply_to(data.pos.table)
    for view in views:
        refresh_versioned(
            view,
            deltas[view.name],
            recompute=base_recompute_fn(view.definition),
        )
        assert view.epoch == 1
        assert_view_matches_recomputation(view)
    assert audit_warehouse(warehouse).passed


def test_rollback_never_unpublishes_committed_epoch(retail):
    """An atomic-refresh rollback after a publish restores the committed
    epoch's exact contents — it can never rewind the epoch itself."""
    data, warehouse = retail
    view = warehouse.views["sR_sales"]

    # Commit epoch 1 through the versioned path.
    run_cycle(data, warehouse, n_changes=150, mode="versioned")
    assert view.epoch == 1
    committed_table = view.table
    committed_rows = sorted(view.table.rows())

    # Now fail an in-place atomic refresh on top of the committed epoch.
    changes, delta = make_delta(view, data.pos, [(2, 2, 2, 9, 1.0)])
    changes.apply_to(data.pos.table)

    def hook(step):
        raise Boom("die before the first mutation lands")

    with pytest.raises(Boom):
        refresh_atomically(view, delta, failure_hook=hook)

    assert view.epoch == 1                      # still the committed epoch
    assert view.table is committed_table        # same published table
    assert sorted(view.table.rows()) == committed_rows
    assert view.certificate.value == rows_certificate(view.table.rows())


def test_racing_publisher_loses_without_damaging_winner(retail):
    """Two maintainers build shadows off the same epoch; the loser's
    publish raises and the winner's committed epoch is untouched."""
    data, warehouse = retail
    view = warehouse.views["sR_sales"]

    winner = view.begin_version()
    loser = view.begin_version()
    winner.table.insert(("r-race", 1, 1, 1))
    published = view.publish(winner)

    with pytest.raises(PublishError, match="stale shadow"):
        view.publish(loser)

    assert view.epoch == 1
    assert view.pin() is published
    assert view.table is winner.table


# -- shadows written behind the table ---------------------------------------
#
# The publish validation re-reads the slots the shadow's *storage* recorded
# as written, so a write that goes around the table's observers and indexes
# — straight to the store — must still be refused, and a refused publish
# must leave the published version exactly as it was.


# Each fault writes the row of slot 1 somewhere through the store alone.
STORE_FAULTS = {
    "set": lambda store, row: store.set(0, row),
    "fill": lambda store, row: store.fill([0], [[value] for value in row]),
    "kill": lambda store, row: store.kill([0]),
    "append": lambda store, row: store.append(row),
}


@pytest.mark.parametrize("fault", sorted(STORE_FAULTS))
@pytest.mark.parametrize("also_refreshed", [False, True])
def test_store_level_write_behind_the_observers_is_refused(
    retail, fault, also_refreshed
):
    data, warehouse = retail
    view = warehouse.views["SID_sales"]
    before = snapshot_state(view)
    shadow = view.begin_version()
    if shadow.table.written_slots() is None:
        pytest.skip("row storage re-inserts: publish digests every row")
    if also_refreshed:     # a legitimate write beside the torn one
        shadow.table.insert(shadow.table.row_at(2)[:3] + (1, 1.0, 1))
        shadow.table.delete_slot(2)
    STORE_FAULTS[fault](shadow.table._store, shadow.table.row_at(1))
    assert 2 * len(shadow.table.written_slots()) < len(shadow.table)
    with pytest.raises(PublishError, match="certificate mismatch"):
        view.publish(shadow)
    assert snapshot_state(view) == before
    assert view.certificate.value == rows_certificate(view.table.rows())
    assert audit_warehouse(warehouse).passed


@pytest.mark.parametrize("written_share", ["few", "most"])
def test_compaction_that_skips_the_index_is_refused(retail, written_share):
    """Rows moved by the store alone keep their certificate (a bag does
    not care where a row sits) but the group-key index still points at
    the slots they left."""
    data, warehouse = retail
    view = warehouse.views["SID_sales"]
    before = snapshot_state(view)
    shadow = view.begin_version()
    if shadow.table.written_slots() is None:
        pytest.skip("row storage is never compacted")
    doomed = [0, 1] if written_share == "few" else list(
        range(len(shadow.table) * 3 // 4)
    )
    shadow.table.delete_slots(doomed)
    moves = shadow.table._store.compact()        # not Table.compact()
    assert moves
    with pytest.raises(PublishError, match="index mismatch"):
        view.publish(shadow)
    assert snapshot_state(view) == before
    assert audit_warehouse(warehouse).passed

    # The same build through the table's own compaction publishes.
    shadow = view.begin_version()
    shadow.table.delete_slots(doomed)
    assert shadow.table.compact() == len(moves)
    view.publish(shadow)
    assert view.epoch == before[0] + 1
    assert view.table.verify_indexes()
    assert view.certificate.value == rows_certificate(view.table.rows())


def test_base_with_tombstones_from_in_place_refresh_publishes(retail):
    """An in-place refresh leaves holes in the published table; the next
    shadow clones them slot for slot, refills or compacts them, and the
    incremental validation still adds up."""
    data, warehouse = retail
    run_cycle(data, warehouse, n_changes=400, mode="inplace")
    view = warehouse.views["SID_sales"]
    assert view.table._free_slots, "the in-place refresh deleted no group"
    run_cycle(data, warehouse, n_changes=40, mode="versioned")
    assert view.epoch == 1
    if view.table.storage == "column":
        assert view.table._store.size() == len(view.table)   # dense again
        assert view.table._free_slots == []
    assert all(warehouse.verify_certificates().values())
    assert all(warehouse.verify_views().values())
    assert audit_warehouse(warehouse).passed
