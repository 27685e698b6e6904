"""Fault injection for the one commit path: a maintenance failure
anywhere between clone and swap must be invisible — readers keep the old
epoch, its certificate stays intact, no lineage manifest is recorded,
the warehouse audits green, a retry publishes the next epoch, and
committed epochs are never unpublished by any later failure."""

import threading

import pytest

from repro.core import (
    MinMaxPolicy,
    PropagateOptions,
    apply_refresh,
    base_recompute_fn,
    compute_summary_delta,
)
from repro.errors import PublishError, TableError
from repro.obs.audit import rows_certificate
from repro.views import MaterializedView
from repro.warehouse import ChangeSet
from repro.warehouse.health import audit_warehouse
from repro.workload import update_generating_changes

from ..conftest import (
    assert_view_matches_recomputation,
    make_items,
    make_pos,
    make_stores,
    minmax_definition,
    sic_definition,
    sid_definition,
)
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
        view.certificate.value,
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
        apply_refresh(view, delta, failure_hook=hook)

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
    apply_refresh(view, delta)
    assert view.epoch == epoch + 1
    assert_view_matches_recomputation(view)
    for sibling, sibling_delta in siblings:
        apply_refresh(
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
                apply_refresh(
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
        apply_refresh(
            view,
            deltas[view.name],
            recompute=base_recompute_fn(view.definition),
        )
        assert view.epoch == 1
        assert_view_matches_recomputation(view)
    assert audit_warehouse(warehouse).passed


def test_failure_never_unpublishes_committed_epoch(retail):
    """A refresh failing after a publish leaves the committed epoch's
    exact contents — it can never rewind the epoch itself."""
    data, warehouse = retail
    view = warehouse.views["sR_sales"]

    # Commit epoch 1.
    run_cycle(data, warehouse, n_changes=150)
    assert view.epoch == 1
    committed_table = view.table
    committed_rows = sorted(view.table.rows())

    # Now fail a refresh on top of the committed epoch.
    changes, delta = make_delta(view, data.pos, [(2, 2, 2, 9, 1.0)])
    changes.apply_to(data.pos.table)

    def hook(stage):
        raise Boom("die before the first mutation lands")

    with pytest.raises(Boom):
        apply_refresh(view, delta, failure_hook=hook)

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


def test_refresh_overtaken_by_a_racing_publish_records_nothing(retail):
    """A rival publishes while a refresh builds: the refresh's own publish
    is refused as stale, and it records no manifest and no freshness; the
    retry builds on the rival's epoch."""
    data, warehouse = retail
    view = warehouse.views["sR_sales"]
    changes, delta = make_delta(view, data.pos, [(1, 1, 1, 5, 1.0)])
    changes.apply_to(data.pos.table)
    rival = view.begin_version()

    def hook(stage):
        if stage == "publish":
            view.publish(rival)

    with pytest.raises(PublishError, match="stale shadow"):
        apply_refresh(view, delta, failure_hook=hook)
    assert view.epoch == 1 and view.table is rival.table
    assert len(view.lineage) == 0
    assert view.freshness.refresh_count == 0

    apply_refresh(view, delta)
    assert view.epoch == 2
    assert len(view.lineage) == 1
    assert_view_matches_recomputation(view)


# -- shadows written behind the table ---------------------------------------
#
# The publish validation re-reads the slots the shadow's *storage* recorded
# as written, so a write that goes around the table's observers and indexes
# — straight to the store — must still be refused, and a refused publish
# must leave the published version exactly as it was.


@pytest.fixture(params=["as-shipped", "REPRO_CERTIFICATES=0"])
def certificates_switch(request, monkeypatch):
    """Build the warehouse as shipped, and again with the retired
    ``REPRO_CERTIFICATES=0`` set, which once built views without
    certificates and made ``publish`` skip every check.  Nothing reads it
    now, so a torn shadow is refused either way.  List it before
    ``retail`` so the variable is set before the warehouse is built."""
    if request.param != "as-shipped":
        monkeypatch.setenv("REPRO_CERTIFICATES", "0")


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
    certificates_switch, retail, fault, also_refreshed
):
    data, warehouse = retail
    view = warehouse.views["SID_sales"]
    before = snapshot_state(view)
    shadow = view.begin_version()
    if also_refreshed:
        # A second row for slot 2's group is refused at the write by the
        # unique group-key index, with nothing written; a new group and a
        # deletion are legitimate writes next to the torn one.
        rows = shadow.table._rows  # noqa: SLF001
        with pytest.raises(TableError, match="unique index"):
            shadow.table.insert(shadow.table.row_at(2)[:3] + (1, 1.0, 1))
        assert shadow.table.written_slots() == set()
        assert shadow.table._rows == rows  # noqa: SLF001
        shadow.table.insert(shadow.table.row_at(2)[:2] + (999, 1, 1.0, 1))
        shadow.table.delete_slot(2)
    STORE_FAULTS[fault](shadow.table._store, shadow.table.row_at(1))
    assert 2 * len(shadow.table.written_slots()) < len(shadow.table)
    with pytest.raises(PublishError, match="certificate mismatch"):
        view.publish(shadow)
    assert snapshot_state(view) == before
    assert view.certificate.value == rows_certificate(view.table.rows())
    assert audit_warehouse(warehouse).passed


@pytest.mark.parametrize("written_share", ["few", "most"])
def test_compaction_that_skips_the_index_is_refused(
    certificates_switch, retail, written_share
):
    """Rows moved by the store alone keep their certificate (a bag does
    not care where a row sits) but the group-key index still points at
    the slots they left."""
    data, warehouse = retail
    view = warehouse.views["SID_sales"]
    before = snapshot_state(view)
    shadow = view.begin_version()
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


def test_a_digest_column_wrong_at_a_written_slot_is_refused(retail):
    """Two written rows' digests swapped in the shadow's column: the
    certificate's value and every index still agree, but the next shadow
    would copy a column that no longer matches its rows."""
    data, warehouse = retail
    view = warehouse.views["SID_sales"]
    before = snapshot_state(view)
    shadow = view.begin_version()
    table = shadow.table
    for slot in (3, 7):
        row = table.row_at(slot)
        table.update_columns([slot], ["TotalCount"], [[row[3] + 1]])
    digests = shadow.certificate.digests
    digests[3], digests[7] = digests[7], digests[3]
    with pytest.raises(PublishError, match="digest column disagrees"):
        view.publish(shadow)
    assert snapshot_state(view) == before
    assert audit_warehouse(warehouse).passed


# -- a failure after some of the shadow's mutations have landed ----------------
#
# Every batch mutator a refresh calls on its shadow — and the MIN/MAX
# recompute it calls in between — is made to raise on its k-th call, for
# every k a successful refresh reaches.  The shadow is abandoned with part
# of the delta applied to it; the published epoch must not notice.


def global_definition(pos):
    """A view with no group-by: one row, located without an index."""
    from repro.aggregates import CountStar, Min, Sum
    from repro.relational import col
    from repro.views import SummaryViewDefinition

    return SummaryViewDefinition.create(
        "all_sales", pos, [],
        [("n", CountStar()), ("total", Sum(col("qty"))),
         ("first", Min(col("date")))],
    )


def store_minmax_definition(pos):
    """A finer MIN/MAX view (per store) so the deletions cross more view
    tuples — some recomputed, some merely updated."""
    from repro.aggregates import CountStar, Max, Min, Sum
    from repro.relational import col
    from repro.views import SummaryViewDefinition

    return SummaryViewDefinition.create(
        "store_span",
        pos,
        group_by=["storeID"],
        aggregates=[
            ("TotalCount", CountStar()),
            ("FirstSale", Min(col("date"))),
            ("LastSale", Max(col("date"))),
            ("TotalQuantity", Sum(col("qty"))),
        ],
    )


MIXED_INSERTS = [(1, 10, 1, 7, 1.0), (4, 13, 9, 2, 1.3)]
MIXED_DELETES = [(2, 12, 3, 5, 1.6), (3, 10, 1, 6, 1.0)]

#: (definition, inserts, deletes[, policy]) over the hand-built star
#: schema: a mixed batch that inserts, updates and empties groups; the same
#: batch on a MIN view (one group minimum deleted: a recompute), under
#: each MIN/MAX policy; the batch on the single-row view with no group-by,
#: whose earliest sale it deletes; deletions hitting each region's extreme
#: dates; and a store-level mix where three stores lose an extreme
#: (recomputes) while another only gains an interior date (a plain
#: update).
WORKLOADS = {
    "sid-mixed": (sid_definition, MIXED_INSERTS, MIXED_DELETES),
    "sic-mixed": (sic_definition, MIXED_INSERTS, MIXED_DELETES),
    "sic-mixed-split": (sic_definition, MIXED_INSERTS, MIXED_DELETES,
                        MinMaxPolicy.SPLIT),
    "global-mixed": (global_definition, MIXED_INSERTS, MIXED_DELETES),
    "region-extremes": (minmax_definition, [], [
        (1, 10, 1, 2, 1.0),   # west: a date-1 (current MIN) tuple
        (3, 13, 4, 2, 1.3),   # east: the date-4 (current MAX) tuple
    ]),
    "store-extremes": (store_minmax_definition, [
        (3, 10, 2, 1, 1.0),   # store 3: date 2 is interior to [1, 4]
    ], [
        (1, 10, 1, 2, 1.0),   # store 1: a MIN(date) tuple
        (2, 12, 3, 5, 1.6),   # store 2: the MAX(date) tuple
        (4, 12, 2, 1, 1.5),   # store 4: a twin extreme tuple
    ]),
}

#: The shadow table's batch mutators, compaction included.
MUTATORS = ("append_batch", "delete_slots", "update_columns", "compact")


def prepared(workload):
    """A view over a fresh star schema, its delta and recompute callback,
    with the base changes applied."""
    definition_factory, inserts, deletes, *policy = WORKLOADS[workload]
    pos = make_pos(make_stores(), make_items())
    view = MaterializedView.build(definition_factory(pos))
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(inserts)
    changes.delete_many(deletes)
    delta = compute_summary_delta(
        view.definition, changes, PropagateOptions(*policy)
    )
    changes.apply_to(pos.table)
    return view, delta, base_recompute_fn(view.definition)


def arm_shadow_mutators(view, fail_at=None):
    """Make every shadow *view* begins count its batch-mutator calls, the
    *fail_at*-th (1-based, over all of them) raising; returns the log."""
    calls = []
    begin = view.begin_version

    def begin_armed(*args):
        shadow = begin(*args)
        for name in MUTATORS:
            def mutator(*call_args, _apply=getattr(shadow.table, name),
                        _name=name):
                calls.append(_name)
                if len(calls) == fail_at:
                    raise Boom(f"{_name}, call {fail_at}")
                return _apply(*call_args)
            setattr(shadow.table, name, mutator)
        return shadow

    view.begin_version = begin_armed
    return calls


def arm_recompute(recompute, fail_at=None):
    """*recompute*, counting its calls, the *fail_at*-th raising."""
    calls = []

    def armed(keys):
        calls.append(keys)
        if len(calls) == fail_at:
            raise Boom(f"recompute, call {fail_at}")
        return recompute(keys)

    return armed, calls


def mutator_calls(workload) -> int:
    view, delta, recompute = prepared(workload)
    calls = arm_shadow_mutators(view)
    apply_refresh(view, delta, recompute)
    return len(calls)


def recompute_calls(workload) -> int:
    view, delta, recompute = prepared(workload)
    armed, calls = arm_recompute(recompute)
    apply_refresh(view, delta, armed)
    return len(calls)


MUTATOR_POINTS = [
    (workload, k)
    for workload in WORKLOADS
    for k in range(1, mutator_calls(workload) + 1)
]
RECOMPUTE_POINTS = [
    (workload, k)
    for workload in WORKLOADS
    for k in range(1, recompute_calls(workload) + 1)
]


def published_state(view):
    """What readers can see, down to the slot order of the rows."""
    return (
        view.pin(),
        view.epoch,
        view.table.rows(),
        view.certificate.value,
        view.table.verify_indexes(),
        view.freshness.refresh_count,
        len(view.lineage),
    )


def assert_untouched_then_retry(view, before, delta, recompute):
    """The failed refresh left *before* in place and no manifest; the same
    refresh then publishes the next epoch, once."""
    assert published_state(view) == before
    assert view.certificate.value == rows_certificate(view.table.rows())
    assert len(view.lineage) == 0
    apply_refresh(view, delta, recompute)
    assert view.epoch == before[1] + 1
    assert_view_matches_recomputation(view)
    assert view.table.verify_indexes()
    assert view.certificate.value == rows_certificate(view.table.rows())
    (manifest,) = view.lineage.manifests()
    assert manifest.epoch == view.epoch


@pytest.mark.parametrize("workload,fail_at", MUTATOR_POINTS)
def test_mutator_failure_at_every_call_leaves_the_published_epoch(
    workload, fail_at
):
    view, delta, recompute = prepared(workload)
    before = published_state(view)
    calls = arm_shadow_mutators(view, fail_at)
    with pytest.raises(Boom):
        apply_refresh(view, delta, recompute)
    assert len(calls) == fail_at
    del view.begin_version                      # disarm for the retry
    assert_untouched_then_retry(view, before, delta, recompute)


@pytest.mark.parametrize("workload,fail_at", RECOMPUTE_POINTS)
def test_recompute_failure_at_every_call_leaves_the_published_epoch(
    workload, fail_at
):
    view, delta, recompute = prepared(workload)
    before = published_state(view)
    armed, calls = arm_recompute(recompute, fail_at)
    with pytest.raises(Boom):
        apply_refresh(view, delta, armed)
    assert len(calls) == fail_at
    assert_untouched_then_retry(view, before, delta, recompute)


def test_sweeps_cross_every_mutation_kind():
    """The sweeps fail inside inserts, deletions, updates, recomputed
    rows and compaction, and at a recompute in each MIN/MAX workload."""
    failed_in = set()
    for workload, fail_at in MUTATOR_POINTS:
        view, delta, recompute = prepared(workload)
        calls = arm_shadow_mutators(view)
        stats = apply_refresh(view, delta, recompute)
        failed_in.add(calls[fail_at - 1])
        if workload.endswith("extremes"):
            assert stats.recomputed > 0
        if workload == "store-extremes":
            assert stats.updated > 0
        if workload == "sid-mixed":
            assert (stats.inserted, stats.updated, stats.deleted) == (1, 1, 2)
    assert failed_in == set(MUTATORS)
    assert {workload for workload, _k in RECOMPUTE_POINTS} == {
        "sic-mixed", "sic-mixed-split", "global-mixed", "region-extremes",
        "store-extremes",
    }
