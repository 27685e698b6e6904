"""Batch table mutators: equal to the per-row methods, all or nothing.

``insert_many`` / ``append_batch`` / ``delete_slots`` / ``update_slots``
are batch kernels on columnar storage; the per-row methods (``insert`` /
``delete_slot`` / ``update_slot``) are the reference they are replayed
against here.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    base_recompute_fn,
    compute_summary_delta,
    refresh_atomically,
    refresh_versioned,
)
from repro.errors import TableError
from repro.obs.audit import ViewCertificate
from repro.relational import Table
from repro.views import MaterializedView
from repro.warehouse import ChangeSet
from repro.warehouse.partition import ShardedTable

from ..conftest import sic_definition

STORAGES = ["row", "column"]
COLUMNS = ["u", "a", "b"]

# Values include duplicates, nulls, and ones no typed column can hold.
values = st.one_of(st.integers(0, 3), st.sampled_from([None, 1.5, 2 ** 63, "x"]))
picks = st.lists(st.integers(0, 60), max_size=6)


def histories(a_values):
    return st.lists(st.one_of(
        st.tuples(st.sampled_from(["insert", "append"]),
                  st.lists(st.tuples(a_values, values), max_size=6)),
        st.tuples(st.just("delete"), picks),
        st.tuples(st.just("update"), st.lists(
            st.tuples(st.integers(0, 60), values, st.booleans()), max_size=6
        )),
    ), max_size=25)


steps = histories(values)
# Sharded on ``a``: shard keys must sort, and a batch interleaves shards.
sharded_steps = histories(st.one_of(st.integers(0, 3), st.none()))


def build(storage):
    """Typed columns when columnar, a unique and two plain indexes, two
    tracked domains, three tombstones to recycle, and a certificate."""
    table = ShardedTable("t", COLUMNS, "a") if storage == "sharded" \
        else Table("t", COLUMNS, storage=storage)
    table.append_batch([list(range(8)), [0, 1, 2, 3] * 2, [0, 0, 1, 1] * 2])
    table.create_index(["u"], unique=True)
    table.create_index(["a"])
    table.create_index(["a", "b"])
    table.track_domain("a")
    table.track_domain("b")
    for slot in (1, 4, 6):
        table.delete_slot(slot)
    certificate = table.attach_observer(
        ViewCertificate.from_rows(table.rows())
    )
    return table, certificate


def distinct_live(table, chosen):
    live = [slot for slot, _row in table.slots()]
    return list(dict.fromkeys(live[i % len(live)] for i in chosen)) if live else []


def replay(batch, single, history, fresh):
    """Apply *history* to *batch* a batch at a time and to *single* a row
    at a time; *fresh* hands out values for the unique column."""
    for kind, payload in history:
        if kind in ("insert", "append"):
            rows = [(next(fresh), a, b) for a, b in payload]
            if kind == "append" and rows:
                batch.append_batch([list(column) for column in zip(*rows)])
            else:
                batch.insert_many(rows)
            for row in rows:
                single.insert(row)
        elif kind == "delete":
            slots = distinct_live(single, payload)
            batch.delete_slots(slots)
            for slot in slots:
                single.delete_slot(slot)
        else:
            by_slot = {}
            for chosen, value, rekey in payload:
                for slot in distinct_live(single, [chosen]):
                    u, a, _b = single.row_at(slot)
                    by_slot[slot] = (next(fresh) if rekey else u, a, value)
            batch.update_slots(list(by_slot.items()))
            for slot, row in by_slot.items():
                single.update_slot(slot, row)


def assert_same(batch, single, batch_certificate, single_certificate):
    assert batch._rows == single._rows  # noqa: SLF001 — same slot layout
    assert batch.rows() == single.rows()
    assert len(batch) == len(single)
    assert batch.verify_indexes() and single.verify_indexes()
    for column in ("a", "b"):
        assert batch.domain(column) == single.domain(column)
    assert batch_certificate.value == single_certificate.value
    assert batch_certificate.digests_computed == \
        single_certificate.digests_computed
    assert batch_certificate.value == \
        ViewCertificate.from_rows(batch.rows()).value


class TestBatchEqualsPerRow:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(STORAGES), steps, steps)
    def test_random_history(self, storage, history, on_clone):
        self.check(storage, history, on_clone)

    @settings(max_examples=100, deadline=None)
    @given(sharded_steps, sharded_steps)
    def test_random_history_sharded(self, history, on_clone):
        self.check("sharded", history, on_clone)

    def check(self, storage, history, on_clone):
        batch, batch_certificate = build(storage)
        single, single_certificate = build(storage)
        fresh = itertools.count(100)
        replay(batch, single, history, fresh)
        assert_same(batch, single, batch_certificate, single_certificate)

        # Clones share index buckets with their sources (HashIndex.clone):
        # batch writes to either side must copy a bucket before touching it.
        kept = batch.rows()
        batch_clone, single_clone = batch.copy(), single.copy()
        certificates = [
            clone.attach_observer(ViewCertificate.from_rows(clone.rows()))
            for clone in (batch_clone, single_clone)
        ]
        replay(batch_clone, single_clone, on_clone, fresh)
        assert_same(batch_clone, single_clone, *certificates)
        assert batch.rows() == kept and batch.verify_indexes()


class Recorder:
    """An observer with the per-row callbacks only."""

    def __init__(self):
        self.events = []

    def row_inserted(self, row):
        self.events.append(("inserted", row))

    def row_deleted(self, row):
        self.events.append(("deleted", row))

    def row_updated(self, old, new):
        self.events.append(("updated", old, new))

    def truncated(self):
        self.events.append(("truncated",))


@pytest.mark.parametrize("storage", STORAGES)
def test_observer_without_batch_callbacks_receives_every_row(storage):
    table = Table("t", ["a", "b"], [(1, "x"), (2, "y")], storage=storage)
    recorder = table.attach_observer(Recorder())
    table.insert_many([(3, "z"), (4, None)])
    table.append_batch([[5], ["w"]])
    table.update_slots([(0, (1, "X")), (3, (4, "v"))])
    table.delete_slots([1, 4])
    assert recorder.events == [
        ("inserted", (3, "z")), ("inserted", (4, None)), ("inserted", (5, "w")),
        ("updated", (1, "x"), (1, "X")), ("updated", (4, None), (4, "v")),
        ("deleted", (2, "y")), ("deleted", (5, "w")),
    ]


def snapshot(table, certificate):
    return (
        table._rows,  # noqa: SLF001
        sorted(table._free_slots),  # noqa: SLF001
        {key: sorted((k, list(slots)) for k, slots in index._buckets.items())  # noqa: SLF001
         for key, index in table.indexes.items()},
        table.domain("a"), table.domain("b"),
        certificate.value, certificate.digests_computed,
    )


class TestBadBatchLeavesTheTableAlone:
    """Regression: ``insert_many`` used to insert every row before the
    first bad one and then raise."""

    @pytest.mark.parametrize("storage", STORAGES)
    def test_ragged_insert_many(self, storage):
        table, certificate = build(storage)
        before = snapshot(table, certificate)
        with pytest.raises(TableError, match="arity"):
            table.insert_many([(50, 1, 1), (51, 2), (52, 3, 3)])
        assert snapshot(table, certificate) == before
        assert table.verify_indexes()

    @pytest.mark.parametrize("storage", STORAGES)
    def test_ragged_append_batch(self, storage):
        table, certificate = build(storage)
        before = snapshot(table, certificate)
        with pytest.raises(TableError, match="ragged"):
            table.append_batch([[50, 51], [1], [1, 1]])
        assert snapshot(table, certificate) == before

    def test_ragged_insert_many_sharded(self):
        table, certificate = build("sharded")
        before = snapshot(table, certificate)
        with pytest.raises(TableError, match="arity"):
            table.insert_many([(50, 1, 1), (51, 2), (52, 3, 3)])
        assert snapshot(table, certificate) == before
        assert table.verify_indexes()

    @pytest.mark.parametrize("mutate", [
        lambda table: table.insert_many([(50, 1, 1), (0, 2, 2)]),   # u=0 taken
        lambda table: table.insert_many([(50, 1, 1), (50, 2, 2)]),  # twice
        lambda table: table.append_batch([[50, 2], [1, 1], [1, 1]]),
        lambda table: table.update_slots([(0, (9, 0, 0)), (2, (3, 0, 0))]),
        lambda table: table.update_slots([(0, (9, 0, 0)), (2, (8, 0))]),
        lambda table: table.update_slots([(0, (9, 0, 0)), (1, (8, 0, 0))]),
        lambda table: table.update_slots([(0, (9, 0, 0)), (0, (8, 0, 0))]),
        lambda table: table.delete_slots([0, 1]),                   # 1 is empty
        lambda table: table.delete_slots([0, 2, 0]),
    ])
    def test_columnar_batches_are_validated_whole(self, mutate):
        table, certificate = build("column")
        before = snapshot(table, certificate)
        with pytest.raises(TableError):
            mutate(table)
        assert snapshot(table, certificate) == before
        assert table.verify_indexes()


@pytest.mark.parametrize("storage", STORAGES + ["sharded"])
def test_update_batch_may_hand_unique_keys_on(storage):
    """Uniqueness is checked against the table as the batch leaves it: a
    key one update vacates is free for another — a chain, a swap — while a
    key that stays taken, or is claimed twice, still refuses the batch."""
    table, certificate = build(storage)       # u: 0 2 3 5 7 live
    table.update_slots([(0, (2, 0, 0)), (2, (9, 2, 0))])        # 2 handed on
    table.update_slots([(3, (5, 3, 1)), (5, (3, 1, 0))])        # 3 <-> 5
    assert sorted(table.column_values("u")) == [2, 3, 5, 7, 9]
    assert table.row_at(3) == (5, 3, 1) and table.row_at(5) == (3, 1, 0)
    assert table.verify_indexes()
    assert certificate.value == ViewCertificate.from_rows(table.rows()).value
    before = snapshot(table, certificate)
    for bad in ([(0, (3, 0, 0)), (3, (7, 3, 1))],               # 7 stays taken
                [(0, (8, 0, 0)), (3, (8, 3, 1))]):              # 8 twice
        with pytest.raises(TableError, match="unique"):
            table.update_slots(bad)
        assert snapshot(table, certificate) == before


def test_rollback_over_batch_applied_rows_restores_the_table(pos):
    """``refresh_atomically`` undoes row by row what a versioned (batch)
    refresh and a batch base apply stored."""
    view = MaterializedView.build(sic_definition(pos))
    recompute = base_recompute_fn(view.definition)

    first = ChangeSet("pos", pos.table.schema)
    first.insert_many([(1, 10, 1, 7, 1.0), (4, 13, 9, 2, 1.3)])
    first.delete_many([(2, 12, 3, 5, 1.6)])
    delta = compute_summary_delta(view.definition, first)
    first.apply_to(pos.table)
    refresh_versioned(view, delta, recompute)

    second = ChangeSet("pos", pos.table.schema)
    second.insert_many([(2, 11, 2, 1, 1.0), (4, 10, 9, 3, 1.0)])
    second.delete_many([(1, 10, 1, 7, 1.0), (3, 10, 1, 6, 1.0)])
    delta = compute_summary_delta(view.definition, second)
    second.apply_to(pos.table)

    def state():
        table = view.table
        columns = getattr(table._store, "_columns", ())  # noqa: SLF001
        return (table._rows,  # noqa: SLF001
                [(type(column), list(column)) for column in columns],
                view.certificate.value, table.verify_indexes())

    before = state()
    steps_taken = []

    def fail_late(step):
        steps_taken.append(step)
        if step == 2:
            raise RuntimeError("injected")

    with pytest.raises(RuntimeError, match="injected"):
        refresh_atomically(view, delta, recompute, failure_hook=fail_late)
    assert steps_taken == [0, 1, 2]
    assert state() == before
