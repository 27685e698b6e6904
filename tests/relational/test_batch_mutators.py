"""Batch table mutators: equal to the per-row methods, all or nothing.

``insert_many`` / ``append_batch`` / ``delete_slots`` / ``update_columns``
are batch kernels over the table's columns; the per-row methods (``insert`` /
``delete_slot`` / ``update_slot``) are the reference they are replayed
against here.  ``update_columns`` writes only columns no index keys on and
no domain tracks (here ``c``), so it never moves a key.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TableError
from repro.obs.audit import ViewCertificate, rows_certificate
from repro.relational import Table

from ..conftest import assert_digest_column

COLUMNS = ["u", "a", "b", "c"]

# Values include duplicates, nulls, and ones no typed column can hold.
values = st.one_of(st.integers(0, 3), st.sampled_from([None, 1.5, 2 ** 63, "x"]))
picks = st.lists(st.integers(0, 60), max_size=6)


steps = st.lists(st.one_of(
    st.tuples(st.sampled_from(["insert", "append"]),
              st.lists(st.tuples(values, values), max_size=6)),
    st.tuples(st.just("delete"), picks),
    st.tuples(st.just("update"), st.lists(
        st.tuples(st.integers(0, 60), values), max_size=6
    )),
), max_size=25)


def build():
    """Typed columns, a unique and two plain indexes, two tracked
    domains, a free column, three tombstones to recycle, and a
    certificate."""
    table = Table("t", COLUMNS)
    table.append_batch([list(range(8)), [0, 1, 2, 3] * 2, [0, 0, 1, 1] * 2,
                        [0] * 8])
    table.create_index(["u"], unique=True)
    table.create_index(["a"])
    table.create_index(["a", "b"])
    table.track_domain("a")
    table.track_domain("b")
    for slot in (1, 4, 6):
        table.delete_slot(slot)
    certificate = table.attach_observer(ViewCertificate.from_table(table))
    return table, certificate


def distinct_live(table, chosen):
    live = [slot for slot, _row in table.slots()]
    return list(dict.fromkeys(live[i % len(live)] for i in chosen)) if live else []


def replay(batch, single, history, fresh):
    """Apply *history* to *batch* a batch at a time and to *single* a row
    at a time; *fresh* hands out values for the unique column.  After
    every step each table's certificate keeps each live row's digest at
    its slot."""
    for kind, payload in history:
        step(batch, single, kind, payload, fresh)
        for table in (batch, single):
            (certificate,) = table.observers
            assert_digest_column(table, certificate)


def step(batch, single, kind, payload, fresh):
    """One step of a history, on both tables."""
    if kind in ("insert", "append"):
        rows = [(next(fresh), a, b, a) for a, b in payload]
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
        for chosen, value in payload:
            for slot in distinct_live(single, [chosen]):
                by_slot[slot] = value
        batch.update_columns(list(by_slot), ["c"], [list(by_slot.values())])
        for slot, value in by_slot.items():
            single.update_slot(slot, single.row_at(slot)[:3] + (value,))


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
    assert batch_certificate.value == rows_certificate(batch.rows())


class TestBatchEqualsPerRow:
    @settings(max_examples=200, deadline=None)
    @given(steps, steps)
    def test_random_history(self, history, on_clone):
        self.check(history, on_clone)

    def check(self, history, on_clone):
        batch, batch_certificate = build()
        single, single_certificate = build()
        fresh = itertools.count(100)
        replay(batch, single, history, fresh)
        assert_same(batch, single, batch_certificate, single_certificate)

        # Clones share index buckets with their sources (HashIndex.clone):
        # batch writes to either side must copy a bucket before touching it.
        # Each clone's certificate copies its source's digest column, as a
        # shadow version's does.
        kept = batch.rows()
        batch_clone, single_clone = batch.copy(), single.copy()
        certificates = [
            clone.attach_observer(ViewCertificate(
                certificate.value, certificate.digests[:]
            ))
            for clone, certificate in ((batch_clone, batch_certificate),
                                       (single_clone, single_certificate))
        ]
        replay(batch_clone, single_clone, on_clone, fresh)
        assert_same(batch_clone, single_clone, *certificates)
        assert batch.rows() == kept and batch.verify_indexes()


class Recorder:
    """An observer that records every call it hears, with its rows
    transposed back into tuples."""

    def __init__(self):
        self.events = []

    def rows_inserted(self, slots, columns):
        self.events.append(("inserted", list(slots), list(zip(*columns))))

    def rows_deleted(self, slots, columns):
        self.events.append(("deleted", list(slots), list(zip(*columns))))

    def rows_updated(self, slots, columns):
        self.events.append(("updated", list(slots), list(zip(*columns))))

    def rows_moved(self, sources, targets, size):
        self.events.append(("moved", list(sources), list(targets), size))

    def truncated(self):
        self.events.append(("truncated",))


def test_observer_hears_every_mutation_as_a_batch_with_its_slots():
    """Batch and single-row mutators alike: the slots written and the
    rows now there (an update's new rows, gathered whole though it wrote
    one column), a deletion's rows, a compaction's moves."""
    table = Table("t", ["a", "b"], [(1, "x"), (2, "y")])
    recorder = table.attach_observer(Recorder())
    table.insert_many([(3, "z"), (4, None)])
    table.append_batch([[5], ["w"]])
    table.update_columns([0, 3], ["b"], [["X", "v"]])
    table.delete_slots([1, 4])
    table.insert((6, "u"))
    table.update_slot(0, (1, "Y"))
    table.delete_slot(2)
    table.compact()
    table.truncate()
    assert recorder.events == [
        ("inserted", [2, 3], [(3, "z"), (4, None)]),
        ("inserted", [4], [(5, "w")]),
        ("updated", [0, 3], [(1, "X"), (4, "v")]),
        ("deleted", [1, 4], [(2, "y"), (5, "w")]),
        ("inserted", [4], [(6, "u")]),
        ("updated", [0], [(1, "Y")]),
        ("deleted", [2], [(3, "z")]),
        ("moved", [3, 4], [1, 2], 3),
        ("truncated",),
    ]


def snapshot(table, certificate):
    return (
        table._rows,  # noqa: SLF001
        sorted(table._free_slots),  # noqa: SLF001
        {key: sorted((k, list(index.slots_of(k))) for k in index.keys())
         for key, index in table.indexes.items()},
        table.domain("a"), table.domain("b"),
        certificate.value, certificate.digests_computed,
        certificate.digests.tolist(),
    )


class TestBadBatchLeavesTheTableAlone:
    """Regression: ``insert_many`` used to insert every row before the
    first bad one and then raise."""

    def test_ragged_insert_many(self):
        table, certificate = build()
        before = snapshot(table, certificate)
        with pytest.raises(TableError, match="arity"):
            table.insert_many([(50, 1, 1, 1), (51, 2), (52, 3, 3, 3)])
        assert snapshot(table, certificate) == before
        assert table.verify_indexes()

    def test_ragged_append_batch(self):
        table, certificate = build()
        before = snapshot(table, certificate)
        with pytest.raises(TableError, match="ragged"):
            table.append_batch([[50, 51], [1], [1, 1], [1, 1]])
        assert snapshot(table, certificate) == before

    @pytest.mark.parametrize("mutate", [
        lambda table: table.insert_many([(50, 1, 1, 1), (0, 2, 2, 2)]),  # u=0
        lambda table: table.insert_many([(50, 1, 1, 1), (50, 2, 2, 2)]),  # twice
        lambda table: table.append_batch([[50, 2], [1, 1], [1, 1], [1, 1]]),
        lambda table: table.update_columns([0, 2], ["c"], [[9]]),   # ragged
        lambda table: table.update_columns([0, 2], ["c", "c"], [[9, 8]]),
        lambda table: table.update_columns([0, 1], ["c"], [[9, 8]]),  # 1 empty
        lambda table: table.update_columns([0, 0], ["c"], [[9, 8]]),  # twice
        lambda table: table.update_columns([0, 99], ["c"], [[9, 8]]),  # past end
        lambda table: table.update_columns([-1, 0], ["c"], [[9, 8]]),
        lambda table: table.update_columns([0, 2], ["u"], [[9, 8]]),  # indexed
        lambda table: table.update_columns([0, 2], ["c", "b"],        # tracked
                                           [[9, 8], [1, 1]]),
        lambda table: table.delete_slots([0, 1]),                   # 1 is empty
        lambda table: table.delete_slots([0, 2, 0]),
        lambda table: table.delete_slots([0, 99]),
    ])
    def test_columnar_batches_are_validated_whole(self, mutate):
        table, certificate = build()
        before = snapshot(table, certificate)
        with pytest.raises(TableError):
            mutate(table)
        assert snapshot(table, certificate) == before
        assert table.verify_indexes()


@pytest.mark.parametrize("mutate", [
    lambda table: table.insert((0, 1, 1, 1)),            # u=0 taken
    lambda table: table.update_slot(2, (0, 2, 1, 0)),    # u=0 taken
], ids=["insert", "update_slot"])
def test_refused_single_row_write_leaves_the_table_alone(mutate):
    """Regression: a single-row write refused by a unique index used to
    store the row (or drop its old key) before the index raised."""
    table, certificate = build()
    before = snapshot(table, certificate)
    with pytest.raises(TableError, match="unique"):
        mutate(table)
    assert snapshot(table, certificate) == before
    assert len(table) == len(table.rows())
    assert table.verify_indexes()


def test_update_columns_refuses_a_tracked_column():
    """A column a tracked domain counts is refused even with no index on
    it, and the table is left as it was."""
    table, certificate = build()
    table.track_domain("c")
    before = snapshot(table, certificate)
    with pytest.raises(TableError, match="domain-tracked"):
        table.update_columns([0, 2], ["c"], [[5, 6]])
    assert snapshot(table, certificate) == before


def test_update_columns_shifts_the_certificate_and_records_written_slots():
    """On a clone, an update feeds the observer the new rows (one digest
    a row; the old rows' come from the digest column) and the store's
    written-slots record, and writes only the named column: keys,
    domains and indexes stay put."""
    source, source_certificate = build()
    table = source.copy()
    certificate = table.attach_observer(ViewCertificate(
        source_certificate.value, source_certificate.digests[:]
    ))
    digests = certificate.digests_computed
    keys = table.index_on(["u"])
    before = {slot: row for slot, row in table.slots()}
    assert table.update_columns([5, 0], ["c"], [[7, None]]) == 2
    assert table.written_slots() == {0, 5}
    assert certificate.digests_computed == digests + 2
    assert_digest_column(table, certificate)
    assert table.row_at(5) == before[5][:3] + (7,)
    assert table.row_at(0) == before[0][:3] + (None,)
    assert [keys.lookup_one((u,)) for u in (0, 5)] == [0, 5]
    assert table.domain("a") == source.domain("a")
    assert table.verify_indexes()
    assert table.update_columns([], ["c"], [[]]) == 0
    assert table.written_slots() == {0, 5}


def test_update_columns_demotes_a_typed_column():
    """A value a typed column cannot hold turns it into a list, with every
    value of the batch written."""
    table = Table("t", ["k", "v"])
    table.append_batch([[1, 2, 3], [10, 20, 30]])
    table.update_columns([0, 2], ["v"], [[11, 2 ** 63]])
    assert table.rows() == [(1, 11), (2, 20), (3, 2 ** 63)]
