"""Table mutation, bag semantics, and index consistency."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TableError
from repro.obs.audit import (
    CERT_MASK,
    ViewCertificate,
    columns_certificate,
    rows_certificate,
)
from repro.relational import Table


@pytest.fixture
def table():
    return Table("t", ["a", "b"], [(1, "x"), (2, "y"), (1, "x")])


class TestBasics:
    def test_len_counts_live_rows(self, table):
        assert len(table) == 3

    def test_duplicates_allowed(self, table):
        assert table.rows().count((1, "x")) == 2

    def test_scan_order_is_slot_order(self, table):
        assert list(table.scan()) == [(1, "x"), (2, "y"), (1, "x")]

    def test_arity_checked_on_insert(self, table):
        with pytest.raises(TableError, match="arity"):
            table.insert((1,))

    def test_row_at_empty_slot_raises(self, table):
        table.delete_slot(0)
        with pytest.raises(TableError):
            table.row_at(0)

    def test_repr_mentions_name_and_size(self, table):
        assert "t" in repr(table) and "3 rows" in repr(table)


class TestMutation:
    def test_delete_slot_returns_row(self, table):
        assert table.delete_slot(1) == (2, "y")
        assert len(table) == 2

    def test_slot_reuse_after_delete(self, table):
        table.delete_slot(1)
        slot = table.insert((9, "z"))
        assert slot == 1

    def test_update_slot(self, table):
        table.update_slot(0, (5, "w"))
        assert table.row_at(0) == (5, "w")

    def test_delete_where(self, table):
        removed = table.delete_where(lambda row: row[0] == 1)
        assert removed == 2
        assert table.rows() == [(2, "y")]

    def test_truncate(self, table):
        table.create_index(["a"])
        table.truncate()
        assert len(table) == 0
        assert len(table.index_on(["a"])) == 0

    def test_insert_many_returns_count(self):
        table = Table("t", ["a"])
        assert table.insert_many([(1,), (2,)]) == 2


class TestIndexes:
    def test_index_built_over_existing_rows(self, table):
        index = table.create_index(["a"])
        assert sorted(index.lookup((1,))) == [0, 2]

    def test_index_maintained_on_insert(self, table):
        index = table.create_index(["a"])
        table.insert((1, "q"))
        assert len(index.lookup((1,))) == 3

    def test_index_maintained_on_delete(self, table):
        index = table.create_index(["a"])
        table.delete_slot(0)
        assert index.lookup((1,)) == [2]

    def test_index_maintained_on_update(self, table):
        index = table.create_index(["a"])
        table.update_slot(0, (7, "x"))
        assert index.lookup((7,)) == [0]
        assert index.lookup((1,)) == [2]

    def test_update_with_same_key_keeps_index(self, table):
        index = table.create_index(["a"])
        table.update_slot(0, (1, "changed"))
        assert sorted(index.lookup((1,))) == [0, 2]

    def test_create_index_idempotent(self, table):
        first = table.create_index(["a"])
        second = table.create_index(["a"])
        assert first is second

    def test_conflicting_uniqueness_raises(self, table):
        table.create_index(["b"])
        with pytest.raises(TableError):
            table.create_index(["b"], unique=True)

    def test_unique_index_violation(self):
        table = Table("t", ["a"], [(1,), (1,)])
        with pytest.raises(TableError, match="unique"):
            table.create_index(["a"], unique=True)

    def test_index_on_missing_returns_none(self, table):
        assert table.index_on(["b"]) is None


class TestDomainTracking:
    def test_untracked_returns_none(self, table):
        assert table.domain("a") is None

    def test_tracked_domain_reflects_existing_rows(self, table):
        table.track_domain("a")
        assert set(table.domain("a")) == {1, 2}

    def test_domain_maintained_on_insert(self, table):
        table.track_domain("a")
        table.insert((7, "q"))
        assert 7 in table.domain("a")

    def test_domain_maintained_on_delete(self, table):
        table.track_domain("a")
        table.delete_slot(1)  # the only row with a=2
        assert 2 not in table.domain("a")
        table.delete_slot(0)  # one of two rows with a=1
        assert 1 in table.domain("a")

    def test_domain_maintained_on_update(self, table):
        table.track_domain("a")
        table.update_slot(1, (9, "y"))
        assert 9 in table.domain("a") and 2 not in table.domain("a")

    def test_track_domain_is_idempotent(self, table):
        table.track_domain("a")
        table.track_domain("a")
        table.insert((3, "z"))
        assert set(table.domain("a")) == {1, 2, 3}

    def test_truncate_clears_domain(self, table):
        table.track_domain("a")
        table.truncate()
        assert table.domain("a") == ()

    def test_copy_preserves_tracking(self, table):
        table.track_domain("a")
        clone = table.copy()
        assert set(clone.domain("a")) == {1, 2}


class TestCopyAndHelpers:
    def test_copy_is_deep_for_rows(self, table):
        clone = table.copy("clone")
        table.insert((8, "n"))
        assert len(clone) == 3

    def test_copy_preserves_index_definitions(self, table):
        table.create_index(["a"])
        clone = table.copy()
        assert clone.index_on(["a"]) is not None

    def test_copy_keeps_slots_and_compact_makes_the_clone_dense(self):
        table = Table("t", ["a", "b"], [(i, str(i)) for i in range(6)],
                      storage="column")
        table.create_index(["a"])
        table.delete_slots([1, 4])
        before = list(table.slots())
        clone = table.copy()
        assert table.written_slots() is None
        if table.storage == "column":   # REPRO_COLUMNAR=0 re-inserts the rows
            # A structural clone: every row in the slot it had, the free
            # slots too, and nothing written yet.
            assert list(clone.slots()) == before
            assert clone._free_slots == [1, 4]  # noqa: SLF001
            assert clone.written_slots() == set()
            assert clone.compact() == 1  # slot 5 fills slot 1; slot 4 is cut off
            assert clone.written_slots() == {1, 5}
        assert list(table.slots()) == before
        assert table._free_slots == [1, 4]  # noqa: SLF001
        assert sorted(clone.rows()) == sorted(table.rows())
        assert [slot for slot, _row in clone.slots()] == [0, 1, 2, 3]
        assert clone._free_slots == []  # noqa: SLF001
        assert clone.verify_indexes()
        assert clone.compact() == 0
        # The next insert appends; the source still recycles its hole.
        assert clone.insert((9, "9")) == 4
        assert table.insert((9, "9")) == 4 and table.insert((8, "8")) == 1

    def test_compact_leaves_row_storage_alone(self):
        table = Table("t", ["a"], [(i,) for i in range(4)], storage="row")
        table.delete_slot(1)
        assert table.compact() == 0
        assert table.insert((9,)) == 1

    def test_copy_charges_a_scan_and_one_insert_per_row(self, table):
        from repro.relational.stats import measuring

        for storage in ("row", "column"):
            source = Table("t", ["a", "b"], table.rows(), storage=storage)
            with measuring() as stats:
                source.copy()
            assert (stats.rows_scanned, stats.rows_inserted) == (3, 3)

    def test_copy_does_not_inherit_observers(self, table):
        table.attach_observer(object())
        assert table.copy().observers == ()

    def test_column_values(self, table):
        assert table.column_values("a") == [1, 2, 1]

    def test_sorted_rows_puts_nulls_first(self):
        table = Table("t", ["a"], [(2,), (None,), (1,)])
        assert table.sorted_rows() == [(None,), (1,), (2,)]


# One step of a random table history: insert a row, delete or rewrite the
# n-th live row.  Values include one no typed column can hold.
values = st.one_of(st.integers(0, 3), st.sampled_from([2 ** 63, None, 1.5]))
history = st.lists(st.one_of(
    st.tuples(st.just("insert"), values, values),
    st.tuples(st.just("delete"), st.integers(0, 50), st.none()),
    st.tuples(st.just("update"), st.integers(0, 50), values),
), max_size=40)


def apply_history(table, steps):
    for kind, first, second in steps:
        live = [slot for slot, _row in table.slots()]
        if kind == "insert":
            table.insert((first, second))
        elif live and kind == "delete":
            table.delete_slot(live[first % len(live)])
        elif live:
            slot = live[first % len(live)]
            table.update_slot(slot, (table.row_at(slot)[0], second))


class TestCloneProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["row", "column"]), history, history, history)
    def test_clone_is_an_independent_dense_equal_bag(
        self, storage, before, on_source, on_clone
    ):
        table = Table("t", ["a", "b"], storage=storage)
        table.append_batch([[0, 1, 2, 3], [0, 1, 2, 3]])  # typed when columnar
        table.create_index(["a"])
        table.create_index(["a", "b"])
        table.track_domain("b")
        certificate = table.attach_observer(ViewCertificate(
            rows_certificate(table.rows())
        ))
        apply_history(table, before)

        clone = table.copy()
        assert rows_certificate(clone.rows()) == certificate.value
        assert sorted(clone.rows(), key=repr) == sorted(table.rows(), key=repr)
        assert clone.verify_indexes() and table.verify_indexes()
        assert sorted(clone.domain("b"), key=repr) == \
            sorted(table.domain("b"), key=repr)
        if table.storage == "column":  # a structural clone: rows keep slots
            assert list(clone.slots()) == list(table.slots())
            clone.compact()
        assert clone._store.size() == len(clone)  # noqa: SLF001 — dense
        assert clone.verify_indexes()
        assert clone.observers == ()

        kept = sorted(clone.rows(), key=repr)
        apply_history(table, on_source)
        assert sorted(clone.rows(), key=repr) == kept
        assert clone.verify_indexes()
        kept = sorted(table.rows(), key=repr)
        apply_history(clone, on_clone)
        assert sorted(table.rows(), key=repr) == kept
        assert table.verify_indexes() and clone.verify_indexes()
        for side in (table, clone):
            assert sorted(side.domain("b"), key=repr) == sorted(
                {row[1] for row in side.rows()}, key=repr
            )


# A clone's history, through every mutator a table has: single and batch
# forms, truncation, compaction.  Slot arguments pick among the live rows.
pairs = st.tuples(values, values)
picks = st.lists(st.integers(0, 50), min_size=1, max_size=4)
clone_history = st.lists(st.one_of(
    st.tuples(st.just("insert"), pairs),
    st.tuples(st.just("insert_many"), st.lists(pairs, max_size=4)),
    st.tuples(st.just("delete_slot"), st.integers(0, 50)),
    st.tuples(st.just("delete_slots"), picks),
    st.tuples(st.just("update_slot"), st.tuples(st.integers(0, 50), values)),
    st.tuples(st.just("update_slots"), st.tuples(picks, values)),
    st.tuples(st.just("truncate"), st.none()),
    st.tuples(st.just("compact"), st.none()),
), max_size=25)


def apply_clone_history(table, steps):
    for kind, argument in steps:
        live = [slot for slot, _row in table.slots()]

        def pick(n):
            return live[n % len(live)]

        if kind in ("insert", "insert_many", "truncate", "compact"):
            getattr(table, kind)(*([] if argument is None else [argument]))
        elif not live:
            continue
        elif kind == "delete_slot":
            table.delete_slot(pick(argument))
        elif kind == "delete_slots":
            table.delete_slots(sorted({pick(n) for n in argument}))
        elif kind == "update_slot":
            slot = pick(argument[0])
            table.update_slot(slot, (table.row_at(slot)[0], argument[1]))
        else:
            table.update_slots([
                (slot, (table.row_at(slot)[0], argument[1]))
                for slot in sorted({pick(n) for n in argument[0]})
            ])


class TestWrittenSlotsProperty:
    """What ``MaterializedView.publish`` leans on: a clone's storage knows
    every slot at which it may differ from its source."""

    @settings(max_examples=200, deadline=None)
    @given(st.booleans(), history, clone_history)
    def test_a_clone_differs_from_its_source_only_where_it_wrote(
        self, holes, before, steps
    ):
        base = Table("t", ["a", "b"], storage="column")
        if base.storage != "column":
            pytest.skip("REPRO_COLUMNAR=0: copies re-insert, nothing recorded")
        base.append_batch([[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]])  # typed
        base.create_index(["a"])
        base.create_index(["a", "b"])
        if holes:    # tombstones and free slots in the source, for certain
            base.delete_slots([1, 4])
        apply_history(base, before)
        base_certificate = rows_certificate(base.rows())

        clone = base.copy()
        certificate = clone.attach_observer(ViewCertificate(base_certificate))
        assert clone.written_slots() == set()
        apply_clone_history(clone, steps)
        written = clone.written_slots()

        # The certificate derived from the written slots alone is the
        # certificate of the whole clone, and the observer-kept one.
        gone, old = base.take_live(written)
        slots, new = clone.take_live(written)
        derived = (
            base_certificate
            - columns_certificate(old, len(gone))
            + columns_certificate(new, len(slots))
        ) & CERT_MASK
        assert derived == columns_certificate(clone.columns(), len(clone))
        assert derived == certificate.value

        # Slots never written hold what the source holds (or are absent or
        # dead in both); the rows at written slots are indexed there.
        base_rows, clone_rows = base._rows, clone._rows  # noqa: SLF001
        size = max(len(base_rows), len(clone_rows))
        base_rows += [None] * (size - len(base_rows))
        clone_rows += [None] * (size - len(clone_rows))
        for slot in set(range(size)) - written:
            assert base_rows[slot] == clone_rows[slot]
        assert clone.indexes_hold(slots, new)
        assert clone.verify_indexes() and base.verify_indexes()
        assert rows_certificate(base.rows()) == base_certificate  # untouched
