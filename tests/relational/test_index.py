"""HashIndex behaviour in isolation."""

import gc

import pytest

from repro.errors import TableError
from repro.relational import HashIndex, Table


@pytest.fixture
def index():
    idx = HashIndex(["a", "b"], [0, 1])
    idx.add((1, "x", 99), 0)
    idx.add((1, "x", 98), 1)
    idx.add((2, "y", 97), 2)
    return idx


class TestLookup:
    def test_lookup_multiple(self, index):
        assert sorted(index.lookup((1, "x"))) == [0, 1]

    def test_lookup_missing_is_empty(self, index):
        assert index.lookup((9, "z")) == []

    def test_lookup_one_single(self, index):
        assert index.lookup_one((2, "y")) == 2

    def test_lookup_one_missing_is_none(self, index):
        assert index.lookup_one((9, "z")) is None

    def test_lookup_one_multiple_raises(self, index):
        with pytest.raises(TableError, match="expected at most one"):
            index.lookup_one((1, "x"))

    def test_key_of_uses_positions(self):
        idx = HashIndex(["c"], [2])
        assert idx.key_of((1, 2, 3)) == (3,)

    def test_len_counts_distinct_keys(self, index):
        assert len(index) == 2

    def test_keys_iterates_distinct(self, index):
        assert set(index.keys()) == {(1, "x"), (2, "y")}


class TestMutation:
    def test_remove(self, index):
        index.remove((1, "x", 99), 0)
        assert index.lookup((1, "x")) == [1]

    def test_remove_last_slot_drops_key(self, index):
        index.remove((2, "y", 97), 2)
        assert index.lookup((2, "y")) == []
        assert len(index) == 1

    def test_remove_missing_key_raises(self, index):
        with pytest.raises(TableError, match="not present"):
            index.remove((9, "z", 0), 5)

    def test_remove_missing_slot_raises(self, index):
        with pytest.raises(TableError, match="not registered"):
            index.remove((1, "x", 99), 7)

    def test_clear(self, index):
        index.clear()
        assert len(index) == 0


class TestClone:
    def test_clone_has_the_same_entries(self, index):
        twin = index.clone()
        assert {key: twin.lookup(key) for key in twin.keys()} == {
            key: index.lookup(key) for key in index.keys()
        }
        assert twin.columns == index.columns and twin.unique == index.unique

    def test_writes_to_either_side_leave_the_other_untouched(self, index):
        twin = index.clone()
        twin.add((1, "x", 5), 7)          # grows a shared bucket
        index.remove((1, "x", 99), 0)     # shrinks the same one
        twin.remove((2, "y", 97), 2)      # drops a key
        index.add((3, "z", 1), 9)         # adds one
        assert index.lookup((1, "x")) == [1]
        assert twin.lookup((1, "x")) == [0, 1, 7]
        assert index.lookup((2, "y")) == [2] and twin.lookup((2, "y")) == []
        assert index.lookup((3, "z")) == [9] and twin.lookup((3, "z")) == []

    @pytest.mark.parametrize("batch", [False, True])
    def test_both_twins_write_the_same_shared_bucket(self, index, batch):
        """Each side replaces the shared bucket with its own; neither sees
        the other's slots, whether a write is one row or a batch."""
        twin = index.clone()
        key = (1, "x")
        if batch:
            twin.add_keys([key, key, (4, "w")], [7, 8, 3])
            index.remove_keys([key], [0])
            index.add_keys([key], [5])
            twin.remove_keys([key, key], [1, 7])
        else:
            twin.add_key(key, 7)
            twin.add_key(key, 8)
            twin.add_key((4, "w"), 3)
            index.remove_key(key, 0)
            index.add_key(key, 5)
            twin.remove_key(key, 1)
            twin.remove_key(key, 7)
        assert index.slots_of(key) == [1, 5]
        assert twin.slots_of(key) == [0, 8]
        assert index.slots_of((4, "w")) == [] and twin.slots_of((4, "w")) == [3]
        assert index.slots_of((2, "y")) == twin.slots_of((2, "y")) == [2]

    def test_clone_of_a_clone_after_writes(self, index):
        twin = index.clone()
        twin.add((1, "x", 5), 7)
        third = twin.clone()
        twin.add((1, "x", 6), 8)
        third.remove((1, "x", 99), 0)
        assert index.lookup((1, "x")) == [0, 1]
        assert twin.lookup((1, "x")) == [0, 1, 7, 8]
        assert third.lookup((1, "x")) == [1, 7]


class TestBatch:
    def test_slots_keep_insertion_order(self, index):
        index.add_keys([(1, "x"), (3, "z"), (1, "x")], [9, 4, 2])
        index.add_key((1, "x"), 6)
        assert index.slots_of((1, "x")) == [0, 1, 9, 2, 6]
        assert index.lookup_many([(3, "z"), (9, "q"), (1, "x")]) == [4, 0, 1, 9, 2, 6]
        index.remove_keys([(1, "x"), (1, "x")], [9, 0])
        assert index.slots_of((1, "x")) == [1, 2, 6]

    def test_a_bad_removal_leaves_the_index_unchanged(self, index):
        before = {key: index.slots_of(key) for key in index.keys()}
        with pytest.raises(TableError, match="not registered"):
            index.remove_keys([(2, "y"), (1, "x")], [2, 7])
        with pytest.raises(TableError, match="not present"):
            index.remove_keys([(2, "y"), (9, "z")], [2, 0])
        assert {key: index.slots_of(key) for key in index.keys()} == before

    def test_a_slot_is_found_only_at_a_slot_boundary(self):
        """Slots 0 and 1 pack to bytes that hold slot 2**32's packing at
        offset 4: a removal must search on past that match, and a slot
        matched only there is not registered."""
        idx = HashIndex(["a"], [0])
        idx.add_keys([("k",)] * 3, [0, 1, 2 ** 32])
        with pytest.raises(TableError, match="not registered"):
            idx.remove_keys([("k",), ("k",)], [0, 2 ** 33])
        assert idx.slots_of(("k",)) == [0, 1, 2 ** 32]
        idx.remove_keys([("k",)], [2 ** 32])
        assert idx.slots_of(("k",)) == [0, 1]
        with pytest.raises(TableError, match="not registered"):
            idx.remove_keys([("k",)], [2 ** 32])
        assert idx.slots_of(("k",)) == [0, 1]

    def test_a_hot_key_sheds_many_slots_in_one_batch(self):
        """Past 64 slots a bucket is filtered once, with the same checks."""
        idx = HashIndex(["a"], [0])
        idx.add_keys([("k",)] * 200 + [("j",)] * 3, list(range(203)))
        with pytest.raises(TableError, match="not registered"):
            idx.remove_keys([("k",)] * 2, [4, 500])
        idx.remove_keys([("k",)] * 100 + [("j",)], list(range(0, 200, 2)) + [201])
        assert idx.slots_of(("k",)) == list(range(1, 200, 2))
        assert idx.slots_of(("j",)) == [200, 202]

    def test_unique_batch_violation_leaves_the_index_unchanged(self):
        idx = HashIndex(["a"], [0], unique=True)
        idx.add_keys([(1,), (2,)], [0, 1])
        for keys in ([(3,), (2,)], [(3,), (4,), (3,)]):
            with pytest.raises(TableError, match="unique"):
                idx.add_keys(keys, [5, 6, 7][:len(keys)])
            assert {key: idx.slots_of(key) for key in idx.keys()} == {(1,): [0], (2,): [1]}


class TestCollector:
    """A non-unique index holds nothing the cyclic collector tracks per
    key: each bucket is ``bytes`` and the map is one object."""

    ROWS = 20_000

    @staticmethod
    def tracked():
        gc.collect()
        return len(gc.get_objects())

    def buckets(self, index):
        return list(index._entries.values())  # noqa: SLF001

    def test_the_index_is_invisible_to_the_collector(self):
        n = self.ROWS
        table = Table("t", ["a", "b", "v"])
        table.append_batch([[i % 4_000 for i in range(n)],
                            [i % 3 for i in range(n)], list(range(n))])
        before = self.tracked()
        index = table.create_index(["a", "b"])
        assert self.tracked() - before < 10
        assert 4_000 <= len(index) < n
        assert not any(map(gc.is_tracked, self.buckets(index)))
        # Batch writes, a clone and compaction keep it that way.
        table.delete_slots(range(0, n, 3))
        table.insert_many([(i % 50, 0, -i) for i in range(n // 2)])
        copy = table.copy()
        copy.delete_slots(range(1, n, 5))
        copy.compact()
        assert table.verify_indexes() and copy.verify_indexes()
        before = self.tracked()
        third = copy.copy()
        assert self.tracked() - before < 40
        for each in (table, copy, third):
            assert not any(map(gc.is_tracked, self.buckets(each.index_on(["a", "b"]))))


class TestUnique:
    def test_unique_rejects_duplicate_key(self):
        idx = HashIndex(["a"], [0], unique=True)
        idx.add((1,), 0)
        with pytest.raises(TableError, match="unique"):
            idx.add((1,), 1)

    def test_empty_columns_rejected(self):
        with pytest.raises(TableError):
            HashIndex([], [])

    def test_null_key_is_indexable(self):
        # SQL join semantics skip nulls at the operator level, not here.
        idx = HashIndex(["a"], [0])
        idx.add((None,), 0)
        assert idx.lookup((None,)) == [0]
