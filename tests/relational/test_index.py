"""HashIndex behaviour in isolation."""

import pytest

from repro.errors import TableError
from repro.relational import HashIndex


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

    def test_clone_of_a_clone_after_writes(self, index):
        twin = index.clone()
        twin.add((1, "x", 5), 7)
        third = twin.clone()
        twin.add((1, "x", 6), 8)
        third.remove((1, "x", 99), 0)
        assert index.lookup((1, "x")) == [0, 1]
        assert twin.lookup((1, "x")) == [0, 1, 7, 8]
        assert third.lookup((1, "x")) == [1, 7]


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
