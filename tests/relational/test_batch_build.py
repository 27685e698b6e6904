"""The batch build path: equal to the per-row loops it replaced.

``Table.create_index`` and ``track_domain`` build from the store's columns,
``insert_many`` and the group-by output transpose large batches one column
at a time.  The references here are the per-row forms: ``HashIndex.add``
over ``Table.slots()``, a count per row, ``Table.insert``, and the star-call
``_finalize`` as it stood before.
"""

import itertools
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TableError
from repro.relational import Table, aggregation
from repro.relational import table as table_module
from repro.relational.aggregation import (
    CountRowsReducer,
    Reducer,
    SumReducer,
    _finalize,
)
from repro.relational.expressions import col
from repro.relational.index import HashIndex
from repro.relational.schema import Schema
from repro.relational.table import transpose_rows
from repro.warehouse.partition import ShardedTable

from .test_batch_mutators import COLUMNS, distinct_live, values

STORAGES = ["row", "column", "sharded"]
INDEXES = [["u"], ["a"], ["b"], ["a", "b"], ["b", "a", "u"]]

# ``a`` is the shard column: shard keys must sort, so ints and nulls only.
a_values = st.one_of(st.integers(0, 3), st.none())
picks = st.lists(st.integers(0, 60), max_size=6)
history = st.lists(st.one_of(
    st.tuples(st.sampled_from(["insert", "append"]),
              st.lists(st.tuples(a_values, values), max_size=6)),
    st.tuples(st.just("delete"), picks),
    st.tuples(st.just("update"), st.lists(
        st.tuples(st.integers(0, 60), a_values, values), max_size=6
    )),
), max_size=25)


def build(storage, typed):
    """No index, no domain: they are built after the history.  *typed*
    starts the columns as typed arrays (where columnar), else as lists."""
    table = ShardedTable("t", COLUMNS, "a") if storage == "sharded" \
        else Table("t", COLUMNS, storage=storage)
    if typed:
        table.append_batch([list(range(8)), [0, 1, 2, 3] * 2, [0, 0, 1, 1] * 2])
    else:
        table.insert_many((u, u % 4, None if u % 3 else 1.5) for u in range(8))
    return table


def apply(table, steps):
    """Inserts (refilling freed slots), deletes and updates; ``u`` stays
    unique so that a unique index on it can be built afterwards."""
    fresh = itertools.count(100)
    for kind, payload in steps:
        if kind in ("insert", "append"):
            rows = [(next(fresh), a, b) for a, b in payload]
            if kind == "append" and rows:
                table.append_batch([list(column) for column in zip(*rows)])
            else:
                table.insert_many(rows)
        elif kind == "delete":
            table.delete_slots(distinct_live(table, payload))
        else:
            by_slot = {}
            for chosen, a, b in payload:
                for slot in distinct_live(table, [chosen]):
                    by_slot[slot] = (table.row_at(slot)[0], a, b)
            table.update_slots(list(by_slot.items()))


def per_row_buckets(table, columns, unique=False):
    reference = HashIndex(columns, table.schema.positions(columns), unique=unique)
    for slot, row in table.slots():
        reference.add(row, slot)
    return reference._buckets  # noqa: SLF001


class TestCreateIndex:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(STORAGES), st.booleans(), history)
    def test_equals_per_row_build(self, storage, typed, steps):
        table = build(storage, typed)
        apply(table, steps)
        for columns in INDEXES:
            index = table.create_index(columns, unique=columns[-1] == "u")
            assert index._buckets == per_row_buckets(table, columns)  # noqa: SLF001
            assert index is table.index_on(columns)
        assert table.verify_indexes()
        # And it is a live index from here on.
        table.delete_slots(distinct_live(table, [0, 3]))
        table.insert_many([(1000, None, None), (1001, 2, "x")])
        assert table.verify_indexes()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(STORAGES), st.booleans(), history)
    def test_unique_violation_leaves_indexes_unchanged(self, storage, typed, steps):
        table = build(storage, typed)
        apply(table, steps)
        table.insert_many([(500, 1, None), (501, 1, None)])
        table.create_index(["u"], unique=True)
        before = table.indexes
        with pytest.raises(TableError, match="unique index"):
            table.create_index(["a", "b"], unique=True)
        assert table.indexes == before
        assert table.index_on(["a", "b"]) is None
        assert table.verify_indexes()
        # The same columns still take a plain index afterwards.
        plain = table.create_index(["a", "b"])
        assert plain._buckets == per_row_buckets(table, ["a", "b"])  # noqa: SLF001

    def test_load_is_the_per_row_add(self):
        keys = [(1,), (None,), (1,), (2 ** 63,)]
        loaded, added = HashIndex(["k"], [0]), HashIndex(["k"], [0])
        loaded.load(keys, [4, 0, 2, 9])
        for key, slot in zip(keys, [4, 0, 2, 9]):
            added.add_key(key, slot)
        assert loaded._buckets == added._buckets == {  # noqa: SLF001
            (1,): [4, 2], (None,): [0], (2 ** 63,): [9],
        }
        with pytest.raises(TableError, match=r"violated by key \(1,\)"):
            HashIndex(["k"], [0], unique=True).load(keys, range(4))


class TestTrackDomain:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(STORAGES), st.booleans(), history)
    def test_equals_per_row_counts(self, storage, typed, steps):
        table = build(storage, typed)
        apply(table, steps)
        for column in COLUMNS:
            table.track_domain(column)
            position = table.schema.position(column)
            counts: dict = {}
            for row in table.rows():
                counts[row[position]] = counts.get(row[position], 0) + 1
            tracked = table._domains[position]  # noqa: SLF001
            assert tracked == counts and type(tracked) is dict
            assert table.domain(column) == tuple(counts)  # first occurrence
        # Kept incrementally from here on.
        table.delete_slots(distinct_live(table, [1]))
        table.insert_many([(1000, 3, None)])
        for column in COLUMNS:
            assert set(table.domain(column)) == set(table.column_values(column))

    def test_counts_a_typed_array_and_a_list_column(self):
        table = Table("t", ["n", "s"], storage="column")
        table.append_batch([[1, 2, 1, 1], ["x", None, "x", 2 ** 63]])
        if table.storage == "column":   # REPRO_COLUMNAR=0 stores rows
            kinds = [type(column) for column in table._store._columns]  # noqa: SLF001
            assert kinds == [array, list]
        table.delete_slot(0)
        table.track_domain("n")
        table.track_domain("s")
        assert table._domains == {  # noqa: SLF001
            0: {2: 1, 1: 2}, 1: {None: 1, "x": 1, 2 ** 63: 1},
        }


def small_threshold(rows):
    return mock.patch.object(table_module, "_TRANSPOSE_BY_COLUMN_ROWS", rows)


class TestTransposition:
    @given(st.lists(st.tuples(values, values, values), min_size=1, max_size=12),
           st.integers(0, 13))
    def test_both_forms_agree(self, rows, threshold):
        expected = [list(column) for column in zip(*rows)]
        with small_threshold(threshold):
            columns = transpose_rows(rows, 3)
        assert [list(column) for column in columns] == expected

    def test_dict_views_and_the_shipped_threshold(self):
        n = table_module._TRANSPOSE_BY_COLUMN_ROWS  # noqa: SLF001
        groups = {(i, None): [i, 2 * i] for i in range(n)}
        keys = transpose_rows(groups.keys(), 2)
        states = transpose_rows(groups.values(), 2)
        assert keys == [list(range(n)), [None] * n]
        assert states == [list(range(n)), list(range(0, 2 * n, 2))]
        del groups[(0, None)]                       # one short: the star call
        assert transpose_rows(groups.keys(), 2) == [
            tuple(range(1, n)), (None,) * (n - 1),
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(STORAGES), st.integers(0, 9),
           st.lists(st.tuples(st.integers(), a_values, values), max_size=8))
    def test_insert_many_equals_per_row_insert(self, storage, threshold, rows):
        batch, single = build(storage, True), build(storage, True)
        for table in (batch, single):
            table.create_index(["a", "b"])
            table.delete_slot(2)
        with small_threshold(threshold):
            batch.insert_many(rows)
        for row in rows:
            single.insert(row)
        assert batch._rows == single._rows  # noqa: SLF001
        assert batch.verify_indexes()
        if batch.storage == "column" and storage == "column":
            assert [type(c) for c in batch._store._columns] == \
                [type(c) for c in single._store._columns]  # noqa: SLF001

    def test_a_ragged_large_batch_is_refused_whole(self):
        table = Table("t", ["a", "b"])
        with small_threshold(2), pytest.raises(TableError, match="arity"):
            table.insert_many([(1, 2), (3,), (4, 5)])
        assert len(table) == 0


def star_call_finalize(groups, table_name, keys, aggregates, name,
                       default_prefix, storage=None):
    """``_finalize`` with the two star-call transpositions it used to make."""
    reducers = [reducer for _n, _e, reducer in aggregates]
    n_aggs = len(aggregates)
    out_schema = Schema(list(keys) + [output for output, _e, _r in aggregates])
    result = Table(name or f"{default_prefix}({table_name})", out_schema,
                   storage=storage)
    if (groups and result.storage == "column"
            and all(type(r).finalize is Reducer.finalize for r in reducers)):
        key_columns = list(zip(*groups.keys())) if keys else []
        state_columns = list(zip(*groups.values())) if n_aggs else []
        result.append_batch([*key_columns, *state_columns])
        return result
    result.insert_many(
        key + tuple(reducers[i].finalize(states[i]) for i in range(n_aggs))
        for key, states in groups.items()
    )
    return result


cells = st.one_of(st.integers(-3, 3), st.floats(allow_nan=False),
                  st.sampled_from([None, 2 ** 63, -2 ** 64]))


@st.composite
def folded_groups(draw):
    """Group states as a fold leaves them, with zero keys or zero
    aggregates among the shapes, and columns that are uniformly int,
    uniformly float (typed arrays) or mixed (lists)."""
    n_keys, n_aggs = draw(st.sampled_from([(0, 1), (0, 2), (1, 0), (2, 0),
                                           (1, 1), (2, 3)]))
    kinds = [draw(st.sampled_from(["int", "float", "mixed"]))
             for _ in range(n_keys + n_aggs)]
    column = {"int": st.integers(-5, 5), "float": st.floats(-5, 5),
              "mixed": cells}
    rows = draw(st.lists(
        st.tuples(*[column[kind] for kind in kinds]),
        max_size=1 if not n_keys else 10,
        unique_by=lambda row: row[:n_keys],
    ))
    groups = {row[:n_keys]: list(row[n_keys:]) for row in rows}
    keys = [f"k{i}" for i in range(n_keys)]
    aggregates = [(f"s{i}", col("k0"), SumReducer() if i % 2 else CountRowsReducer())
                  for i in range(n_aggs)]
    return groups, keys, aggregates


class TestFinalize:
    @settings(max_examples=200, deadline=None)
    @given(folded_groups(), st.integers(0, 11), st.sampled_from(["row", "column"]))
    def test_equals_the_star_call_form(self, shape, threshold, storage):
        groups, keys, aggregates = shape
        args = (groups, "t", keys, aggregates, None, "groupby")
        expected = star_call_finalize(*args, storage=storage)
        with small_threshold(threshold):
            got = _finalize(*args, storage=storage)
        assert got.schema == expected.schema and got.name == expected.name
        assert got.rows() == expected.rows()     # values, first-occurrence order
        assert [tuple(map(type, row)) for row in got.rows()] == \
            [tuple(map(type, row)) for row in expected.rows()]
        if got.storage == "column":
            assert [type(c) for c in got._store._columns] == \
                [type(c) for c in expected._store._columns]  # noqa: SLF001

    def test_group_by_output_past_the_threshold(self):
        """End to end through the compiled fold, with more groups than the
        threshold: same table as the star-call form, typed columns kept."""
        source = Table("t", ["g", "h", "v"])
        source.append_batch([list(range(40)), [1.5] * 40, [None, 2] * 20])
        spec = [("n", col("v"), CountRowsReducer()), ("s", col("v"), SumReducer())]
        with mock.patch.object(aggregation, "_finalize", star_call_finalize):
            expected = aggregation.group_by(source, ["g", "h"], spec)
        with small_threshold(8):
            got = aggregation.group_by(source, ["g", "h"], spec)
        assert got.rows() == expected.rows()
        if got.storage == "column":
            assert [type(c) for c in got._store._columns] == \
                [array, array, array, list]  # noqa: SLF001
