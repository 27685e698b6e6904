"""Unit tests for the columnar storage backing and batch kernels.

The differential suite proves end-to-end equivalence on random change
sets; these tests pin the component contracts: ``ColumnStore`` slot
semantics (typed promotion/demotion, tombstones, bulk
``append_batch``/``take``/``gather``), and the batch group-by kernel
against the interpreted fold.
"""

from array import array

import pytest

from repro.errors import TableError
from repro.relational.aggregation import (
    CountNonNullReducer,
    CountRowsReducer,
    MaxReducer,
    MinReducer,
    SumReducer,
    group_by,
)
from repro.relational.expressions import col, lit
from repro.relational.table import ColumnStore, Table


ROWS = [
    (1, "a", 2, 1.0),
    (1, "b", None, 2.5),
    (2, "a", 7, 0.5),
    (1, "a", 4, None),
    (2, "b", None, 3.0),
]
COLS = ["k1", "k2", "v", "w"]


def make_table(rows=ROWS):
    return Table("t", COLS, rows)


class TestRowApiEquivalence:
    """The row API is a view over the columns."""

    def test_rows_scan_and_slots(self):
        col_t = make_table()
        assert col_t.rows() == ROWS
        assert list(col_t.scan()) == ROWS
        assert col_t.sorted_rows() == sorted(
            ROWS, key=lambda row: [(v is not None, v) for v in row]
        )
        assert list(col_t.slots()) == list(enumerate(ROWS))
        assert len(col_t) == len(ROWS)

    def test_row_at_and_tombstones(self):
        col_t = make_table()
        col_t.delete_slot(1)
        col_t.delete_slot(3)
        assert col_t._rows == [  # noqa: SLF001 — slot layout
            ROWS[0], None, ROWS[2], None, ROWS[4],
        ]
        assert col_t.row_at(2) == ROWS[2]
        with pytest.raises(TableError, match="slot 1 is empty"):
            col_t.row_at(1)

    def test_deleted_slots_are_recycled(self):
        col_t = make_table()
        col_t.delete_slot(2)
        slot = col_t.insert((9, "z", 9, 9.0))
        assert slot == 2
        assert col_t.row_at(2) == (9, "z", 9, 9.0)

    def test_update_slot(self):
        col_t = make_table()
        col_t.update_slot(0, (1, "a", 99, 1.0))
        assert col_t._rows == [(1, "a", 99, 1.0)] + ROWS[1:]  # noqa: SLF001

    def test_columns_match_rows(self):
        col_t = make_table()
        expected = [list(column) for column in zip(*ROWS)]
        got = [list(column) for column in col_t.columns()]
        assert got == expected
        assert [list(c) for c in col_t.columns(["v", "k1"])] == [
            expected[2], expected[0],
        ]


class TestTypedColumns:
    @staticmethod
    def batched(rows, columns=("a",)):
        """A columnar table whose first batch arrives via ``append_batch``
        (the promotion point — per-row inserts stay plain lists)."""
        table = Table("t", list(columns))
        table.append_batch([list(c) for c in zip(*rows)])
        return table

    def test_uniform_first_batch_promotes_to_arrays(self):
        table = self.batched(ROWS[:1], COLS)
        store = table._store  # noqa: SLF001
        assert isinstance(store, ColumnStore)
        k1, k2, _v, w = store._columns  # noqa: SLF001
        assert isinstance(k1, array) and k1.typecode == "q"
        assert isinstance(w, array) and w.typecode == "d"
        assert type(k2) is list  # strings never promote

    def test_null_demotes_to_list_without_corruption(self):
        # Regression: array.extend appends element-wise, so a mid-batch
        # failure used to leave a partial prefix behind before demotion.
        table = self.batched([(1,), (2,)])
        assert isinstance(table._store._columns[0], array)  # noqa: SLF001
        table.append_batch([[3, None, 5]])
        assert table.rows() == [(1,), (2,), (3,), (None,), (5,)]
        column = table._store._columns[0]  # noqa: SLF001
        assert type(column) is list

    def test_per_row_insert_demotes_too(self):
        table = self.batched([(1,)])
        table.insert(("x",))
        assert table.rows() == [(1,), ("x",)]

    def test_overflow_demotes(self):
        table = self.batched([(1,)])
        table.append_batch([[2 ** 80]])
        assert table.rows() == [(1,), (2 ** 80,)]

    def test_copy_keeps_column_types(self):
        table = self.batched([(1, 1.5, "a"), (2, 2.5, "b")], "kvs")
        columns = table.copy()._store._columns  # noqa: SLF001
        assert [type(column) for column in columns] == [array, array, list]
        assert [column.typecode for column in columns[:2]] == ["q", "d"]

    def test_write_that_demotes_a_clone_leaves_the_source_typed(self):
        table = self.batched([(1,), (2,)])
        clone = table.copy()
        clone.insert((None,))
        assert type(clone._store._columns[0]) is list  # noqa: SLF001
        assert isinstance(table._store._columns[0], array)  # noqa: SLF001
        assert table.rows() == [(1,), (2,)]


class TestBulkPrimitives:
    def test_append_batch_matches_row_inserts(self):
        col_t = make_table()
        col_t.append_batch([list(column) for column in zip(*ROWS)])
        assert col_t.rows() == ROWS + ROWS

    def test_append_batch_maintains_indexes_and_domains(self):
        table = Table("t", COLS, ROWS[:2])
        table.create_index(["k1"])
        table.track_domain("k2")
        table.append_batch([list(c) for c in zip(*ROWS[2:])])
        assert table.verify_indexes()
        assert set(table.domain("k2")) == {"a", "b"}

    def test_take_gathers_columns(self):
        col_t = make_table()
        assert col_t.take([0, 3]) == [
            [1, 1], ["a", "a"], [2, 4], [1.0, None],
        ]
        assert col_t.take([4, 0, 2]) == [
            list(column) for column in zip(ROWS[4], ROWS[0], ROWS[2])
        ]
        assert col_t.take([]) == [[], [], [], []]

    def test_take_rejects_tombstoned_slot(self):
        col_t = make_table()
        col_t.delete_slot(1)
        with pytest.raises(TableError, match="slot 1 is empty"):
            col_t.take([0, 1])

    def test_gather_is_column_lists(self):
        col_t = make_table()
        store = col_t._store  # noqa: SLF001
        col_t.delete_slot(0)
        assert store.gather([0, 2]) == store.column_lists([0, 2])
        assert store.gather([2]) == [[None, 7, 4, None]]

    def test_truncate_resets(self):
        col_t = make_table()
        col_t.truncate()
        assert len(col_t) == 0
        assert col_t.rows() == []
        col_t.insert(ROWS[0])
        assert col_t.rows() == [ROWS[0]]


AGGREGATES = [
    ("n", lit(1), CountRowsReducer()),
    ("nv", col("v"), CountNonNullReducer()),
    ("s", col("v"), SumReducer()),
    ("lo", col("v"), MinReducer()),
    ("hi", col("v"), MaxReducer()),
    ("sw", col("w"), SumReducer()),
    ("one", lit(2), SumReducer()),       # SUM(<int literal>) fast path
    ("void", lit(None), SumReducer()),   # statically-null source
    ("nn", lit(None), CountNonNullReducer()),
]


class TestBatchGroupBy:
    """The batch kernel ≡ the interpreted fold."""

    def fresh_aggregates(self):
        return [(n, e, type(r)()) for n, e, r in AGGREGATES]

    @pytest.mark.parametrize("keys", [["k1"], ["k1", "k2"], []])
    def test_kernel_agrees_with_the_interpreter(self, keys, interpreted):
        col_t = make_table()
        compiled_col = group_by(col_t, keys, self.fresh_aggregates())
        with interpreted():
            reference = group_by(col_t, keys, self.fresh_aggregates())
        assert compiled_col.rows() == reference.rows()

    @pytest.mark.parametrize("keys", [["k1"], []])
    def test_empty_input(self, keys, interpreted):
        col_t = make_table(rows=[])
        assert group_by(col_t, keys, self.fresh_aggregates()).rows() == []
        with interpreted():
            assert group_by(col_t, keys, self.fresh_aggregates()).rows() == []

    def test_group_order_is_first_occurrence(self):
        col_t = make_table()
        grouped = group_by(col_t, ["k1"], self.fresh_aggregates())
        assert [row[0] for row in grouped.rows()] == [1, 2]

    def test_sum_literal_closed_form_is_exact(self):
        col_t = make_table()
        grouped = group_by(
            col_t, [], [("total", lit(3), SumReducer())]
        )
        assert grouped.rows() == [(3 * len(ROWS),)]
