"""Unit tests for the columnar storage backing and batch kernels.

The differential suite proves end-to-end equivalence on random change
sets; these tests pin the component contracts: storage resolution and the
``REPRO_COLUMNAR`` kill-switch, ``ColumnStore`` slot semantics (typed
promotion/demotion, tombstones, bulk ``append_batch``/``take``/``gather``),
and the batch group-by kernel against the row and interpreted engines.
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
from repro.relational.table import ColumnStore, Table, resolve_storage

from ..differential.harness import env


@pytest.fixture(autouse=True)
def default_storage_env(monkeypatch):
    """These tests request storage per table (and the kill-switch wins
    over explicit requests by design): pin the default environment so
    CI's ``REPRO_COLUMNAR=0`` matrix runs don't mask them."""
    monkeypatch.delenv("REPRO_COLUMNAR", raising=False)


ROWS = [
    (1, "a", 2, 1.0),
    (1, "b", None, 2.5),
    (2, "a", 7, 0.5),
    (1, "a", 4, None),
    (2, "b", None, 3.0),
]
COLS = ["k1", "k2", "v", "w"]


def both_tables(rows=ROWS):
    """The same rows behind both backings."""
    return (
        Table("t", COLS, rows, storage="row"),
        Table("t", COLS, rows, storage="column"),
    )


class TestStorageResolution:
    def test_default_is_column(self):
        with env("REPRO_COLUMNAR", None):
            assert resolve_storage(None) == "column"
            assert Table("t", COLS).storage == "column"

    def test_explicit_env_keeps_column_default(self):
        with env("REPRO_COLUMNAR", "1"):
            assert resolve_storage(None) == "column"
            assert Table("t", COLS).storage == "column"

    def test_kill_switch_flips_default_to_row(self):
        with env("REPRO_COLUMNAR", "0"):
            assert resolve_storage(None) == "row"
            assert Table("t", COLS).storage == "row"

    def test_explicit_request_wins_over_default(self):
        with env("REPRO_COLUMNAR", "1"):
            assert Table("t", COLS, storage="row").storage == "row"
        with env("REPRO_COLUMNAR", None):
            assert Table("t", COLS, storage="column").storage == "column"

    def test_kill_switch_beats_explicit_column(self):
        with env("REPRO_COLUMNAR", "0"):
            assert resolve_storage("column") == "row"
            table = Table("t", COLS, ROWS, storage="column")
            assert table.storage == "row"
            assert table.rows() == ROWS

    def test_unknown_storage_rejected(self):
        with pytest.raises(TableError, match="unknown table storage"):
            Table("t", COLS, storage="columnar")


class TestRowApiEquivalence:
    """The row API is a view over either backing — byte-identical."""

    def test_rows_scan_and_slots(self):
        row_t, col_t = both_tables()
        assert col_t.rows() == row_t.rows()
        assert list(col_t.scan()) == list(row_t.scan())
        assert col_t.sorted_rows() == row_t.sorted_rows()
        assert list(col_t.slots()) == list(row_t.slots())
        assert len(col_t) == len(row_t)

    def test_row_at_and_tombstones(self):
        row_t, col_t = both_tables()
        for table in (row_t, col_t):
            table.delete_slot(1)
            table.delete_slot(3)
        assert col_t._rows == row_t._rows  # noqa: SLF001 — slot layout
        assert col_t.row_at(2) == row_t.row_at(2)
        with pytest.raises(TableError, match="slot 1 is empty"):
            col_t.row_at(1)

    def test_deleted_slots_are_recycled(self):
        _row_t, col_t = both_tables()
        col_t.delete_slot(2)
        slot = col_t.insert((9, "z", 9, 9.0))
        assert slot == 2
        assert col_t.row_at(2) == (9, "z", 9, 9.0)

    def test_update_slot(self):
        row_t, col_t = both_tables()
        for table in (row_t, col_t):
            table.update_slot(0, (1, "a", 99, 1.0))
        assert col_t._rows == row_t._rows  # noqa: SLF001

    def test_columns_match_rows(self):
        _row_t, col_t = both_tables()
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
        table = Table("t", list(columns), storage="column")
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
        row_t, col_t = both_tables()
        batch = [list(column) for column in zip(*ROWS)]
        for table in (row_t, col_t):
            table.append_batch(batch)
        assert col_t.rows() == row_t.rows() == ROWS + ROWS

    def test_append_batch_maintains_indexes_and_domains(self):
        table = Table("t", COLS, ROWS[:2], storage="column")
        table.create_index(["k1"])
        table.track_domain("k2")
        table.append_batch([list(c) for c in zip(*ROWS[2:])])
        assert table.verify_indexes()
        assert set(table.domain("k2")) == {"a", "b"}

    def test_take_gathers_columns(self):
        _row_t, col_t = both_tables()
        assert col_t.take([0, 3]) == [
            [1, 1], ["a", "a"], [2, 4], [1.0, None],
        ]

    def test_take_identical_across_backings(self):
        row_t, col_t = both_tables()
        assert col_t.take([4, 0, 2]) == row_t.take([4, 0, 2])
        assert col_t.take([]) == row_t.take([]) == [[], [], [], []]

    def test_take_rejects_tombstoned_slot(self):
        row_t, col_t = both_tables()
        for table in (row_t, col_t):
            table.delete_slot(1)
            with pytest.raises(TableError, match="slot 1 is empty"):
                table.take([0, 1])

    def test_gather_is_column_lists(self):
        _row_t, col_t = both_tables()
        store = col_t._store  # noqa: SLF001
        col_t.delete_slot(0)
        assert store.gather([0, 2]) == store.column_lists([0, 2])
        assert store.gather([2]) == [[None, 7, 4, None]]

    def test_truncate_resets(self):
        _row_t, col_t = both_tables()
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
    """The batch kernel (columnar input) ≡ row kernel ≡ interpreter."""

    def fresh_aggregates(self):
        return [(n, e, type(r)()) for n, e, r in AGGREGATES]

    @pytest.mark.parametrize("keys", [["k1"], ["k1", "k2"], []])
    def test_three_engines_agree(self, keys):
        row_t, col_t = both_tables()
        compiled_row = group_by(row_t, keys, self.fresh_aggregates())
        compiled_col = group_by(col_t, keys, self.fresh_aggregates())
        with env("REPRO_CODEGEN", "0"):
            interpreted = group_by(col_t, keys, self.fresh_aggregates())
        assert compiled_col.rows() == compiled_row.rows()
        assert compiled_col.rows() == interpreted.rows()

    @pytest.mark.parametrize("keys", [["k1"], []])
    def test_empty_input(self, keys):
        row_t, col_t = both_tables(rows=[])
        compiled_row = group_by(row_t, keys, self.fresh_aggregates())
        compiled_col = group_by(col_t, keys, self.fresh_aggregates())
        assert compiled_col.rows() == compiled_row.rows() == []

    def test_group_order_is_first_occurrence(self):
        _row_t, col_t = both_tables()
        grouped = group_by(col_t, ["k1"], self.fresh_aggregates())
        assert [row[0] for row in grouped.rows()] == [1, 2]

    def test_output_inherits_storage(self):
        row_t, col_t = both_tables()
        assert group_by(col_t, ["k1"], self.fresh_aggregates()).storage == "column"
        assert group_by(row_t, ["k1"], self.fresh_aggregates()).storage == "row"

    def test_sum_literal_closed_form_is_exact(self):
        _row_t, col_t = both_tables()
        grouped = group_by(
            col_t, [], [("total", lit(3), SumReducer())]
        )
        assert grouped.rows() == [(3 * len(ROWS),)]
