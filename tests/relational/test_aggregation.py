"""The physical group-by engine and its reducers."""

from contextlib import nullcontext

import pytest

from repro.relational import (
    CountNonNullReducer,
    CountRowsReducer,
    MaxReducer,
    MinReducer,
    SumReducer,
    Table,
    col,
    group_by,
)


def fold(reducer, values):
    state = reducer.create()
    for value in values:
        state = reducer.step(state, value)
    return reducer.finalize(state)


class TestReducers:
    def test_sum_skips_nulls(self):
        assert fold(SumReducer(), [1, None, 2]) == 3

    def test_sum_all_null_is_null(self):
        assert fold(SumReducer(), [None, None]) is None

    def test_sum_empty_is_null(self):
        assert fold(SumReducer(), []) is None

    def test_sum_handles_negatives(self):
        assert fold(SumReducer(), [5, -5]) == 0

    def test_count_rows_ignores_value(self):
        assert fold(CountRowsReducer(), [None, 1, "x"]) == 3

    def test_count_non_null(self):
        assert fold(CountNonNullReducer(), [None, 1, None, 2]) == 2

    def test_min_skips_nulls(self):
        assert fold(MinReducer(), [3, None, 1, 2]) == 1

    def test_min_empty_is_null(self):
        assert fold(MinReducer(), []) is None

    def test_max_skips_nulls(self):
        assert fold(MaxReducer(), [None, 3, 7, 5]) == 7

    def test_min_works_on_strings(self):
        assert fold(MinReducer(), ["b", "a", "c"]) == "a"


@pytest.fixture
def sales():
    return Table(
        "sales",
        ["store", "item", "qty"],
        [
            (1, "a", 2),
            (1, "a", 3),
            (1, "b", None),
            (2, "a", 5),
        ],
    )


class TestGroupBy:
    def test_groups_and_aggregates(self, sales):
        result = group_by(
            sales,
            ["store"],
            [
                ("n", col("qty"), CountRowsReducer()),
                ("total", col("qty"), SumReducer()),
            ],
        )
        assert sorted(result.rows()) == [(1, 3, 5), (2, 1, 5)]

    def test_multiple_keys(self, sales):
        result = group_by(
            sales, ["store", "item"], [("n", col("qty"), CountRowsReducer())]
        )
        assert sorted(result.rows()) == [(1, "a", 2), (1, "b", 1), (2, "a", 1)]

    def test_null_group_key_is_a_group(self):
        table = Table("t", ["k", "v"], [(None, 1), (None, 2), (1, 3)])
        result = group_by(table, ["k"], [("s", col("v"), SumReducer())])
        assert sorted(result.rows(), key=str) == sorted(
            [(None, 3), (1, 3)], key=str
        )

    def test_expression_input(self, sales):
        result = group_by(
            sales, ["store"], [("double", col("qty") * 2, SumReducer())]
        )
        assert sorted(result.rows()) == [(1, 10), (2, 10)]

    def test_empty_input_empty_output(self):
        table = Table("t", ["k", "v"])
        result = group_by(table, ["k"], [("s", col("v"), SumReducer())])
        assert len(result) == 0

    def test_no_keys_single_group(self, sales):
        result = group_by(sales, [], [("n", col("qty"), CountRowsReducer())])
        assert result.rows() == [(4,)]

    def test_no_keys_empty_input_no_groups(self):
        # Grouping semantics (module docstring): empty in, empty out.
        table = Table("t", ["v"])
        result = group_by(table, [], [("n", col("v"), CountRowsReducer())])
        assert len(result) == 0

    def test_output_schema(self, sales):
        result = group_by(sales, ["store"], [("n", col("qty"), CountRowsReducer())])
        assert result.schema.columns == ("store", "n")

    def test_groups_in_first_occurrence_order(self, sales):
        result = group_by(sales, ["store"], [("n", col("qty"), CountRowsReducer())])
        assert [row[0] for row in result.rows()] == [1, 2]


def reference_group_by(rows, positions, value_positions):
    """Plain-Python grouping: ``{key: (count, sum, min)}`` of the value
    columns, keys in first-occurrence order."""
    groups = {}
    for row in rows:
        key = tuple(row[p] for p in positions)
        groups.setdefault(key, []).append(row)
    qty, date = value_positions
    return [
        key + (len(members), sum(r[qty] for r in members),
               min(r[date] for r in members))
        for key, members in groups.items()
    ]


class TestGroupByOnFact:
    """group_by over the fixture fact table equals a plain-Python fold,
    on every grouping of its attributes, through the batch kernel and
    through the interpreted fold."""

    @pytest.mark.parametrize("keys", [
        ["storeID"], ["itemID"], ["date"], ["storeID", "itemID"],
        ["storeID", "itemID", "date"],
    ])
    @pytest.mark.parametrize("engine", ["interpreted", "batch"])
    def test_matches_reference_fold(self, pos, keys, engine, interpreted):
        source = Table("pos", pos.table.schema, pos.table.rows())
        specs = [
            ("n", col("qty"), CountRowsReducer()),
            ("total", col("qty"), SumReducer()),
            ("first", col("date"), MinReducer()),
        ]
        schema = source.schema
        expected = reference_group_by(
            source.rows(),
            [schema.position(key) for key in keys],
            (schema.position("qty"), schema.position("date")),
        )
        with interpreted() if engine == "interpreted" else nullcontext():
            assert group_by(source, keys, specs).rows() == expected
