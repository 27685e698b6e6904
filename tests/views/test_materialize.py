"""From-scratch materialisation and the stored-view wrapper."""

import pytest

from repro.aggregates import Avg, CountStar, Max, Min, Sum
from repro.errors import DefinitionError
from repro.relational import Table, col, lit
from repro.views import MaterializedView, SummaryViewDefinition, compute_rows

from ..conftest import sic_definition, sid_definition


class TestComputeRows:
    def test_counts_and_sums(self, pos):
        rows = compute_rows(sid_definition(pos).resolved()).sorted_rows()
        assert (1, 10, 1, 2, 5, 2) in rows  # two sales, five units
        assert (4, 12, 2, 2, 2, 2) in rows  # duplicate fact rows

    def test_join_and_min(self, pos):
        rows = compute_rows(sic_definition(pos).resolved()).sorted_rows()
        by_key = {row[:2]: row for row in rows}
        assert by_key[(1, "fruit")][2:5] == (2, 1, 5)
        assert by_key[(3, "fruit")][3] == 1  # earliest of dates 1 and 4

    def test_where_clause_applied(self, pos):
        definition = SummaryViewDefinition.create(
            "big", pos, ["storeID"], [("n", CountStar())],
            where=col("qty").ge(lit(4)),
        ).resolved()
        rows = compute_rows(definition).sorted_rows()
        assert rows == [(2, 2), (3, 1)]  # store 2: qty 4,5; store 3: qty 6

    def test_unresolved_definition_rejected(self, pos):
        with pytest.raises(DefinitionError, match="resolved"):
            compute_rows(sid_definition(pos))

    def test_nulls_in_measure(self, stores, items):
        from ..conftest import make_pos

        pos = make_pos(stores, items, rows=[
            (1, 10, 1, None, 1.0),
            (1, 10, 1, 4, 1.0),
        ])
        definition = SummaryViewDefinition.create(
            "v", pos, ["storeID"], [("total", Sum(col("qty")))]
        ).resolved()
        rows = compute_rows(definition).rows()
        # SUM skips the null; COUNT(*)=2; COUNT(qty)=1.
        assert rows == [(1, 4, 2, 1)]


class TestMaterializedView:
    def test_build_resolves_and_indexes(self, pos):
        view = MaterializedView.build(sid_definition(pos))
        assert view.definition.is_resolved()
        assert view.group_key_index() is not None

    def test_schema_mismatch_rejected(self, pos):
        definition = sid_definition(pos).resolved()
        wrong = Table("w", ["a"], [])
        with pytest.raises(DefinitionError, match="schema"):
            MaterializedView(definition, wrong)

    def test_read_hides_synthetic_columns(self, pos):
        view = MaterializedView.build(sid_definition(pos))
        read = view.read()
        assert read.schema.columns == (
            "storeID", "itemID", "date", "TotalCount", "TotalQuantity",
        )

    def test_read_evaluates_avg(self, pos):
        definition = SummaryViewDefinition.create(
            "avg_view", pos, ["storeID", "itemID", "date"],
            [("AvgQty", Avg(col("qty")))],
        )
        view = MaterializedView.build(definition)
        read = {row[:3]: row[3] for row in view.read().scan()}
        assert read[(1, 10, 1)] == pytest.approx(2.5)

    def test_rematerialize_after_base_change(self, pos):
        view = MaterializedView.build(sid_definition(pos))
        pos.table.insert((1, 10, 1, 10, 1.0))
        view.rematerialize()
        by_key = {row[:3]: row for row in view.table.scan()}
        assert by_key[(1, 10, 1)][3] == 3  # now three sales

    def test_minmax_view_materialises(self, pos):
        definition = SummaryViewDefinition.create(
            "v", pos, ["region"],
            [("first", Min(col("date"))), ("last", Max(col("date")))],
            dimensions=["stores"],
        )
        view = MaterializedView.build(definition)
        by_region = {row[0]: row for row in view.table.scan()}
        assert by_region["west"][1] == 1 and by_region["west"][2] == 3
        assert by_region["east"][1] == 1 and by_region["east"][2] == 4


class TestProjectUserColumns:
    """The one projection behind ``MaterializedView.read`` and the router:
    equal to evaluating each output row by row."""

    @staticmethod
    def per_row(stored, definition, wanted):
        position = stored.schema.position
        derived = {spec.name: spec for spec in definition.derived}
        out = []
        for row in stored.rows():
            values = []
            for column in wanted:
                if column in derived:
                    numerator = row[position(derived[column].numerator)]
                    denominator = row[position(derived[column].denominator)]
                    values.append(None if numerator is None or not denominator
                                  else numerator / denominator)
                else:
                    values.append(row[position(column)])
            out.append(tuple(values))
        return out

    def test_equals_the_per_row_evaluation(self, pos):
        from repro.relational.stats import measuring
        from repro.views.materialize import project_user_columns

        definition = SummaryViewDefinition.create(
            "avg_view", pos, ["storeID", "date"],
            [("n", CountStar()), ("AvgQty", Avg(col("qty")))],
        ).resolved()
        schema = definition.storage_schema()
        numerator = definition.derived[0].numerator
        denominator = definition.derived[0].denominator
        # Null numerator, zero and null denominators, and a tombstone.
        cells = [(7, 2), (None, 0), (None, 3), (5, 0), (9, None), (1, 4)]
        stored = Table("stored", schema)
        for i, (total, count) in enumerate(cells):
            row = dict.fromkeys(schema.columns, i)
            row.update({numerator: total, denominator: count})
            stored.insert(tuple(row[column] for column in schema.columns))
        stored.delete_slot(5)
        wanted = ("date", "AvgQty", "n", "storeID")
        with measuring() as stats:
            got = project_user_columns(stored, definition, wanted, "out")
        assert got.name == "out" and got.schema.columns == wanted
        assert got.rows() == self.per_row(stored, definition, wanted)
        assert [row[1] for row in got.rows()] == [3.5, None, None, None, None]
        assert (stats.rows_scanned, stats.rows_inserted) == (5, 5)
        # The answer owns its columns: the stored table is not aliased.
        got.insert((0, 0.0, 0, 0))
        assert len(stored) == 5

    def test_read_and_the_router_share_it(self, pos, warehouse):
        from repro.query import AggregateQuery, QueryRouter

        definition = SummaryViewDefinition.create(
            "avg_view", pos, ["storeID", "itemID", "date"],
            [("AvgQty", Avg(col("qty")))],
        )
        view = warehouse.define_summary_table(definition)
        answer = QueryRouter(warehouse).answer(AggregateQuery.create(
            pos, ["storeID", "itemID", "date"], [("AvgQty", Avg(col("qty")))]))
        assert answer.sorted_rows() == view.read().sorted_rows()
        assert view.read().sorted_rows() == sorted(
            self.per_row(view.table, view.definition,
                         view.definition.user_columns()))
