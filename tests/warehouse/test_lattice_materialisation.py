"""``define_summary_table`` materialises a view down the V-lattice: from the
smallest already-defined view that derives it, from base data otherwise —
and the rows are those ``compute_rows`` gives from base either way."""

import pytest

from repro.aggregates import Avg, Count, CountStar, Min, Sum
from repro.lattice import maintain_lattice
from repro.lattice.derives import smallest_deriving_view
from repro.obs.audit import rows_certificate
from repro.relational import col
from repro.views import MaterializedView, SummaryViewDefinition, compute_rows
from repro.warehouse import FactTable, ForeignKey, Warehouse, catalog
from repro.workload import (
    RetailConfig,
    generate_retail,
    retail_view_definitions,
    update_generating_changes,
)

from ..conftest import make_items, make_pos, make_stores


@pytest.fixture
def base_builds(monkeypatch):
    """Names of the views the catalog computed from base data, in order."""
    built = []
    real = catalog.compute_rows

    def recording(definition, *args, **kwargs):
        built.append(definition.name)
        return real(definition, *args, **kwargs)

    monkeypatch.setattr(catalog, "compute_rows", recording)
    return built


def retail(pos_rows=3_000, seed=5):
    data = generate_retail(RetailConfig(pos_rows=pos_rows, seed=seed))
    warehouse = Warehouse()
    warehouse.add_fact(data.pos)
    return data, warehouse


def assert_equals_base(view):
    expected = compute_rows(view.definition)
    assert view.table.sorted_rows() == expected.sorted_rows()
    assert view.certificate.value == rows_certificate(expected.rows())
    assert view.certificate.value == rows_certificate(view.table.rows())
    assert view.table.verify_indexes()
    if view.definition.group_by:
        assert view.group_key_index() is not None


def define(pos, name, group_by, aggregates, dimensions=()):
    return SummaryViewDefinition.create(name, pos, group_by, aggregates, dimensions)


class TestBuiltFromAnAncestor:
    def test_figure_1_views(self, base_builds):
        data, warehouse = retail()
        for definition in retail_view_definitions(data.pos):
            assert_equals_base(warehouse.define_summary_table(definition))
        # sCD_sales and SiC_sales (with MIN(date)) come from SID_sales
        # joined to a dimension, sR_sales from sCD_sales.
        assert base_builds == ["SID_sales"]
        assert set(warehouse.verify_views().values()) == {True}
        assert set(warehouse.verify_certificates().values()) == {True}

    def test_count_of_a_nullable_column(self, stores, items, base_builds):
        rows = [(s, i, d, None if (s + i + d) % 3 == 0 else s + d, 1.0)
                for s in (1, 2, 3, 4) for i in (10, 11, 12, 13) for d in (1, 2)
                for _ in range(2)]
        pos = make_pos(stores, items, rows)
        warehouse = Warehouse()
        warehouse.add_fact(pos)
        # SUM(qty) stores its COUNT(qty) companion; qty as a group-by
        # attribute gives the CASE WHEN qty IS NULL rewrite.
        warehouse.define_summary_table(define(
            pos, "SID", ["storeID", "itemID", "date"],
            [("n", CountStar()), ("units", Sum(col("qty")))]))
        warehouse.define_summary_table(define(
            pos, "SQ", ["storeID", "qty"], [("n", CountStar())]))
        from_companion = warehouse.define_summary_table(define(
            pos, "by_item", ["itemID"], [("known", Count(col("qty")))]))
        from_group_by = warehouse.define_summary_table(define(
            pos, "by_store", ["storeID"],
            [("known", Count(col("qty"))), ("low", Min(col("qty")))]))
        assert base_builds == ["SID", "SQ"]
        for view in (from_companion, from_group_by):
            assert_equals_base(view)
        # MIN(qty) is only expressible where qty is a group-by attribute.
        chosen = smallest_deriving_view(
            from_group_by.definition,
            [warehouse.view("SID"), warehouse.view("SQ")])
        assert chosen.view.name == "SQ"
        assert all(known < 16 for _store, known, _low in
                   from_group_by.read().rows())        # the nulls are not counted

    def test_avg_view_through_a_dimension_join(self, base_builds):
        data, warehouse = retail()
        pos = data.pos
        sid = warehouse.define_summary_table(retail_view_definitions(pos)[0])
        view = warehouse.define_summary_table(define(
            pos, "avg_by_region", ["region"], [("avg_qty", Avg(col("qty")))],
            ["stores"]))
        assert base_builds == ["SID_sales"]
        assert_equals_base(view)
        chosen = smallest_deriving_view(view.definition, [sid])
        assert chosen.view is sid and chosen.edge.dimension_joins == ("stores",)
        from_base = MaterializedView.build(view.definition)
        assert view.read().sorted_rows() == from_base.read().sorted_rows()
        assert all(1 <= avg <= 10 for _region, avg in view.read().rows())

    def test_float_sums_agree_to_rounding(self):
        """A float SUM reached through an ancestor is a sum of partial
        sums: the from-base value up to floating-point rounding (as one
        maintenance cycle leaves any float SUM); integer sums are exact."""
        data, warehouse = retail()
        pos = data.pos
        revenue = [("n", CountStar()), ("rev", Sum(col("price")))]
        warehouse.define_summary_table(define(
            pos, "SID", ["storeID", "itemID", "date"], revenue))
        view = warehouse.define_summary_table(define(
            pos, "R", ["region"], revenue, ["stores"]))
        expected = compute_rows(view.definition).sorted_rows()
        for got, want in zip(view.table.sorted_rows(), expected, strict=True):
            assert got[:2] == want[:2]
            assert got[2:] == pytest.approx(want[2:], rel=1e-12)


class TestChoiceOfSource:
    def test_the_smallest_deriving_view_is_chosen(self):
        data, warehouse = retail()
        sid, scd, sic, sr = retail_view_definitions(data.pos)
        views = [warehouse.define_summary_table(d) for d in (sid, scd, sic)]
        chosen = smallest_deriving_view(sr.resolved(), warehouse.views.values())
        assert chosen.view is views[1]                  # sCD_sales, not SID_sales
        assert len(views[1].table) < len(views[0].table)
        assert chosen.version is views[1].pin()
        # The router's choice is the same function's.
        from repro.query import AggregateQuery, QueryRouter

        plan = QueryRouter(warehouse).plan(AggregateQuery.create(
            data.pos, ["region"], [("units", Sum(col("qty")))]))
        assert plan.source_view is views[1]
        assert plan.input_rows == len(views[1].table)

    def test_base_when_no_view_derives_it(self, base_builds):
        data, warehouse = retail()
        pos = data.pos
        _sid, scd, _sic, sr = retail_view_definitions(pos)
        warehouse.define_summary_table(sr)              # coarse first
        warehouse.define_summary_table(scd)             # finer: sR cannot give it
        warehouse.define_summary_table(define(          # no view keeps price
            pos, "revenue", ["region"], [("rev", Sum(col("price")))], ["stores"]))
        assert base_builds == ["sR_sales", "sCD_sales", "revenue"]
        assert smallest_deriving_view(
            scd.resolved(), [warehouse.view("sR_sales")]) is None

    def test_base_when_where_clauses_differ(self, base_builds):
        data, warehouse = retail()
        pos = data.pos
        sid = retail_view_definitions(pos)[0]
        warehouse.define_summary_table(sid)
        recent = SummaryViewDefinition.create(
            "recent", pos, ["storeID"], [("n", CountStar())],
            where=col("date").gt(3))
        view = warehouse.define_summary_table(recent)
        assert base_builds == ["SID_sales", "recent"]
        assert_equals_base(view)

    def test_base_when_the_fact_differs(self, base_builds):
        warehouse = Warehouse()
        stores, items = make_stores(), make_items()
        pos = warehouse.add_fact(make_pos(stores, items))
        returns = warehouse.add_fact(FactTable(
            "returns", ["storeID", "itemID", "date", "qty", "price"],
            [ForeignKey("storeID", stores), ForeignKey("itemID", items)],
            [(1, 10, 1, 1, 1.0), (3, 13, 4, 2, 1.3)],
        ))
        warehouse.define_summary_table(define(
            pos, "SID", ["storeID", "itemID", "date"], [("n", CountStar())]))
        view = warehouse.define_summary_table(define(
            returns, "returned", ["storeID"], [("n", CountStar())]))
        assert base_builds == ["SID", "returned"]
        assert view.table.sorted_rows() == [(1, 1), (3, 1)]

    def test_base_when_the_only_candidate_is_not_smaller(self, stores, items,
                                                         base_builds):
        rows = [(s, i, d, 1, 1.0)
                for s in (1, 2, 3, 4) for i in (10, 11) for d in (1, 2)]
        pos = make_pos(stores, items, rows)             # every key distinct
        warehouse = Warehouse()
        warehouse.add_fact(pos)
        sid = warehouse.define_summary_table(define(
            pos, "SID", ["storeID", "itemID", "date"], [("n", CountStar())]))
        assert len(sid.table) == len(pos.table)
        view = warehouse.define_summary_table(define(
            pos, "S", ["storeID"], [("n", CountStar())]))
        assert base_builds == ["SID", "S"]
        assert_equals_base(view)


class TestInStepWithMaintenance:
    def test_defined_while_changes_are_staged(self, base_builds):
        data, warehouse = retail()
        pos = data.pos
        sid, scd, sic, sr = retail_view_definitions(pos)
        warehouse.define_summary_table(sid)
        warehouse.define_summary_table(scd)
        changes = update_generating_changes(pos, data.config, 300, data.rng)
        warehouse.stage_changes("pos", changes)         # staged, not applied
        warehouse.define_summary_table(sic)
        warehouse.define_summary_table(sr)
        assert base_builds == ["SID_sales"]
        assert set(warehouse.verify_views().values()) == {True}
        maintain_lattice(
            warehouse.views_over("pos"), warehouse.pending_changes("pos"))
        warehouse.discard_pending("pos")
        assert set(warehouse.verify_views().values()) == {True}
        assert set(warehouse.verify_certificates().values()) == {True}

    @pytest.mark.parametrize("seed", [5, 11])
    def test_definition_order_changes_only_the_source(self, seed, base_builds):
        data, fine_first = retail(seed=seed)
        definitions = retail_view_definitions(data.pos)
        for definition in definitions:
            fine_first.define_summary_table(definition)
        assert base_builds == ["SID_sales"]
        del base_builds[:]
        coarse_first = Warehouse()
        coarse_first.add_fact(data.pos)
        for definition in reversed(definitions):
            coarse_first.define_summary_table(definition)
        # sR_sales, SiC_sales and sCD_sales each find nothing above them.
        assert base_builds == ["sR_sales", "SiC_sales", "sCD_sales", "SID_sales"]
        for name, view in fine_first.views.items():
            other = coarse_first.view(name)
            assert view.table.sorted_rows() == other.table.sorted_rows()
            assert view.certificate.value == other.certificate.value
