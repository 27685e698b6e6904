"""Index-assisted MIN/MAX recomputation plans."""

import pytest

from repro.core import base_recompute_fn
from repro.core.recompute import (
    plan_index_recompute,
    recompute_groups_via_index,
)

from repro.aggregates import CountStar, Max, Min
from repro.relational import col, lit
from repro.relational.stats import measuring
from repro.views import SummaryViewDefinition, compute_rows

from ..conftest import minmax_definition, sic_definition, sid_definition


@pytest.fixture
def indexed_pos(pos):
    pos.table.track_domain("date")
    return pos


class TestPlanning:
    def test_sid_plan_is_all_fixed(self, indexed_pos):
        # Group-by (storeID, itemID, date) == the composite index exactly.
        plan = plan_index_recompute(sid_definition(indexed_pos).resolved())
        assert plan is not None
        assert [provider.kind for provider in plan.providers] == [
            "fixed", "fixed", "fixed",
        ]
        assert plan.estimated_probes_per_group == 1.0

    def test_sic_plan_uses_dimension_and_domain(self, indexed_pos):
        plan = plan_index_recompute(sic_definition(indexed_pos).resolved())
        assert plan is not None
        kinds = [provider.kind for provider in plan.providers]
        assert kinds == ["fixed", "dim_attrs", "domain"]

    def test_infeasible_without_domain_tracking(self, pos):
        # Without date-domain tracking, the third index column has no
        # provider for SiC (date is neither grouped nor a foreign key).
        plan = plan_index_recompute(sic_definition(pos).resolved())
        assert plan is None

    def test_unindexed_fact_has_no_plan(self, stores, items):
        from ..conftest import make_pos

        pos = make_pos(stores, items)
        for index_key in list(pos.table.indexes):
            pass  # make_pos creates the composite index; drop via fresh fact
        from repro.warehouse import FactTable, ForeignKey

        bare = FactTable(
            "pos", ["storeID", "itemID", "date", "qty", "price"],
            [ForeignKey("storeID", stores), ForeignKey("itemID", items)],
            pos.table.rows(),
        )
        assert plan_index_recompute(sic_definition(bare).resolved()) is None


class TestCandidateKeys:
    def test_sic_candidates_cover_the_group(self, indexed_pos):
        definition = sic_definition(indexed_pos).resolved()
        plan = plan_index_recompute(definition)
        candidates = set(plan.candidate_keys((1, "fruit")))
        # Every pos row of store 1 with a fruit item must be covered.
        for row in indexed_pos.table.scan():
            if row[0] == 1 and row[1] in (10, 13):   # apple, pear
                assert (row[0], row[1], row[2]) in candidates

    def test_recompute_folds_exactly_the_group_rows(self, indexed_pos):
        definition = sic_definition(indexed_pos).resolved()
        plan = plan_index_recompute(definition)
        expected = [
            row for row in indexed_pos.table.scan()
            if row[0] == 3 and row[1] in (10, 13)
        ]
        values = recompute_groups_via_index(plan, [(3, "fruit")])
        by_name = dict(zip(
            definition.storage_schema().columns[2:], values[(3, "fruit")]
        ))
        assert by_name["TotalCount"] == len(expected)
        assert by_name["EarliestSale"] == min(row[2] for row in expected)
        assert by_name["TotalQuantity"] == sum(row[3] for row in expected)


def where_definition(pos):
    """A selection on a fact column the group key does not mention."""
    return SummaryViewDefinition.create(
        "bulk_sales",
        pos,
        group_by=["storeID", "category"],
        aggregates=[
            ("TotalCount", CountStar()),
            ("EarliestSale", Min(col("date"))),
            ("HighestPrice", Max(col("price"))),
        ],
        dimensions=["items"],
        where=col("qty").ge(lit(2)),
    )


def by_date_definition(pos):
    """Groups by ``date`` alone: both foreign-key columns of the index are
    unconstrained (``dim_all``) and no dimension is joined."""
    return SummaryViewDefinition.create(
        "daily_sales",
        pos,
        group_by=["date"],
        aggregates=[
            ("TotalCount", CountStar()),
            ("SmallestSale", Min(col("qty"))),
        ],
    )


DEFINITIONS = [
    sid_definition, sic_definition, minmax_definition, where_definition,
    by_date_definition,
]


def punch_holes(pos):
    """Leave tombstones and a recycled slot in the fact table."""
    pos.table.delete_slots([1, 4, 7])
    pos.table.insert((2, 13, 5, 7, 1.4))     # lands in slot 7
    return pos


class TestEquivalence:
    @pytest.mark.parametrize("prepare", [lambda pos: pos, punch_holes],
                             ids=["dense", "tombstones"])
    @pytest.mark.parametrize("definition_factory", DEFINITIONS)
    def test_index_and_scan_agree(self, indexed_pos, definition_factory, prepare):
        definition = definition_factory(prepare(indexed_pos)).resolved()
        arity = len(definition.group_by)
        all_keys = list({
            row[:arity] for row in compute_rows(definition).scan()
        })
        via_scan = base_recompute_fn(definition, use_index=False)(all_keys)
        plan = plan_index_recompute(definition)
        assert plan is not None
        assert recompute_groups_via_index(plan, all_keys) == via_scan
        # A key listed twice, and a key with no base rows, change nothing.
        absent = tuple(-1 for _ in range(arity))
        noisy = all_keys + all_keys[:1] + [absent]
        assert recompute_groups_via_index(plan, noisy) == via_scan
        some = all_keys[::2]
        assert recompute_groups_via_index(plan, some) == {
            key: via_scan[key] for key in some
        }

    def test_by_date_plan_enumerates_both_dimensions(self, indexed_pos):
        plan = plan_index_recompute(by_date_definition(indexed_pos).resolved())
        assert [provider.kind for provider in plan.providers] == [
            "dim_all", "dim_all", "fixed",
        ]

    def test_access_charge_is_pinned(self, indexed_pos):
        # One fixed input, so the charge cannot drift (the numbers are the
        # per-group loop's, PR 16): per group a scan of the 4-row items
        # dimension and |items in category| x |date domain| = 2 x 4 index
        # probes; then the 6 fact rows found are gathered, joined (one
        # probe each) and folded into 3 groups.
        plan = plan_index_recompute(sic_definition(indexed_pos).resolved())
        keys = [(1, "fruit"), (3, "fruit"), (4, "drink")]
        with measuring() as stats:
            values = recompute_groups_via_index(plan, keys)
        assert set(values) == set(keys)
        assert stats.as_dict() == {
            "rows_scanned": 3 * 4 + 6 + 6 + 3,
            "rows_inserted": 6 + 6 + 3,
            "rows_deleted": 0,
            "rows_updated": 0,
            "index_lookups": 3 * 2 * 4 + 6,
            "total": 72,
        }

    def test_default_recompute_fn_prefers_index(self, indexed_pos):
        # Functional check through the full refresh path.
        from repro.core import apply_refresh, compute_summary_delta
        from repro.views import MaterializedView, compute_rows
        from repro.warehouse import ChangeSet

        view = MaterializedView.build(sic_definition(indexed_pos))
        changes = ChangeSet("pos", indexed_pos.table.schema)
        changes.delete((3, 10, 1, 6, 1.0))  # deletes a group minimum
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(indexed_pos.table)
        stats = apply_refresh(
            view, delta, recompute=base_recompute_fn(view.definition)
        )
        assert stats.recomputed == 1
        assert view.table.sorted_rows() == compute_rows(view.definition).sorted_rows()
