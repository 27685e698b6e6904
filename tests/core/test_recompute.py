"""MIN/MAX recomputation plans: the ordered index probe, the pooled index
gather and the scan."""

from itertools import product

import pytest

from repro.core import base_recompute_fn
from repro.core.recompute import (
    RecomputeCounts,
    extremum_outputs,
    plan_index_recompute,
    probe_extrema,
    recompute_extrema,
    recompute_groups_via_index,
    recompute_groups_via_scan,
)

from repro.aggregates import CountStar, Max, Min
from repro.lattice import maintain_lattice
from repro.relational import col, lit
from repro.relational.stats import measuring
from repro.views import SummaryViewDefinition, compute_rows
from repro.warehouse import FactTable, ForeignKey, Warehouse

from ..conftest import (
    make_items,
    make_stores,
    minmax_definition,
    recorded_recomputes,
    sic_definition,
    sid_definition,
)


def probe(plan, keys):
    return probe_extrema(plan, keys, RecomputeCounts("ordered"))


def gather(plan, keys):
    """The index gather of the view's MIN/MAX outputs."""
    return recompute_groups_via_index(
        plan, keys, extremum_outputs(plan.definition), RecomputeCounts("gather")
    )


def scan(definition, keys):
    """The scan gather of the view's MIN/MAX outputs."""
    return recompute_groups_via_scan(
        definition, keys, extremum_outputs(definition), RecomputeCounts("scan")
    )


@pytest.fixture
def indexed_pos(pos):
    pos.table.track_domain("date")
    return pos


@pytest.fixture
def fully_tracked_pos(indexed_pos):
    """Every index column's domain tracked, so a view that does not join
    a dimension can still enumerate that dimension's foreign key."""
    indexed_pos.table.track_domain("storeID")
    indexed_pos.table.track_domain("itemID")
    return indexed_pos


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
        # MIN(date) is the index's third column; both group attributes
        # are pinned, so the ordered probe is exact.
        assert plan.extremum_columns == ((2, True),)

    def test_infeasible_without_domain_tracking(self, pos):
        # Without date-domain tracking, the third index column has no
        # provider for SiC (date is neither grouped nor a foreign key).
        plan = plan_index_recompute(sic_definition(pos).resolved())
        assert plan is None

    def test_unjoined_foreign_key_needs_its_domain(self, indexed_pos):
        # span_sales joins stores, not items: itemID rows count whatever
        # they hold, so only the tracked domain can enumerate them.
        definition = minmax_definition(indexed_pos).resolved()
        assert plan_index_recompute(definition) is None
        indexed_pos.table.track_domain("itemID")
        plan = plan_index_recompute(definition)
        assert [provider.kind for provider in plan.providers] == [
            "dim_attrs", "domain", "domain",
        ]
        assert plan.extremum_columns == ((2, True), (2, False))

    def test_unindexed_fact_has_no_plan(self, stores, items, pos):
        bare = FactTable(
            "pos", ["storeID", "itemID", "date", "qty", "price"],
            [ForeignKey("storeID", stores), ForeignKey("itemID", items)],
            pos.table.rows(),
        )
        assert plan_index_recompute(sic_definition(bare).resolved()) is None


class TestCandidateSources:
    def test_sic_candidates_cover_the_group(self, indexed_pos):
        definition = sic_definition(indexed_pos).resolved()
        plan = plan_index_recompute(definition)
        sources, _walks, scanned = plan.candidate_sources()
        assert scanned == len(make_items().table)
        candidates = set(product(*[source((1, "fruit")) for source in sources]))
        # Every pos row of store 1 with a fruit item must be covered.
        for row in indexed_pos.table.scan():
            if row[0] == 1 and row[1] in (10, 13):   # apple, pear
                assert (row[0], row[1], row[2]) in candidates

    def test_ordered_columns_ascend_without_nulls(self, indexed_pos):
        indexed_pos.table.insert((1, 10, None, 1, 1.0))
        plan = plan_index_recompute(sic_definition(indexed_pos).resolved())
        sources, walks, _scanned = plan.candidate_sources(ordered={1, 2})
        assert walks[1]((1, "fruit")) == [10, 13]
        dates = walks[2]((1, "fruit"))
        assert None not in dates and dates == sorted(dates)
        # The unordered candidates of the same call keep NULL.
        assert None in sources[2]((1, "fruit"))

    def test_gather_folds_exactly_the_group_rows(self, indexed_pos):
        definition = sic_definition(indexed_pos).resolved()
        plan = plan_index_recompute(definition)
        expected = [
            row for row in indexed_pos.table.scan()
            if row[0] == 3 and row[1] in (10, 13)
        ]
        values = recompute_groups_via_index(
            plan, [(3, "fruit")], definition.aggregates,
            RecomputeCounts("gather"),
        )
        by_name = dict(zip(
            definition.storage_schema().columns[2:], values[(3, "fruit")]
        ))
        assert by_name["TotalCount"] == len(expected)
        assert by_name["EarliestSale"] == min(row[2] for row in expected)
        assert by_name["TotalQuantity"] == sum(row[3] for row in expected)
        # Asked for the MIN/MAX outputs, a gather folds those only.
        assert gather(plan, [(3, "fruit")]) == {
            (3, "fruit"): (by_name["EarliestSale"],)
        }


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
    """Groups by ``date`` alone: no dimension is joined, so both foreign
    keys of the index take their tracked domains, and MIN(qty) is no
    index column."""
    return SummaryViewDefinition.create(
        "daily_sales",
        pos,
        group_by=["date"],
        aggregates=[
            ("TotalCount", CountStar()),
            ("SmallestSale", Min(col("qty"))),
        ],
    )


#: Each definition, and whether the ordered probe is exact for it over
#: the fully tracked fact table (else a pooled gather runs).
DEFINITIONS = [
    (sid_definition, True),
    (sic_definition, True),
    (minmax_definition, True),
    (where_definition, False),       # a ``where``
    (by_date_definition, False),     # MIN(qty) is no index column
]


def punch_holes(pos):
    """Leave tombstones and a recycled slot in the fact table."""
    pos.table.delete_slots([1, 4, 7])
    pos.table.insert((2, 13, 5, 7, 1.4))     # lands in slot 7
    return pos


def extrema_of(definition):
    """Every group's MIN/MAX values, from a rematerialisation."""
    storage = definition.storage_schema()
    positions = [storage.position(output.name)
                 for output in extremum_outputs(definition)]
    arity = len(definition.group_by)
    return {
        row[:arity]: tuple(row[p] for p in positions)
        for row in compute_rows(definition).scan()
    }


class TestEquivalence:
    @pytest.mark.parametrize("prepare", [lambda pos: pos, punch_holes],
                             ids=["dense", "tombstones"])
    @pytest.mark.parametrize(
        "definition_factory, ordered", DEFINITIONS,
        ids=[factory.__name__ for factory, _plan in DEFINITIONS],
    )
    def test_probe_gather_and_scan_agree(
        self, fully_tracked_pos, definition_factory, ordered, prepare
    ):
        definition = definition_factory(prepare(fully_tracked_pos)).resolved()
        expected = extrema_of(definition)
        keys = list(expected)
        plan = plan_index_recompute(definition)
        assert plan is not None
        via_scan = scan(definition, keys)
        via_gather = gather(plan, keys)
        assert via_scan == via_gather == expected
        values, counts = recompute_extrema(definition, keys)
        assert values == expected
        if ordered:
            assert counts.plan == "ordered"
            assert probe(plan, keys) == expected
            assert counts.gathered_rows == 0
        else:
            # The estimate picks the index gather or the scan.
            assert plan.extremum_columns is None
            probes = plan.estimated_probes_per_group * len(keys)
            assert counts.plan == (
                "gather" if probes < len(definition.fact.table) else "scan"
            )
        # A key listed twice, and a key with no base rows, change nothing:
        # the gathers leave the absent key out, the probe finds no value.
        arity = len(definition.group_by)
        absent = tuple(-1 for _ in range(arity))
        noisy = keys + keys[:1] + [absent]
        assert gather(plan, noisy) == expected
        assert scan(definition, noisy) == expected
        if ordered:
            nothing = (None,) * len(extremum_outputs(definition))
            assert probe(plan, noisy) == {**expected, absent: nothing}
        some = keys[::2]
        assert recompute_extrema(definition, some)[0] == {
            key: expected[key] for key in some
        }

    def test_by_date_plan_enumerates_the_fact_domains(self, fully_tracked_pos):
        plan = plan_index_recompute(
            by_date_definition(fully_tracked_pos).resolved()
        )
        assert [provider.kind for provider in plan.providers] == [
            "domain", "domain", "fixed",
        ]

    def test_no_index_plan_scans(self, indexed_pos):
        # by_date joins no dimension and storeID/itemID are untracked.
        definition = by_date_definition(indexed_pos).resolved()
        values, counts = recompute_extrema(definition, list(extrema_of(definition)))
        assert values == extrema_of(definition)
        assert (counts.plan, counts.probes, counts.gathered_rows) == (
            "scan", 0, len(indexed_pos.table)
        )

    def test_access_charge_is_pinned(self, indexed_pos):
        # One fixed input, so the charge cannot drift.  Either plan scans
        # the 4-row items dimension once per call.  The gather probes |items in category| x |date
        # domain| = 2 x 4 keys per group, then gathers the 6 fact rows
        # found, joins them (one probe each) and folds them into 3 groups.
        # The probe reads no fact row: (1, fruit) and (3, fruit) find date
        # 1 at their first key, (1, 10, 1) and (3, 10, 1); (4, drink) misses
        # both drinks at date 1, then (4, 11, 2), and hits (4, 12, 2).
        plan = plan_index_recompute(sic_definition(indexed_pos).resolved())
        keys = [(1, "fruit"), (3, "fruit"), (4, "drink")]
        with measuring() as gathered:
            values = gather(plan, keys)
        assert set(values) == set(keys)
        assert gathered.as_dict() == {
            "rows_scanned": 4 + 6 + 6 + 3,
            "rows_inserted": 6 + 6 + 3,
            "rows_deleted": 0,
            "rows_updated": 0,
            "index_lookups": 3 * 2 * 4 + 6,
            "total": 64,
        }
        with measuring() as probed:
            assert probe(plan, keys) == values
        assert probed.as_dict() == {
            "rows_scanned": 4,
            "rows_inserted": 0,
            "rows_deleted": 0,
            "rows_updated": 0,
            "index_lookups": 1 + 1 + 2 + 2,
            "total": 10,
        }

    def test_default_recompute_fn_takes_the_probe(self, indexed_pos):
        # Functional check through the full refresh path.
        from repro.core import apply_refresh, compute_summary_delta
        from repro.views import MaterializedView
        from repro.warehouse import ChangeSet

        view = MaterializedView.build(sic_definition(indexed_pos))
        changes = ChangeSet("pos", indexed_pos.table.schema)
        changes.delete((3, 10, 1, 6, 1.0))  # deletes a group minimum
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(indexed_pos.table)
        with recorded_recomputes() as runs:
            stats = apply_refresh(
                view, delta, recompute=base_recompute_fn(view.definition)
            )
        assert stats.recomputed == 1
        assert view.table.sorted_rows() == compute_rows(view.definition).sorted_rows()
        ((_name, run),) = runs
        assert (run.plan, run.groups, run.gathered_rows) == ("ordered", 1, 0)


def unjoined_fk_warehouse(*tracked):
    """``S_min`` groups by ``storeID`` and joins no dimension, so its rows
    count whatever ``itemID`` holds: store 1 has two rows with a NULL
    itemID and one with itemID 10; store 2 has 120 rows."""
    stores, items = make_stores(), make_items()
    rows = [(1, None, 1, 1, 1.0), (1, None, 2, 1, 1.0), (1, 10, 5, 1, 1.0)]
    rows += [(2, 11, 3, 1, 1.0)] * 120
    pos = FactTable(
        "pos", ["storeID", "itemID", "date", "qty", "price"],
        [ForeignKey("storeID", stores), ForeignKey("itemID", items)],
        rows,
    )
    pos.table.create_index(["storeID", "itemID", "date"])
    for column in tracked:
        pos.table.track_domain(column)
    warehouse = Warehouse()
    warehouse.add_fact(pos)
    view = warehouse.define_summary_table(SummaryViewDefinition.create(
        "S_min", pos, group_by=["storeID"],
        aggregates=[("TotalCount", CountStar()), ("FirstSale", Min(col("date")))],
    ))
    return warehouse, view


class TestUnjoinedForeignKeys:
    """A NULL or dangling foreign key of a dimension the view does not join
    still counts in the view, so recomputation must find its rows."""

    @pytest.mark.parametrize("tracked", [("date",), ("date", "itemID")],
                             ids=["scan", "ordered"])
    def test_deleted_minimum_with_null_foreign_keys(self, tracked):
        warehouse, view = unjoined_fk_warehouse(*tracked)
        warehouse.stage_deletions("pos", [(1, None, 1, 1, 1.0)])
        maintain_lattice(
            warehouse.views_over("pos"), warehouse.pending_changes("pos")
        )
        by_store = {row[0]: row for row in view.table.rows()}
        assert by_store[1] == (1, 2, 2, 2)
        assert warehouse.verify_views() == {"S_min": True}

    def test_probe_and_gather_find_null_and_dangling_keys(self):
        warehouse, view = unjoined_fk_warehouse("date", "itemID")
        pos = warehouse.view("S_min").definition.fact
        pos.table.delete_slots([0])                     # (1, None, 1)
        pos.table.insert((3, 99, 4, 1, 1.0))            # no items row 99
        definition = view.definition
        plan = plan_index_recompute(definition)
        assert [provider.kind for provider in plan.providers] == [
            "fixed", "domain", "domain",
        ]
        expected = {(1,): (2,), (2,): (3,), (3,): (4,)}
        keys = list(expected)
        assert probe(plan, keys) == expected
        assert gather(plan, keys) == expected
        assert scan(definition, keys) == expected
