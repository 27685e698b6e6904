"""Shared fixtures: a tiny hand-built retail star schema, and helpers that
verify a maintained view against from-scratch recomputation."""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from repro.aggregates import CountStar, Max, Min, Sum
from repro.relational import col
from repro.views import MaterializedView, SummaryViewDefinition, compute_rows
from repro.warehouse import (
    DimensionHierarchy,
    DimensionTable,
    FactTable,
    ForeignKey,
    Warehouse,
)


def make_stores() -> DimensionTable:
    """stores(storeID, city, region) with storeID → city → region."""
    return DimensionTable(
        "stores",
        ["storeID", "city", "region"],
        [
            (1, "sf", "west"),
            (2, "la", "west"),
            (3, "nyc", "east"),
            (4, "boston", "east"),
        ],
        hierarchy=DimensionHierarchy("stores", ["storeID", "city", "region"]),
    )


def make_items() -> DimensionTable:
    """items(itemID, name, category, cost) with itemID → category."""
    return DimensionTable(
        "items",
        ["itemID", "name", "category", "cost"],
        [
            (10, "apple", "fruit", 1.0),
            (11, "beer", "drink", 2.0),
            (12, "cola", "drink", 1.5),
            (13, "pear", "fruit", 1.2),
        ],
        hierarchy=DimensionHierarchy("items", ["itemID", "category"]),
    )


DEFAULT_POS_ROWS = [
    # (storeID, itemID, date, qty, price); duplicates intentional (bag).
    (1, 10, 1, 2, 1.0),
    (1, 10, 1, 3, 1.1),
    (1, 11, 2, 1, 2.0),
    (2, 11, 2, 4, 2.1),
    (2, 12, 3, 5, 1.6),
    (3, 10, 1, 6, 1.0),
    (3, 13, 4, 2, 1.3),
    (4, 12, 2, 1, 1.5),
    (4, 12, 2, 1, 1.5),
]


def make_pos(stores: DimensionTable, items: DimensionTable, rows=None) -> FactTable:
    pos = FactTable(
        "pos",
        ["storeID", "itemID", "date", "qty", "price"],
        [ForeignKey("storeID", stores), ForeignKey("itemID", items)],
        DEFAULT_POS_ROWS if rows is None else rows,
    )
    pos.table.create_index(["storeID", "itemID", "date"])
    return pos


@pytest.fixture
def stores() -> DimensionTable:
    return make_stores()


@pytest.fixture
def items() -> DimensionTable:
    return make_items()


@pytest.fixture
def pos(stores, items) -> FactTable:
    return make_pos(stores, items)


@pytest.fixture
def warehouse(pos) -> Warehouse:
    wh = Warehouse()
    wh.add_fact(pos)
    return wh


def sid_definition(pos: FactTable) -> SummaryViewDefinition:
    return SummaryViewDefinition.create(
        "SID_sales",
        pos,
        group_by=["storeID", "itemID", "date"],
        aggregates=[
            ("TotalCount", CountStar()),
            ("TotalQuantity", Sum(col("qty"))),
        ],
    )


def sic_definition(pos: FactTable) -> SummaryViewDefinition:
    return SummaryViewDefinition.create(
        "SiC_sales",
        pos,
        group_by=["storeID", "category"],
        aggregates=[
            ("TotalCount", CountStar()),
            ("EarliestSale", Min(col("date"))),
            ("TotalQuantity", Sum(col("qty"))),
        ],
        dimensions=["items"],
    )


def minmax_definition(pos: FactTable) -> SummaryViewDefinition:
    """A view exercising both MIN and MAX together."""
    return SummaryViewDefinition.create(
        "span_sales",
        pos,
        group_by=["region"],
        aggregates=[
            ("TotalCount", CountStar()),
            ("FirstSale", Min(col("date"))),
            ("LastSale", Max(col("date"))),
            ("TotalQuantity", Sum(col("qty"))),
        ],
        dimensions=["stores"],
    )


def build_shadow(definition: SummaryViewDefinition):
    """A private next-epoch copy of a freshly built view: what ``refresh``
    applies Figure 7 to."""
    return MaterializedView.build(definition).begin_version()


def assert_view_matches_recomputation(view) -> None:
    """The fundamental maintenance invariant (for a view or a shadow)."""
    expected = compute_rows(view.definition).sorted_rows()
    got = view.table.sorted_rows()
    assert got == expected, (
        f"view {view.definition.name!r} diverged from recomputation:\n"
        f"maintained: {got}\nrecomputed: {expected}"
    )


def assert_digest_column(table, certificate) -> None:
    """*certificate*'s digest column holds each live row's ``row_digest``
    at the row's slot, and its sum over the live slots is the
    certificate (which is the certificate of the table's rows)."""
    from repro.obs.audit import CERT_MASK, row_digest, rows_certificate

    expected = {slot: row_digest(row) for slot, row in table.slots()}
    column = certificate.digests
    assert {slot: column[slot] for slot in expected} == expected
    assert certificate.value == sum(expected.values()) & CERT_MASK \
        == rows_certificate(table.rows())


def per_node_deltas(lattice, changes, policy=None) -> dict:
    """One pipeline per lattice node, in topological order: roots from the
    change set, every other node through its Theorem 5.1 edge over its
    parent's delta — the reference a fused sibling group is checked
    against.  Returns each node's delta table."""
    from repro.core import MinMaxPolicy, PropagateOptions, compute_summary_delta

    policy = policy or MinMaxPolicy.PAPER
    tables = {}
    for name in lattice.order:
        node = lattice.node(name)
        if node.is_root:
            tables[name] = compute_summary_delta(
                node.definition, changes, PropagateOptions(policy=policy)
            ).table
        else:
            tables[name] = node.edge.apply_delta(tables[node.parent], policy)
    return tables


@pytest.fixture
def rng() -> random.Random:
    return random.Random(42)


@contextmanager
def _interpreted_engine():
    """Run the block on the interpreter: both ``codegen.compile_*`` entry
    points decline, and the compiled-kernel caches are swapped for empty
    ones, so no kernel compiled before (or during) the block is used."""
    from repro.relational import aggregation, codegen, operators

    with pytest.MonkeyPatch.context() as patch:
        for name in ("compile_batch_aggregation", "compile_column_kernel"):
            patch.setattr(codegen, name, lambda *args, **kwargs: None)
        patch.setattr(aggregation, "_compile_cache", {})
        patch.setattr(operators, "_column_kernel_cache", {})
        yield


@pytest.fixture(scope="session")
def interpreted():
    """``with interpreted(): ...`` runs group-bys and projections through
    the interpreter, the reference the compiled kernels are checked
    against.  The fused sibling scan stays compiled; add ``per_child``
    for an all-interpreted propagate.  Session-scoped so Hypothesis tests
    can use it."""
    return _interpreted_engine


@contextmanager
def _fused_scan_declined():
    """Run the block with the fused sibling kernel declining every group,
    as it does for an edge it cannot compile."""
    from repro.lattice import plan

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plan, "prepare_fused_scan", lambda *args, **kwargs: None)
        yield


@pytest.fixture(scope="session")
def per_child():
    """``with per_child(): ...`` sends every sibling group of
    ``propagate_lattice`` down its per-child fallback, the path an
    unsupported edge takes.  Session-scoped so Hypothesis tests can use
    it."""
    return _fused_scan_declined


@contextmanager
def recorded_recomputes():
    """``with recorded_recomputes() as runs: ...`` appends, to *runs*,
    ``(view name, RecomputeCounts)`` for every call the engine's recompute
    callback (:func:`repro.core.base_recompute_fn`) makes in the block,
    whether or not spans are recorded."""
    from repro.core import maintenance

    runs = []
    recompute_extrema = maintenance.recompute_extrema

    def recorded(definition, keys):
        values, counts = recompute_extrema(definition, keys)
        runs.append((definition.name, counts))
        return values, counts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maintenance, "recompute_extrema", recorded)
        yield runs
