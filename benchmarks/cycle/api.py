"""The benchmark's whole view of ``repro``: the only file that imports it.

Every call the harness makes into the program goes through :class:`Engine`
(or one of the three functions below it), and every call is made on the
shipped defaults: no ``mode=``, ``options=`` or ``variant=`` argument, no
``REPRO_*`` variable.  README.md lists the surface symbol by symbol; a
change that renames or removes one of them needs a benchmark issue first.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Callable, Iterable, Sequence

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
if not (SRC / "repro").is_dir():
    raise ImportError(f"the program under test is not at {SRC}/repro")
sys.path.insert(0, str(SRC))

from repro import (  # noqa: E402
    AggregateQuery,
    CountStar,
    DimensionHierarchy,
    DimensionTable,
    FactTable,
    ForeignKey,
    Min,
    QueryRouter,
    Sum,
    SummaryViewDefinition,
    Warehouse,
    build_lattice_for_views,
    col,
    compute_summary_delta,
    maintain_lattice,
    propagate_lattice,
)
from repro.core.maintenance import base_recompute_fn  # noqa: E402
from repro.core.refresh import apply_refresh  # noqa: E402
from repro.obs.audit import rows_certificate  # noqa: E402
from repro.relational.stats import measuring  # noqa: E402
from repro.serve import QueryServer  # noqa: E402

from inputs import (  # noqa: E402
    FACT_COLUMNS,
    ITEMS_COLUMNS,
    STORES_COLUMNS,
    QuerySpec,
    Row,
    ViewSpec,
)

FACT = "pos"

__all__ = ["Engine", "measuring", "result_rows", "plan_source"]


def _aggregates(spec: ViewSpec | QuerySpec) -> list:
    functions = {
        "count": lambda column: CountStar(),
        "sum": lambda column: Sum(col(column)),
        "min": lambda column: Min(col(column)),
    }
    return [
        (name, functions[function](column))
        for name, function, column in spec.aggregates
    ]


def result_rows(table) -> list[Row]:
    """The rows of an answer (or of any ``Table``), uncharged."""
    return table.rows()


def plan_source(plan) -> tuple[str | None, int]:
    """Where a ``QueryPlan`` reads: (view name or ``None`` for the fact
    table, rows it will read)."""
    view = plan.source_view
    return (view.name if view is not None else None), plan.input_rows


class Engine:
    """One warehouse of the program under test, driven step by step."""

    def __init__(
        self, stores: Sequence[Row], items: Sequence[Row], facts: Iterable[Row]
    ):
        """Load the star schema: dimensions, the fact table, the paper's
        composite index and the date domain MIN/MAX recomputation probes."""
        stores_table = DimensionTable(
            "stores", STORES_COLUMNS, stores,
            hierarchy=DimensionHierarchy("stores", list(STORES_COLUMNS)),
        )
        items_table = DimensionTable(
            "items", ITEMS_COLUMNS, items,
            hierarchy=DimensionHierarchy("items", ["itemID", "category"]),
        )
        self.fact = FactTable(
            FACT, FACT_COLUMNS,
            [ForeignKey("storeID", stores_table), ForeignKey("itemID", items_table)],
            facts,
        )
        self.fact.table.create_index(["storeID", "itemID", "date"])
        self.fact.table.track_domain("date")
        self.warehouse = Warehouse()
        self.warehouse.add_fact(self.fact)
        self.views: list = []
        self.router: QueryRouter | None = None
        self.server: QueryServer | None = None

    # -- set-up ---------------------------------------------------------

    def define_view(self, spec: ViewSpec) -> None:
        definition = SummaryViewDefinition.create(
            spec.name, self.fact, group_by=spec.group_by,
            aggregates=_aggregates(spec), dimensions=spec.dimensions,
        )
        self.warehouse.define_summary_table(definition)
        self.views = self.warehouse.views_over(FACT)

    def start_server(self) -> None:
        self.router = QueryRouter(self.warehouse)
        self.server = QueryServer(self.warehouse)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()

    # -- one cycle, whole -------------------------------------------------

    def stage(self, inserts: Sequence[Row], deletes: Sequence[Row]) -> None:
        """One micro-batch: one lineage batch per call that has rows."""
        if inserts:
            self.warehouse.stage_insertions(FACT, inserts)
        if deletes:
            self.warehouse.stage_deletions(FACT, deletes)

    def maintain(self) -> dict[str, tuple[int, int, int, int, int]]:
        """Propagate, apply to base and refresh every view; per view
        (delta rows, inserted, updated, deleted, recomputed)."""
        result = maintain_lattice(
            self.views, self.warehouse.pending_changes(FACT)
        )
        return {name: _counts(stats) for name, stats in result.stats.items()}

    def discard(self) -> None:
        self.warehouse.discard_pending(FACT)

    # -- the same cycle, in the steps maintain_lattice takes ---------------

    def pending_size(self) -> int:
        return self.warehouse.pending_changes(FACT).size()

    def build_lattice(self):
        return build_lattice_for_views(self.views)

    def propagate(self, lattice) -> dict:
        return propagate_lattice(lattice, self.warehouse.pending_changes(FACT))

    def apply_base(self) -> None:
        self.warehouse.pending_changes(FACT).apply_to(self.fact.table)

    def refresh(
        self, view, delta, wrap_recompute: Callable[[Callable], Callable]
    ) -> tuple[int, int, int, int, int]:
        """Figure 7 on one view; *wrap_recompute* lets the harness time the
        MIN/MAX recomputation callback the refresh calls."""
        stats = apply_refresh(
            view, delta,
            recompute=wrap_recompute(base_recompute_fn(view.definition)),
        )
        return _counts(stats)

    # -- probes: public calls repeated on the same data, result dropped ----

    def probe_root_deltas(self, lattice) -> int:
        """Each lattice root's summary delta straight from the change set."""
        changes = self.warehouse.pending_changes(FACT)
        rows = 0
        for name in lattice.order:
            node = lattice.node(name)
            if node.is_root:
                rows += len(compute_summary_delta(node.definition, changes).table)
        return rows

    def probe_begin_version(self, view) -> int:
        """Copy the view into a shadow version and drop it; rows copied."""
        shadow = view.begin_version()
        return len(shadow.table)

    def probe_certificate(self, view) -> int:
        return rows_certificate(view.table.rows())

    # -- queries ------------------------------------------------------------

    def query(self, spec: QuerySpec) -> AggregateQuery:
        return AggregateQuery.create(
            self.fact, group_by=spec.group_by, aggregates=_aggregates(spec)
        )

    def plan(self, query: AggregateQuery):
        return self.router.plan(query)

    def answer_plan(self, plan):
        return self.router.answer_plan(plan)

    def serve(self, query: AggregateQuery):
        return self.server.answer(query)

    def clear_cache(self) -> None:
        """Drop every cached answer: the next battery is computed from the
        views again, as the first one after a publish is."""
        self.server.cache.clear()

    def server_stats(self) -> dict:
        return self.server.stats.snapshot()

    # -- what the run reports and checks --------------------------------------

    def view_sizes(self) -> dict[str, int]:
        return {view.name: len(view.table) for view in self.views}

    def view_rows(self, view) -> list[Row]:
        return view.table.rows()

    def manifest_marks(self) -> dict[str, int]:
        return {view.name: len(view.lineage) for view in self.views}

    def manifest_batches_since(self, marks: dict[str, int]) -> int:
        """Lineage batches the manifests recorded after *marks* pin, summed
        over the views."""
        return sum(
            len(manifest.batches)
            for view in self.views
            for manifest in view.lineage.manifests_since(marks[view.name])
        )

    def epoch_stats(self) -> dict[str, tuple[int, int]]:
        """Per view (epochs published, superseded epochs still retained)."""
        stats = {view.name: view.epoch_stats() for view in self.views}
        return {name: (s.current, s.retained) for name, s in stats.items()}

    def verify_views(self) -> dict[str, bool]:
        return self.warehouse.verify_views()

    def verify_certificates(self) -> dict[str, bool]:
        return self.warehouse.verify_certificates()


def _counts(stats) -> tuple[int, int, int, int, int]:
    return (stats.delta_rows, stats.inserted, stats.updated, stats.deleted,
            stats.recomputed)
