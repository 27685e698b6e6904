"""Answering OLAP aggregate queries from materialised summary tables.

The reason warehouses maintain summary tables at all (paper, Section 1) is
so that aggregate queries need not scan the fact table.  This module closes
that loop: an :class:`AggregateQuery` is routed to the *cheapest*
materialised view that can answer it — decided with the same derives
relation (≼) used to build maintenance lattices — and evaluated by the
corresponding lattice edge query.  Queries no view can answer fall back to
the base data.

Example::

    router = QueryRouter(warehouse)
    result = router.answer(AggregateQuery.create(
        pos, group_by=["region"],
        aggregates=[("units", Sum(col("qty")))]))
    print(router.explain(query))   # "answered from sR_sales (5 rows)"
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..aggregates.base import AggregateFunction
from ..errors import DefinitionError
from ..lattice.derives import EdgeQuery, smallest_deriving_view
from ..obs import tracing
from ..obs.serving import current_request_id
from ..relational.table import Table
from ..views.definition import SummaryViewDefinition
from ..views.materialize import (
    MaterializedView,
    compute_rows,
    project_user_columns,
)
from ..warehouse.catalog import Warehouse
from ..warehouse.fact import FactTable


@dataclass(frozen=True)
class AggregateQuery:
    """A single-block aggregate query over a star schema.

    Structurally this is a view definition that will never be materialised;
    reusing :class:`~repro.views.definition.SummaryViewDefinition` gives the
    query the full validation and derivation machinery for free.
    """

    definition: SummaryViewDefinition

    @staticmethod
    def create(
        fact: FactTable,
        group_by: Iterable[str],
        aggregates: Iterable[tuple[str, AggregateFunction]],
        dimensions: Iterable[str] = (),
    ) -> "AggregateQuery":
        """Build and validate a query.  Dimension joins are inferred from
        the referenced attributes when *dimensions* is omitted."""
        group_by = tuple(group_by)
        aggregates = tuple(aggregates)
        dimensions = tuple(dimensions)
        if not dimensions:
            dimensions = _infer_dimensions(fact, group_by, aggregates)
        definition = SummaryViewDefinition.create(
            "__query__", fact, group_by, aggregates, dimensions
        )
        return AggregateQuery(definition)

    def user_columns(self) -> tuple[str, ...]:
        return tuple(self.definition.group_by) + tuple(
            output.name for output in self.definition.aggregates
        )


def _infer_dimensions(
    fact: FactTable,
    group_by: tuple[str, ...],
    aggregates: tuple[tuple[str, AggregateFunction], ...],
) -> tuple[str, ...]:
    """Which dimension tables are needed to supply the referenced columns."""
    needed: set[str] = set(group_by)
    for _name, function in aggregates:
        needed |= function.referenced_columns()
    needed -= set(fact.columns)
    dimensions: list[str] = []
    for fk in fact.foreign_keys:
        own = set(fk.dimension.columns) - set(fact.columns)
        if needed & own:
            dimensions.append(fk.dimension.name)
            needed -= own
    if needed:
        raise DefinitionError(
            f"query references unknown attributes {sorted(needed)}"
        )
    return tuple(dimensions)


@dataclass(frozen=True)
class QueryPlan:
    """Where a query will be answered and how much input it reads.

    ``source_table`` is the routed view's table *pinned at plan time*
    (the current :class:`~repro.views.materialize.ViewVersion`'s table):
    evaluation reads this exact reference rather than re-resolving
    ``source_view.table``, so a version swap published between planning
    and evaluation — or mid-evaluation — cannot tear the read.
    ``source_epoch`` records which epoch was pinned, for explain output,
    and ``source_stamp`` the pinned version's
    :meth:`~repro.views.materialize.ViewVersion.stamp`, for caching.
    """

    query: AggregateQuery
    source_view: MaterializedView | None   # None = fall back to base data
    edge: EdgeQuery | None
    input_rows: int
    source_table: Table | None = None
    source_epoch: int | None = None
    source_stamp: tuple[int, int] | None = None

    @property
    def uses_summary_table(self) -> bool:
        return self.source_view is not None

    def describe(self) -> str:
        if self.source_view is None:
            return f"answered from base data ({self.input_rows:,} fact rows)"
        joins = (
            f" joining [{', '.join(self.edge.dimension_joins)}]"
            if self.edge.dimension_joins
            else ""
        )
        return (
            f"answered from {self.source_view.name}{joins} "
            f"({self.input_rows:,} rows)"
        )


class QueryRouter:
    """Routes aggregate queries to the cheapest capable summary table."""

    def __init__(self, warehouse: Warehouse):
        self.warehouse = warehouse

    def plan(self, query: AggregateQuery) -> QueryPlan:
        """Pick the smallest materialised view the query derives from.

        The chosen view's current version is pinned into the plan
        (:attr:`QueryPlan.source_table` / :attr:`QueryPlan.source_epoch`),
        so evaluating the plan reads one consistent snapshot no matter how
        many versioned refreshes publish in between.

        The routing decision records a ``query.plan`` span tagged with
        the serving request id when one is in scope
        (:func:`repro.obs.serving.current_request_id`), so a request's
        spans can be reassembled across the server's pool threads."""
        with tracing.span(
            "query.plan", fact=query.definition.fact.name,
            request=current_request_id(),
        ) as span:
            # The candidate's version is pinned once; costing and (if
            # chosen) evaluation both use that exact table reference.
            best = smallest_deriving_view(
                query.definition.resolved(), self.warehouse.views.values()
            )
            if best is None:
                span.set_tag("source", "base")
                return QueryPlan(
                    query=query,
                    source_view=None,
                    edge=None,
                    input_rows=len(query.definition.fact.table),
                )
            view, edge, version = best
            span.set_tag("source", view.name)
            span.set_tag("epoch", version.epoch)
            return QueryPlan(
                query=query,
                source_view=view,
                edge=edge,
                input_rows=len(version.table),
                source_table=version.table,
                source_epoch=version.epoch,
                source_stamp=version.stamp(),
            )

    def answer(
        self,
        query: AggregateQuery,
        pending_deltas: "dict | None" = None,
    ) -> Table:
        """Plan and evaluate; columns are exactly the query's outputs.

        *pending_deltas* maps view names to their computed-but-unapplied
        :class:`~repro.core.deltas.SummaryDelta` objects.  When the routed
        view has one, the query is answered through a compensated snapshot
        (:func:`repro.core.compensation.read_through_delta`), so readers
        see post-change data before the batch window runs.
        """
        return self.answer_plan(self.plan(query), pending_deltas)

    def answer_plan(
        self,
        plan: QueryPlan,
        pending_deltas: "dict | None" = None,
    ) -> Table:
        """Evaluate an already-planned query against its pinned snapshot.

        Reads :attr:`QueryPlan.source_table` — never the live
        ``view.table`` — so the result reflects exactly the epoch that was
        current at plan time, even if maintenance publishes new versions
        (or mutates in place) while the evaluation scans.
        """
        query = plan.query
        source_name = (
            plan.source_view.name if plan.source_view is not None else "base"
        )
        with tracing.span(
            "query.eval", source=source_name, epoch=plan.source_epoch,
            request=current_request_id(),
        ) as span:
            span.set_tag("input_rows", plan.input_rows)
            resolved = query.definition.resolved()
            if plan.source_view is None:
                full = compute_rows(resolved, name="__query__")
            else:
                source = plan.source_view
                table = plan.source_table
                if table is None:   # plan built by hand without a pin
                    table = source.pin().table
                if pending_deltas and source.name in pending_deltas:
                    from ..core.compensation import read_through_delta

                    snapshot = read_through_delta(
                        source, pending_deltas[source.name], table=table
                    )
                    table = snapshot.table
                full = plan.edge.apply(table, name="__query__")
            return _project_user_columns(full, resolved, query)

    def explain(self, query: AggregateQuery) -> str:
        """Human-readable routing decision."""
        return self.plan(query).describe()


def _project_user_columns(
    full: Table, resolved: SummaryViewDefinition, query: AggregateQuery
) -> Table:
    """Strip self-maintainability companions; evaluate derived (AVG) outputs."""
    return project_user_columns(
        full, resolved, query.user_columns(), "__query__"
    )
