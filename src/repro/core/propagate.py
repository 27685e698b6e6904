"""The propagate function: compute summary-delta tables (paper, Section 4.1).

Propagate runs *outside* the batch window: it reads only the deferred change
set (never the summary table, and — except under pre-aggregation — only the
dimension tables needed by the view), aggregates the prepare-changes rows on
the view's group-by attributes, and produces the
:class:`~repro.core.deltas.SummaryDelta`.

Two optimisations from the paper are implemented:

* **Pre-aggregation** (Section 4.1.3): joins with dimension tables whose
  attributes are not referenced by any aggregate source or selection can be
  delayed until after a first aggregation pass over the bare changes, which
  shrinks the join input.  Enabled via
  :attr:`PropagateOptions.pre_aggregate`.
* **Delta-from-delta** computation along the D-lattice (Section 5.4) lives
  in :mod:`repro.lattice.dlattice`; this module computes a delta *directly
  from the change set*, which is both the single-view path and the paper's
  "propagate without lattice" baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import metrics, tracing
from ..relational.aggregation import (
    BACKENDS,
    AggregateSpec,
    MaxReducer,
    MinReducer,
    group_by,
    group_by_chunked,
)

__all__ = [
    "PropagateOptions",
    "classify_dimensions",
    "compute_summary_delta",
]
from ..relational.expressions import Column, Expression
from ..relational.operators import hash_join, project, select, union_all
from ..relational.table import Table
from ..views.definition import SummaryViewDefinition
from ..warehouse.changes import ChangeSet
from .deltas import (
    MinMaxPolicy,
    SummaryDelta,
    del_column,
    ins_column,
    minmax_outputs,
)
from .prepare import prepare_changes, source_column


@dataclass(frozen=True)
class PropagateOptions:
    """Tuning knobs for the propagate function.

    The parallel-engine knobs (§4.1.2's "techniques for parallelizing
    aggregation"):

    ``parallel``
        Run every propagate aggregation through
        :func:`~repro.relational.aggregation.group_by_chunked`, splitting
        the input into ``chunks`` slices folded on ``backend`` and merging
        partial states with the distributive ``Reducer.merge``.  Output is
        identical to the serial path.
    ``chunks`` / ``backend`` / ``max_workers``
        Chunk count and executor for the chunked aggregation
        (``"serial"``, ``"thread"``, or ``"process"``), and the worker
        cap for executor backends (``None`` = executor default).
    ``level_parallel``
        In :func:`~repro.lattice.plan.propagate_lattice`, dispatch
        same-level (antichain) D-lattice nodes concurrently once their
        parents' deltas are ready, instead of walking the strict
        topological order.
    ``shared_scan``
        In :func:`~repro.lattice.plan.propagate_lattice`, fuse the
        group-bys of sibling D-lattice children into a single compiled
        pass over their parent's delta (one scan, k accumulator sets; see
        :mod:`repro.relational.fused`) instead of one join+aggregate
        pipeline per child.  ``None`` (the default) defers to the
        ``REPRO_SHARED_SCAN`` environment kill-switch; the deltas are
        identical either way.
    ``partition`` / ``shard_workers``
        In :func:`~repro.lattice.plan.maintain_lattice`, when the fact
        table is date-partitioned (see :mod:`repro.warehouse.partition`),
        compute per-shard summary deltas on a process pool of
        ``shard_workers`` workers (``None`` = CPU count) and merge them
        with ``Reducer.merge`` before one standard refresh per view.
        ``partition=None`` (the default) defers to the ``REPRO_PARTITION``
        environment switch; the merged deltas, certificates, and lineage
        manifests are identical to the serial path either way.
    """

    policy: MinMaxPolicy = MinMaxPolicy.PAPER
    pre_aggregate: bool = False
    parallel: bool = False
    chunks: int = 4
    backend: str = "thread"
    max_workers: int | None = None
    level_parallel: bool = False
    shared_scan: bool | None = None
    partition: bool | None = None
    shard_workers: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.chunks, int) or isinstance(self.chunks, bool) \
                or self.chunks < 1:
            raise ValueError(
                f"chunks must be a positive integer, got {self.chunks!r}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{', '.join(BACKENDS)}"
            )
        if self.shard_workers is not None and (
            not isinstance(self.shard_workers, int)
            or isinstance(self.shard_workers, bool)
            or self.shard_workers < 1
        ):
            raise ValueError(
                f"shard_workers must be a positive integer or None, "
                f"got {self.shard_workers!r}"
            )

    def shared_scan_active(self) -> bool:
        """Whether lattice propagation should run the shared-scan engine:
        the explicit ``shared_scan`` option when set, otherwise the
        ``REPRO_SHARED_SCAN`` environment default."""
        if self.shared_scan is not None:
            return self.shared_scan
        from ..relational.fused import shared_scan_enabled

        return shared_scan_enabled()

    def partition_active(self) -> bool:
        """Whether maintenance should take the shard-parallel path for a
        partitioned fact table: the explicit ``partition`` option when
        set, otherwise the ``REPRO_PARTITION`` environment switch."""
        if self.partition is not None:
            return self.partition
        from ..warehouse.partition import partition_enabled

        return partition_enabled()

    def aggregate(self, table, keys, specs, name=None):
        """Run one propagate aggregation under these options: chunked and
        possibly parallel when ``parallel`` is set, plain otherwise."""
        if self.parallel:
            return group_by_chunked(
                table, keys, specs, chunks=self.chunks, name=name,
                backend=self.backend, max_workers=self.max_workers,
            )
        return group_by(table, keys, specs, name=name)


def _delta_specs(
    definition: SummaryViewDefinition, policy: MinMaxPolicy
) -> list[AggregateSpec]:
    """Aggregation specs that fold prepare-changes rows into delta rows.

    Also correct for *re*-aggregating already partially aggregated rows
    (pre-aggregation phase 2, and D-lattice edges), because every delta
    reducer is distributive.
    """
    specs: list[AggregateSpec] = [
        (
            output.name,
            Column(source_column(output.name)),
            output.function.delta_reducer(),
        )
        for output in definition.aggregates
    ]
    if policy is MinMaxPolicy.SPLIT:
        for output in minmax_outputs(definition):
            reducer_type = MinReducer if output.function.kind == "min" else MaxReducer
            specs.append(
                (ins_column(output.name), Column(ins_column(output.name)), reducer_type())
            )
            specs.append(
                (del_column(output.name), Column(del_column(output.name)), reducer_type())
            )
    return specs


def compute_summary_delta(
    definition: SummaryViewDefinition,
    changes: ChangeSet,
    options: PropagateOptions = PropagateOptions(),
) -> SummaryDelta:
    """Compute the summary delta for one view directly from a change set."""
    with tracing.span(
        "compute_delta", view=definition.name,
        pre_aggregate=options.pre_aggregate, parallel=options.parallel,
    ) as sp:
        if options.pre_aggregate:
            delta_rows = _propagate_preaggregated(definition, changes, options)
        else:
            pc = prepare_changes(definition, changes, options.policy)
            delta_rows = options.aggregate(
                pc,
                definition.group_by,
                _delta_specs(definition, options.policy),
                name=f"sd_{definition.name}",
            )
        sp.add("changes_in", changes.size())
        sp.add("delta_rows", len(delta_rows))
        if tracing.enabled():
            registry = metrics.registry()
            registry.counter("propagate.invocations").inc()
            registry.counter("propagate.delta_rows").inc(len(delta_rows))
        return SummaryDelta(
            definition, delta_rows, options.policy,
            lineage=changes.lineage.snapshot(),
        )


# ----------------------------------------------------------------------
# Pre-aggregation (Section 4.1.3)
# ----------------------------------------------------------------------

def classify_dimensions(
    definition: SummaryViewDefinition,
) -> tuple[list[str], list[str]]:
    """Split the view's dimensions into (early, delayable).

    A dimension join can be delayed past pre-aggregation when none of the
    view's aggregate sources or selection conditions reference its columns —
    only group-by attributes may come from it (those are grouped again after
    the delayed join).
    """
    referenced: set[str] = set()
    for output in definition.aggregates:
        referenced |= output.function.referenced_columns()
    if definition.where is not None:
        referenced |= definition.where.columns()

    early: list[str] = []
    delayable: list[str] = []
    fact_columns = set(definition.fact.columns)
    for dimension_name in definition.dimensions:
        dimension = definition.fact.dimension(dimension_name)
        own_columns = set(dimension.columns) - fact_columns
        if referenced & own_columns:
            early.append(dimension_name)
        else:
            delayable.append(dimension_name)
    return early, delayable


def _propagate_preaggregated(
    definition: SummaryViewDefinition,
    changes: ChangeSet,
    options: PropagateOptions,
) -> Table:
    """Propagate with delayed dimension joins.

    Phase 1 joins only the *early* dimensions, projects the Table 1 sources,
    and aggregates on (fact-side group-bys ∪ early-dimension group-bys ∪
    the foreign keys of delayed dimensions).  Phase 2 joins the delayed
    dimensions and re-aggregates on the view's true group-by attributes.
    Both aggregation passes honour the options' parallel engine settings.
    """
    policy = options.policy
    early, delayed = classify_dimensions(definition)
    if not delayed:
        pc = prepare_changes(definition, changes, policy)
        return options.aggregate(
            pc, definition.group_by, _delta_specs(definition, policy),
            name=f"sd_{definition.name}",
        )

    fact = definition.fact
    available_early = set(fact.columns)
    for dimension_name in early:
        available_early |= set(fact.dimension(dimension_name).columns)

    phase1_keys: list[str] = [
        attribute for attribute in definition.group_by
        if attribute in available_early
    ]
    for dimension_name in delayed:
        fk_column = fact.foreign_key_for(dimension_name).column
        if fk_column not in phase1_keys:
            phase1_keys.append(fk_column)

    sides = []
    for deletion, rows in ((False, changes.insertions), (True, changes.deletions)):
        if not len(rows) and sides:
            continue
        joined = fact.join_dimensions(rows, early, definition.referenced_columns())
        if definition.where is not None:
            joined = select(joined, definition.where)
        outputs: list[tuple[str, Expression]] = [
            (key, Column(key)) for key in phase1_keys
        ]
        for output in definition.aggregates:
            source = (
                output.function.deletion_source()
                if deletion
                else output.function.insertion_source()
            )
            outputs.append((source_column(output.name), source))
        if policy is MinMaxPolicy.SPLIT:
            from ..relational.expressions import Literal

            for output in minmax_outputs(definition):
                value = output.function.argument
                outputs.append(
                    (ins_column(output.name),
                     Literal(None) if deletion else value)
                )
                outputs.append(
                    (del_column(output.name),
                     value if deletion else Literal(None))
                )
        sides.append(project(joined, outputs))

    pre = options.aggregate(
        union_all(sides),
        phase1_keys,
        _pre_specs(definition, policy),
        name=f"pre_{definition.name}",
    )

    joined = pre
    for dimension_name in delayed:
        fk = fact.foreign_key_for(dimension_name)
        joined = hash_join(
            joined, fk.dimension.table, on=[(fk.column, fk.dimension.key)]
        )

    return options.aggregate(
        joined,
        definition.group_by,
        _delta_specs(definition, policy),
        name=f"sd_{definition.name}",
    )


def _pre_specs(
    definition: SummaryViewDefinition, policy: MinMaxPolicy
) -> list[AggregateSpec]:
    """Phase-1 specs: like `_delta_specs` but the outputs keep their
    prepare-view source names so phase 2 can re-aggregate them."""
    specs: list[AggregateSpec] = [
        (
            source_column(output.name),
            Column(source_column(output.name)),
            output.function.delta_reducer(),
        )
        for output in definition.aggregates
    ]
    if policy is MinMaxPolicy.SPLIT:
        for output in minmax_outputs(definition):
            reducer_type = MinReducer if output.function.kind == "min" else MaxReducer
            specs.append(
                (ins_column(output.name), Column(ins_column(output.name)), reducer_type())
            )
            specs.append(
                (del_column(output.name), Column(del_column(output.name)), reducer_type())
            )
    return specs
