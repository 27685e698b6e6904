"""Predicting maintenance work in tuple accesses (paper, §2.2).

The paper's quantitative argument for the D-lattice is a *cost* claim:
"using a summary-delta table to compute other summary-delta tables will
likely require fewer tuple accesses than computing each summary-delta
table from the changes directly".  This module turns that claim into a
checkable prediction: from plain table statistics (change-set sizes and
per-view group cardinalities) it estimates, **before** a
:func:`~repro.lattice.plan.maintain_lattice` run, how many tuple accesses
each node's propagate and refresh will perform — and what the same
propagation would cost without the lattice, which is exactly the solid
vs dotted "Propagate" gap of Figure 9.

The model mirrors the engine's operator pipeline rather than inventing an
abstract cost function, so predictions land in the same units the
observability layer measures (``rows_scanned + rows_inserted +
rows_deleted + rows_updated + index_lookups``, the canonical
:data:`~repro.relational.stats.ACCESS_FIELDS`):

* a **root** node aggregates the prepared change rows: per change row it
  pays 3 accesses per dimension join (probe scan, key-index lookup,
  output insert), 2 for the projection, 2 for the UNION ALL, 1 for the
  aggregation scan, plus one insert per emitted delta row;
* a **derived** node replays its lattice edge over the parent's delta:
  3 accesses per edge dimension join per parent-delta row, 1 aggregation
  scan, plus the child-delta inserts;
* under **shared-scan** propagation (the default; see
  :mod:`repro.relational.fused`) sibling derived nodes fuse into one pass:
  the single input scan is charged to each group's first node (the *scan
  owner*, matching the engine's span accounting), every node pays one
  probe per parent-delta row per edge join (the dict probe replaces the
  3-access join pipeline), plus its child-delta inserts;
* **refresh** pays one group-index lookup and one touch (update / insert /
  delete) per delta row.  MIN/MAX recomputation scans are data-dependent
  (they depend on *which* extrema the deletions displace) and are
  deliberately not predicted; refresh estimates are therefore a lower
  bound for views with MIN/MAX aggregates.

Delta-row counts come from the classic uniform-hashing estimate: *n*
change rows thrown at a view with *G* groups touch
``G * (1 - (1 - 1/G) ** n)`` distinct groups in expectation
(:func:`expected_groups`).

After a traced run, :func:`actual_node_accesses` joins the recorded span
tree back to the plan (the ``node:<name>`` / ``refresh`` spans), and
:func:`compare_plan` produces per-node predicted-vs-actual rows with error
percentages — the table ``repro explain --execute`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from ..relational.stats import ACCESS_FIELDS
from ..warehouse.changes import ChangeSet
from .vlattice import ViewLattice

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.tracing import Span
    from ..views.materialize import MaterializedView

__all__ = [
    "LatticeStatistics",
    "NodeCostEstimate",
    "PlanCostEstimate",
    "PredictionRow",
    "actual_node_accesses",
    "actual_refresh_accesses",
    "collect_statistics",
    "compare_plan",
    "estimate_plan_cost",
    "expected_groups",
    "group_fusion_choice",
    "span_access_units",
]

#: Accesses per change/delta row per dimension join: the probe-side scan,
#: the dimension-key index lookup, and the joined-output insert.
_JOIN_ACCESSES = 3

#: Accesses per prepared row for the projection onto group-by attributes
#: plus aggregate sources: one scan of the joined row, one output insert.
_PROJECT_ACCESSES = 2

#: Accesses per prepared row for the prepare-changes UNION ALL: one scan of
#: each side's projection, one insert into the combined table.
_UNION_ACCESSES = 2


def expected_groups(n: float, groups: float) -> float:
    """Expected distinct groups hit by *n* uniform rows over *groups* keys.

    The standard occupancy estimate ``G * (1 - (1 - 1/G)^n)``; tends to *n*
    when groups are plentiful and saturates at *G* when changes swamp the
    view.  ``groups <= 1`` degenerates to "one group iff any row".
    """
    if n <= 0:
        return 0.0
    if groups <= 1:
        return 1.0
    return groups * (1.0 - (1.0 - 1.0 / groups) ** n)


@dataclass(frozen=True)
class LatticeStatistics:
    """The inputs the cost model needs — sizes only, never data scans.

    ``group_counts`` maps each lattice node to its full-view group
    cardinality (for a materialised view, its current row count is exact).
    ``side_rows`` carries the change set's (insertions, deletions) counts.
    """

    side_rows: tuple[int, int]
    group_counts: Mapping[str, float]

    @property
    def change_rows(self) -> int:
        return self.side_rows[0] + self.side_rows[1]

    def groups_of(self, name: str) -> float:
        try:
            return max(float(self.group_counts[name]), 1.0)
        except KeyError:
            raise KeyError(
                f"no group-count statistic for lattice node {name!r}"
            ) from None


def collect_statistics(
    lattice: ViewLattice,
    changes: ChangeSet,
    views: Sequence["MaterializedView"] = (),
    group_counts: Mapping[str, float] | None = None,
) -> LatticeStatistics:
    """Build :class:`LatticeStatistics` for a plan.

    Group cardinalities come from, in order of preference: the explicit
    *group_counts* override, a materialised view's current row count, and
    finally the V-lattice's arity proxy (``10 ** len(group_by)``) for
    auxiliary nodes that exist only as definitions.
    """
    counts: dict[str, float] = {}
    by_name = {view.definition.name: view for view in views}
    for name in lattice.order:
        if group_counts is not None and name in group_counts:
            counts[name] = float(group_counts[name])
        elif name in by_name:
            counts[name] = float(len(by_name[name].table))
        else:
            node = lattice.node(name)
            counts[name] = float(10 ** len(node.definition.group_by))
    return LatticeStatistics(
        side_rows=(len(changes.insertions), len(changes.deletions)),
        group_counts=counts,
    )


@dataclass(frozen=True)
class NodeCostEstimate:
    """Predicted maintenance work for one lattice node."""

    name: str
    #: ``"changes"`` for a root, else the derivation parent's name.
    source: str
    level: int
    #: Dimension joins the node's propagation performs (the view's own
    #: dimensions for a root; the lattice edge's joins when derived).
    joins: tuple[str, ...]
    #: Estimated summary-delta rows.
    delta_rows: float
    #: Estimated propagate tuple accesses along the lattice plan.
    propagate_accesses: float
    #: What propagating this node directly from the changes would cost —
    #: equals ``propagate_accesses`` for roots; the §2.2 comparison for
    #: derived nodes.
    direct_accesses: float
    #: Estimated refresh tuple accesses (lookup + touch per delta row;
    #: excludes data-dependent MIN/MAX recomputation scans).
    refresh_accesses: float
    #: What this node would cost through the per-child edge replay — the
    #: difference from ``propagate_accesses`` is the predicted saving of
    #: the fused scan.
    per_child_accesses: float = 0.0
    #: Whether ``propagate_accesses`` models the fused shared-scan kernel
    #: (and, for derived nodes, whether this node owns its group's scan).
    #: False for roots and when :func:`group_fusion_choice` picked
    #: per-child replay for this node's sibling group.
    shared_scan: bool = False
    scan_owner: bool = False

    @property
    def is_root(self) -> bool:
        return self.source == "changes"


@dataclass(frozen=True)
class PlanCostEstimate:
    """The whole plan's prediction, node by node and in aggregate."""

    nodes: dict[str, NodeCostEstimate]
    order: tuple[str, ...]

    @property
    def with_lattice_accesses(self) -> float:
        """Predicted propagate accesses exploiting the D-lattice."""
        return sum(node.propagate_accesses for node in self.nodes.values())

    @property
    def without_lattice_accesses(self) -> float:
        """Predicted propagate accesses computing every delta directly."""
        return sum(node.direct_accesses for node in self.nodes.values())

    @property
    def lattice_savings_ratio(self) -> float:
        """How many times cheaper the lattice plan is (>1 = lattice wins)."""
        with_lattice = self.with_lattice_accesses
        if with_lattice <= 0:
            return 1.0
        return self.without_lattice_accesses / with_lattice

    @property
    def refresh_accesses(self) -> float:
        return sum(node.refresh_accesses for node in self.nodes.values())

    @property
    def per_child_accesses(self) -> float:
        """Predicted propagate accesses through the per-child path."""
        return sum(node.per_child_accesses for node in self.nodes.values())

    @property
    def shared_scan_saved_accesses(self) -> float:
        """Predicted accesses the fused shared scan saves over per-child
        propagation."""
        return self.per_child_accesses - self.with_lattice_accesses


def group_fusion_choice(join_counts: Sequence[int]) -> bool:
    """Per-sibling-group strategy choice: fuse, or replay per child?

    Per parent-delta row the fused pass costs ``1 + ΣJ_i`` accesses (one
    shared scan plus one dimension probe per join) while per-child replay
    costs ``k + 3·ΣJ_i`` (each child re-scans the delta and each join
    re-reads, probes, and re-writes every row).  The fused pass therefore
    wins whenever the group has two or more children or any dimension
    join; for a singleton child with no joins both strategies degenerate
    to the same single aggregation scan, and the per-child path wins by
    skipping kernel compilation.  The propagation engine
    (:func:`~repro.lattice.plan.propagate_lattice`) and
    :func:`estimate_plan_cost` make this choice identically, so predicted
    strategy always matches the executed one.
    """
    return len(join_counts) >= 2 or sum(join_counts) > 0


def _direct_cost(
    definition, stats: LatticeStatistics, groups: float
) -> tuple[float, float]:
    """(delta_rows, accesses) for computing a delta straight from changes.

    Mirrors ``compute_summary_delta``'s pipeline: per non-empty change
    side, each dimension join costs 3 accesses per row and the projection
    2; the UNION ALL re-reads and re-writes every prepared row; the final
    aggregation scans every prepared row and inserts one row per delta
    group.
    """
    joins = len(definition.dimensions)
    per_row = joins * _JOIN_ACCESSES + _PROJECT_ACCESSES + _UNION_ACCESSES + 1
    total_rows = sum(side for side in stats.side_rows if side > 0)
    delta_rows = expected_groups(total_rows, groups)
    return delta_rows, per_row * total_rows + delta_rows


def _derived_cost(
    edge, parent_delta_rows: float, groups: float
) -> tuple[float, float]:
    """(delta_rows, accesses) for replaying a lattice edge over the
    parent's delta: 3 accesses per parent-delta row per edge join, one
    aggregation scan per row, one insert per child-delta group."""
    joins = len(edge.dimension_joins)
    per_row = joins * _JOIN_ACCESSES + 1
    delta_rows = expected_groups(parent_delta_rows, groups)
    return delta_rows, per_row * parent_delta_rows + delta_rows


def _shared_cost(
    edge, parent_delta_rows: float, delta_rows: float, scan_owner: bool
) -> float:
    """Accesses for a derived node inside a fused shared scan: the group's
    single input scan (charged to the scan owner only), one dimension
    probe per parent-delta row per edge join, and the child-delta inserts
    — mirroring how the engine charges ``rows_scanned`` /
    ``index_lookups`` / ``rows_inserted`` on the ``node:<name>`` spans."""
    joins = len(edge.dimension_joins)
    accesses = joins * parent_delta_rows + delta_rows
    if scan_owner:
        accesses += parent_delta_rows
    return accesses


def estimate_plan_cost(
    lattice: ViewLattice, stats: LatticeStatistics
) -> PlanCostEstimate:
    """Predict per-node propagate and refresh work for a lattice plan.

    The estimates depend only on the plan and the statistics, and mirror
    what :func:`~repro.lattice.plan.propagate_lattice` executes: sibling
    groups fused into one shared scan where :func:`group_fusion_choice`
    says so, per-child edge replay elsewhere.
    """
    levels = lattice.propagation_levels()
    depth_of = {
        name: depth for depth, level in enumerate(levels) for name in level
    }
    scan_owners = {group[0] for group in lattice.sibling_groups()}
    group_fused: dict[str, bool] = {}
    for group in lattice.sibling_groups():
        fused = group_fusion_choice(
            [len(lattice.node(member).edge.dimension_joins) for member in group]
        )
        for member in group:
            group_fused[member] = fused
    nodes: dict[str, NodeCostEstimate] = {}
    for name in lattice.order:
        node = lattice.node(name)
        groups = stats.groups_of(name)
        direct_delta, direct_accesses = _direct_cost(
            node.definition, stats, groups
        )
        owner = False
        fused = False
        if node.is_root:
            delta_rows, propagate_accesses = direct_delta, direct_accesses
            per_child_accesses = propagate_accesses
            source: str = "changes"
            joins: tuple[str, ...] = tuple(node.definition.dimensions)
        else:
            parent_delta = nodes[node.parent].delta_rows
            delta_rows, per_child_accesses = _derived_cost(
                node.edge, parent_delta, groups
            )
            fused = group_fused.get(name, False)
            if fused:
                owner = name in scan_owners
                propagate_accesses = _shared_cost(
                    node.edge, parent_delta, delta_rows, owner
                )
            else:
                propagate_accesses = per_child_accesses
            source = node.parent
            joins = tuple(node.edge.dimension_joins)
        nodes[name] = NodeCostEstimate(
            name=name,
            source=source,
            level=depth_of[name],
            joins=joins,
            delta_rows=delta_rows,
            propagate_accesses=propagate_accesses,
            direct_accesses=direct_accesses,
            refresh_accesses=2.0 * delta_rows,
            per_child_accesses=per_child_accesses,
            shared_scan=fused,
            scan_owner=owner,
        )
    return PlanCostEstimate(nodes=nodes, order=tuple(lattice.order))


# ----------------------------------------------------------------------
# Joining predictions to a traced run
# ----------------------------------------------------------------------

def span_access_units(span: "Span") -> int | float:
    """Total tuple accesses recorded in *span*'s subtree.

    Sums the canonical access counters (and only those — engine-specific
    counters like ``rows_in`` or ``delta_rows`` describe the same work in
    different units and must not be double-counted).
    """
    return sum(span.total_counter(counter) for counter in ACCESS_FIELDS)


def actual_node_accesses(root: "Span") -> dict[str, int | float]:
    """Per-node propagate accesses measured from a traced run.

    Every ``node:<name>`` span (recorded by ``propagate_lattice``)
    contributes its subtree's access units; repeated propagations of the
    same node — e.g. a nightly run over several fact tables sharing view
    names — accumulate.
    """
    actuals: dict[str, int | float] = {}
    for span in root.walk():
        if span.name.startswith("node:"):
            name = span.name[len("node:"):]
            actuals[name] = actuals.get(name, 0) + span_access_units(span)
    return actuals


def actual_refresh_accesses(root: "Span") -> dict[str, int | float]:
    """Per-view refresh accesses measured from a traced run (the
    ``refresh`` spans, keyed by their ``view`` tag)."""
    actuals: dict[str, int | float] = {}
    for span in root.walk():
        if span.name == "refresh" and "view" in span.tags:
            name = str(span.tags["view"])
            actuals[name] = actuals.get(name, 0) + span_access_units(span)
    return actuals


@dataclass(frozen=True)
class PredictionRow:
    """One node's predicted-vs-actual comparison."""

    name: str
    predicted: float
    actual: float
    #: Signed error relative to the actual: ``(predicted - actual) / actual``
    #: as a percentage; ``None`` when the actual is zero.
    error_pct: float | None = field(default=None)

    @property
    def ratio(self) -> float | None:
        """predicted / actual, the factor the acceptance gate bounds."""
        if self.actual <= 0:
            return None
        return self.predicted / self.actual


def compare_plan(
    estimate: PlanCostEstimate, actuals: Mapping[str, int | float]
) -> list[PredictionRow]:
    """Join per-node predictions to measured accesses, in plan order.

    Nodes absent from *actuals* (e.g. auxiliary definitions that were never
    propagated in the traced run) are skipped.
    """
    rows: list[PredictionRow] = []
    for name in estimate.order:
        if name not in actuals:
            continue
        predicted = estimate.nodes[name].propagate_accesses
        actual = float(actuals[name])
        error = (
            (predicted - actual) / actual * 100.0 if actual > 0 else None
        )
        rows.append(PredictionRow(
            name=name, predicted=predicted, actual=actual, error_pct=error,
        ))
    return rows
