"""The derives relation (≼) and executable lattice-edge queries.

Section 5.1 of the paper: ``v2 ≼ v1`` holds when ``v2`` can be defined by a
single SELECT-FROM-GROUPBY block over ``v1``, possibly joined with
dimension tables along foreign keys that are group-by attributes of ``v1``.
The conditions, checked by :func:`try_derive`:

1. every group-by attribute of ``v2`` is a group-by attribute of ``v1`` or
   an attribute of a dimension table whose foreign key is a group-by
   attribute of ``v1``;
2. every aggregate ``a(E)`` of ``v2`` either appears in ``v1``, or ``E``
   ranges over group-by attributes of ``v1`` (including attributes brought
   in by the allowed dimension joins).

A successful check yields an :class:`EdgeQuery` — the rewritten query along
the lattice edge, with the paper's aggregate rewrites applied:

* ``COUNT`` → ``SUM`` of the parent's stored counts;
* ``SUM(E)``, ``E`` over parent group-bys → ``SUM(E · parent COUNT(*))``;
* ``COUNT(E)`` likewise → ``SUM(CASE WHEN E IS NULL THEN 0 ELSE COUNT(*))``;
* ``MIN``/``MAX`` fold over the parent's extrema or group-by values.

Theorem 5.1 makes the same :class:`EdgeQuery` serve double duty: applied to
the parent's *materialised rows* it computes the child view; applied to the
parent's *summary-delta rows* it computes the child's summary delta (the
D-lattice).  :meth:`EdgeQuery.apply_delta` additionally maintains the split
insertion/deletion extrema when the ``SPLIT`` min/max policy is active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

from ..core.deltas import MinMaxPolicy, del_column, ins_column
from ..errors import DerivationError
from ..relational.aggregation import (
    AggregateSpec,
    MaxReducer,
    MinReducer,
    SumReducer,
    group_by,
)
from ..relational.expressions import Case, Column, Literal, Mul
from ..relational.operators import hash_join
from ..relational.table import Table
from ..views.definition import AggregateOutput, SummaryViewDefinition

if TYPE_CHECKING:
    from ..views.materialize import MaterializedView, ViewVersion


@dataclass(frozen=True)
class EdgeQuery:
    """An executable lattice edge: derive *child* rows from *parent* rows."""

    child: SummaryViewDefinition
    parent: SummaryViewDefinition
    #: Dimension tables joined into the parent's rows along this edge
    #: (the paper's ≼ superscript annotations).
    dimension_joins: tuple[str, ...]
    #: Aggregation specs over parent ⋈ dimension-joins, keyed to the
    #: child's storage column names.
    view_specs: tuple[AggregateSpec, ...]
    #: Extra specs for the SPLIT-policy delta columns, or () when the child
    #: has no MIN/MAX aggregates.
    split_specs: tuple[AggregateSpec, ...]

    def _joined(self, parent_rows: Table) -> Table:
        fact = self.parent.fact
        current = parent_rows
        for dimension_name in self.dimension_joins:
            fk = fact.foreign_key_for(dimension_name)
            current = hash_join(
                current, fk.dimension.table, on=[(fk.column, fk.dimension.key)]
            )
        return current

    def apply(self, parent_rows: Table, name: str | None = None) -> Table:
        """Compute the child's rows from the parent's rows (V-lattice)."""
        return group_by(
            self._joined(parent_rows),
            self.child.group_by,
            list(self.view_specs),
            name=name or self.child.name,
        )

    def apply_delta(
        self,
        parent_delta_rows: Table,
        policy: MinMaxPolicy,
        name: str | None = None,
    ) -> Table:
        """Compute the child's summary delta from the parent's (D-lattice)."""
        specs = list(self.view_specs)
        if policy is MinMaxPolicy.SPLIT:
            specs.extend(self.split_specs)
        return group_by(
            self._joined(parent_delta_rows),
            self.child.group_by,
            specs,
            name=name or f"sd_{self.child.name}",
        )

    def fused_child(self, policy: MinMaxPolicy) -> "FusedChild":
        """This edge as a shared-scan kernel input (see
        :mod:`repro.relational.fused`): the same specs ``apply_delta`` would
        aggregate, with each dimension join reduced to (foreign-key column,
        dimension table, dimension key) for probe-dict lookup."""
        from ..relational.fused import FusedChild, FusedJoin

        specs = list(self.view_specs)
        if policy is MinMaxPolicy.SPLIT:
            specs.extend(self.split_specs)
        fact = self.parent.fact
        joins = tuple(
            FusedJoin(fk.column, fk.dimension.table, fk.dimension.key)
            for fk in (
                fact.foreign_key_for(name) for name in self.dimension_joins
            )
        )
        return FusedChild(
            name=self.child.name,
            output_name=f"sd_{self.child.name}",
            keys=tuple(self.child.group_by),
            aggregates=tuple(specs),
            joins=joins,
        )

    def describe(self) -> str:
        """Short human-readable form, e.g. ``SiC_sales <= SID_sales [items]``."""
        joins = f" [{', '.join(self.dimension_joins)}]" if self.dimension_joins else ""
        return f"{self.child.name} <= {self.parent.name}{joins}"


def try_derive(
    child: SummaryViewDefinition, parent: SummaryViewDefinition
) -> EdgeQuery | None:
    """Return the edge query for ``child ≼ parent``, or ``None``.

    Both definitions must be resolved (self-maintainability augmented).
    """
    try:
        return derive(child, parent)
    except DerivationError:
        return None


class DerivingView(NamedTuple):
    """A materialised view some definition derives from, pinned."""

    view: "MaterializedView"
    edge: EdgeQuery
    #: The version whose rows were counted, for the caller to read from:
    #: a publish in between cannot make the choice and the read disagree.
    version: "ViewVersion"


def smallest_deriving_view(
    definition: SummaryViewDefinition, views: Iterable["MaterializedView"]
) -> DerivingView | None:
    """The view with the fewest stored rows that *definition* (resolved)
    derives from — the first such among equals — or ``None``.

    The one place a source is chosen by size among materialised views: the
    query router answers from it, and the catalog materialises a newly
    defined summary table from it.
    """
    best: DerivingView | None = None
    for view in views:
        if view.definition.fact is not definition.fact:
            continue
        edge = try_derive(definition, view.definition)
        if edge is None:
            continue
        version = view.pin()
        if best is None or len(version.table) < len(best.version.table):
            best = DerivingView(view, edge, version)
    return best


def derive(
    child: SummaryViewDefinition, parent: SummaryViewDefinition
) -> EdgeQuery:
    """Build the edge query for ``child ≼ parent``; raise ``DerivationError``
    when the derives relation does not hold."""
    if child.fact is not parent.fact:
        raise DerivationError(
            f"{child.name!r} and {parent.name!r} aggregate different fact tables"
        )
    if child.where != parent.where:
        raise DerivationError(
            f"{child.name!r} and {parent.name!r} have different WHERE clauses "
            "(not considered by the paper or this reproduction)"
        )
    if not parent.is_resolved() or not child.is_resolved():
        raise DerivationError(
            "derive() requires resolved definitions; call .resolved() first"
        )

    fact = parent.fact
    parent_group = set(parent.group_by)
    parent_storage = set(parent.storage_schema().columns)

    # Dimensions joinable along this edge: FK column is a parent group-by.
    joinable: dict[str, set[str]] = {}
    for fk in fact.foreign_keys:
        if fk.column in parent_group:
            own = set(fk.dimension.columns)
            conflicts = (own - {fk.dimension.key}) & parent_storage
            if conflicts:
                # Joining would shadow parent columns; treat as unusable.
                continue
            joinable[fk.dimension.name] = own

    joins_needed: list[str] = []

    def columns_available(columns: set[str]) -> bool:
        """Can *columns* be supplied by parent group-bys plus joins?"""
        outstanding = set(columns) - parent_group
        for dimension_name, own in joinable.items():
            if not outstanding:
                break
            supplied = outstanding & own
            if supplied:
                if dimension_name not in joins_needed:
                    joins_needed.append(dimension_name)
                outstanding -= supplied
        return not outstanding

    # Condition 1: group-by attributes.
    for attribute in child.group_by:
        if not columns_available({attribute}):
            raise DerivationError(
                f"{child.name!r} group-by attribute {attribute!r} is not "
                f"derivable from {parent.name!r}"
            )

    # Condition 2: aggregates, with rewrites.
    count_star = Column(parent.count_star_column())
    view_specs: list[AggregateSpec] = []
    split_specs: list[AggregateSpec] = []

    def parent_output_matching(output: AggregateOutput) -> AggregateOutput | None:
        for candidate in parent.aggregates:
            if candidate.function == output.function:
                return candidate
        return None

    for output in child.aggregates:
        function = output.function
        matching = parent_output_matching(output)
        if matching is not None:
            column = Column(matching.name)
            if function.kind in ("count_star", "count", "sum"):
                view_specs.append((output.name, column, SumReducer()))
            elif function.kind == "min":
                view_specs.append((output.name, column, MinReducer()))
                split_specs.append(
                    (ins_column(output.name), Column(ins_column(matching.name)),
                     MinReducer())
                )
                split_specs.append(
                    (del_column(output.name), Column(del_column(matching.name)),
                     MinReducer())
                )
            elif function.kind == "max":
                view_specs.append((output.name, column, MaxReducer()))
                split_specs.append(
                    (ins_column(output.name), Column(ins_column(matching.name)),
                     MaxReducer())
                )
                split_specs.append(
                    (del_column(output.name), Column(del_column(matching.name)),
                     MaxReducer())
                )
            else:
                raise DerivationError(
                    f"cannot derive aggregate kind {function.kind!r}"
                )
            continue

        argument = function.argument
        if function.kind != "count_star":
            if argument is None or not columns_available(argument.columns()):
                raise DerivationError(
                    f"{child.name!r} aggregate {output.render()} is neither "
                    f"present in {parent.name!r} nor expressible over its "
                    "group-by attributes"
                )
        if function.kind == "count_star":
            view_specs.append((output.name, count_star, SumReducer()))
        elif function.kind == "count":
            source = Case([(argument.is_null(), Literal(0))], count_star)
            view_specs.append((output.name, source, SumReducer()))
        elif function.kind == "sum":
            view_specs.append((output.name, Mul(argument, count_star), SumReducer()))
        elif function.kind in ("min", "max"):
            reducer_type = MinReducer if function.kind == "min" else MaxReducer
            view_specs.append((output.name, argument, reducer_type()))
            positive = count_star.gt(Literal(0))
            negative = count_star.lt(Literal(0))
            split_specs.append(
                (ins_column(output.name),
                 Case([(positive, argument)], Literal(None)), reducer_type())
            )
            split_specs.append(
                (del_column(output.name),
                 Case([(negative, argument)], Literal(None)), reducer_type())
            )
        else:
            raise DerivationError(f"cannot derive aggregate kind {function.kind!r}")

    return EdgeQuery(
        child=child,
        parent=parent,
        dimension_joins=tuple(joins_needed),
        view_specs=tuple(view_specs),
        split_specs=tuple(split_specs),
    )
