"""Generalized cube view definitions — the paper's summary tables.

A *generalized cube view* (paper, Section 3.2) is a single
``SELECT-FROM-WHERE-GROUPBY`` block over a fact table, optionally joined
with dimension tables along foreign keys, computing distributive (or
algebraic) aggregate functions.  :class:`SummaryViewDefinition` is the
declarative description of one such view; it is a pure value object — the
materialised rows live in :class:`~repro.views.materialize.MaterializedView`.

Self-maintainability augmentation (paper, Sections 3.1 and 5.4) happens in
:meth:`SummaryViewDefinition.resolved`:

* ``AVG(e)`` is replaced by stored ``SUM(e)`` and ``COUNT(e)`` components
  plus a *derived output* exposing the quotient;
* ``COUNT(*)`` is added when missing;
* ``COUNT(e)`` is added for each distinct argument of ``SUM``/``MIN``/``MAX``.

Augmentation-added columns are flagged ``synthetic`` so user-facing reads
can hide them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

from ..aggregates.base import AggregateFunction
from ..aggregates.standard import Avg, Count, CountStar
from ..errors import DefinitionError
from ..relational.expressions import Expression
from ..relational.schema import Schema

if TYPE_CHECKING:  # imported lazily to avoid a package-init cycle
    from ..warehouse.dimension import DimensionTable
    from ..warehouse.fact import FactTable


@dataclass(frozen=True)
class AggregateOutput:
    """One aggregate column of a summary view.

    ``synthetic`` marks columns added by self-maintainability augmentation
    (they are stored but hidden from user-facing output by default).
    """

    name: str
    function: AggregateFunction
    synthetic: bool = False

    def render(self) -> str:
        return f"{self.function.render()} AS {self.name}"


@dataclass(frozen=True)
class DerivedOutput:
    """A virtual output computed from stored columns at read time.

    Only used for ``AVG`` today: ``name = numerator / denominator`` with
    SQL semantics (null when the denominator is 0/null).
    """

    name: str
    numerator: str
    denominator: str


@dataclass(frozen=True)
class SummaryViewDefinition:
    """A declarative summary-table definition.

    Parameters
    ----------
    name:
        View name (e.g. ``"SID_sales"``).
    fact:
        The fact table the view aggregates.
    group_by:
        Group-by attributes; each must be a column of the fact table or of
        one of the joined dimension tables.
    aggregates:
        The aggregate outputs.
    dimensions:
        Names of dimension tables joined into the view (each must be a
        declared foreign key of the fact table — dimension joins are always
        along foreign keys, Section 3.3).
    where:
        Optional selection predicate over fact ⋈ dimensions.
    derived:
        Virtual outputs (populated by :meth:`resolved` for ``AVG``).
    """

    name: str
    fact: FactTable
    group_by: tuple[str, ...]
    aggregates: tuple[AggregateOutput, ...]
    dimensions: tuple[str, ...] = ()
    where: Expression | None = None
    derived: tuple[DerivedOutput, ...] = field(default=())

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def create(
        name: str,
        fact: FactTable,
        group_by: Iterable[str],
        aggregates: Iterable[tuple[str, AggregateFunction]],
        dimensions: Iterable[str] = (),
        where: Expression | None = None,
    ) -> "SummaryViewDefinition":
        """Build a definition from plain tuples and validate it."""
        definition = SummaryViewDefinition(
            name=name,
            fact=fact,
            group_by=tuple(group_by),
            aggregates=tuple(
                AggregateOutput(output_name, function)
                for output_name, function in aggregates
            ),
            dimensions=tuple(dimensions),
            where=where,
        )
        definition.validate()
        return definition

    # ------------------------------------------------------------------
    # Source relation bookkeeping
    # ------------------------------------------------------------------

    def joined_dimensions(self) -> tuple[DimensionTable, ...]:
        """The dimension tables this view joins, in declaration order."""
        return tuple(self.fact.dimension(name) for name in self.dimensions)

    def source_columns(self) -> tuple[str, ...]:
        """Columns available after fact ⋈ dimensions (duplicate dimension-key
        columns are exposed under their fact-side name only)."""
        columns = list(self.fact.columns)
        seen = set(columns)
        for dim in self.joined_dimensions():
            for column in dim.columns:
                if column not in seen:
                    columns.append(column)
                    seen.add(column)
        return tuple(columns)

    def referenced_columns(self) -> set[str]:
        """Source columns the view reads: group-by attributes plus every
        column an aggregate argument or the selection mentions."""
        referenced = set(self.group_by)
        for output in self.aggregates:
            referenced |= output.function.referenced_columns()
        if self.where is not None:
            referenced |= self.where.columns()
        return referenced

    def source_schema(self) -> Schema:
        """Schema of the joined source relation (fact-side names win)."""
        return Schema(self.source_columns())

    def attribute_owner(self, attribute: str) -> str:
        """Return ``'fact'`` or the owning dimension's name for *attribute*."""
        if attribute in self.fact.columns:
            return "fact"
        for dim in self.joined_dimensions():
            if attribute in dim.columns:
                return dim.name
        raise DefinitionError(
            f"view {self.name!r}: attribute {attribute!r} is not a column of "
            f"{self.fact.name!r} or its joined dimensions {list(self.dimensions)}"
        )

    # ------------------------------------------------------------------
    # Validation and resolution
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural well-formedness; raise ``DefinitionError``."""
        if not self.name:
            raise DefinitionError("view name must be non-empty")
        for dimension_name in self.dimensions:
            self.fact.foreign_key_for(dimension_name)  # raises when absent
        available = set(self.source_columns())
        if len(set(self.group_by)) != len(self.group_by):
            raise DefinitionError(
                f"view {self.name!r} repeats a group-by attribute"
            )
        for attribute in self.group_by:
            if attribute not in available:
                raise DefinitionError(
                    f"view {self.name!r}: unknown group-by attribute {attribute!r}"
                )
        output_names = [output.name for output in self.aggregates]
        all_names = list(self.group_by) + output_names
        if len(set(all_names)) != len(all_names):
            raise DefinitionError(
                f"view {self.name!r} has duplicate output column names"
            )
        if not self.aggregates:
            raise DefinitionError(
                f"view {self.name!r} computes no aggregates; summary tables "
                "must aggregate"
            )
        for output in self.aggregates:
            output.function.ensure_supported()
            missing = output.function.referenced_columns() - available
            if missing:
                raise DefinitionError(
                    f"view {self.name!r}: aggregate {output.render()} references "
                    f"unknown columns {sorted(missing)}"
                )
        if self.where is not None:
            missing = self.where.columns() - available
            if missing:
                raise DefinitionError(
                    f"view {self.name!r}: WHERE references unknown columns "
                    f"{sorted(missing)}"
                )

    def is_resolved(self) -> bool:
        """True when augmentation has already been performed."""
        functions = [output.function for output in self.aggregates]
        if any(isinstance(function, Avg) for function in functions):
            return False
        if not any(isinstance(function, CountStar) for function in functions):
            return False
        count_args = {
            function.argument for function in functions if isinstance(function, Count)
        }
        for function in functions:
            if function.kind in ("sum", "min", "max") and function.argument not in count_args:
                return False
        return True

    def resolved(self) -> "SummaryViewDefinition":
        """Return the self-maintainable version of this definition.

        Idempotent: resolving an already-resolved definition returns an
        equal definition.
        """
        self.validate()
        outputs: list[AggregateOutput] = []
        derived: list[DerivedOutput] = list(self.derived)
        used_names = set(self.group_by) | {output.name for output in self.aggregates}

        def fresh_name(candidate: str) -> str:
            name = candidate
            suffix = 2
            while name in used_names:
                name = f"{candidate}{suffix}"
                suffix += 1
            used_names.add(name)
            return name

        def find_output(function: AggregateFunction) -> AggregateOutput | None:
            for output in outputs:
                if output.function == function:
                    return output
            return None

        def ensure_output(function: AggregateFunction, candidate_name: str) -> AggregateOutput:
            existing = find_output(function)
            if existing is not None:
                return existing
            output = AggregateOutput(fresh_name(candidate_name), function, synthetic=True)
            outputs.append(output)
            return output

        # Pass 1: keep user outputs, decomposing AVG.
        for output in self.aggregates:
            if isinstance(output.function, Avg):
                sum_part, count_part = output.function.components()
                sum_output = ensure_output(sum_part, f"_sum_{output.name}")
                count_output = ensure_output(count_part, f"_cnt_{output.name}")
                derived.append(
                    DerivedOutput(output.name, sum_output.name, count_output.name)
                )
            else:
                outputs.append(output)

        # Pass 2: add companions required for self-maintainability.
        for output in list(outputs):
            for companion in output.function.companions_for_self_maintenance():
                if isinstance(companion, CountStar):
                    ensure_output(companion, "_count")
                else:
                    ensure_output(companion, f"_cnt_{output.name}")

        # Views computing only COUNT(*)/COUNT(e) still need COUNT(*).
        ensure_output(CountStar(), "_count")

        resolved_def = replace(
            self,
            aggregates=tuple(outputs),
            derived=tuple(derived),
        )
        resolved_def.validate()
        return resolved_def

    # ------------------------------------------------------------------
    # Stored-schema helpers (valid on resolved definitions)
    # ------------------------------------------------------------------

    def storage_schema(self) -> Schema:
        """Schema of the materialised table: group-bys then aggregates."""
        return Schema(
            list(self.group_by) + [output.name for output in self.aggregates]
        )

    def count_star_column(self) -> str:
        """Name of the stored ``COUNT(*)`` column (resolved views only)."""
        for output in self.aggregates:
            if isinstance(output.function, CountStar):
                return output.name
        raise DefinitionError(
            f"view {self.name!r} has no COUNT(*) column; call .resolved() first"
        )

    def count_column_for(self, argument: Expression) -> str | None:
        """Name of the stored ``COUNT(argument)`` column, if any."""
        for output in self.aggregates:
            if isinstance(output.function, Count) and not isinstance(
                output.function, CountStar
            ) and output.function.argument == argument:
                return output.name
        return None

    def user_columns(self) -> tuple[str, ...]:
        """The user-facing columns: group-bys, non-synthetic aggregates,
        and derived outputs."""
        columns = list(self.group_by)
        columns.extend(
            output.name for output in self.aggregates if not output.synthetic
        )
        columns.extend(d.name for d in self.derived)
        return tuple(columns)

    def aggregate_by_name(self, name: str) -> AggregateOutput:
        """Look up an aggregate output by column name."""
        for output in self.aggregates:
            if output.name == name:
                return output
        raise DefinitionError(f"view {self.name!r} has no aggregate column {name!r}")
