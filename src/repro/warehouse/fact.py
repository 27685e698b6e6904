"""Fact tables and their foreign-key links to dimension tables.

In a star schema (paper, Section 2) the fact table holds one tuple per
event (each item sold in a transaction) and joins to each dimension table
along a foreign key.  Because the join is along the dimension's primary key,
"each tuple in the fact table is guaranteed to join with one and only one
tuple from each dimension table" (Section 3.3) — the property that makes
join push-down and lattice-friendly view rewriting sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..errors import SchemaError, TableError
from ..relational.operators import hash_join
from ..relational.table import Table
from .dimension import DimensionTable


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key link: ``fact.column`` references ``dimension.key``."""

    column: str
    dimension: DimensionTable

    def __repr__(self) -> str:
        return f"ForeignKey({self.column} -> {self.dimension.name}.{self.dimension.key})"


class FactTable:
    """A fact table plus its declared foreign keys.

    Parameters
    ----------
    name:
        Table name (e.g. ``"pos"``).
    columns:
        Column names.
    foreign_keys:
        ``ForeignKey`` declarations; each ``column`` must exist in *columns*.
    rows:
        Initial rows (duplicates allowed — the fact table is a bag).
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        foreign_keys: Sequence[ForeignKey] = (),
        rows: Iterable[Sequence[Any]] = (),
    ):
        self.name = name
        self.table = Table(name, columns, rows)
        self.foreign_keys = tuple(foreign_keys)
        seen_dimensions: set[str] = set()
        for fk in self.foreign_keys:
            if fk.column not in self.table.schema:
                raise SchemaError(
                    f"foreign key column {fk.column!r} is not a column of {name!r}"
                )
            if fk.dimension.name in seen_dimensions:
                raise SchemaError(
                    f"fact table {name!r} declares dimension "
                    f"{fk.dimension.name!r} twice"
                )
            seen_dimensions.add(fk.dimension.name)

    def __repr__(self) -> str:
        return f"FactTable({self.name!r}, {len(self.table)} rows)"

    @property
    def columns(self) -> tuple[str, ...]:
        return self.table.schema.columns

    def dimension(self, name: str) -> DimensionTable:
        """Return the linked dimension table called *name*."""
        for fk in self.foreign_keys:
            if fk.dimension.name == name:
                return fk.dimension
        raise TableError(f"fact table {self.name!r} has no dimension {name!r}")

    def foreign_key_for(self, dimension_name: str) -> ForeignKey:
        """Return the foreign key linking to *dimension_name*."""
        for fk in self.foreign_keys:
            if fk.dimension.name == dimension_name:
                return fk
        raise TableError(
            f"fact table {self.name!r} has no foreign key to {dimension_name!r}"
        )

    def join_dimensions(
        self,
        source: Table,
        dimension_names: Sequence[str],
        columns: Iterable[str] | None = None,
    ) -> Table:
        """Join *source* (fact-shaped rows) with the named dimension tables.

        Used when materialising views and when building prepare-views from
        change sets: the change tables share the fact table's schema, so the
        same foreign keys apply.  *columns* names what the caller will
        reference afterwards; dimension columns outside it are not carried
        (``None`` carries them all).
        """
        wanted = None if columns is None else set(columns)
        result = source
        for name in dimension_names:
            fk = self.foreign_key_for(name)
            result = hash_join(
                result,
                fk.dimension.table,
                on=[(fk.column, fk.dimension.key)],
                right_columns=None if wanted is None else [
                    column for column in fk.dimension.columns
                    if column in wanted and column not in result.schema
                ],
            )
        return result

    def validate_foreign_keys(self) -> None:
        """Check every fact row references an existing dimension row."""
        for fk in self.foreign_keys:
            position = self.table.schema.position(fk.column)
            index = fk.dimension.table.index_on([fk.dimension.key])
            for row in self.table.scan():
                if not index.lookup((row[position],)):
                    raise TableError(
                        f"{self.name}.{fk.column} = {row[position]!r} has no "
                        f"match in {fk.dimension.name}"
                    )
