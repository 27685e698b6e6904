"""Dimension tables and dimension hierarchies.

A *dimension hierarchy* (paper, Section 2) is a chain of functional
dependencies among the attributes of a dimension table: in the running
example ``storeID → city → region`` and ``itemID → category``.  Hierarchies
matter twice in the paper:

* grouping by an attribute yields the same groups as grouping by that
  attribute plus all attributes it determines (Section 5.2's
  lattice-friendly rewriting relies on this);
* each hierarchy contributes a small lattice of grouping granularities whose
  direct product with the fact-table lattice gives the combined cube lattice
  of Figure 5 (Section 3.3).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..errors import SchemaError, TableError
from ..relational.table import Table


class DimensionHierarchy:
    """A linear functional-dependency chain ``levels[0] → levels[1] → ...``.

    ``levels[0]`` is the dimension key (finest granularity); every level
    functionally determines all later (coarser) levels.  The paper's
    hierarchies are linear chains, which is all we model.
    """

    def __init__(self, name: str, levels: Sequence[str]):
        if len(levels) < 1:
            raise SchemaError("a hierarchy needs at least its key level")
        if len(set(levels)) != len(levels):
            raise SchemaError(f"hierarchy {name!r} has duplicate levels: {levels}")
        self.name = name
        self.levels = tuple(levels)

    def __repr__(self) -> str:
        return f"DimensionHierarchy({self.name!r}, {' -> '.join(self.levels)})"

    @property
    def key(self) -> str:
        """The finest level — the dimension table's key attribute."""
        return self.levels[0]

    def __contains__(self, attribute: object) -> bool:
        return attribute in self.levels

    def depth_of(self, attribute: str) -> int:
        """Position of *attribute* in the chain (0 = key = finest)."""
        try:
            return self.levels.index(attribute)
        except ValueError:
            raise SchemaError(
                f"{attribute!r} is not a level of hierarchy {self.name!r}"
            ) from None

    def determines(self, attribute: str) -> tuple[str, ...]:
        """Attributes functionally determined by *attribute* (its coarser
        descendants in the chain, excluding itself)."""
        return self.levels[self.depth_of(attribute) + 1:]

    def determines_transitively(self, attribute: str, other: str) -> bool:
        """True when ``attribute → other`` holds in this hierarchy."""
        if attribute not in self.levels or other not in self.levels:
            return False
        return self.depth_of(attribute) <= self.depth_of(other)

    def grouping_choices(self) -> tuple[tuple[str, ...], ...]:
        """The grouping granularities this dimension offers, finest first.

        For ``storeID → city → region`` these are ``(storeID,)``,
        ``(city,)``, ``(region,)``, and ``()`` (not grouped) — the nodes of
        the hierarchy's own lattice (Section 3.3).
        """
        return tuple((level,) for level in self.levels) + ((),)


class DimensionTable:
    """A dimension table with a primary key and optional hierarchy.

    Parameters
    ----------
    name:
        Table name (e.g. ``"stores"``).
    columns:
        Column names; the first is taken as the primary key unless *key* is
        given.
    rows:
        Initial rows.
    hierarchy:
        The FD chain over (a subset of) this table's columns.  When omitted,
        a trivial single-level hierarchy over the key is assumed.
    key:
        Primary-key column name.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[Any]] = (),
        hierarchy: DimensionHierarchy | None = None,
        key: str | None = None,
    ):
        self.name = name
        self.table = Table(name, columns, rows)
        self.key = key or columns[0]
        if self.key not in self.table.schema:
            raise SchemaError(f"key {self.key!r} is not a column of {name!r}")
        self.hierarchy = hierarchy or DimensionHierarchy(name, [self.key])
        for level in self.hierarchy.levels:
            if level not in self.table.schema:
                raise SchemaError(
                    f"hierarchy level {level!r} is not a column of {name!r}"
                )
        if self.hierarchy.key != self.key:
            raise SchemaError(
                f"hierarchy of {name!r} must start at the key {self.key!r}, "
                f"got {self.hierarchy.key!r}"
            )
        self.table.create_index([self.key], unique=True)
        # Dimension tables are built row-at-a-time, which leaves their
        # columns plain lists; promote the numeric columns to
        # typed arrays now that the build is complete.
        self.table.promote_columns()

    def __repr__(self) -> str:
        return f"DimensionTable({self.name!r}, {len(self.table)} rows)"

    @property
    def columns(self) -> tuple[str, ...]:
        return self.table.schema.columns

    def attributes(self) -> tuple[str, ...]:
        """Non-key columns (the attributes views may group by or aggregate)."""
        return tuple(c for c in self.columns if c != self.key)

    def lookup(self, key_value: Any) -> tuple[Any, ...] | None:
        """Return the row for *key_value*, or ``None``."""
        index = self.table.index_on([self.key])
        slot = index.lookup_one((key_value,))
        if slot is None:
            return None
        return self.table.row_at(slot)

    def validate_hierarchy(self) -> None:
        """Check that the declared FD chain actually holds in the data.

        Raises :class:`~repro.errors.TableError` on the first violation.
        Workload generators always produce valid hierarchies; this is a
        safety net for hand-built data.
        """
        levels = self.hierarchy.levels
        positions = self.table.schema.positions(levels)
        for upper_idx in range(len(levels) - 1):
            mapping: dict[Any, Any] = {}
            up_pos, down_pos = positions[upper_idx], positions[upper_idx + 1]
            for row in self.table.scan():
                parent, child = row[up_pos], row[down_pos]
                if parent in mapping and mapping[parent] != child:
                    raise TableError(
                        f"FD {levels[upper_idx]} -> {levels[upper_idx + 1]} "
                        f"violated in {self.name!r}: {parent!r} maps to both "
                        f"{mapping[parent]!r} and {child!r}"
                    )
                mapping[parent] = child
