"""MIN/MAX recomputation strategies: base-table scan vs index-assisted.

Figure 7 recomputes a threatened group "from the base data for t's group".
The naive strategy — one filtered pass over fact ⋈ dimensions for all
flagged groups — costs O(|fact|) per refresh, which makes refresh time grow
with the fact table and buries the paper's falling-refresh-time effect in
panel 9(b) (see EXPERIMENTS.md).

The paper's testbed had a composite index on ``(storeID, itemID, date)``;
a real optimizer answers a per-group recompute through it.  This module
plans the same access path for the hash-index engine: for each column of a
candidate fact index, find a *provider* of candidate values implied by the
group key —

* ``fixed``     — the column is itself a group-by attribute;
* ``dim_attrs`` — the column is a foreign key, and the group key fixes
  attributes of its dimension (e.g. ``category`` → the item ids in that
  category);
* ``dim_all``   — the column is a foreign key unconstrained by the group
  key: every dimension key is a candidate;
* ``domain``    — the column's distinct values are tracked by the table
  (:meth:`repro.relational.table.Table.track_domain`), e.g. ``date``.

The cartesian product of providers yields the exact index keys covering
the group; if the estimated probe count beats the scan, the index path is
used, otherwise the planner falls back to the batched scan.  Either way
the recomputed values are identical — tested against each other.

The index path (:func:`recompute_groups_via_index`) pools all the groups
one refresh flags and runs column-at-a-time, each step once for the whole
pool: one ``lookup_many`` over every group's candidate keys, one
flatten / de-duplicate / sort of the slots found, one gather of the
columns the view reads, one dimension join, one group-by.  Its cost is
that of the rows it reads — about 0.1 s for 360 groups / 89k of 500k fact
rows (EXPERIMENTS.md "PR 28") — whatever the size of the fact table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Any, Callable, Sequence

from ..relational.index import HashIndex
from ..relational.operators import select
from ..relational.table import Table, charge_access
from ..views.definition import SummaryViewDefinition

GroupKey = tuple[Any, ...]


@dataclass(frozen=True)
class _Provider:
    """Candidate values for one index column, given a group key."""

    kind: str                       # fixed | dim_attrs | dim_all | domain
    group_position: int = -1        # fixed: position within the group key
    dimension_name: str = ""        # dim_attrs / dim_all
    attr_group_positions: tuple[int, ...] = ()   # dim_attrs
    column: str = ""                # domain

    def estimate(self, definition: SummaryViewDefinition) -> float:
        fact = definition.fact
        if self.kind == "fixed":
            return 1.0
        if self.kind == "dim_attrs":
            table = fact.dimension(self.dimension_name).table
            # Assume attribute combinations partition the keys evenly; the
            # distinct combinations are counted column-wise (no row tuple
            # per dimension row), charged as the scan they stand for.
            charge_access("rows_scanned", len(table))
            attributes = table.columns(
                [definition.group_by[i] for i in self.attr_group_positions]
            )
            return max(1, len(table)) / max(1, len(set(zip(*attributes))))
        if self.kind == "dim_all":
            return float(max(1, len(fact.dimension(self.dimension_name).table)))
        domain = fact.table.domain(self.column)
        return float(len(domain) if domain else 1)


@dataclass
class IndexRecomputePlan:
    """A feasible index access path for per-group recomputation."""

    definition: SummaryViewDefinition
    index: HashIndex
    providers: tuple[_Provider, ...]
    estimated_probes_per_group: float

    def candidate_sources(
        self,
    ) -> tuple[list[Callable[[GroupKey], Sequence[Any]]], int]:
        """Per index column, the function from a group key to that
        column's candidate values, over dimension attribute → keys maps
        and tracked-domain lists built once here; and the dimension rows
        the per-group plan this stands for scans for each group, which is
        what callers charge."""
        fact = self.definition.fact
        sources: list[Callable[[GroupKey], Sequence[Any]]] = []
        scanned = 0
        for provider in self.providers:
            if provider.kind == "fixed":
                sources.append(
                    lambda key, p=provider.group_position: (key[p],)
                )
                continue
            if provider.kind == "domain":
                values = list(fact.table.domain(provider.column) or ())
            else:
                dimension = fact.dimension(provider.dimension_name)
                scanned += len(dimension.table)
                values = list(dimension.table.columns([dimension.key])[0])
            if provider.kind == "dim_attrs":
                where = provider.attr_group_positions
                attributes = dimension.table.columns(
                    [self.definition.group_by[i] for i in where]
                )
                keys_of: dict[tuple, list[Any]] = {}
                for combination, value in zip(zip(*attributes), values):
                    keys_of.setdefault(combination, []).append(value)
                sources.append(
                    lambda key, keys_of=keys_of, where=where:
                    keys_of.get(tuple(key[i] for i in where), ())
                )
            else:
                sources.append(lambda key, values=values: values)
        return sources, scanned

    def candidate_keys(self, key: GroupKey) -> list[tuple]:
        """All index keys that rows of group *key* can have."""
        sources, scanned = self.candidate_sources()
        charge_access("rows_scanned", scanned)
        return list(product(*[source(key) for source in sources]))


def plan_index_recompute(
    definition: SummaryViewDefinition,
) -> IndexRecomputePlan | None:
    """Find the cheapest feasible index access path, or ``None``."""
    fact = definition.fact
    group_positions = {
        attribute: position
        for position, attribute in enumerate(definition.group_by)
    }
    fk_by_column = {fk.column: fk for fk in fact.foreign_keys}
    fact_columns = set(fact.columns)

    best: IndexRecomputePlan | None = None
    for index in fact.table.indexes.values():
        providers: list[_Provider] = []
        feasible = True
        for column in index.columns:
            if column in group_positions and column in fact_columns:
                providers.append(
                    _Provider("fixed", group_position=group_positions[column])
                )
                continue
            fk = fk_by_column.get(column)
            if fk is not None:
                owned = [
                    group_positions[attribute]
                    for attribute in definition.group_by
                    if attribute in fk.dimension.columns
                    and attribute not in fact_columns
                ] if fk.dimension.name in definition.dimensions else []
                if owned:
                    providers.append(_Provider(
                        "dim_attrs",
                        dimension_name=fk.dimension.name,
                        attr_group_positions=tuple(owned),
                    ))
                else:
                    # The dimension key enumerates the column's candidate
                    # values whether or not the view joins that dimension.
                    providers.append(
                        _Provider("dim_all", dimension_name=fk.dimension.name)
                    )
                continue
            if fact.table.domain(column) is not None:
                providers.append(_Provider("domain", column=column))
                continue
            feasible = False
            break
        if not feasible:
            continue
        estimate = 1.0
        for provider in providers:
            estimate *= provider.estimate(definition)
        plan = IndexRecomputePlan(
            definition=definition,
            index=index,
            providers=tuple(providers),
            estimated_probes_per_group=estimate,
        )
        if best is None or estimate < best.estimated_probes_per_group:
            best = plan
    return best


def recompute_groups_via_index(
    plan: IndexRecomputePlan, keys: list[GroupKey]
) -> dict[GroupKey, tuple]:
    """Recompute the aggregate values of *keys* through the planned index.

    All groups of one refresh are pooled and each step runs once, over
    all of them: the candidate keys of every distinct group go to the
    index in one ``lookup_many``; the buckets found are flattened,
    de-duplicated and sorted into one ascending slot list, so the gather
    walks the fact columns in storage order and the fold meets the rows
    in the order a scan would; those rows are gathered column-wise —
    only the fact columns the view reads and the foreign keys of the
    dimensions it joins — and a single dimension join → selection →
    group-by recomputes every requested group together.  Candidate keys
    constrain only the index columns, so a slot over-fetched for one
    group may truly belong to another; the final group-by routes each row
    to its actual group and the ``wanted`` filter drops groups nobody
    asked for — results are identical to a per-group evaluation.
    """
    from ..relational.aggregation import group_by as physical_group_by
    from ..relational.expressions import col as column_ref

    definition = plan.definition
    fact = definition.fact
    wanted = dict.fromkeys(keys)
    sources, scanned = plan.candidate_sources()
    charge_access("rows_scanned", scanned * len(wanted))
    buckets = plan.index.lookup_many(chain.from_iterable(
        product(*[source(key) for source in sources]) for key in wanted
    ))
    slots = sorted(set(chain.from_iterable(buckets)))
    if not slots:
        return {}
    referenced = definition.referenced_columns()
    needed = referenced | {
        fact.foreign_key_for(name).column for name in definition.dimensions
    }
    names = [column for column in fact.columns if column in needed]
    rows = Table(f"recompute_{definition.name}", names,
                 storage=fact.table.storage)
    rows.adopt_batch(fact.table.take(slots, names))
    joined = fact.join_dimensions(rows, definition.dimensions, referenced)
    if definition.where is not None:
        joined = select(joined, definition.where)
    aggregates = [
        (output.name,
         output.function.argument if output.function.argument is not None
         else column_ref(joined.schema.columns[0]),
         output.function.base_reducer())
        for output in definition.aggregates
    ]
    grouped = physical_group_by(joined, definition.group_by, aggregates)
    arity = len(definition.group_by)
    return {
        row[:arity]: row[arity:]
        for row in grouped.scan()
        if row[:arity] in wanted
    }
