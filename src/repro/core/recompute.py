"""MIN/MAX recomputation: Figure 7's "recompute from the base data".

Figure 7 recomputes a group whose stored extremum a deletion may have
removed.  Only MIN and MAX need the base data for that: COUNT(*),
COUNT(e) and SUM are self-maintainable (§3.1, Def. 3.1), so refresh
builds a recomputed group's columns from the old rows and the delta like
any other update (:func:`repro.core.refresh.decide_columns`), and the recompute
callback answers only the MIN/MAX values of the groups it is given.
:func:`recompute_extrema` does that with the cheapest of three plans:

* ``ordered`` (:func:`probe_extrema`) — per group and per MIN/MAX column,
  walk the argument column's candidate values in ascending order (MIN) or
  descending order (MAX), probe the fact index with every candidate key
  that fixes the argument to that value, and stop at the first value with
  an index entry.  The index drops dead slots eagerly, so an entry is a
  live row: a group costs a handful of probes and no row is read;
* ``gather`` (:func:`recompute_groups_via_index`) — the candidate keys of
  every group go to the index in one ``lookup_many``; the rows found are
  gathered, joined, filtered and folded once for all the groups;
* ``scan`` (:func:`recompute_groups_via_scan`) — the same join, selection
  and fold over every live fact row.

The ordered probe runs whenever it is exact; otherwise the index gather
runs when its estimated probes undercut the fact table's rows, and the
scan when they do not or no index plan exists.  The gathers fold the
group key and the columns asked for: the MIN/MAX columns for refresh,
every aggregate for the audit's drilldown (:func:`recompute_groups`).

The paper's testbed had a composite index on ``(storeID, itemID, date)``.
An index plan finds, for each column of a fact index, a *provider* of the
candidate values a group key implies —

* ``fixed``     — the column is itself a group-by attribute;
* ``dim_attrs`` — the column is the foreign key of a joined dimension, and
  the group key fixes attributes of that dimension (e.g. ``category`` →
  the item ids in that category);
* ``dim_all``   — the column is the foreign key of a joined dimension the
  group key does not constrain: every dimension key is a candidate, which
  is exact because the inner join drops any other value;
* ``domain``    — the column's distinct values are tracked by the table
  (:meth:`repro.relational.table.Table.track_domain`), e.g. ``date``.  A
  foreign key whose dimension the view does not join takes this provider
  too: its rows count whatever the key holds, ``NULL`` or a value with no
  dimension row, and only the tracked domain lists those.

A column with no provider makes the index infeasible.  The ordered probe
is exact when the view has no ``where``, every dimension it joins is
reached through an index column, every group-by attribute is pinned by a
``fixed`` or ``dim_attrs`` provider (so a hit belongs to no other group),
every MIN/MAX argument is a bare fact column of the index, and the
argument's candidate values sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Any, Callable, Collection, Sequence

from ..relational.aggregation import group_by as physical_group_by
from ..relational.expressions import Column, col
from ..relational.index import HashIndex
from ..relational.operators import select
from ..relational.table import Table, charge_access
from ..views.definition import AggregateOutput, SummaryViewDefinition

GroupKey = tuple[Any, ...]


def extremum_outputs(definition: SummaryViewDefinition) -> list[AggregateOutput]:
    """The view's MIN/MAX outputs, in definition order: the order of the
    values a recompute answers per group."""
    return [
        output for output in definition.aggregates
        if output.function.kind in ("min", "max")
    ]


@dataclass
class RecomputeCounts:
    """What one recompute call did: its plan (``ordered``, ``gather`` or
    ``scan``), the distinct groups asked for, the index probes made and
    the fact rows read."""

    plan: str
    groups: int = 0
    probes: int = 0
    gathered_rows: int = 0


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


def _ascending(values: Collection[Any]) -> list[Any]:
    """The non-NULL *values* in ascending order (``TypeError`` when they
    do not sort)."""
    return sorted(value for value in values if value is not None)


@dataclass
class IndexRecomputePlan:
    """A feasible index access path for per-group recomputation."""

    definition: SummaryViewDefinition
    index: HashIndex
    providers: tuple[_Provider, ...]
    estimated_probes_per_group: float
    #: Per MIN/MAX output, in :func:`extremum_outputs` order: its argument's
    #: position in the index key and whether it is a MIN; ``None`` when the
    #: ordered probe is not exact for this view over this index.
    extremum_columns: tuple[tuple[int, bool], ...] | None = None

    def candidate_sources(
        self, ordered: Collection[int] = (),
    ) -> tuple[
        list[Callable[[GroupKey], Sequence[Any]]],
        dict[int, Callable[[GroupKey], Sequence[Any]]],
        int,
    ]:
        """Per index column, the function from a group key to every
        candidate value of that column, NULL included; per index position
        in *ordered*, the function to the same candidates without NULL in
        ascending order (``TypeError`` when they do not sort), the order
        the ordered probe walks them in; and the dimension rows read to
        build both.  One pass builds both from dimension attribute → keys
        maps and tracked-domain lists, so every group of a call shares
        them.  Only the unordered candidates may fix a column's values in
        a probe."""
        fact = self.definition.fact
        sources: list[Callable[[GroupKey], Sequence[Any]]] = []
        walks: dict[int, Callable[[GroupKey], Sequence[Any]]] = {}
        scanned = 0
        for position, provider in enumerate(self.providers):
            sort = position in ordered
            if provider.kind == "fixed":
                p = provider.group_position
                sources.append(lambda key, p=p: (key[p],))
                if sort:
                    walks[position] = (
                        lambda key, p=p: () if key[p] is None else (key[p],)
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
                if sort:
                    ascending_of = {
                        combination: _ascending(keys)
                        for combination, keys in keys_of.items()
                    }
                    walks[position] = (
                        lambda key, ascending_of=ascending_of, where=where:
                        ascending_of.get(tuple(key[i] for i in where), ())
                    )
            else:
                sources.append(lambda key, values=values: values)
                if sort:
                    ascending = _ascending(values)
                    walks[position] = lambda key, ascending=ascending: ascending
        return sources, walks, scanned


def _pinned_group_attributes(
    definition: SummaryViewDefinition, providers: Sequence[_Provider]
) -> set[str]:
    pinned: set[str] = set()
    for provider in providers:
        if provider.kind == "fixed":
            pinned.add(definition.group_by[provider.group_position])
        elif provider.kind == "dim_attrs":
            pinned.update(
                definition.group_by[i] for i in provider.attr_group_positions
            )
    return pinned


def _ordered_columns(
    definition: SummaryViewDefinition,
    index: HashIndex,
    providers: Sequence[_Provider],
) -> tuple[tuple[int, bool], ...] | None:
    """Where the ordered probe is exact for *definition* over *index*, the
    index position and direction of each MIN/MAX argument; else ``None``
    (the module docstring lists the conditions; sortability is checked
    when the probe runs)."""
    fact = definition.fact
    if definition.where is not None:
        return None
    if not set(definition.group_by) <= _pinned_group_attributes(
        definition, providers
    ):
        return None
    if any(
        fact.foreign_key_for(name).column not in index.columns
        for name in definition.dimensions
    ):
        return None
    columns = []
    for output in extremum_outputs(definition):
        argument = output.function.argument
        if not (isinstance(argument, Column)
                and argument.name in fact.columns
                and argument.name in index.columns):
            return None
        columns.append(
            (index.columns.index(argument.name), output.function.kind == "min")
        )
    return tuple(columns)


def plan_index_recompute(
    definition: SummaryViewDefinition,
) -> IndexRecomputePlan | None:
    """The index access path to recompute *definition*'s groups through,
    or ``None`` when no fact index is feasible: among the feasible ones,
    one the ordered probe is exact for if any, then the fewest estimated
    probes per group."""
    fact = definition.fact
    group_positions = {
        attribute: position
        for position, attribute in enumerate(definition.group_by)
    }
    joined_fks = {
        fk.column: fk for fk in fact.foreign_keys
        if fk.dimension.name in definition.dimensions
    }
    fact_columns = set(fact.columns)

    best: IndexRecomputePlan | None = None
    for index in fact.table.indexes.values():
        providers: list[_Provider] = []
        for column in index.columns:
            if column in group_positions and column in fact_columns:
                providers.append(
                    _Provider("fixed", group_position=group_positions[column])
                )
                continue
            fk = joined_fks.get(column)
            if fk is not None:
                owned = [
                    group_positions[attribute]
                    for attribute in definition.group_by
                    if attribute in fk.dimension.columns
                    and attribute not in fact_columns
                ]
                providers.append(
                    _Provider("dim_attrs", dimension_name=fk.dimension.name,
                              attr_group_positions=tuple(owned))
                    if owned else
                    _Provider("dim_all", dimension_name=fk.dimension.name)
                )
                continue
            if fact.table.domain(column) is not None:
                providers.append(_Provider("domain", column=column))
                continue
            break
        else:
            estimate = 1.0
            for provider in providers:
                estimate *= provider.estimate(definition)
            plan = IndexRecomputePlan(
                definition=definition,
                index=index,
                providers=tuple(providers),
                estimated_probes_per_group=estimate,
                extremum_columns=_ordered_columns(definition, index, providers),
            )
            if best is None or _preference(plan) < _preference(best):
                best = plan
    return best


def _preference(plan: IndexRecomputePlan) -> tuple[bool, float]:
    return plan.extremum_columns is None, plan.estimated_probes_per_group


def recompute_extrema(
    definition: SummaryViewDefinition, keys: Sequence[GroupKey]
) -> tuple[dict[GroupKey, tuple], RecomputeCounts]:
    """The MIN/MAX values (:func:`extremum_outputs` order) of the groups
    *keys*, from the fact table as it stands, and what it took: the
    ordered probe where it is exact, else the pooled gather.  A group the
    gather finds no row of is absent from the result."""
    wanted = list(dict.fromkeys(keys))
    plan = plan_index_recompute(definition)
    if plan is not None and plan.extremum_columns is not None:
        counts = RecomputeCounts("ordered", groups=len(wanted))
        values = probe_extrema(plan, wanted, counts)
        if values is not None:
            return values, counts
    return _gather(definition, plan, wanted, extremum_outputs(definition))


def recompute_groups(
    definition: SummaryViewDefinition,
    keys: Sequence[GroupKey],
    outputs: Sequence[AggregateOutput],
) -> tuple[dict[GroupKey, tuple], RecomputeCounts]:
    """The *outputs* values of the groups *keys*, folded from their fact
    rows by the pooled gather (never the ordered probe): what re-derives
    whole rows, with every aggregate, independently of refresh."""
    return _gather(
        definition, plan_index_recompute(definition),
        list(dict.fromkeys(keys)), outputs,
    )


def _gather(
    definition: SummaryViewDefinition,
    plan: IndexRecomputePlan | None,
    wanted: list[GroupKey],
    outputs: Sequence[AggregateOutput],
) -> tuple[dict[GroupKey, tuple], RecomputeCounts]:
    """The index gather when its estimated probes undercut the fact
    table's rows, else the scan."""
    if plan is not None and (
        plan.estimated_probes_per_group * len(wanted)
        < len(definition.fact.table)
    ):
        counts = RecomputeCounts("gather", groups=len(wanted))
        return recompute_groups_via_index(plan, wanted, outputs, counts), counts
    counts = RecomputeCounts("scan", groups=len(wanted))
    return recompute_groups_via_scan(definition, wanted, outputs, counts), counts


def probe_extrema(
    plan: IndexRecomputePlan,
    keys: Sequence[GroupKey],
    counts: RecomputeCounts,
) -> dict[GroupKey, tuple] | None:
    """The MIN/MAX values of every group in *keys* by the ordered
    early-exit probe (``None`` for a column with no non-NULL value), or
    ``None`` when an argument's candidate values do not sort.

    Per group and per MIN/MAX column, the argument's candidates are walked
    from the extreme end; each value is probed with every combination of
    the other columns' candidates, NULL included, and the first value with
    an index entry is the extremum.  Each probe is charged as one index
    lookup, and the dimension rows
    :meth:`IndexRecomputePlan.candidate_sources` reads once per call.  One
    group at a time, each probe one dictionary lookup."""
    columns = plan.extremum_columns
    if columns is None:
        raise ValueError(
            f"view {plan.definition.name!r}: the ordered probe is not exact "
            f"over the index on {plan.index.columns}"
        )
    try:
        sources, walks, scanned = plan.candidate_sources(
            ordered={position for position, _is_min in columns}
        )
    except TypeError:
        return None
    charge_access("rows_scanned", scanned)
    wanted = list(dict.fromkeys(keys))
    probe = plan.index.probe_any
    probes = 0
    found: dict[GroupKey, tuple] = {}
    for key in wanted:
        candidates = [source(key) for source in sources]
        values = []
        for position, is_min in columns:
            walk = walks[position](key)
            fixed = candidates.copy()
            extremum = None
            for value in walk if is_min else reversed(walk):
                fixed[position] = (value,)
                hit, probed = probe(product(*fixed))
                probes += probed
                if hit:
                    extremum = value
                    break
            values.append(extremum)
        found[key] = tuple(values)
    counts.probes += probes
    return found


def _needed_columns(
    definition: SummaryViewDefinition, outputs: Sequence[AggregateOutput]
) -> set[str]:
    """What a gather of *outputs* reads: the group-by attributes, the
    outputs' arguments, the selection's columns and the foreign keys of
    the joined dimensions."""
    needed = set(definition.group_by)
    for output in outputs:
        needed |= output.function.referenced_columns()
    if definition.where is not None:
        needed |= definition.where.columns()
    return needed | {
        definition.fact.foreign_key_for(name).column
        for name in definition.dimensions
    }


def _fold(
    definition: SummaryViewDefinition,
    slots: Sequence[int] | None,
    wanted: Collection[GroupKey],
    outputs: Sequence[AggregateOutput],
) -> dict[GroupKey, tuple]:
    """Gather the fact columns a fold of *outputs* reads at *slots* (every
    live slot when ``None``), join the view's dimensions, apply its
    selection, fold *outputs* per group and keep the *wanted* groups."""
    fact = definition.fact
    needed = _needed_columns(definition, outputs)
    names = [column for column in fact.columns if column in needed]
    rows = Table(f"recompute_{definition.name}", names)
    if slots is None:
        rows.append_batch(fact.table.columns(names))
    else:
        rows.adopt_batch(fact.table.take(slots, names))
    joined = fact.join_dimensions(rows, definition.dimensions, needed)
    if definition.where is not None:
        joined = select(joined, definition.where)
    aggregates = [
        (output.name,
         output.function.argument if output.function.argument is not None
         else col(joined.schema.columns[0]),
         output.function.base_reducer())
        for output in outputs
    ]
    grouped = physical_group_by(joined, definition.group_by, aggregates)
    arity = len(definition.group_by)
    return {
        row[:arity]: row[arity:]
        for row in grouped.scan()
        if row[:arity] in wanted
    }


def recompute_groups_via_index(
    plan: IndexRecomputePlan,
    keys: Sequence[GroupKey],
    outputs: Sequence[AggregateOutput],
    counts: RecomputeCounts,
) -> dict[GroupKey, tuple]:
    """The *outputs* values of the groups *keys*, gathered through the
    planned index.

    All groups are pooled and each step runs once, over all of them: the
    candidate keys of every distinct group go to the index in one
    ``lookup_many``; the slots found are de-duplicated and sorted, so the
    gather walks the fact columns in storage order and the fold meets the
    rows in the order a scan would; only the fact columns the outputs, the
    group key, the selection and the joins read are gathered; one
    dimension join → selection → group-by folds every group together.
    Candidate keys constrain only the index columns, so a slot fetched for
    one group may truly belong to another; the group-by routes each row to
    its actual group and groups nobody asked for are dropped — results are
    identical to a per-group evaluation.
    """
    definition = plan.definition
    wanted = dict.fromkeys(keys)
    sources, _walks, scanned = plan.candidate_sources()
    charge_access("rows_scanned", scanned)
    probe_keys = list(chain.from_iterable(
        product(*[source(key) for source in sources]) for key in wanted
    ))
    slots = sorted(set(plan.index.lookup_many(probe_keys)))
    counts.probes += len(probe_keys)
    counts.gathered_rows += len(slots)
    if not slots:
        return {}
    return _fold(definition, slots, wanted, outputs)


def recompute_groups_via_scan(
    definition: SummaryViewDefinition,
    keys: Sequence[GroupKey],
    outputs: Sequence[AggregateOutput],
    counts: RecomputeCounts,
) -> dict[GroupKey, tuple]:
    """:func:`recompute_groups_via_index` over every live fact row: the
    same join, selection and fold, for a view no index plan serves."""
    counts.gathered_rows += len(definition.fact.table)
    return _fold(definition, None, dict.fromkeys(keys), outputs)
