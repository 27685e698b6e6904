"""The refresh function: apply a summary delta to a summary table.

This is the paper's Figure 7 generalised refresh algorithm.  For each
summary-delta tuple, the corresponding summary-table tuple (same group-by
values) is located through the table's group-by index and then:

* **inserted** when no corresponding tuple exists;
* **deleted** when the group's new ``COUNT(*)`` reaches zero;
* **recomputed** when a MIN/MAX extremum may have been deleted (see
  :class:`~repro.core.deltas.MinMaxPolicy` for the exact trigger): its
  counts and sums by the update arithmetic, its MIN/MAX values from base
  data; or
* **updated in place** otherwise, with per-aggregate combination rules
  (add for counts/sums, fold for MIN/MAX) and null handling driven by the
  companion ``COUNT(e)`` columns.

The refresh is the "summary-delta join" Section 4.2 says database vendors
should build in, one column kernel per refresh (:func:`decide_columns`):
one batched probe of the group keys (:class:`GroupLocator`, over the
summary table's group-key index: O(|summary-delta|)), one gather of the
matched rows' aggregate columns, and every decision made against the
table as it stands with ``map``/``zip``/``compress``; the actions then
apply by kind as batches, an update writing the aggregate columns only.
:func:`refresh` runs it on a private shadow copy of a view's table;
:func:`apply_refresh` — the one way a maintained view changes — runs it on
a shadow and publishes that as the view's next epoch, so a published table
is never mutated (the paper's batch window, §1, without stopping readers).

Recomputation: only a flagged group's MIN/MAX values need base data —
COUNT(*), COUNT(e) and SUM are self-maintainable (§3.1) and come from the
update arithmetic — so the recompute callback, called once per refresh
with every flagged group, answers only those (:mod:`repro.core.recompute`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, ge, is_not, le, not_
from typing import Any, Callable, Sequence

from ..errors import InconsistentDeltaError, MaintenanceError
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..obs.lineage import record_publish as lineage_record_publish
from ..relational.table import Table, charge_access
from ..views.definition import SummaryViewDefinition
from ..views.materialize import MaterializedView, ShadowVersion, index_group_key
from .deltas import MinMaxPolicy, SummaryDelta, del_column, delta_schema, ins_column

GroupKey = tuple[Any, ...]
#: Batched recompute callback: group keys -> each group's MIN/MAX values
#: from base data, in the order of the view's MIN/MAX aggregates (``None``
#: for a column with no non-NULL value; a group absent from the result
#: has no value in any column).
RecomputeFn = Callable[[list[GroupKey]], dict[GroupKey, tuple[Any, ...]]]
#: Fault-injection hook for :func:`apply_refresh`: invoked with the stage
#: name (``"build"`` before the shadow refresh, ``"publish"`` after the
#: shadow is complete but before the swap) and may raise.
StageHook = Callable[[str], None]


class GroupLocator:
    """Figure 7's "find the summary tuple with t's group-by values".

    A grouped view is probed through the table's unique group-key index:
    one hash probe per delta tuple — O(1) per tuple, so a whole refresh
    costs O(|summary-delta|) tuple accesses regardless of summary-table
    size.  The index is built once if the table does not already have it,
    then maintained incrementally by the table's mutation hooks.  A view
    with no group-by is a single-row table: its first live slot is the
    group's row.

    ``probes`` counts index probes (one ``index_lookups`` each, charged
    once per batch); the refresh span records it as ``index_probes`` and
    the metrics registry as ``refresh.index_probes``.
    """

    __slots__ = ("_table", "_index", "probes")

    def __init__(self, shadow: ShadowVersion):
        definition = shadow.definition
        self._table = shadow.table
        self.probes = 0
        # The view's own index when it has one (create_index returns it).
        self._index = (index_group_key(shadow.table, definition)
                       if definition.group_by else None)

    def slots_of(self, key_columns: Sequence[Sequence[Any]],
                 n: int) -> list[int | None]:
        """The slot of each of *n* group keys' live summary row (``None``:
        absent), the keys given column-wise; no key tuple outlives its
        probe."""
        if self._index is None:
            return [next((slot for slot, _row in self._table.slots()), None)] * n
        self.probes += n
        return self._index.lookup_each(zip(*key_columns))


@dataclass
class RefreshStats:
    """What one refresh run did to a summary table."""

    delta_rows: int = 0
    inserted: int = 0
    updated: int = 0
    deleted: int = 0
    recomputed: int = 0

    @property
    def touched(self) -> int:
        return self.inserted + self.updated + self.deleted + self.recomputed

    def __add__(self, other: "RefreshStats") -> "RefreshStats":
        return RefreshStats(
            delta_rows=self.delta_rows + other.delta_rows,
            inserted=self.inserted + other.inserted,
            updated=self.updated + other.updated,
            deleted=self.deleted + other.deleted,
            recomputed=self.recomputed + other.recomputed,
        )


@dataclass(frozen=True)
class _MinMaxColumn:
    """Refresh metadata for one MIN/MAX aggregate column."""

    storage_index: int      # position in the view's storage schema
    is_min: bool
    count_index: int        # position of the governing COUNT(e) column
    delta_ins_index: int    # SPLIT policy: insertion-side delta column
    delta_del_index: int    # SPLIT policy: deletion-side delta column


class RefreshPlan:
    """Positional metadata compiled once per (definition, policy) pair."""

    def __init__(self, definition: SummaryViewDefinition, policy: MinMaxPolicy):
        storage = definition.storage_schema()
        self.group_arity = len(definition.group_by)
        self.n_columns = len(storage)
        self.count_star_index = storage.position(definition.count_star_column())
        self.policy = policy
        #: The aggregate columns: what an update writes.
        self.aggregate_names = storage.columns[self.group_arity:]
        #: COUNT(*) and COUNT(e) positions.
        self.counts: list[int] = []
        #: (SUM position, its COUNT(e) position) per SUM column.
        self.sums: list[tuple[int, int]] = []
        self.minmax: list[_MinMaxColumn] = []
        delta = delta_schema(definition, policy)
        for output in definition.aggregates:
            position = storage.position(output.name)
            kind = output.function.kind
            if kind in ("count_star", "count"):
                self.counts.append(position)
                continue
            if kind not in ("sum", "min", "max"):
                raise MaintenanceError(
                    f"view {definition.name!r}: cannot refresh aggregate kind "
                    f"{kind!r}"
                )
            count_name = definition.count_column_for(output.function.argument)
            if count_name is None:
                raise MaintenanceError(
                    f"view {definition.name!r}: {kind.upper()} column "
                    f"{output.name!r} has no companion COUNT(e); resolve "
                    "the definition first"
                )
            count = storage.position(count_name)
            if kind == "sum":
                self.sums.append((position, count))
                continue
            split = policy is MinMaxPolicy.SPLIT
            self.minmax.append(_MinMaxColumn(
                position, kind == "min", count,
                delta.position(ins_column(output.name)) if split else -1,
                delta.position(del_column(output.name)) if split else -1,
            ))
        #: The aggregates of a group with no rows, which a group new to the
        #: view is updated from: every COUNT 0, every SUM/MIN/MAX NULL.
        self.empty_aggregates = tuple(
            0 if position in self.counts else None
            for position in range(self.group_arity, self.n_columns)
        )


@dataclass
class RefreshActions:
    """Figure 7's decisions for one summary delta, by kind, column-wise:
    new groups' storage columns, emptied groups' slots, updated groups'
    slots and aggregate columns, and the groups to recompute — slots
    (``None``: new to the view) and storage columns by the arithmetic."""

    inserts: list[Sequence[Any]]
    deletes: list[int]
    update_at: list[int]
    updates: list[Sequence[Any]]
    recompute_at: list[int | None]
    recomputes: list[Sequence[Any]]


def _keys(columns: Sequence[Sequence[Any]], n: int) -> list[GroupKey]:
    """The *n* group keys of the group-by *columns* (``()`` with none)."""
    return list(zip(*columns)) if columns else [()] * n


def _split(
    columns: Sequence[Sequence[Any]], mask: list[bool]
) -> tuple[list[Sequence[Any]], list[Sequence[Any]]]:
    """*columns* cut in two by *mask*: the values it picks, the rest."""
    if all(mask):
        return list(columns), [[] for _ in columns]
    if not any(mask):
        return [[] for _ in columns], list(columns)
    rest = list(map(not_, mask))
    return ([list(compress(column, mask)) for column in columns],
            [list(compress(column, rest)) for column in columns])


def _inconsistency(
    name: str,
    keys: list[GroupKey],
    found: list[bool],
    delta_counts: Sequence[Any],
    old_counts: Sequence[int],
) -> InconsistentDeltaError:
    """The error for the first delta tuple, in delta order, that leaves
    its group a COUNT(*) no table can hold: NULL or negative."""
    for key, held, delta, old in zip(keys, found, delta_counts, old_counts):
        if delta is None or old + delta < 0:
            what = (
                f"COUNT(*) would become {None if delta is None else old + delta}"
                if held else f"is a new group whose delta has COUNT(*) "
                f"{delta!r}; deletions cannot apply to a group absent from "
                "the view"
            )
            return InconsistentDeltaError(f"view {name!r}: group {key!r} {what}")
    raise AssertionError("no inconsistent delta tuple")


def _held_aggregates(
    table: Table, plan: RefreshPlan, slots: list[int | None], found: list[bool]
) -> dict[int, Sequence[Any]]:
    """The aggregate columns, by storage position, of the rows at *slots*
    where *found* (one gather), else the empty group's."""
    gathered = table.take(list(compress(slots, found)), plan.aggregate_names)
    if all(found):
        return dict(enumerate(gathered, plan.group_arity))
    at = list(compress(range(len(found)), found))
    old = {}
    for position, values, empty in zip(
        range(plan.group_arity, plan.n_columns), gathered, plan.empty_aggregates
    ):
        column = old[position] = [empty] * len(found)
        deque(map(column.__setitem__, at, values), 0)
    return old


def _update_arithmetic(
    plan: RefreshPlan,
    old: dict[int, Sequence[Any]],
    delta: Sequence[Sequence[Any]],
) -> tuple[dict[int, list[Any]], list[bool]]:
    """Figure 7's update arithmetic, a column at a time: the groups' new
    aggregate columns by storage position, from the old ones (*old*) and
    the *delta*'s, and which groups the delta may have deleted a stored
    MIN/MAX extremum of."""
    split = plan.policy is MinMaxPolicy.SPLIT
    new = {p: list(map(add, old[p], delta[p])) for p in plan.counts}
    for position, count in plan.sums:
        # NULL where the new COUNT(e) is 0; a NULL side takes the other's.
        new[position] = [
            None if c == 0 else d if o is None else o if d is None else o + d
            for o, d, c in zip(old[position], delta[position], new[count])
        ]
    threatened = [False] * len(new[plan.count_star_index])
    for column in plan.minmax:
        position, olds = column.storage_index, old[column.storage_index]
        incoming = delta[column.delta_ins_index if split else position]
        threats = delta[column.delta_del_index if split else position]
        counts = new[column.count_index]
        beats = le if column.is_min else ge
        # The fold skips NULLs; the column is NULL where COUNT(e) is 0.
        new[position] = [
            None if c == 0 else i if o is None
            else o if i is None or beats(o, i) else i
            for o, i, c in zip(olds, incoming, counts)
        ]
        # Figure 7's recompute check.  Under SPLIT a deletion-side value
        # on a column that stored none can only cancel an insertion-side
        # one (§4.1.4 cross terms), which the fold alone would keep.
        threatened = [
            was or (t is not None and c != 0
                    and (beats(t, o) if o is not None else split))
            for was, o, t, c in zip(threatened, olds, threats, counts)
        ]
    return new, threatened


def decide_columns(
    table: Table,
    delta: SummaryDelta,
    plan: RefreshPlan,
    locator: GroupLocator,
) -> RefreshActions:
    """Figure 7's decision for every delta tuple against *table* as it
    stands, a column at a time (the read-only half of the summary-delta
    join).  A group new to the view takes the update arithmetic from the
    empty group, so under SPLIT a deletion-side value on it — a
    contribution cancelled inside the delta — flags it for recompute."""
    n = len(delta.table)
    charge_access("rows_scanned", n)
    arity, cs = plan.group_arity, plan.count_star_index
    columns = delta.table.columns()
    slots = locator.slots_of(columns[:arity], n)
    found = list(map(is_not, slots, repeat(None)))
    old = _held_aggregates(table, plan, slots, found)
    if None in columns[cs] or min(map(add, old[cs], columns[cs]), default=0) < 0:
        raise _inconsistency(
            delta.definition.name, _keys(columns[:arity], n), found,
            columns[cs], old[cs],
        )
    new, threatened = _update_arithmetic(plan, old, columns)

    # Every group as one bundle of columns, cut by kind.
    rows = [slots, found, threatened, *columns[:arity],
            *(new[position] for position in range(arity, plan.n_columns))]
    deletes: list[int] = []
    if 0 in new[cs]:
        # An emptied group is deleted; a perfectly cancelled delta on a
        # group absent from the view — possible under combined
        # fact+dimension changes (§4.1.4 cross terms) — is a no-op.
        rows, emptied = _split(rows, list(map(bool, new[cs])))
        deletes = list(compress(emptied[0], emptied[1]))
    flagged, rows = _split(rows, rows[2])
    updated, inserted = _split(rows, rows[1])
    return RefreshActions(
        inserts=inserted[3:],
        deletes=deletes,
        update_at=updated[0],
        updates=updated[3 + arity:],
        recompute_at=flagged[0],
        recomputes=flagged[3:],
    )


def apply_recomputes(
    name: str,
    plan: RefreshPlan,
    actions: RefreshActions,
    recompute: RecomputeFn | None,
) -> None:
    """Overwrite the MIN/MAX columns of ``actions.recomputes`` with each
    flagged group's values from one batched call to *recompute*.  A
    column whose new COUNT(e) is positive must have a recomputed value,
    and one whose COUNT(e) is zero must have none."""
    slots = actions.recompute_at
    if not slots:
        return
    if recompute is None:
        raise MaintenanceError(
            f"view {name!r}: refresh needs base-data recomputation for "
            f"{len(slots)} group(s) but no recompute source was provided"
        )
    columns = actions.recomputes
    keys = _keys(columns[:plan.group_arity], len(slots))
    fresh = recompute(keys)
    found = list(map(fresh.get, keys, repeat((None,) * len(plan.minmax))))
    for column, values in zip(plan.minmax, zip(*found)):
        for key, count_e, value in zip(keys, columns[column.count_index], values):
            if (count_e > 0) != (value is not None):
                raise InconsistentDeltaError(
                    f"view {name!r}: group {key!r} flagged for "
                    f"recomputation has COUNT(e) {count_e} but its base "
                    f"rows give {'MIN' if column.is_min else 'MAX'} {value!r}"
                )
        columns[column.storage_index] = list(values)


def refresh(
    shadow: ShadowVersion,
    delta: SummaryDelta,
    recompute: RecomputeFn | None = None,
) -> RefreshStats:
    """Apply *delta* to *shadow* (paper, Figure 7); return what was done.

    *shadow* is a private copy of a view's table
    (:meth:`~repro.views.materialize.MaterializedView.begin_version`),
    never a published one: a :class:`MaterializedView` is refused with
    :class:`~repro.errors.MaintenanceError` before anything is read, since
    its table is an epoch readers may hold.  Nothing is recorded on the
    view — no freshness, no lineage, no new epoch; :func:`apply_refresh`
    is how a view changes.

    *recompute* supplies the MIN/MAX values of the groups Figure 7 flags
    (:data:`RecomputeFn`); it is required only when the view has MIN/MAX
    aggregates and a deletion (or, under the PAPER policy, any change)
    threatens a stored extremum.  It is called against the *updated* base
    data, per the paper's assumption that base-table changes are applied
    before refresh.
    """
    if isinstance(shadow, MaterializedView):
        raise MaintenanceError(
            f"refresh applies a delta to a shadow version, not to the "
            f"published view {shadow.name!r}; use apply_refresh"
        )
    _check_delta_matches(shadow, delta)
    with tracing.span("refresh", view=shadow.definition.name) as span:
        locator = GroupLocator(shadow)
        stats = _refresh_impl(shadow, delta, recompute, locator)
        _record_refresh_stats(span, stats, locator)
        return stats


def apply_refresh(
    view: MaterializedView,
    delta: SummaryDelta,
    recompute: RecomputeFn | None = None,
    failure_hook: StageHook | None = None,
) -> RefreshStats:
    """Apply *delta* to a shadow copy of *view* and publish it.

    The one way a maintained view changes:

    1. :meth:`~repro.views.materialize.MaterializedView.begin_version`
       copies the current epoch's table (rows + index definitions) into a
       private :class:`~repro.views.materialize.ShadowVersion` whose
       certificate is seeded O(1) from the live one;
    2. Figure 7 refreshes the shadow in its batch "summary-delta join"
       form, the groups it flags for recomputation taking their MIN/MAX
       values from *recompute*;
    3. the shadow is compacted (:meth:`Table.compact`: the slots the
       refresh's deletions emptied are filled from the tail), so a
       published table is dense and readers scan it without a liveness
       filter;
    4. :meth:`~repro.views.materialize.MaterializedView.publish` validates
       the shadow's incrementally-maintained certificate against the rows
       stored at the slots the shadow wrote, hashing each once, and the
       base's per-slot digests there, and installs it with one reference
       swap.  Steps 3 and 4 run under a ``publish`` span that
       counts ``compacted_rows``, ``written_slots`` and ``validated_rows``.

    A failure anywhere — including the injected *failure_hook*, invoked
    with ``"build"`` then ``"publish"`` — simply abandons the shadow: the
    published epoch, its certificate, and every pinned reader snapshot
    are untouched, no lineage manifest is recorded, and committed epochs
    are never unpublished.
    """
    _check_delta_matches(view, delta)
    with tracing.span("refresh", view=view.name) as span:
        shadow = view.begin_version()
        span.set_tag("base_epoch", shadow.base_epoch)
        if failure_hook is not None:
            failure_hook("build")
        locator = GroupLocator(shadow)
        stats = _refresh_impl(shadow, delta, recompute, locator)
        if failure_hook is not None:
            failure_hook("publish")
        with tracing.span("publish", view=view.name) as publish_span:
            publish_span.add("compacted_rows", shadow.table.compact())
            published = view.publish(shadow)
        view.last_delta = (published.epoch, delta)
        span.set_tag("epoch", published.epoch)
        _record_refresh_stats(span, stats, locator)
        if tracing.enabled():
            obs_metrics.registry().counter("refresh.published_epochs").inc()
        view.freshness.mark_refreshed(stats.delta_rows)
        # Published — a failed build or publish raised before this point,
        # leaving no manifest; the batches became visible at this epoch.
        lineage_record_publish(view, delta)
        return stats


def _check_delta_matches(target, delta: SummaryDelta) -> None:
    if delta.definition.name != target.definition.name:
        raise MaintenanceError(
            f"delta for {delta.definition.name!r} applied to view "
            f"{target.definition.name!r}"
        )


def _record_refresh_stats(
    span, stats: RefreshStats, locator: GroupLocator
) -> None:
    """Mirror one refresh run's action counts onto its span and the
    process-wide metrics registry."""
    span.add("delta_rows", stats.delta_rows)
    span.add("inserted", stats.inserted)
    span.add("updated", stats.updated)
    span.add("deleted", stats.deleted)
    span.add("recomputed", stats.recomputed)
    if locator.probes:
        # Not an access counter (the probes themselves charge
        # ``index_lookups``); this records how many groups were located.
        span.add("index_probes", locator.probes)
    if tracing.enabled():
        registry = obs_metrics.registry()
        registry.counter("refresh.delta_rows").inc(stats.delta_rows)
        registry.counter("refresh.inserted").inc(stats.inserted)
        registry.counter("refresh.updated").inc(stats.updated)
        registry.counter("refresh.deleted").inc(stats.deleted)
        registry.counter("refresh.recomputed").inc(stats.recomputed)
        if locator.probes:
            registry.counter("refresh.index_probes").inc(locator.probes)
        cert_digests = span.counters.get("cert_digests", 0)
        if cert_digests:
            registry.counter("integrity.cert_digests").inc(cert_digests)


def _refresh_impl(
    shadow: ShadowVersion,
    delta: SummaryDelta,
    recompute: RecomputeFn | None,
    locator: GroupLocator,
) -> RefreshStats:
    """All decisions against the pre-apply table state, then the actions
    grouped by kind — the recomputed groups last, as new rows and as
    updates — through the table's batch mutators, which maintain indexes
    and the certificate a batch at a time and charge access stats once per
    batch."""
    plan = RefreshPlan(shadow.definition, delta.policy)
    stats = RefreshStats(delta_rows=len(delta.table))
    table = shadow.table
    actions = decide_columns(table, delta, plan, locator)
    stats.inserted = table.append_batch(actions.inserts)
    stats.deleted = table.delete_slots(actions.deletes)
    stats.updated = table.update_columns(
        actions.update_at, plan.aggregate_names, actions.updates
    )
    apply_recomputes(shadow.definition.name, plan, actions, recompute)
    held = list(map(is_not, actions.recompute_at, repeat(None)))
    updates, inserts = _split(actions.recomputes, held)
    stats.recomputed = table.append_batch(inserts) + table.update_columns(
        list(compress(actions.recompute_at, held)),
        plan.aggregate_names, updates[plan.group_arity:],
    )
    return stats
