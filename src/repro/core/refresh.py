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
should build in: every decision is made first, against the table as it
stands (:func:`decide_all`), then the actions are applied by kind as
batches.  :func:`refresh` runs it on a private shadow copy of a view's
table; :func:`apply_refresh` — the one way a maintained view changes —
runs it on a shadow and publishes that as the view's next epoch, so a
published table is never mutated (the paper's batch window, §1, without
stopping readers).

Group lookup goes through :class:`GroupLocator`: one hash probe per delta
tuple on the summary table's group-key index (built once if missing,
maintained incrementally thereafter), making refresh O(|summary-delta|).

Recomputation: Figure 7 recomputes a group "from the base data for t's
group".  Only its MIN/MAX values need the base data — COUNT(*), COUNT(e)
and SUM are self-maintainable (§3.1) — so :func:`decide` builds a flagged
group's row by the same arithmetic as an update, and the recompute
callback, called once per refresh with every flagged group, answers only
the MIN/MAX values (:mod:`repro.core.recompute`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import InconsistentDeltaError, MaintenanceError
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..obs.lineage import record_publish as lineage_record_publish
from ..relational.table import Row, charge_access
from ..relational.types import null_max, null_min
from ..views.definition import SummaryViewDefinition
from ..views.materialize import MaterializedView, ShadowVersion, index_group_key
from .deltas import MinMaxPolicy, SummaryDelta, del_column, ins_column

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

    ``probes`` counts index probes; the surrounding refresh span records
    it as ``index_probes`` and the metrics registry as
    ``refresh.index_probes``.
    """

    __slots__ = ("_table", "_index", "probes")

    def __init__(self, shadow: ShadowVersion):
        definition = shadow.definition
        self._table = shadow.table
        self.probes = 0
        self._index = None
        if definition.group_by:
            index = shadow.group_key_index()
            if index is None:
                index = index_group_key(shadow.table, definition)
            self._index = index

    def slot_of(self, key: GroupKey) -> int | None:
        """Slot of the live summary row whose group-by values equal *key*,
        or ``None`` when the group is absent from the view."""
        if self._index is None:
            return next((slot for slot, _row in self._table.slots()), None)
        self.probes += 1
        return self._index.lookup_one(key)


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


@dataclass(frozen=True)
class _SummableColumn:
    """Refresh metadata for a COUNT/SUM aggregate column."""

    storage_index: int
    is_sum: bool            # SUM(e): governed by COUNT(e); COUNTs are not
    count_index: int        # governing COUNT(e) position (-1 for counts)


class RefreshPlan:
    """Positional metadata compiled once per (definition, policy) pair."""

    def __init__(self, definition: SummaryViewDefinition, policy: MinMaxPolicy):
        storage = definition.storage_schema()
        self.group_arity = len(definition.group_by)
        self.n_columns = len(storage)
        self.count_star_index = storage.position(definition.count_star_column())
        self.policy = policy

        self.summable: list[_SummableColumn] = []
        self.minmax: list[_MinMaxColumn] = []
        delta = None
        for output in definition.aggregates:
            position = storage.position(output.name)
            kind = output.function.kind
            if kind in ("count_star", "count"):
                self.summable.append(_SummableColumn(position, is_sum=False, count_index=-1))
            elif kind == "sum":
                count_name = definition.count_column_for(output.function.argument)
                if count_name is None:
                    raise MaintenanceError(
                        f"view {definition.name!r}: SUM column {output.name!r} "
                        "has no companion COUNT(e); resolve the definition first"
                    )
                self.summable.append(
                    _SummableColumn(position, is_sum=True,
                                    count_index=storage.position(count_name))
                )
            elif kind in ("min", "max"):
                count_name = definition.count_column_for(output.function.argument)
                if count_name is None:
                    raise MaintenanceError(
                        f"view {definition.name!r}: {kind.upper()} column "
                        f"{output.name!r} has no companion COUNT(e); resolve "
                        "the definition first"
                    )
                if policy is MinMaxPolicy.SPLIT:
                    from .deltas import delta_schema

                    delta = delta or delta_schema(definition, policy)
                    ins_index = delta.position(ins_column(output.name))
                    del_index = delta.position(del_column(output.name))
                else:
                    ins_index = del_index = -1
                self.minmax.append(
                    _MinMaxColumn(
                        storage_index=position,
                        is_min=(kind == "min"),
                        count_index=storage.position(count_name),
                        delta_ins_index=ins_index,
                        delta_del_index=del_index,
                    )
                )
            else:
                raise MaintenanceError(
                    f"view {definition.name!r}: cannot refresh aggregate kind "
                    f"{kind!r}"
                )
        #: (SUM position, its COUNT(e) position) per SUM column.
        self.sums = [
            (column.storage_index, column.count_index)
            for column in self.summable if column.is_sum
        ]


@dataclass
class RefreshActions:
    """Figure 7's decisions for one summary delta, by kind, made against
    the table as it stands and applied afterwards as batches.

    ``recomputes`` holds the groups whose MIN/MAX values must be read from
    base data, as ``(slot, key, row)``: *slot* is ``None`` when the group
    is new to the view (its row is inserted, not updated in place), and
    *row* is the group's new row by the update arithmetic — COUNT(*),
    COUNT(e) and SUM from the old row plus the delta, or from the delta
    alone for a new group — whose MIN/MAX columns
    :func:`recomputed_rows` overwrites with the recomputed values.
    """

    inserts: list[Row] = field(default_factory=list)
    deletes: list[int] = field(default_factory=list)
    updates: list[tuple[int, Row]] = field(default_factory=list)
    recomputes: list[tuple[int | None, GroupKey, Row]] = field(
        default_factory=list
    )


def _null_empty_sums(plan: RefreshPlan, row: Row) -> Row:
    """*row* with every SUM whose COUNT(e) is 0 set to NULL."""
    cleared = list(row)
    for position, count in plan.sums:
        if row[count] == 0:
            cleared[position] = None
    return tuple(cleared)


def decide(
    plan: RefreshPlan,
    definition_name: str,
    old_row: Row | None,
    delta_row: Row,
    key: GroupKey,
    slot: int | None,
    actions: RefreshActions,
) -> None:
    """Classify one delta tuple into an action (Figure 7's per-tuple body)."""
    cs = plan.count_star_index

    if old_row is None:
        delta_count_star = delta_row[cs]
        if delta_count_star == 0:
            # A perfectly cancelled delta on a group absent from the view —
            # possible under combined fact+dimension changes (§4.1.4 cross
            # terms): a no-op, not an error.
            return
        if delta_count_star is None or delta_count_star < 0:
            raise InconsistentDeltaError(
                f"view {definition_name!r}: delta for new group {key!r} has "
                f"COUNT(*) {delta_count_star!r}; deletions cannot apply to a "
                "group absent from the view"
            )
        new_row = delta_row[: plan.n_columns]
        for _sum, count in plan.sums:
            if new_row[count] == 0:
                # Contributions cancelled within the delta (dimension-change
                # cross terms, §4.1.4) can leave a SUM of 0 over no non-NULL
                # value: the group's SUM is NULL, as recomputation gives.
                new_row = _null_empty_sums(plan, new_row)
                break
        if plan.policy is not MinMaxPolicy.SPLIT:
            actions.inserts.append(new_row)
            return
        new_row = list(new_row)
        for column in plan.minmax:
            new_row[column.storage_index] = delta_row[column.delta_ins_index]
        if any(
            delta_row[column.delta_del_index] is not None
            for column in plan.minmax
        ):
            # A deletion-side footprint on a NEW group means contributions
            # were cancelled: the net extremum cannot be derived from the
            # delta, so the MIN/MAX values are recomputed; the counts and
            # sums are the delta's.
            actions.recomputes.append((None, key, tuple(new_row)))
            return
        actions.inserts.append(tuple(new_row))
        return

    new_count_star = old_row[cs] + delta_row[cs]
    if new_count_star < 0:
        raise InconsistentDeltaError(
            f"view {definition_name!r}: group {key!r} COUNT(*) would become "
            f"{new_count_star}"
        )
    if new_count_star == 0:
        actions.deletes.append(slot)
        return

    # The update arithmetic, which is also a recomputed group's row.
    new_row = list(old_row)
    new_row[cs] = new_count_star
    for column in plan.summable:
        if column.storage_index == cs:
            continue
        old_value = old_row[column.storage_index]
        delta_value = delta_row[column.storage_index]
        if column.is_sum:
            new_count_e = old_row[column.count_index] + delta_row[column.count_index]
            if new_count_e == 0:
                new_row[column.storage_index] = None
            elif delta_value is None:
                new_row[column.storage_index] = old_value
            elif old_value is None:
                new_row[column.storage_index] = delta_value
            else:
                new_row[column.storage_index] = old_value + delta_value
        else:
            new_row[column.storage_index] = old_value + delta_value
    threatened = False
    for column in plan.minmax:
        old_extreme = old_row[column.storage_index]
        new_count_e = old_row[column.count_index] + delta_row[column.count_index]
        if new_count_e == 0:
            new_row[column.storage_index] = None
            continue
        if plan.policy is MinMaxPolicy.SPLIT:
            incoming = delta_row[column.delta_ins_index]
            threat = delta_row[column.delta_del_index]
        else:
            incoming = threat = delta_row[column.storage_index]
        # Figure 7's recompute check: a stored extremum the delta may have
        # deleted.  Under SPLIT a deletion-side value on a column that
        # stored none can only cancel an insertion-side one (§4.1.4 cross
        # terms), which the fold alone would keep.
        if threat is not None and (
            (threat <= old_extreme if column.is_min else threat >= old_extreme)
            if old_extreme is not None
            else plan.policy is MinMaxPolicy.SPLIT
        ):
            threatened = True
        fold = null_min if column.is_min else null_max
        new_row[column.storage_index] = fold(old_extreme, incoming)
    if threatened:
        actions.recomputes.append((slot, key, tuple(new_row)))
    else:
        actions.updates.append((slot, tuple(new_row)))


def decide_all(
    shadow: ShadowVersion,
    delta: SummaryDelta,
    plan: RefreshPlan,
    locator: GroupLocator,
) -> RefreshActions:
    """Figure 7's decision for every delta tuple against the table as it
    stands — the read-only half of the "summary-delta join": one scan of
    the delta, one locator probe per tuple, the matched summary rows
    gathered column-wise in one pass."""
    actions = RefreshActions()
    delta_rows = delta.table.rows()
    charge_access("rows_scanned", len(delta_rows))
    keys = [delta_row[:plan.group_arity] for delta_row in delta_rows]
    slots = list(map(locator.slot_of, keys))
    old_rows = zip(*shadow.table.take([s for s in slots if s is not None]))
    for delta_row, key, slot in zip(delta_rows, keys, slots):
        old_row = next(old_rows) if slot is not None else None
        decide(plan, shadow.definition.name, old_row, delta_row, key, slot, actions)
    return actions


def recomputed_rows(
    name: str,
    plan: RefreshPlan,
    actions: RefreshActions,
    recompute: RecomputeFn | None,
) -> list[tuple[int | None, Row]]:
    """The ``(slot, new row)`` of every group flagged for recomputation
    (slot ``None``: the group is new to the view): the row the update
    arithmetic built, with the MIN/MAX values from one batched call to
    *recompute*.  A column whose new COUNT(e) is positive must have a
    recomputed value, and one whose COUNT(e) is zero must have none."""
    if not actions.recomputes:
        return []
    if recompute is None:
        raise MaintenanceError(
            f"view {name!r}: refresh needs base-data recomputation for "
            f"{len(actions.recomputes)} group(s) but no recompute source "
            "was provided"
        )
    fresh = recompute([key for _slot, key, _row in actions.recomputes])
    absent = (None,) * len(plan.minmax)
    rows = []
    for slot, key, row in actions.recomputes:
        new_row = list(row)
        for column, value in zip(plan.minmax, fresh.get(key, absent)):
            count_e = row[column.count_index]
            if (count_e > 0) != (value is not None):
                raise InconsistentDeltaError(
                    f"view {name!r}: group {key!r} flagged for "
                    f"recomputation has COUNT(e) {count_e} but its base "
                    f"rows give {'MIN' if column.is_min else 'MAX'} {value!r}"
                )
            new_row[column.storage_index] = value
        rows.append((slot, tuple(new_row)))
    return rows


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
       stored at the slots the shadow wrote and installs it with one
       reference swap.  Steps 3 and 4 run under a ``publish`` span that
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
    actions = decide_all(shadow, delta, plan, locator)
    stats.inserted = table.insert_many(actions.inserts)
    stats.deleted = table.delete_slots(actions.deletes)
    stats.updated = table.update_slots(actions.updates)
    recomputed = recomputed_rows(
        shadow.definition.name, plan, actions, recompute
    )
    stats.recomputed = table.insert_many(
        [row for slot, row in recomputed if slot is None]
    ) + table.update_slots(
        [update for update in recomputed if update[0] is not None]
    )
    return stats
