"""The refresh function: apply a summary delta to a summary table.

This is the paper's Figure 7 generalised refresh algorithm.  For each
summary-delta tuple, the corresponding summary-table tuple (same group-by
values) is located through the table's group-by index and then:

* **inserted** when no corresponding tuple exists;
* **deleted** when the group's new ``COUNT(*)`` reaches zero;
* **recomputed from base data** when a MIN/MAX extremum may have been
  deleted (see :class:`~repro.core.deltas.MinMaxPolicy` for the exact
  trigger); or
* **updated in place** otherwise, with per-aggregate combination rules
  (add for counts/sums, fold for MIN/MAX) and null handling driven by the
  companion ``COUNT(e)`` columns.

Two execution variants are provided, mirroring Section 4.2's closing
observation:

* ``CURSOR`` — the embedded-SQL style of Figure 2: per delta tuple, index
  lookup then immediate insert/update/delete;
* ``OUTER_JOIN`` — the "summary-delta join" the paper says database vendors
  should build in: all decisions are computed first against a read-only
  view of the table, then applied in one batch.

Both variants share the decision logic and produce identical final states.

Group lookup goes through :class:`GroupLocator`: by default one hash probe
per delta tuple on the summary table's group-key index (built once if
missing, maintained incrementally thereafter), making refresh
O(|summary-delta|).  ``REPRO_REFRESH_INDEX=0`` falls back to a linear scan
of the summary table per delta tuple — the O(|summary table|) baseline the
``refresh_index`` benchmark section measures against.

Engineering note on recomputation: Figure 7 recomputes a group "from the
base data for t's group" — in the paper's RDBMS that is one query per
group.  Issuing one scan per group would distort our cost model (we have no
optimizer to pick per-group index plans for arbitrary dimension attributes),
so recomputation is *batched*: all groups flagged for recompute in one
refresh are recomputed in a single pass over the base data.  The result is
identical; only the access pattern differs.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import InconsistentDeltaError, MaintenanceError
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..obs.lineage import record_publish as lineage_record_publish
from ..relational.table import Row, charge_access
from ..relational.types import null_max, null_min
from ..views.definition import SummaryViewDefinition
from ..views.materialize import MaterializedView
from .deltas import MinMaxPolicy, SummaryDelta, del_column, ins_column

GroupKey = tuple[Any, ...]
#: Batched recompute callback: group keys -> recomputed aggregate values
#: (one tuple of aggregate-column values per surviving group).
RecomputeFn = Callable[[list[GroupKey]], dict[GroupKey, tuple[Any, ...]]]


class RefreshVariant(enum.Enum):
    """How refresh decisions are executed (same decisions either way)."""

    CURSOR = "cursor"
    OUTER_JOIN = "outer_join"


def refresh_index_enabled() -> bool:
    """Whether refresh locates groups through the summary table's group-key
    hash index (the Figure 7 fast path).  ``REPRO_REFRESH_INDEX=0`` disables
    it, restoring the linear-scan-per-tuple baseline."""
    return os.environ.get("REPRO_REFRESH_INDEX", "1") != "0"


class RefreshMode(enum.Enum):
    """How a maintenance cycle applies summary deltas to stored views.

    * ``INPLACE`` — Figure 7 applied directly to the live table (the
      paper's batch-window assumption: no concurrent readers).
    * ``ATOMIC`` — in-place with an undo log
      (:func:`repro.core.transactional.refresh_atomically`): all-or-
      nothing, but readers mid-refresh can still observe intermediate
      states.
    * ``VERSIONED`` — copy-on-refresh
      (:func:`repro.core.transactional.refresh_versioned`): the delta is
      applied to a private shadow copy, validated against its consistency
      certificate, and published with a single reference swap, so
      concurrent readers never see a torn view.
    """

    INPLACE = "inplace"
    ATOMIC = "atomic"
    VERSIONED = "versioned"


def versioned_default() -> bool:
    """Whether maintenance defaults to versioned copy-on-refresh.

    Versioned copy-on-refresh is the shipped default: readers overlap the
    refresh window and epoch manifests pin each published version to its
    contributing batches.  ``REPRO_VERSIONED=0`` is the kill switch back
    to in-place refresh (the paper's exclusive batch-window setting — no
    table copying, no concurrent reads during refresh)."""
    return os.environ.get("REPRO_VERSIONED", "1") == "1"


def resolve_refresh_mode(mode: "RefreshMode | str | None" = None) -> RefreshMode:
    """Normalise a mode argument: enum member, its string value, or
    ``None`` for the environment-driven default."""
    if mode is None:
        return RefreshMode.VERSIONED if versioned_default() else RefreshMode.INPLACE
    if isinstance(mode, RefreshMode):
        return mode
    return RefreshMode(str(mode).lower())


def apply_refresh(
    view: MaterializedView,
    delta: SummaryDelta,
    recompute: "RecomputeFn | None" = None,
    variant: RefreshVariant = RefreshVariant.CURSOR,
    mode: "RefreshMode | str | None" = None,
) -> "RefreshStats":
    """Apply one summary delta through the selected :class:`RefreshMode`.

    The single dispatch point the lattice/maintenance layers go through,
    so a whole cycle switches discipline with one argument (or the
    ``REPRO_VERSIONED`` environment default).  *variant* picks how an
    in-place refresh executes; the other modes have one form each."""
    resolved = resolve_refresh_mode(mode)
    if resolved is RefreshMode.INPLACE:
        return refresh(view, delta, recompute, variant)
    from .transactional import refresh_atomically, refresh_versioned

    if resolved is RefreshMode.ATOMIC:
        return refresh_atomically(view, delta, recompute)
    return refresh_versioned(view, delta, recompute)


class GroupLocator:
    """Figure 7's "find the summary tuple with t's group-by values".

    The strategy depends on the view and the ``REPRO_REFRESH_INDEX``
    kill-switch:

    * grouped view, index enabled (the default): one hash probe per delta
      tuple against the table's group-key index — O(1) per tuple, so a
      whole refresh costs O(|summary-delta|) tuple accesses regardless of
      summary-table size.  The index is built once if the table does not
      already have it, then maintained incrementally by the table's
      mutation hooks — including through
      :func:`~repro.core.transactional.refresh_atomically` rollback, whose
      undo log replays inverses via those same hooks.
    * grouped view, ``REPRO_REFRESH_INDEX=0``: a fresh linear scan of the
      summary table per delta tuple — the O(|summary table|) baseline the
      ``refresh_index`` benchmark section contrasts against.  Rows examined
      are charged as ``rows_scanned`` to the stats collector and span.
    * no-group-by view: single-row table; the first live slot is the
      group's row in both modes (no index involved).

    ``probes`` counts ``slot_of`` calls; the surrounding refresh span
    records it as ``index_probes`` (or ``scan_probes`` when the index is
    disabled) and the metrics registry as ``refresh.index_probes``.
    """

    __slots__ = ("_table", "_arity", "_index", "probes")

    def __init__(self, view: MaterializedView):
        definition = view.definition
        self._table = view.table
        self._arity = len(definition.group_by)
        self.probes = 0
        self._index = None
        if self._arity and refresh_index_enabled():
            index = view.group_key_index()
            if index is None:
                index = view.table.create_index(list(definition.group_by))
            self._index = index

    @property
    def indexed(self) -> bool:
        """Whether probes go through the group-key hash index."""
        return self._index is not None

    def slot_of(self, key: GroupKey) -> int | None:
        """Slot of the live summary row whose group-by values equal *key*,
        or ``None`` when the group is absent from the view."""
        self.probes += 1
        if self._index is not None:
            return self._index.lookup_one(key)
        arity = self._arity
        examined = 0
        found = None
        for slot, row in self._table.slots():
            if not arity:
                found = slot
                break
            examined += 1
            if row[:arity] == key:
                found = slot
                break
        charge_access("rows_scanned", examined)
        return found


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


@dataclass
class RefreshActions:
    """Deferred refresh actions (used by both variants for recompute, and
    by the OUTER_JOIN variant for everything)."""

    inserts: list[Row] = field(default_factory=list)
    deletes: list[int] = field(default_factory=list)
    updates: list[tuple[int, Row]] = field(default_factory=list)
    #: (slot, key); slot is None when the recomputed group is new to the
    #: view and its result must be inserted rather than updated in place.
    recomputes: list[tuple[int | None, GroupKey]] = field(default_factory=list)


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
    g = plan.group_arity
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
        if plan.policy is MinMaxPolicy.SPLIT:
            # A deletion-side footprint on a NEW group means contributions
            # were cancelled (dimension-change cross terms); the net
            # extremum cannot be derived from the delta — recompute the
            # whole group from base data and insert the result.
            if any(
                delta_row[column.delta_del_index] is not None
                for column in plan.minmax
            ):
                actions.recomputes.append((None, key))
                return
            new_row = list(delta_row[: plan.n_columns])
            for column in plan.minmax:
                new_row[column.storage_index] = delta_row[column.delta_ins_index]
            actions.inserts.append(tuple(new_row))
        else:
            actions.inserts.append(tuple(delta_row[: plan.n_columns]))
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

    # MIN/MAX recompute check (Figure 7).
    for column in plan.minmax:
        old_extreme = old_row[column.storage_index]
        if old_extreme is None:
            continue
        new_count_e = old_row[column.count_index] + delta_row[column.count_index]
        if new_count_e <= 0:
            continue
        if plan.policy is MinMaxPolicy.SPLIT:
            threat = delta_row[column.delta_del_index]
        else:
            threat = delta_row[column.storage_index]
        if threat is None:
            continue
        beats = threat <= old_extreme if column.is_min else threat >= old_extreme
        if beats:
            actions.recomputes.append((slot, key))
            return

    # Plain in-place update.
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
    for column in plan.minmax:
        new_count_e = old_row[column.count_index] + delta_row[column.count_index]
        if new_count_e == 0:
            new_row[column.storage_index] = None
            continue
        if plan.policy is MinMaxPolicy.SPLIT:
            incoming = delta_row[column.delta_ins_index]
        else:
            incoming = delta_row[column.storage_index]
        fold = null_min if column.is_min else null_max
        new_row[column.storage_index] = fold(
            old_row[column.storage_index], incoming
        )
    actions.updates.append((slot, tuple(new_row)))


def decide_all(
    view: MaterializedView,
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
    old_rows = zip(*view.table.take([s for s in slots if s is not None]))
    for delta_row, key, slot in zip(delta_rows, keys, slots):
        old_row = next(old_rows) if slot is not None else None
        decide(plan, view.definition.name, old_row, delta_row, key, slot, actions)
    return actions


def recomputed_rows(
    name: str, actions: RefreshActions, recompute: RecomputeFn | None
) -> list[tuple[int | None, Row]]:
    """The ``(slot, new row)`` of every group flagged for recomputation
    (slot ``None``: the group is new to the view), from one batched call
    to *recompute*."""
    if not actions.recomputes:
        return []
    if recompute is None:
        raise MaintenanceError(
            f"view {name!r}: refresh needs base-data recomputation for "
            f"{len(actions.recomputes)} group(s) but no recompute source "
            "was provided"
        )
    fresh = recompute([key for _slot, key in actions.recomputes])
    rows = []
    for slot, key in actions.recomputes:
        values = fresh.get(key)
        if values is None:
            raise InconsistentDeltaError(
                f"view {name!r}: group {key!r} flagged for recomputation "
                "has no base rows, but its COUNT(*) is positive"
            )
        rows.append((slot, key + values))
    return rows


def refresh(
    view: MaterializedView,
    delta: SummaryDelta,
    recompute: RecomputeFn | None = None,
    variant: RefreshVariant = RefreshVariant.CURSOR,
    assume_all_new: bool = False,
) -> RefreshStats:
    """Apply *delta* to *view* (paper, Figure 7); return what was done.

    *recompute* supplies batched base-data recomputation for MIN/MAX; it is
    required only when the view has MIN/MAX aggregates and a deletion (or,
    under the PAPER policy, any change) threatens a stored extremum.  It is
    called against the *updated* base data, per the paper's assumption that
    base-table changes are applied before refresh.

    *assume_all_new* is the integrity-constraint optimisation the paper
    alludes to in §2.1: when the caller *knows* every delta group is absent
    from the view — e.g. new-date insertions into a view grouping by date —
    the per-tuple index lookup is skipped and all delta rows are
    bulk-inserted.  Using it when the assumption is false silently corrupts
    the view (detectable afterwards with ``Warehouse.verify_views``); it is
    never enabled implicitly.
    """
    if delta.definition.name != view.definition.name:
        raise MaintenanceError(
            f"delta for {delta.definition.name!r} applied to view "
            f"{view.definition.name!r}"
        )
    with tracing.span(
        "refresh", view=view.definition.name, variant=variant.value,
    ) as span:
        locator = GroupLocator(view)
        span.set_tag("indexed", locator.indexed)
        stats = _refresh_impl(
            view, delta, recompute, variant, assume_all_new, locator
        )
        _record_refresh_stats(span, stats, locator)
        view.mark_refreshed_in_place(stats.delta_rows)
        lineage_record_publish(view, delta, mode=RefreshMode.INPLACE.value)
        return stats


def _record_refresh_stats(
    span, stats: RefreshStats, locator: GroupLocator | None = None
) -> None:
    """Mirror one refresh run's action counts onto its span and the
    process-wide metrics registry."""
    span.add("delta_rows", stats.delta_rows)
    span.add("inserted", stats.inserted)
    span.add("updated", stats.updated)
    span.add("deleted", stats.deleted)
    span.add("recomputed", stats.recomputed)
    if locator is not None and locator.probes:
        # Not an access counter (the probes themselves charge
        # ``index_lookups``/``rows_scanned``); this records *how* groups
        # were located so traces can tell the two regimes apart.
        span.add("index_probes" if locator.indexed else "scan_probes",
                 locator.probes)
    if tracing.enabled():
        registry = obs_metrics.registry()
        registry.counter("refresh.delta_rows").inc(stats.delta_rows)
        registry.counter("refresh.inserted").inc(stats.inserted)
        registry.counter("refresh.updated").inc(stats.updated)
        registry.counter("refresh.deleted").inc(stats.deleted)
        registry.counter("refresh.recomputed").inc(stats.recomputed)
        if locator is not None and locator.indexed and locator.probes:
            registry.counter("refresh.index_probes").inc(locator.probes)
        cert_digests = span.counters.get("cert_digests", 0)
        if cert_digests:
            registry.counter("integrity.cert_digests").inc(cert_digests)


def _refresh_impl(
    view: MaterializedView,
    delta: SummaryDelta,
    recompute: RecomputeFn | None,
    variant: RefreshVariant,
    assume_all_new: bool,
    locator: GroupLocator,
) -> RefreshStats:
    plan = RefreshPlan(view.definition, delta.policy)
    stats = RefreshStats(delta_rows=len(delta.table))
    actions = RefreshActions()
    name = view.definition.name
    g = plan.group_arity

    if assume_all_new:
        for delta_row in delta.table.scan():
            decide(plan, name, None, delta_row, delta_row[:g], None, actions)
        if actions.recomputes:
            raise MaintenanceError(
                f"view {name!r}: assume_all_new refresh hit groups needing "
                "base-data recomputation; the all-new assumption is unsafe "
                "for this delta"
            )
        stats.inserted = view.table.insert_many(actions.inserts)
        return stats

    if variant is RefreshVariant.CURSOR:
        # Per-tuple: look up, decide, apply immediately (recompute deferred —
        # see the module docstring).
        for delta_row in delta.table.scan():
            key = delta_row[:g]
            slot = locator.slot_of(key)
            old_row = view.table.row_at(slot) if slot is not None else None
            local = RefreshActions()
            decide(plan, name, old_row, delta_row, key, slot, local)
            for row in local.inserts:
                view.table.insert(row)
                stats.inserted += 1
            for doomed in local.deletes:
                view.table.delete_slot(doomed)
                stats.deleted += 1
            for update_slot, new_row in local.updates:
                view.table.update_slot(update_slot, new_row)
                stats.updated += 1
            actions.recomputes.extend(local.recomputes)
        for slot, row in recomputed_rows(name, actions, recompute):
            if slot is None:
                view.table.insert(row)
            else:
                view.table.update_slot(slot, row)
            stats.recomputed += 1
    else:
        # OUTER_JOIN, batch form: all decisions against the pre-apply
        # table state, then the actions grouped by kind — the recomputed
        # groups last, as new rows and as updates — through the table's
        # batch mutators, which maintain indexes and the certificate a
        # batch at a time and charge access stats once per batch — totals
        # identical to the cursor path.
        actions = decide_all(view, delta, plan, locator)
        stats.inserted = view.table.insert_many(actions.inserts)
        stats.deleted = view.table.delete_slots(actions.deletes)
        stats.updated = view.table.update_slots(actions.updates)
        recomputed = recomputed_rows(name, actions, recompute)
        stats.recomputed = view.table.insert_many(
            [row for slot, row in recomputed if slot is None]
        ) + view.table.update_slots(
            [update for update in recomputed if update[0] is not None]
        )
    return stats
