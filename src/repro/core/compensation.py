"""Compensated reads: query a stale view through its pending delta.

The propagate/refresh split ([CGL+96], which the paper builds on) enables
one more trick: once a summary delta has been *computed*, readers can see
up-to-date results **before** refresh runs, by compensating the stale view
with the delta at read time.  The warehouse thus serves fresh answers even
while the batch window is still hours away.

:func:`read_through_delta` materialises that compensated state into a
shadow copy of the view's table, leaving the stored view untouched.  It
reuses the refresh decision logic, so compensated reads and the eventual
refresh can never disagree.
"""

from __future__ import annotations

from ..relational.table import Table
from ..views.materialize import MaterializedView, ShadowVersion
from .deltas import SummaryDelta
from .refresh import RecomputeFn, refresh


def read_through_delta(
    view: MaterializedView,
    delta: SummaryDelta,
    recompute: RecomputeFn | None = None,
    table: "Table | None" = None,
) -> ShadowVersion:
    """Return a shadow copy of the view with *delta* applied.

    The stored view is not modified, and the shadow is never published:
    it is a transient snapshot suitable for answering queries (e.g. via
    :meth:`~repro.views.materialize.ShadowVersion.read`, or through a
    lattice edge over its ``table``, as the query router does).

    *table* optionally supplies the stored state to compensate — a caller
    that pinned a :class:`~repro.views.materialize.ViewVersion` passes its
    table here so the compensated read starts from that exact epoch; the
    default is the view's current table.

    MIN/MAX caveats: when the delta threatens a stored extremum, refresh
    consults base data through *recompute*.  During the online window the
    base table has **not** yet absorbed the changes, so a recompute-needing
    read would see pre-change base data and be wrong for deleted extrema.
    Pass ``recompute=None`` (the default) to fail fast in that case rather
    than serve a wrong answer; views without MIN/MAX never need it.
    """
    shadow = view.begin_version(table)
    refresh(shadow, delta, recompute=recompute)
    return shadow
