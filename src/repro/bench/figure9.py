"""The Figure 9 experiment harness.

The paper's performance study (Section 6) plots total elapsed time for four
strategies over the four retail summary tables:

* **Propagate** (solid lower line) — summary-delta computation exploiting
  the D-lattice;
* **Summary Delta Maint.** (solid upper line) — propagate + refresh;
* **Rematerialize** — recompute all four views through the V-lattice;
* **Propagate (w/o lattice)** (dotted) — each summary delta computed
  directly from the change set.

Four panels:

=====  ======================  =========================  =================
panel  x-axis                  fixed                       change workload
=====  ======================  =========================  =================
(a)    change size 1k–10k      pos = 500,000               update-generating
(b)    pos size 100k–500k      changes = 10,000            update-generating
(c)    change size 1k–10k      pos = 500,000               insertion-generating
(d)    pos size 100k–500k      changes = 10,000            insertion-generating
=====  ======================  =========================  =================

Scaling: set the environment variable ``REPRO_BENCH_SCALE`` (e.g. ``0.1``)
to shrink both the pos sizes and the change sizes proportionally — useful
for smoke runs.  The default is paper scale.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

from ..core.propagate import PropagateOptions
from ..lattice.plan import (
    build_lattice_for_views,
    propagate_lattice,
    propagate_without_lattice,
    refresh_lattice,
    rematerialize_with_lattice,
)
from ..warehouse.changes import ChangeSet
from ..workload.changes import (
    insertion_generating_changes,
    update_generating_changes,
)
from ..workload.generator import RetailConfig, RetailData, generate_retail
from ..workload.retail import build_retail_warehouse

#: Paper-scale parameters.
PAPER_POS_SIZES = (100_000, 200_000, 300_000, 400_000, 500_000)
PAPER_CHANGE_SIZES = tuple(range(1_000, 10_001, 1_000))
PAPER_FIXED_POS = 500_000
PAPER_FIXED_CHANGES = 10_000


def bench_scale() -> float:
    """The global size multiplier from ``REPRO_BENCH_SCALE`` (default 1.0)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(value: int, minimum: int = 10) -> int:
    """Scale a paper-size parameter, keeping it even and bounded below."""
    result = max(minimum, int(value * bench_scale()))
    return result - (result % 2)


@dataclass
class Figure9Point:
    """One x-axis point of one panel: the four measured series, in seconds."""

    pos_rows: int
    change_size: int
    propagate_lattice_s: float
    refresh_s: float
    rematerialize_s: float
    propagate_direct_s: float
    recompute_groups: int
    #: View tuples deleted across all four views — the mechanism behind the
    #: paper's falling refresh curve in panel (b).
    deleted_groups: int = 0

    @property
    def maintenance_s(self) -> float:
        """The paper's "Summary Delta Maint." series."""
        return self.propagate_lattice_s + self.refresh_s


@dataclass
class Figure9Panel:
    """A complete panel: its points plus identifying metadata."""

    name: str
    x_label: str
    workload: str
    points: list[Figure9Point] = field(default_factory=list)

    def x_values(self) -> list[int]:
        if self.x_label == "change size":
            return [point.change_size for point in self.points]
        return [point.pos_rows for point in self.points]


ChangeFactory = Callable[[RetailData, int], ChangeSet]


def _update_changes(data: RetailData, size: int) -> ChangeSet:
    return update_generating_changes(data.pos, data.config, size, data.rng)


def _insertion_changes(data: RetailData, size: int) -> ChangeSet:
    return insertion_generating_changes(data.pos, data.config, size, data.rng)


CHANGE_FACTORIES: dict[str, ChangeFactory] = {
    "update-generating": _update_changes,
    "insertion-generating": _insertion_changes,
}


def _timed(thunk: Callable[[], object]) -> tuple[float, object]:
    started = time.perf_counter()
    result = thunk()
    return time.perf_counter() - started, result


def measure_point(
    data: RetailData,
    views,
    changes: ChangeSet,
    options: PropagateOptions = PropagateOptions(),
) -> Figure9Point:
    """Measure all four series for one change set.

    Side effects: the change set is applied to the base table and the views
    end up refreshed (and then rematerialised — same content), so the
    warehouse remains consistent for the next point of a sweep.
    """
    pos_rows_before = len(data.pos.table)

    direct_s, _ = _timed(
        lambda: propagate_without_lattice(
            [view.definition for view in views], changes, options
        )
    )

    lattice = build_lattice_for_views(views)
    lattice_s, deltas = _timed(
        lambda: propagate_lattice(lattice, changes, options)
    )

    changes.apply_to(data.pos.table)

    views_by_name = {view.name: view for view in views}
    refresh_s, stats = _timed(
        lambda: refresh_lattice(views_by_name, deltas)
    )

    rematerialize_s, _ = _timed(
        lambda: rematerialize_with_lattice(views, lattice)
    )

    return Figure9Point(
        pos_rows=pos_rows_before,
        change_size=changes.size(),
        propagate_lattice_s=lattice_s,
        refresh_s=refresh_s,
        rematerialize_s=rematerialize_s,
        propagate_direct_s=direct_s,
        recompute_groups=sum(s.recomputed for s in stats.values()),
        deleted_groups=sum(s.deleted for s in stats.values()),
    )


def run_change_size_panel(name: str, workload: str) -> Figure9Panel:
    """Panels (a) and (c): sweep the change-set size at fixed pos size."""
    factory = CHANGE_FACTORIES[workload]
    data = generate_retail(
        RetailConfig(pos_rows=scaled(PAPER_FIXED_POS, minimum=1_000))
    )
    warehouse = build_retail_warehouse(data)
    views = warehouse.views_over("pos")
    panel = Figure9Panel(name=name, x_label="change size", workload=workload)
    for change_size in PAPER_CHANGE_SIZES:
        size = scaled(change_size)
        changes = factory(data, size)
        panel.points.append(measure_point(data, views, changes))
    return panel


def run_pos_size_panel(name: str, workload: str) -> Figure9Panel:
    """Panels (b) and (d): sweep the pos size at fixed change-set size."""
    factory = CHANGE_FACTORIES[workload]
    panel = Figure9Panel(name=name, x_label="pos size", workload=workload)
    for pos_rows in PAPER_POS_SIZES:
        data = generate_retail(
            RetailConfig(pos_rows=scaled(pos_rows, minimum=1_000))
        )
        warehouse = build_retail_warehouse(data)
        views = warehouse.views_over("pos")
        changes = factory(data, scaled(PAPER_FIXED_CHANGES))
        panel.points.append(measure_point(data, views, changes))
    return panel


def run_panel(panel_id: str) -> Figure9Panel:
    """Run one of the paper's panels by letter: 'a', 'b', 'c', or 'd'."""
    runners = {
        "a": lambda: run_change_size_panel("Figure 9(a)", "update-generating"),
        "b": lambda: run_pos_size_panel("Figure 9(b)", "update-generating"),
        "c": lambda: run_change_size_panel("Figure 9(c)", "insertion-generating"),
        "d": lambda: run_pos_size_panel("Figure 9(d)", "insertion-generating"),
    }
    return runners[panel_id]()
