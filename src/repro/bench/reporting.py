"""Formatting and shape-checking of Figure 9 results.

The reproduction targets the paper's qualitative claims (who wins, by
roughly what factor, which curves are flat), not its absolute seconds —
our substrate is a Python engine, not Centura SQL on a 1997 Pentium.
:func:`shape_report` evaluates each claim and marks it reproduced or not,
and the formatted tables print the same series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from .figure9 import Figure9Panel


def format_panel(panel: Figure9Panel) -> str:
    """An ASCII table with the paper's four series for one panel."""
    header = (
        f"{panel.x_label:>12} | {'Propagate':>10} | {'SD Maint.':>10} | "
        f"{'Remater.':>10} | {'Prop(w/o)':>10} | {'recomputes':>10} | "
        f"{'deletes':>8}"
    )
    rule = "-" * len(header)
    lines = [
        f"{panel.name} — {panel.workload} changes "
        f"(seconds; series as in the paper)",
        header,
        rule,
    ]
    for point, x in zip(panel.points, panel.x_values()):
        lines.append(
            f"{x:>12,} | {point.propagate_lattice_s:>10.3f} | "
            f"{point.maintenance_s:>10.3f} | {point.rematerialize_s:>10.3f} | "
            f"{point.propagate_direct_s:>10.3f} | {point.recompute_groups:>10,} | "
            f"{point.deleted_groups:>8,}"
        )
    return "\n".join(lines)


@dataclass
class ShapeClaim:
    """One qualitative claim from the paper's Section 6 prose."""

    description: str
    holds: bool
    evidence: str


def _speedup(slow: float, fast: float) -> float:
    return slow / fast if fast > 0 else float("inf")


def check_maintenance_beats_rematerialization(panel: Figure9Panel) -> ShapeClaim:
    """Incremental maintenance wins at every measured point."""
    wins = [p.maintenance_s < p.rematerialize_s for p in panel.points]
    factors = [_speedup(p.rematerialize_s, p.maintenance_s) for p in panel.points]
    return ShapeClaim(
        description="summary-delta maintenance beats rematerialization",
        holds=all(wins),
        evidence=(
            f"speedup {min(factors):.1f}×–{max(factors):.1f}× across "
            f"{len(panel.points)} points"
        ),
    )


def check_lattice_helps_propagate(panel: Figure9Panel) -> ShapeClaim:
    """Lattice propagate is cheaper than per-view propagate, on average."""
    ratios = [
        _speedup(p.propagate_direct_s, p.propagate_lattice_s)
        for p in panel.points
    ]
    return ShapeClaim(
        description="propagate benefits from exploiting the lattice",
        holds=mean(ratios) > 1.0,
        evidence=f"mean speedup {mean(ratios):.2f}× (per-point {min(ratios):.2f}–{max(ratios):.2f}×)",
    )


def check_lattice_benefit_grows_with_change_size(panel: Figure9Panel) -> ShapeClaim:
    """Panels (a)/(c): the direct-vs-lattice gap widens as changes grow."""
    gaps = [
        p.propagate_direct_s - p.propagate_lattice_s for p in panel.points
    ]
    half = len(gaps) // 2
    early, late = mean(gaps[:half]), mean(gaps[half:])
    return ShapeClaim(
        description="lattice benefit to propagate grows with change-set size",
        holds=late > early,
        evidence=f"mean gap {early * 1000:.1f}ms (small sets) → {late * 1000:.1f}ms (large sets)",
    )


def check_propagate_flat_in_pos_size(panel: Figure9Panel) -> ShapeClaim:
    """Panels (b)/(d): propagate does not depend on the pos table size."""
    values = [p.propagate_lattice_s for p in panel.points]
    spread = (max(values) - min(values)) / mean(values) if mean(values) else 0.0
    return ShapeClaim(
        description="propagate time is flat as pos size grows",
        holds=spread < 0.75,
        evidence=f"relative spread {spread:.0%} over pos sizes "
                 f"{panel.points[0].pos_rows:,}–{panel.points[-1].pos_rows:,}",
    )


def check_deletions_drop_with_pos_size(panel: Figure9Panel) -> ShapeClaim:
    """Panels (b): the *mechanism* behind the paper's falling refresh curve.

    "When the pos table is small, refresh causes a significant number of
    deletions ... When the pos table is large, refresh causes only updates"
    (§6).  Our refresh timing is dominated by MIN/MAX recomputation scans
    (see EXPERIMENTS.md), so we verify the underlying effect directly: the
    count of view-tuple deletions falls as pos grows, because larger pos
    tables give each group more tuples and deletions stop emptying groups.
    """
    first, last = panel.points[0], panel.points[-1]
    return ShapeClaim(
        description="view-tuple deletions decrease as pos grows",
        holds=last.deleted_groups < first.deleted_groups,
        evidence=(
            f"{first.deleted_groups:,} deletions at pos={first.pos_rows:,} → "
            f"{last.deleted_groups:,} at pos={last.pos_rows:,}"
        ),
    )


def check_refresh_cheaper_for_insertions(
    update_panel: Figure9Panel, insertion_panel: Figure9Panel
) -> ShapeClaim:
    """Panels (a) vs (c): insertion-generating refresh is cheaper."""
    update_refresh = mean(p.refresh_s for p in update_panel.points)
    insert_refresh = mean(p.refresh_s for p in insertion_panel.points)
    return ShapeClaim(
        description="refresh is cheaper for insertion-generating changes",
        holds=insert_refresh < update_refresh,
        evidence=(
            f"mean refresh {insert_refresh:.3f}s (insertions) vs "
            f"{update_refresh:.3f}s (updates)"
        ),
    )


def format_claims(claims: list[ShapeClaim]) -> str:
    lines = ["Shape claims (paper §6 prose):"]
    for claim in claims:
        status = "REPRODUCED" if claim.holds else "NOT REPRODUCED"
        lines.append(f"  [{status}] {claim.description} — {claim.evidence}")
    return "\n".join(lines)
