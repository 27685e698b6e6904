"""Benchmark harness reproducing the paper's Figure 9 and the ablations."""

from .figure9 import (
    Figure9Panel,
    Figure9Point,
    bench_scale,
    measure_point,
    run_change_size_panel,
    run_panel,
    run_pos_size_panel,
    scaled,
)
from .reporting import (
    ShapeClaim,
    check_lattice_benefit_grows_with_change_size,
    check_lattice_helps_propagate,
    check_maintenance_beats_rematerialization,
    check_propagate_flat_in_pos_size,
    check_refresh_cheaper_for_insertions,
    format_claims,
    format_panel,
)

__all__ = [
    "Figure9Panel",
    "Figure9Point",
    "ShapeClaim",
    "bench_scale",
    "check_lattice_benefit_grows_with_change_size",
    "check_lattice_helps_propagate",
    "check_maintenance_beats_rematerialization",
    "check_propagate_flat_in_pos_size",
    "check_refresh_cheaper_for_insertions",
    "format_claims",
    "format_panel",
    "measure_point",
    "run_change_size_panel",
    "run_panel",
    "run_pos_size_panel",
    "scaled",
]
