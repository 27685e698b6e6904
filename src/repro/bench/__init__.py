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
from .propagate_bench import run_micro as run_propagate_micro_bench
from .reporting import (
    ShapeClaim,
    bench_json_path,
    check_lattice_benefit_grows_with_change_size,
    check_lattice_helps_propagate,
    check_maintenance_beats_rematerialization,
    check_propagate_flat_in_pos_size,
    check_refresh_cheaper_for_insertions,
    format_claims,
    format_panel,
    panel_payload,
    write_bench_json,
)

__all__ = [
    "Figure9Panel",
    "Figure9Point",
    "ShapeClaim",
    "bench_json_path",
    "bench_scale",
    "check_lattice_benefit_grows_with_change_size",
    "check_lattice_helps_propagate",
    "check_maintenance_beats_rematerialization",
    "check_propagate_flat_in_pos_size",
    "check_refresh_cheaper_for_insertions",
    "format_claims",
    "format_panel",
    "measure_point",
    "panel_payload",
    "run_change_size_panel",
    "run_panel",
    "run_pos_size_panel",
    "run_propagate_micro_bench",
    "scaled",
    "write_bench_json",
]
