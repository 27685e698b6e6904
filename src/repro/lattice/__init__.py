"""Lattice machinery: cube lattices, the derives relation, D-lattices and
multi-view maintenance plans, over one small standard-library DAG type."""

from .cost import (
    LatticeStatistics,
    NodeCostEstimate,
    PlanCostEstimate,
    PredictionRow,
    actual_node_accesses,
    actual_refresh_accesses,
    collect_statistics,
    compare_plan,
    estimate_plan_cost,
    expected_groups,
    group_fusion_choice,
    span_access_units,
)
from .cube import (
    bottom,
    combined_lattice,
    cube_lattice,
    grouping_label,
    hierarchy_chain,
    remove_node,
    restrict_to,
    top,
)
from .dag import DAG
from .derives import EdgeQuery, derive, try_derive
from .dlattice import check_theorem_5_1, delta_name, summary_delta_lattice
from .optimize import (
    align_aggregates,
    make_lattice_friendly,
    widen_with_determined_attributes,
)
from .plan import (
    LatticeMaintenanceResult,
    build_lattice_for_views,
    engine_config,
    maintain_lattice,
    maintenance_record,
    propagate_lattice,
    propagate_without_lattice,
    refresh_lattice,
    rematerialize_with_lattice,
)
from .vlattice import PlanNode, ViewLattice

__all__ = [
    "DAG",
    "EdgeQuery",
    "LatticeMaintenanceResult",
    "LatticeStatistics",
    "NodeCostEstimate",
    "PlanCostEstimate",
    "PlanNode",
    "PredictionRow",
    "ViewLattice",
    "actual_node_accesses",
    "actual_refresh_accesses",
    "align_aggregates",
    "bottom",
    "build_lattice_for_views",
    "check_theorem_5_1",
    "collect_statistics",
    "combined_lattice",
    "compare_plan",
    "cube_lattice",
    "delta_name",
    "derive",
    "engine_config",
    "estimate_plan_cost",
    "expected_groups",
    "grouping_label",
    "hierarchy_chain",
    "maintain_lattice",
    "maintenance_record",
    "make_lattice_friendly",
    "propagate_lattice",
    "propagate_without_lattice",
    "refresh_lattice",
    "rematerialize_with_lattice",
    "remove_node",
    "restrict_to",
    "span_access_units",
    "summary_delta_lattice",
    "top",
    "try_derive",
    "widen_with_determined_attributes",
]
