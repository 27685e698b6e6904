"""The summary-delta maintenance core: propagate and refresh."""

from .baselines import (
    GroupRecomputeResult,
    maintain_by_group_recompute,
    rematerialize_views,
)
from .compensation import read_through_delta
from .deltas import MinMaxPolicy, SummaryDelta
from .dimension_changes import (
    compute_summary_delta_combined,
    prepare_changes_combined,
)
from .maintenance import MaintenanceResult, base_recompute_fn, maintain_view
from .prepare import prepare_changes, prepare_deletions, prepare_insertions
from .propagate import PropagateOptions, classify_dimensions, compute_summary_delta
from .recompute import (
    IndexRecomputePlan,
    plan_index_recompute,
    recompute_groups_via_index,
)
from .refresh import RefreshStats, apply_refresh, refresh

__all__ = [
    "GroupRecomputeResult",
    "IndexRecomputePlan",
    "MaintenanceResult",
    "MinMaxPolicy",
    "PropagateOptions",
    "RefreshStats",
    "SummaryDelta",
    "apply_refresh",
    "base_recompute_fn",
    "classify_dimensions",
    "compute_summary_delta",
    "compute_summary_delta_combined",
    "maintain_by_group_recompute",
    "maintain_view",
    "plan_index_recompute",
    "prepare_changes",
    "prepare_changes_combined",
    "prepare_deletions",
    "prepare_insertions",
    "read_through_delta",
    "recompute_groups_via_index",
    "rematerialize_views",
    "refresh",
]
