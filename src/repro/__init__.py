"""repro — a reproduction of "Maintenance of Data Cubes and Summary Tables
in a Warehouse" (Mumick, Quass & Mumick, SIGMOD 1997).

The package implements the paper's *summary-delta table method* for
incrementally maintaining aggregate materialised views, together with every
substrate it needs: an in-memory relational engine, a star-schema warehouse
layer, generalized cube views, cube/dimension lattices, and the multi-view
(V-/D-lattice) maintenance machinery.

Quick tour (see ``examples/quickstart.py`` for a runnable version)::

    from repro import (
        CountStar, Sum, col,
        DimensionTable, FactTable, ForeignKey, Warehouse,
        SummaryViewDefinition, maintain_view,
    )

    warehouse = Warehouse()
    warehouse.add_fact(pos)                       # a FactTable
    view = warehouse.define_summary_table(        # materialise + index
        SummaryViewDefinition.create(
            "SID_sales", pos,
            group_by=["storeID", "itemID", "date"],
            aggregates=[("TotalCount", CountStar()),
                        ("TotalQuantity", Sum(col("qty")))]))

    changes = warehouse.pending_changes("pos")    # defer changes all day
    changes.insert((1, 10, 5, 2, 9.99))
    result = maintain_view(view, changes)         # propagate → refresh

Multi-view maintenance along the lattice: :func:`repro.maintain_lattice`.
"""

from .aggregates import (
    AggregateClass,
    AggregateFunction,
    Avg,
    Count,
    CountDistinct,
    CountStar,
    Max,
    Median,
    Min,
    SelfMaintainability,
    Sum,
)
from .core import (
    MaintenanceResult,
    MinMaxPolicy,
    PropagateOptions,
    RefreshStats,
    SummaryDelta,
    apply_refresh,
    compute_summary_delta,
    compute_summary_delta_combined,
    maintain_by_group_recompute,
    maintain_view,
    prepare_changes,
    rematerialize_views,
    refresh,
)
from .errors import (
    DefinitionError,
    DerivationError,
    InconsistentDeltaError,
    LatticeError,
    MaintenanceError,
    PublishError,
    ReproError,
    SchemaError,
    TableError,
    UnsupportedAggregateError,
    WorkloadError,
)
from .obs import (
    MetricsRegistry,
    Span,
    TraceRecorder,
    format_span_tree,
    install_recorder,
    span,
    trace,
    trace_summary,
    write_trace_jsonl,
)
from .obs import registry as metrics_registry
from .lattice import (
    EdgeQuery,
    LatticeMaintenanceResult,
    ViewLattice,
    build_lattice_for_views,
    combined_lattice,
    cube_lattice,
    maintain_lattice,
    make_lattice_friendly,
    propagate_lattice,
    propagate_without_lattice,
    rematerialize_with_lattice,
)
from .query import AggregateQuery, QueryPlan, QueryRouter
from .relational import Schema, Table, col, lit
from .sqlite_backend import SqliteWarehouse
from .views import (
    MaterializedView,
    SummaryViewDefinition,
    compute_rows,
    render_summary_delta_sql,
    render_view_sql,
)
from .warehouse import (
    BatchReport,
    BatchWindowClock,
    ChangeSet,
    DimensionHierarchy,
    DimensionTable,
    FactTable,
    ForeignKey,
    NightlyResult,
    Warehouse,
    run_nightly_maintenance,
)

__version__ = "1.0.0"

__all__ = [
    "AggregateClass",
    "AggregateFunction",
    "AggregateQuery",
    "Avg",
    "BatchReport",
    "BatchWindowClock",
    "ChangeSet",
    "Count",
    "CountDistinct",
    "CountStar",
    "DefinitionError",
    "DerivationError",
    "DimensionHierarchy",
    "DimensionTable",
    "EdgeQuery",
    "FactTable",
    "ForeignKey",
    "InconsistentDeltaError",
    "LatticeError",
    "LatticeMaintenanceResult",
    "MaintenanceError",
    "MaintenanceResult",
    "MaterializedView",
    "Max",
    "Median",
    "MetricsRegistry",
    "Min",
    "MinMaxPolicy",
    "NightlyResult",
    "PropagateOptions",
    "PublishError",
    "QueryPlan",
    "QueryRouter",
    "RefreshStats",
    "ReproError",
    "Schema",
    "SchemaError",
    "SelfMaintainability",
    "Span",
    "SqliteWarehouse",
    "Sum",
    "SummaryDelta",
    "SummaryViewDefinition",
    "Table",
    "TableError",
    "TraceRecorder",
    "UnsupportedAggregateError",
    "ViewLattice",
    "Warehouse",
    "WorkloadError",
    "apply_refresh",
    "build_lattice_for_views",
    "col",
    "combined_lattice",
    "compute_rows",
    "compute_summary_delta",
    "compute_summary_delta_combined",
    "cube_lattice",
    "format_span_tree",
    "install_recorder",
    "lit",
    "maintain_by_group_recompute",
    "maintain_lattice",
    "maintain_view",
    "make_lattice_friendly",
    "metrics_registry",
    "prepare_changes",
    "propagate_lattice",
    "propagate_without_lattice",
    "refresh",
    "rematerialize_views",
    "rematerialize_with_lattice",
    "render_summary_delta_sql",
    "render_view_sql",
    "run_nightly_maintenance",
    "span",
    "trace",
    "trace_summary",
    "write_trace_jsonl",
    "__version__",
]
