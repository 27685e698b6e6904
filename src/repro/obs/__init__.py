"""Maintenance observability: structured tracing + metrics.

The subsystem behind the ``repro trace`` CLI.  Zero dependencies, off by
default, and guarded by the ``REPRO_TRACE`` kill-switch:

* :mod:`repro.obs.tracing` — hierarchical spans with wall-clock durations,
  tags, and row/tuple counters, recorded by the engine's hot paths
  (``Table.scan``, ``group_by``, propagate, refresh, the nightly driver);
* :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges,
  and histograms (refresh actions, published epochs, query latencies,
  visibility lag);
* :mod:`repro.obs.export` — JSON-lines trace files, the human span-tree
  printer, and the compact span-derived summary.

Quick use::

    from repro.obs import trace, format_span_tree

    with trace() as recorder:
        run_nightly_maintenance(warehouse)
    print(format_span_tree(recorder.root))
"""

from . import audit, export, ledger, lineage, metrics, serving, tracing
from .audit import (
    IntegrityEvent,
    ViewCertificate,
    ViewFreshness,
    record_events,
    row_digest,
    rows_certificate,
)
from .export import (
    format_span_tree,
    prometheus_text,
    span_to_dict,
    trace_summary,
    write_trace_jsonl,
)
from .ledger import (
    RunLedger,
    active_ledger,
    set_ledger,
    suspended_ledger,
)
from .lineage import (
    BatchLineage,
    EpochManifest,
    LineageClock,
    ViewLineage,
    compress_intervals,
    lineage_clock,
    record_publish,
    set_lineage_clock,
)
from .metrics import (
    BUCKET_BOUNDS,
    LAG_BUCKETS_S,
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
    registry,
    set_registry,
)
from .serving import (
    STALENESS_SLO_ENV_VAR,
    MetricsExporter,
    SlowQuerySample,
    SlowQuerySampler,
    current_request_id,
    export_serving_gauges,
    format_top,
    next_request_id,
    request_scope,
    resolve_staleness_slo,
    status_payload,
)
from .tracing import (
    NOOP_SPAN,
    NullRecorder,
    Span,
    TraceRecorder,
    active_recorder,
    current_span,
    enabled,
    install_recorder,
    span,
    trace,
    trace_kill_switch,
)

__all__ = [
    "BUCKET_BOUNDS",
    "LAG_BUCKETS_S",
    "LATENCY_BUCKETS_S",
    "NOOP_SPAN",
    "STALENESS_SLO_ENV_VAR",
    "BatchLineage",
    "Counter",
    "EpochManifest",
    "Gauge",
    "Histogram",
    "IntegrityEvent",
    "LineageClock",
    "MetricsExporter",
    "MetricsRegistry",
    "NullRecorder",
    "RunLedger",
    "SlowQuerySample",
    "SlowQuerySampler",
    "Span",
    "TraceRecorder",
    "ViewCertificate",
    "ViewFreshness",
    "ViewLineage",
    "active_ledger",
    "active_recorder",
    "compress_intervals",
    "current_request_id",
    "current_span",
    "enabled",
    "export_serving_gauges",
    "format_span_tree",
    "format_top",
    "install_recorder",
    "lineage_clock",
    "metric_key",
    "next_request_id",
    "prometheus_text",
    "record_events",
    "record_publish",
    "registry",
    "request_scope",
    "resolve_staleness_slo",
    "row_digest",
    "rows_certificate",
    "set_ledger",
    "set_lineage_clock",
    "set_registry",
    "span",
    "span_to_dict",
    "status_payload",
    "suspended_ledger",
    "trace",
    "trace_kill_switch",
    "trace_summary",
    "write_trace_jsonl",
]
