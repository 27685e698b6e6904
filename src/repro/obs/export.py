"""Exporters for recorded traces: JSON-lines, human tree, summary.

Three consumers, three shapes:

* :func:`write_trace_jsonl` — one JSON object per span (id, parent id,
  name, tags, counters, seconds), the machine-readable artifact a later
  analysis step can load line by line;
* :func:`format_span_tree` — the human tree printer the ``repro trace``
  CLI shows, durations and counters inline;
* :func:`trace_summary` — a compact summary (window split, per-phase
  seconds, metrics snapshot) as plain JSON-serialisable data.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from .metrics import MetricsRegistry, registry
from .tracing import Span

__all__ = [
    "format_span_tree",
    "prometheus_text",
    "span_to_dict",
    "trace_summary",
    "write_trace_jsonl",
]


def span_to_dict(span: Span) -> dict[str, Any]:
    """One span as a flat JSON-serialisable record (no children)."""
    return {
        "id": span.span_id,
        "parent_id": span.parent.span_id if span.parent is not None else None,
        "name": span.name,
        "seconds": round(span.seconds, 9),
        "tags": dict(span.tags),
        "counters": dict(span.counters),
    }


def write_trace_jsonl(root: Span, path: pathlib.Path | str) -> pathlib.Path:
    """Write the span tree as JSON lines, parents before children.

    Written atomically (tempfile + ``os.replace``) so a crashed exporter
    never leaves a truncated trace file behind.
    """
    # Imported here, not at module level: repro.io's __init__ loads the
    # drivers that pull obs in (same layering note as repro.obs.ledger).
    from ..io.atomic import atomic_write_text

    target = pathlib.Path(path)
    lines = [json.dumps(span_to_dict(span), sort_keys=True)
             for span in root.walk()]
    atomic_write_text(target, "\n".join(lines) + "\n")
    return target


def _format_counters(span: Span) -> str:
    if not span.counters:
        return ""
    inner = ", ".join(
        f"{key}={value:,}" if isinstance(value, int) else f"{key}={value:.3g}"
        for key, value in sorted(span.counters.items())
    )
    return f"  [{inner}]"


def _format_tags(span: Span) -> str:
    shown = {key: value for key, value in span.tags.items()}
    if not shown:
        return ""
    inner = " ".join(f"{key}={value}" for key, value in sorted(shown.items()))
    return f"  ({inner})"


def format_span_tree(root: Span, max_depth: int | None = None) -> str:
    """An indented tree: name, seconds, tags, counters, one span per line."""
    lines: list[str] = []

    def render(span: Span, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        indent = "  " * depth
        lines.append(
            f"{indent}{span.name:<{max(1, 40 - 2 * depth)}} "
            f"{span.seconds * 1000:>10.3f}ms"
            f"{_format_tags(span)}{_format_counters(span)}"
        )
        for child in span.children:
            render(child, depth + 1)

    render(root, 0)
    return "\n".join(lines)


def trace_summary(
    root: Span, metrics: MetricsRegistry | None = None
) -> dict[str, Any]:
    """A compact plain-data summary of one traced run.

    The ``window`` block is the span-tag-driven batch-window accounting:
    seconds summed over spans tagged ``window=online`` / ``window=offline``
    whose ancestors carry no window tag (so nested phases are not counted
    twice) — the same rule :meth:`repro.warehouse.batch.BatchReport.from_spans`
    applies.
    """
    online = offline = 0.0
    phases: dict[str, float] = {}
    for span in root.walk():
        window = span.tags.get("window")
        if window is None:
            continue
        ancestor = span.parent
        nested = False
        while ancestor is not None:
            if "window" in ancestor.tags:
                nested = True
                break
            ancestor = ancestor.parent
        if nested:
            continue
        if window == "offline":
            offline += span.seconds
        else:
            online += span.seconds
        phases[span.name] = phases.get(span.name, 0.0) + span.seconds
    summary: dict[str, Any] = {
        "total_s": round(root.seconds, 6),
        "spans": sum(1 for _ in root.walk()),
        "window": {
            "online_s": round(online, 6),
            "offline_s": round(offline, 6),
        },
        "phases": {name: round(seconds, 6) for name, seconds in sorted(phases.items())},
    }
    snapshot = (metrics or registry()).snapshot()
    if any(snapshot.values()):
        summary["metrics"] = snapshot
    return summary


def _prom_name(name: str) -> str:
    """A dotted metric name as a Prometheus metric name.

    Dots (and anything else outside ``[a-zA-Z0-9_]``) become underscores,
    and everything gets the ``repro_`` namespace prefix:
    ``refresh.actions.update`` → ``repro_refresh_actions_update``.
    """
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def _prom_value(value: int | float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _prom_label_value(value: Any) -> str:
    """A label value escaped per the 0.0.4 text exposition format:
    backslash → ``\\\\``, double quote → ``\\"``, newline → ``\\n``."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_label_name(name: str) -> str:
    """A label name restricted to ``[a-zA-Z_][a-zA-Z0-9_]*``."""
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_labels(labels: dict[str, Any] | None,
                 extra: dict[str, str] | None = None) -> str:
    """Render a label set as ``{k="v",...}`` (empty string when none)."""
    merged: dict[str, str] = {}
    if labels:
        for key in sorted(labels):
            merged[_prom_label_name(key)] = _prom_label_value(labels[key])
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in merged.items())
    return "{" + inner + "}"


def prometheus_text(metrics: MetricsRegistry | None = None) -> str:
    """The registry in the Prometheus text exposition format (version
    0.0.4 — what a file-based or pushgateway scrape expects).

    Counters render as ``counter`` samples, gauges as ``gauge``, and
    histograms in the standard three-part shape: cumulative ``_bucket``
    samples with ``le`` labels (including the mandatory ``le="+Inf"``),
    then ``_sum`` and ``_count``.

    Metrics sharing one name but different label sets form a single
    family: one ``# TYPE`` line, then one sample per label set, label
    values escaped per the format (backslash, double quote, newline).
    """
    counters, gauges, histograms = (metrics or registry()).all_metrics()
    lines: list[str] = []

    def emit(metric_list, kind: str, render) -> None:
        families: dict[str, list] = {}
        for metric in metric_list:
            families.setdefault(_prom_name(metric.name), []).append(metric)
        for name in sorted(families):
            lines.append(f"# TYPE {name} {kind}")
            for metric in families[name]:
                render(name, metric)

    def render_counter(name: str, counter) -> None:
        lines.append(
            f"{name}{_prom_labels(counter.labels)} "
            f"{_prom_value(counter.value)}"
        )

    def render_histogram(name: str, histogram) -> None:
        for bound, cumulative in histogram.cumulative_buckets():
            labels = _prom_labels(
                histogram.labels, extra={"le": _prom_value(bound)}
            )
            lines.append(f"{name}_bucket{labels} {cumulative}")
        suffix = _prom_labels(histogram.labels)
        lines.append(f"{name}_sum{suffix} {_prom_value(histogram.total)}")
        lines.append(f"{name}_count{suffix} {histogram.count}")

    emit(counters, "counter", render_counter)
    emit(gauges, "gauge", render_counter)
    emit(histograms, "histogram", render_histogram)
    return "\n".join(lines) + "\n" if lines else ""
