"""Process-wide maintenance metrics: counters, gauges, histograms.

Where spans (:mod:`repro.obs.tracing`) answer "where did *this* run's time
go", metrics accumulate across runs: total rows scanned by propagate,
refresh actions by kind, epochs published, query latencies served.

The registry is a plain process-wide object — no background threads, no
export protocol — because the consumers are the ``repro trace`` CLI, the
metrics exporter, and tests.  Instrumented code only touches the registry
while tracing is enabled (see :func:`repro.obs.tracing.enabled`), so the
benchmark path stays metric-free when tracing is off.

Metric names are dotted strings; the canonical set emitted by the engine
is documented in ``docs/api_guide.md`` §Observability.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = [
    "BUCKET_BOUNDS",
    "LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metric_key",
    "registry",
    "set_registry",
]


def metric_key(name: str, labels: dict[str, Any] | None) -> str:
    """The registry key for a metric: the bare name, or the name plus a
    canonical (sorted) rendering of its labels.  Two calls with the same
    name and labels always return the same live metric object."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, Any] | None = None):
        self.name = name
        self.labels: dict[str, Any] | None = dict(labels) if labels else None
        self.value: int | float = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def snapshot(self) -> int | float:
        return self.value


class Gauge:
    """A value that goes up and down (e.g. epochs still retained)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, Any] | None = None):
        self.name = name
        self.labels: dict[str, Any] | None = dict(labels) if labels else None
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def dec(self, n: int | float = 1) -> None:
        self.value -= n

    def snapshot(self) -> int | float:
        return self.value


#: Histogram bucket upper bounds: powers of four from 1 up, which spans
#: row counts from 1 to 10^6.
_BUCKET_BOUNDS = tuple(4 ** k for k in range(12))

#: Public view of the histogram bucket upper bounds (exporters need them).
BUCKET_BOUNDS = _BUCKET_BOUNDS

#: Bucket upper bounds for query-latency histograms, in *seconds*.  The
#: default power-of-four buckets start at 1, which collapses every
#: sub-second query into one bucket; these follow the conventional
#: Prometheus latency ladder from 100µs to 10s instead.
LATENCY_BUCKETS_S = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Bucket upper bounds for ingest→publish visibility lag, in seconds.
#: Much wider than the query-latency ladder: under continuous maintenance
#: a batch becomes queryable in milliseconds, but a deferred batch
#: legitimately waits minutes-to-hours for its nightly window.
LAG_BUCKETS_S = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 300.0, 900.0, 3600.0, 14400.0, 86400.0,
)


class Histogram:
    """A fixed-bucket histogram with count/sum/min/max.

    Buckets are cumulative-style upper bounds (``value <= bound``), by
    default powers of four plus an overflow bucket — enough resolution to
    see whether a row-count distribution is skewed without configuring
    anything.  Callers measuring sub-second latencies
    pass explicit *bounds* (e.g. :data:`LATENCY_BUCKETS_S`).
    """

    __slots__ = (
        "name", "labels", "count", "total", "min", "max", "buckets",
        "bounds",
    )

    def __init__(self, name: str, labels: dict[str, Any] | None = None,
                 bounds: tuple[float, ...] | None = None):
        self.name = name
        self.labels: dict[str, Any] | None = dict(labels) if labels else None
        self.bounds: tuple[float, ...] = (
            tuple(bounds) if bounds is not None else _BUCKET_BOUNDS
        )
        if any(b >= a for b, a in zip(self.bounds, self.bounds[1:])):
            raise ValueError(
                f"histogram {name!r}: bucket bounds must be strictly "
                f"increasing, got {self.bounds}"
            )
        self.count = 0
        self.total: float = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets = [0] * (len(self.bounds) + 1)

    def observe(self, value: int | float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[position] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style cumulative buckets: ``(upper_bound, count of
        observations <= upper_bound)``, ending with ``(inf, count)``."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, in_bucket in zip(self.bounds, self.buckets):
            running += in_bucket
            out.append((float(bound), running))
        out.append((float("inf"), self.count))
        return out

    def quantile(self, q: float) -> float | None:
        """Estimate the *q*-quantile (0..1) from the bucket counts.

        Linear interpolation inside the bucket that holds the target
        rank, clamped by the observed ``min``/``max`` so the estimate
        never leaves the observed range.  ``None`` before the first
        observation.  Exact-from-samples percentiles belong to callers
        that kept the samples; this is the scrape-time estimate.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return None
        rank = q * self.count
        running = 0
        lower = self.min if self.min is not None else 0.0
        for bound, in_bucket in zip(self.bounds, self.buckets):
            if not in_bucket:
                continue
            if running + in_bucket >= rank:
                upper = min(bound, self.max if self.max is not None else bound)
                fraction = (rank - running) / in_bucket
                return lower + (upper - lower) * max(0.0, min(1.0, fraction))
            running += in_bucket
            lower = max(lower, bound)
        return self.max

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Create-on-first-use registry of named metrics; thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str,
                labels: dict[str, Any] | None = None) -> Counter:
        key = metric_key(name, labels)
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(name, labels)
            return metric

    def gauge(self, name: str,
              labels: dict[str, Any] | None = None) -> Gauge:
        key = metric_key(name, labels)
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(name, labels)
            return metric

    def histogram(self, name: str,
                  labels: dict[str, Any] | None = None,
                  bounds: tuple[float, ...] | None = None) -> Histogram:
        """The named histogram; *bounds* applies only on first creation
        (the live metric keeps the bounds it was born with)."""
        key = metric_key(name, labels)
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(
                    name, labels, bounds=bounds
                )
            return metric

    def all_metrics(self) -> tuple[list[Counter], list[Gauge], list[Histogram]]:
        """Name-sorted live metric objects (exporters walk these)."""
        with self._lock:
            return (
                [self._counters[k] for k in sorted(self._counters)],
                [self._gauges[k] for k in sorted(self._gauges)],
                [self._histograms[k] for k in sorted(self._histograms)],
            )

    def counter_value(self, name: str,
                      labels: dict[str, Any] | None = None) -> int | float:
        """The counter's value, 0 when it was never touched."""
        with self._lock:
            metric = self._counters.get(metric_key(name, labels))
        return metric.value if metric is not None else 0

    def snapshot(self) -> dict[str, Any]:
        """All metrics as one nested plain-data dict."""
        with self._lock:
            return {
                "counters": {
                    name: metric.snapshot()
                    for name, metric in sorted(self._counters.items())
                },
                "gauges": {
                    name: metric.snapshot()
                    for name, metric in sorted(self._gauges.items())
                },
                "histograms": {
                    name: metric.snapshot()
                    for name, metric in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        """Drop every metric (tests; the CLI resets before a traced run)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide registry.
_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def set_registry(new: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _registry
    previous = _registry
    _registry = new
    return previous
