"""Serving-path telemetry: request ids, slow-query sampling, staleness
SLOs, epoch gauges, and the embedded HTTP exporter.

The maintenance side of the warehouse has deep observability (spans,
metrics, the run ledger, audits); this module gives the *serving* side —
:class:`repro.serve.QueryServer` answering concurrent queries — the same
treatment, built from the view-maintenance literature's two evaluation
axes: query latency and view freshness.

* **Request tracing** — every query gets a process-unique request id at
  submission.  :func:`request_scope` installs it in a thread-local that
  survives the hop onto the server's pool thread, and the router's
  plan/eval spans tag themselves with it, so one request's spans can be
  grouped across threads in an exported trace.
* **Slow-query sampling** — :class:`SlowQuerySampler` keeps the top-k
  slowest queries seen (a bounded min-heap, so memory is O(k) no matter
  the traffic), deterministically: the surviving set depends only on the
  multiset of recorded samples, never on thread interleaving.
* **Staleness SLOs** — per-view freshness gauges (seconds since last
  publish, delta rows pending) and a configurable staleness SLO
  (``REPRO_STALENESS_SLO_S`` or ``QueryServer(staleness_slo_s=...)``);
  queries answered from a view staler than the SLO count
  ``serve.slo_violations``.
* **The exporter** — :class:`MetricsExporter`, a zero-dependency
  ``http.server`` embedding that serves ``/metrics`` (Prometheus 0.0.4
  text), ``/status`` (health JSON), and ``/slow`` (the sampler dump).
  Start it with ``QueryServer(expose_http=port)`` or ``repro
  serve-metrics``.

Unlike the maintenance hot paths, serving metrics record *whenever the
registry is live* — ``REPRO_TRACE`` gates only span emission.  A metrics
endpoint that goes blank because tracing is off is worse than useless;
the per-query cost is a handful of dict operations, negligible next to
evaluating the query itself.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from heapq import heappush, heappushpop
from typing import TYPE_CHECKING, Any

from . import metrics as obs_metrics
from .export import prometheus_text

if TYPE_CHECKING:  # pragma: no cover
    from ..warehouse.catalog import Warehouse

__all__ = [
    "STALENESS_SLO_ENV_VAR",
    "MetricsExporter",
    "SlowQuerySample",
    "SlowQuerySampler",
    "current_request_id",
    "export_serving_gauges",
    "format_top",
    "next_request_id",
    "request_scope",
    "resolve_staleness_slo",
    "status_payload",
]

#: Environment variable supplying the default staleness SLO, in seconds.
STALENESS_SLO_ENV_VAR = "REPRO_STALENESS_SLO_S"


# ----------------------------------------------------------------------
# Request ids
# ----------------------------------------------------------------------

_request_ids = itertools.count(1)
_request_local = threading.local()


def next_request_id() -> int:
    """Allocate a process-unique serving request id (monotonic)."""
    return next(_request_ids)


def current_request_id() -> int | None:
    """The request id installed on this thread, or ``None`` outside one."""
    return getattr(_request_local, "request_id", None)


class request_scope:
    """Install *request_id* as the calling thread's current request.

    The server assigns the id at submission time and enters this scope on
    the pool thread that evaluates the query, so router/eval spans opened
    anywhere under it can tag themselves with the originating request.
    Scopes nest (re-entrant queries restore the outer id on exit).
    """

    __slots__ = ("_request_id", "_previous")

    def __init__(self, request_id: int):
        self._request_id = request_id
        self._previous: int | None = None

    def __enter__(self) -> int:
        self._previous = getattr(_request_local, "request_id", None)
        _request_local.request_id = self._request_id
        return self._request_id

    def __exit__(self, exc_type, exc, tb) -> bool:
        _request_local.request_id = self._previous
        return False


# ----------------------------------------------------------------------
# Slow-query sampling
# ----------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class SlowQuerySample:
    """One sampled query, ordered by (latency, request id).

    The ordering is the sampler's survival key: comparing ``seconds``
    first and ``request_id`` second makes eviction a total order with no
    ties, which is what keeps the surviving top-k independent of the
    order concurrent threads happened to record in.
    """

    seconds: float
    request_id: int
    fact: str = field(compare=False)
    source: str = field(compare=False)        #: routed view, or "base"
    epoch: int | None = field(compare=False)
    cache: str = field(compare=False)         #: "hit" / "miss" / "bypass"
    ts: float = field(compare=False)

    def as_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "seconds": round(self.seconds, 9),
            "fact": self.fact,
            "source": self.source,
            "epoch": self.epoch,
            "cache": self.cache,
            "ts": self.ts,
        }


class SlowQuerySampler:
    """A bounded top-k-by-latency sample of served queries.

    A min-heap of at most *capacity* samples under one lock: recording is
    O(log k) when the sample displaces the current minimum and O(1)
    (one comparison) when it is too fast to qualify — cheap enough to run
    on every query.  The retained set is exactly the k largest samples by
    ``(seconds, request_id)`` over everything recorded, regardless of the
    interleaving of recording threads.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError(
                f"sampler capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._heap: list[SlowQuerySample] = []
        self._recorded = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def recorded(self) -> int:
        """Total samples offered over the sampler's lifetime."""
        with self._lock:
            return self._recorded

    def record(self, sample: SlowQuerySample) -> None:
        with self._lock:
            self._recorded += 1
            if len(self._heap) < self.capacity:
                heappush(self._heap, sample)
            elif sample > self._heap[0]:
                heappushpop(self._heap, sample)

    def samples(self) -> list[SlowQuerySample]:
        """The retained samples, slowest first."""
        with self._lock:
            return sorted(self._heap, reverse=True)

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()
            self._recorded = 0

    def dump(self) -> list[dict[str, Any]]:
        """The retained samples as plain dicts, slowest first."""
        return [sample.as_dict() for sample in self.samples()]

    def write_jsonl(self, path) -> Any:
        """Export the retained samples as JSON lines (atomic write)."""
        # Imported here, not at module level: repro.io's __init__ loads the
        # drivers that pull obs in (same layering note as obs.export).
        from ..io.atomic import atomic_write_text

        lines = [json.dumps(record, sort_keys=True)
                 for record in self.dump()]
        return atomic_write_text(path, "\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# Staleness SLO
# ----------------------------------------------------------------------

def resolve_staleness_slo(value: float | None = None) -> float | None:
    """The staleness SLO in seconds: an explicit *value* wins, otherwise
    ``REPRO_STALENESS_SLO_S`` from the environment, otherwise ``None``
    (no SLO — violations are never counted)."""
    if value is not None:
        if value < 0:
            raise ValueError(f"staleness SLO must be >= 0, got {value}")
        return value
    raw = os.environ.get(STALENESS_SLO_ENV_VAR, "").strip()
    if not raw:
        return None
    slo = float(raw)
    if slo < 0:
        raise ValueError(
            f"{STALENESS_SLO_ENV_VAR} must be >= 0, got {raw!r}"
        )
    return slo


# ----------------------------------------------------------------------
# Gauge export and the /status payload
# ----------------------------------------------------------------------

def export_serving_gauges(
    warehouse: "Warehouse",
    metrics: obs_metrics.MetricsRegistry | None = None,
    now: float | None = None,
) -> None:
    """Refresh the per-view serving gauges from live warehouse state.

    Called on every ``/metrics`` scrape (and usable directly): per view,
    staleness seconds since the last publish/refresh, pending delta rows
    (insertions + deletions deferred against its fact table), the
    change-set lineage backlog (``lineage.pending_batches`` and
    ``lineage.oldest_pending_batch_age_s`` — batches staged but not yet in
    any published epoch of the view), and the epoch lifecycle gauges via
    :meth:`~repro.views.materialize.MaterializedView.collect_epochs`.
    """
    registry = metrics if metrics is not None else obs_metrics.registry()
    now = now if now is not None else time.time()
    for name in sorted(warehouse.views):
        view = warehouse.views[name]
        labels = {"view": name}
        pending = warehouse.pending_changes(view.definition.fact.name)
        registry.gauge("serve.staleness_seconds", labels=labels).set(
            round(view.freshness.staleness_seconds(now), 6)
        )
        registry.gauge("serve.pending_delta_rows", labels=labels).set(
            len(pending.insertions) + len(pending.deletions)
        )
        pending_batches = view.lineage.pending_against(pending.lineage)
        registry.gauge("lineage.pending_batches", labels=labels).set(
            len(pending_batches)
        )
        registry.gauge(
            "lineage.oldest_pending_batch_age_s", labels=labels
        ).set(round(pending_batches.oldest_age_s(now), 6))
        view.collect_epochs(metrics=registry)


def status_payload(
    warehouse: "Warehouse",
    server=None,
    metrics: obs_metrics.MetricsRegistry | None = None,
    now: float | None = None,
) -> dict[str, Any]:
    """The health JSON the ``/status`` endpoint serves.

    One record per view (rows, epoch lifecycle, freshness, pending
    pressure) from :func:`repro.warehouse.health.warehouse_status`
    (certificate verification skipped — a scrape must stay cheap), plus a
    ``serving`` block with the cumulative serving counters and latency
    quantile estimates so a poller like ``repro top`` can derive QPS from
    successive scrapes.
    """
    from ..warehouse.health import warehouse_status

    registry = metrics if metrics is not None else obs_metrics.registry()
    now = now if now is not None else time.time()
    views: dict[str, Any] = {}
    for status in warehouse_status(
        warehouse, now=now, verify_certificates=False
    ):
        view = warehouse.views[status.name]
        epochs = view.collect_epochs(metrics=registry)
        pending_batches = view.lineage.pending_against(
            warehouse.pending_changes(status.fact).lineage
        )
        lag = registry.histogram(
            "lineage.visibility_lag_s",
            labels={"view": status.name},
            bounds=obs_metrics.LAG_BUCKETS_S,
        )
        lineage_section = view.lineage.as_dict()
        lineage_section["pending_batches"] = len(pending_batches)
        lineage_section["oldest_pending_batch_age_s"] = round(
            pending_batches.oldest_age_s(now), 6
        )
        lineage_section["visibility_lag"] = {
            "count": lag.count,
            "p50_s": lag.quantile(0.50),
            "p95_s": lag.quantile(0.95),
            "p99_s": lag.quantile(0.99),
            "max_s": lag.max,
        }
        views[status.name] = {
            "fact": status.fact,
            "rows": status.rows,
            "epoch": epochs.current,
            "epochs_retained": epochs.retained,
            "epochs_collected": epochs.collected,
            "epoch_watermark": epochs.watermark,
            "staleness_seconds": round(status.staleness_seconds, 6),
            "pending_rows": (
                status.pending_insertions + status.pending_deletions
            ),
            "refresh_count": status.freshness.refresh_count,
            "queries": registry.counter_value(
                "serve.queries_by_source", labels={"source": status.name}
            ),
            "lineage": lineage_section,
        }
    latency = registry.histogram(
        "serve.latency_s", bounds=obs_metrics.LATENCY_BUCKETS_S
    )
    payload: dict[str, Any] = {
        "ts": now,
        "views": views,
        "serving": {
            "queries": registry.counter_value("serve.queries"),
            "cache_hits": registry.counter_value("serve.cache_hits"),
            "cache_misses": registry.counter_value("serve.cache_misses"),
            "base_fallbacks": registry.counter_value("serve.base_fallbacks"),
            "slo_violations": registry.counter_value("serve.slo_violations"),
            "latency": {
                "count": latency.count,
                "p50_s": latency.quantile(0.50),
                "p95_s": latency.quantile(0.95),
                "p99_s": latency.quantile(0.99),
                "max_s": latency.max,
            },
        },
    }
    if server is not None:
        payload["server"] = server.stats.snapshot()
    return payload


def _fmt_ms(seconds: float | None) -> str:
    return f"{seconds * 1e3:.2f}" if seconds is not None else "-"


def format_top(
    payload: dict[str, Any], previous: dict[str, Any] | None = None
) -> str:
    """One ``repro top`` frame from a ``/status`` payload.

    Rates (overall and per-view QPS) are derived from the counter deltas
    against *previous* — the prior frame's payload — so the function stays
    pure: same two payloads, same frame, no clocks read.
    """
    serving = payload["serving"]
    latency = serving["latency"]
    interval = (
        payload["ts"] - previous["ts"]
        if previous is not None and payload["ts"] > previous["ts"]
        else None
    )

    def rate(current: float, before: float) -> str:
        if interval is None:
            return "-"
        return f"{max(0.0, current - before) / interval:,.0f}"

    prev_serving = previous["serving"] if previous is not None else {}
    probes = serving["cache_hits"] + serving["cache_misses"]
    hit_rate = serving["cache_hits"] / probes if probes else 0.0
    lines = [
        f"queries {serving['queries']:>10,}   "
        f"qps {rate(serving['queries'], prev_serving.get('queries', 0)):>8}   "
        f"cache {hit_rate:6.1%}   "
        f"slo_viol {serving['slo_violations']:,}",
        f"latency ms  p50 {_fmt_ms(latency['p50_s'])}  "
        f"p95 {_fmt_ms(latency['p95_s'])}  "
        f"p99 {_fmt_ms(latency['p99_s'])}  "
        f"max {_fmt_ms(latency['max_s'])}  "
        f"({latency['count']:,} observed)",
        "",
    ]
    header = (
        f"{'view':<14} {'rows':>8} {'epoch':>5} {'kept':>4} {'mark':>4} "
        f"{'stale_s':>8} {'pending':>8} {'oldest_s':>8} {'queries':>9} "
        f"{'qps':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    prev_views = previous["views"] if previous is not None else {}
    for name in sorted(payload["views"]):
        view = payload["views"][name]
        before = prev_views.get(name, {})
        # Tolerate payloads from exporters predating the lineage section.
        lineage = view.get("lineage") or {}
        oldest = lineage.get("oldest_pending_batch_age_s")
        oldest_cell = "-" if oldest is None else f"{oldest:.2f}"
        lines.append(
            f"{name:<14} {view['rows']:>8,} {view['epoch']:>5} "
            f"{view['epochs_retained']:>4} {view['epoch_watermark']:>4} "
            f"{view['staleness_seconds']:>8.2f} {view['pending_rows']:>8,} "
            f"{oldest_cell:>8} "
            f"{view['queries']:>9,} "
            f"{rate(view['queries'], before.get('queries', 0)):>8}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The embedded HTTP exporter
# ----------------------------------------------------------------------

#: Content type mandated by the Prometheus 0.0.4 text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsExporter:
    """A zero-dependency HTTP exporter over the metrics registry.

    Serves three endpoints from a daemon thread:

    * ``/metrics`` — the registry in the Prometheus text format, with the
      per-view serving gauges refreshed at scrape time;
    * ``/status`` — :func:`status_payload` as JSON;
    * ``/slow`` — the slow-query sampler dump as JSON.

    Bind to port 0 (the default) for an ephemeral port; the bound port is
    available as :attr:`port` after :meth:`start`.  The exporter holds
    only references the caller already owns (warehouse, sampler,
    registry) and never mutates warehouse data.
    """

    def __init__(
        self,
        warehouse: "Warehouse | None" = None,
        sampler: SlowQuerySampler | None = None,
        server=None,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: obs_metrics.MetricsRegistry | None = None,
    ):
        self.warehouse = warehouse
        self.sampler = sampler
        self.query_server = server
        self.host = host
        self._requested_port = port
        self._metrics = metrics
        self._httpd = None
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "MetricsExporter":
        """Bind and start serving; returns ``self`` for chaining."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        if self._httpd is not None:
            return self
        exporter = self

        class Handler(BaseHTTPRequestHandler):
            # One exporter, many sockets: keep the handler stateless.

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                try:
                    if path == "/metrics":
                        body = exporter.render_metrics().encode("utf-8")
                        content_type = PROMETHEUS_CONTENT_TYPE
                    elif path == "/status":
                        body = exporter.render_status().encode("utf-8")
                        content_type = "application/json"
                    elif path == "/slow":
                        body = exporter.render_slow().encode("utf-8")
                        content_type = "application/json"
                    else:
                        self.send_error(404, "unknown endpoint")
                        return
                except Exception as failure:  # surfaced as a 500, not a
                    self.send_error(500, str(failure))   # dead connection
                    return
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt: str, *args: Any) -> None:
                pass   # scrapes must not spam the embedding process

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._httpd = None

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("exporter is not running")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- endpoint bodies (also the in-process API for tests/CLI) -------

    def _registry(self) -> obs_metrics.MetricsRegistry:
        return (
            self._metrics if self._metrics is not None
            else obs_metrics.registry()
        )

    def render_metrics(self) -> str:
        """The ``/metrics`` body: scrape-time gauge refresh + 0.0.4 text."""
        registry = self._registry()
        if self.warehouse is not None:
            export_serving_gauges(self.warehouse, metrics=registry)
        return prometheus_text(registry)

    def render_status(self) -> str:
        """The ``/status`` body."""
        if self.warehouse is None:
            snapshot = {"ts": time.time(),
                        "metrics": self._registry().snapshot()}
            return json.dumps(snapshot, sort_keys=True)
        return json.dumps(
            status_payload(
                self.warehouse, server=self.query_server,
                metrics=self._registry(),
            ),
            sort_keys=True,
        )

    def render_slow(self) -> str:
        """The ``/slow`` body."""
        samples = self.sampler.dump() if self.sampler is not None else []
        return json.dumps(samples, sort_keys=True)
