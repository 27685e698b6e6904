"""Serving benchmark: query throughput with maintenance running vs quiesced.

The paper's batch-window model stops all queries while summary tables
refresh; epoch-versioned views let the :mod:`repro.serve` query server keep
answering during propagate/refresh.  This harness quantifies that: a pool
of reader threads hammers a mixed query workload against the Figure 1
retail warehouse, first with the warehouse quiesced, then with a background
maintenance loop continuously running full versioned maintenance cycles
(propagate → copy-on-refresh → certificate-validated publish).

Recorded into the ``serving`` section of ``BENCH_propagate.json``:
queries-per-second and exact per-query latency percentiles (p50/p95/p99,
from the raw samples rather than histogram buckets) in both regimes, how
many maintenance cycles (and epoch publishes) overlapped the measured
window, the result-cache hit rate under invalidation pressure, and the
end-to-end *visibility lag* — per-batch ingest->queryable seconds from
the epoch manifests published during the window (p50/p95/p99).

``--expose-http PORT`` starts the embedded metrics exporter on the
under-maintenance server and ``--hold-exporter SECONDS`` keeps it
scrapeable after the measured window — together they let the CI
serving-telemetry smoke scrape ``/metrics`` and ``/status`` from a real
benchmark run.

Run as::

    PYTHONPATH=src python -m repro.bench.serve_bench [--quick]
"""

from __future__ import annotations

import argparse
import threading
import time
from typing import Sequence

from ..aggregates import CountStar, Sum
from ..lattice.plan import maintain_lattice
from ..query.router import AggregateQuery
from ..relational.expressions import col
from ..serve import QueryServer
from ..workload import (
    RetailConfig,
    build_retail_warehouse,
    generate_retail,
    update_generating_changes,
)
from .reporting import write_bench_json

DEFAULT_POS_ROWS = 50_000
DEFAULT_CHANGE_SIZE = 2_000
DEFAULT_THREADS = 4
DEFAULT_QUERIES_PER_THREAD = 500


def serving_queries(pos) -> list[AggregateQuery]:
    """A mixed workload, every query answerable from a summary table."""
    return [
        AggregateQuery.create(
            pos, group_by=["region"],
            aggregates=[("units", Sum(col("qty")))],
        ),
        AggregateQuery.create(
            pos, group_by=["city", "region"],
            aggregates=[("sales", CountStar()), ("units", Sum(col("qty")))],
        ),
        AggregateQuery.create(
            pos, group_by=["storeID", "date"],
            aggregates=[("units", Sum(col("qty")))],
        ),
        AggregateQuery.create(
            pos, group_by=["category"],
            aggregates=[("sales", CountStar())],
        ),
        AggregateQuery.create(
            pos, group_by=[],
            aggregates=[("units", Sum(col("qty")))],
        ),
    ]


def _hammer(
    server: QueryServer,
    queries: Sequence[AggregateQuery],
    threads: int,
    per_thread: int,
) -> tuple[float, list[float]]:
    """Run the workload from *threads* reader threads.

    Returns ``(wall seconds, per-query latencies in seconds)`` — the raw
    samples, so percentiles are exact rather than bucket estimates.
    """
    barrier = threading.Barrier(threads + 1)
    errors: list[BaseException] = []
    samples: list[list[float]] = [[] for _ in range(threads)]

    def reader(seed: int) -> None:
        barrier.wait()
        mine = samples[seed]
        try:
            for i in range(per_thread):
                t0 = time.perf_counter()
                server.answer(queries[(seed + i) % len(queries)])
                mine.append(time.perf_counter() - t0)
        except BaseException as failure:   # surfaced to the caller
            errors.append(failure)

    workers = [
        threading.Thread(target=reader, args=(seed,), daemon=True)
        for seed in range(threads)
    ]
    for worker in workers:
        worker.start()
    barrier.wait()
    start = time.perf_counter()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed, [latency for per in samples for latency in per]


def latency_percentiles_ms(samples: Sequence[float]) -> dict:
    """Exact nearest-rank p50/p95/p99 (+max) over raw latency samples,
    in milliseconds.  Nearest-rank keeps p50 <= p95 <= p99 by construction,
    which the CI artifact sanity check relies on."""
    if not samples:
        return {"p50": None, "p95": None, "p99": None, "max": None}
    ordered = sorted(samples)
    n = len(ordered)

    def rank(q: float) -> float:
        position = max(0, min(n - 1, int(q * n + 0.999999) - 1))
        return ordered[position]

    return {
        "p50": round(rank(0.50) * 1e3, 4),
        "p95": round(rank(0.95) * 1e3, 4),
        "p99": round(rank(0.99) * 1e3, 4),
        "max": round(ordered[-1] * 1e3, 4),
    }


def run_serving(
    pos_rows: int = DEFAULT_POS_ROWS,
    change_size: int = DEFAULT_CHANGE_SIZE,
    threads: int = DEFAULT_THREADS,
    queries_per_thread: int = DEFAULT_QUERIES_PER_THREAD,
    expose_http: int | None = None,
    hold_exporter_s: float = 0.0,
) -> dict:
    data = generate_retail(RetailConfig(pos_rows=pos_rows))
    warehouse = build_retail_warehouse(data)
    views = warehouse.views_over("pos")
    queries = serving_queries(data.pos)
    total_queries = threads * queries_per_thread

    # Regime 1: quiesced — no maintenance while readers run.
    with QueryServer(warehouse, max_workers=threads) as server:
        for query in queries:   # warm the plan/cache path once
            server.answer(query)
        quiesced_s, quiesced_lat = _hammer(
            server, queries, threads, queries_per_thread
        )

    # Regime 2: a background maintenance loop runs full versioned cycles
    # (propagate -> shadow refresh -> certificate-validated publish) for
    # the whole measured window.
    stop = threading.Event()
    cycles = 0
    maintenance_errors: list[BaseException] = []
    # Manifest high-water marks: every epoch the maintainer publishes past
    # these carries per-batch ingest->publish lags for the visibility
    # section below.
    manifest_marks = {view.name: len(view.lineage) for view in views}

    def maintainer() -> None:
        nonlocal cycles
        try:
            while not stop.is_set():
                changes = update_generating_changes(
                    data.pos, data.config, change_size, data.rng
                )
                maintain_lattice(views, changes)
                cycles += 1
        except BaseException as failure:
            maintenance_errors.append(failure)

    with QueryServer(
        warehouse, max_workers=threads, expose_http=expose_http
    ) as server:
        if server.exporter is not None:
            print(f"metrics exporter listening at {server.exporter.url}")
        for query in queries:
            server.answer(query)
        thread = threading.Thread(target=maintainer, daemon=True)
        thread.start()
        maintained_s, maintained_lat = _hammer(
            server, queries, threads, queries_per_thread
        )
        stop.set()
        thread.join()
        hit_rate = server.stats.hit_rate
        if server.exporter is not None and hold_exporter_s > 0:
            # Keep /metrics and /status scrapeable for an outside smoke
            # test after the measured window ends.
            time.sleep(hold_exporter_s)
    if maintenance_errors:
        raise maintenance_errors[0]

    # End-to-end visibility lag under live maintenance: for every batch in
    # every epoch manifest published during the measured window, the
    # seconds from its ingest stamp to the epoch's publish.
    visibility_lags = [
        lag
        for view in views
        for manifest in view.lineage.manifests_since(manifest_marks[view.name])
        for lag in manifest.lags().values()
    ]

    return {
        "pos_rows": pos_rows,
        "change_size": change_size,
        "threads": threads,
        "queries": total_queries,
        "qps_quiesced": round(total_queries / quiesced_s, 1),
        "qps_under_maintenance": round(total_queries / maintained_s, 1),
        "throughput_ratio": round(quiesced_s / maintained_s, 3),
        "latency_quiesced_ms": latency_percentiles_ms(quiesced_lat),
        "latency_under_maintenance_ms": latency_percentiles_ms(maintained_lat),
        "maintenance_cycles": cycles,
        "epochs_published": max(view.epoch for view in views),
        "cache_hit_rate": round(hit_rate, 3),
        "visibility_lag_ms": latency_percentiles_ms(visibility_lags),
        "visibility_lag_samples": len(visibility_lags),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.serve_bench",
        description="query throughput under concurrent versioned maintenance",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke-test scale (5k rows, 2 threads, 50 queries each) for CI",
    )
    parser.add_argument("--pos-rows", type=int, default=None)
    parser.add_argument("--changes", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--queries-per-thread", type=int, default=None)
    parser.add_argument(
        "--output", default=None,
        help="JSON path (default: BENCH_propagate.json at the repo root)",
    )
    parser.add_argument(
        "--expose-http", type=int, default=None, metavar="PORT",
        help="serve /metrics, /status, /slow from the under-maintenance "
             "server on PORT (0 = ephemeral)",
    )
    parser.add_argument(
        "--hold-exporter", type=float, default=0.0, metavar="SECONDS",
        help="keep the exporter scrapeable this long after the measured "
             "window (for external smoke tests)",
    )
    args = parser.parse_args(argv)

    pos_rows = args.pos_rows or (5_000 if args.quick else DEFAULT_POS_ROWS)
    change_size = args.changes or (500 if args.quick else DEFAULT_CHANGE_SIZE)
    threads = args.threads or (2 if args.quick else DEFAULT_THREADS)
    per_thread = args.queries_per_thread or (
        50 if args.quick else DEFAULT_QUERIES_PER_THREAD
    )

    serving = run_serving(
        pos_rows, change_size, threads, per_thread,
        expose_http=args.expose_http, hold_exporter_s=args.hold_exporter,
    )
    quiesced_lat = serving["latency_quiesced_ms"]
    maintained_lat = serving["latency_under_maintenance_ms"]
    print(f"serving benchmark ({pos_rows:,} pos rows, "
          f"{threads} reader threads x {per_thread} queries):")
    print(f"  quiesced:          {serving['qps_quiesced']:>10,.1f} qps "
          f"(p50 {quiesced_lat['p50']:.2f}ms / p99 {quiesced_lat['p99']:.2f}ms)")
    print(f"  under maintenance: {serving['qps_under_maintenance']:>10,.1f} qps "
          f"(p50 {maintained_lat['p50']:.2f}ms / p99 {maintained_lat['p99']:.2f}ms; "
          f"{serving['maintenance_cycles']} cycles, "
          f"{serving['epochs_published']} epochs published)")
    print(f"  cache hit rate:    {serving['cache_hit_rate']:>10.1%}")
    visibility = serving["visibility_lag_ms"]
    if visibility["p50"] is not None:
        print(f"  visibility lag:    p50 {visibility['p50']:.2f}ms / "
              f"p95 {visibility['p95']:.2f}ms / p99 {visibility['p99']:.2f}ms "
              f"(ingest->queryable, {serving['visibility_lag_samples']:,} "
              f"batches)")

    path = write_bench_json("serving", serving, args.output)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
