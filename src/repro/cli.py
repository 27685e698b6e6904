"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``figure9 {a,b,c,d}``
    Run one panel of the paper's Figure 9 and print the series table plus
    the shape-claim verdicts.  ``--scale`` shrinks the workload.
``lattice``
    Build the retail warehouse and print the Figure 8 maintenance plan and
    the Figure 5 combined-lattice summary.
``maintain``
    One nightly maintenance run over a synthetic warehouse, with the
    batch-window report and a rematerialisation comparison.
``trace``
    Run one nightly maintenance over the Figure 9 retail workload under
    the observability layer and print the span tree, the metrics snapshot,
    and the span-derived batch-window split, cross-checked against the
    legacy :class:`~repro.warehouse.batch.BatchWindowClock` report.
    ``--jsonl PATH`` additionally exports the trace as JSON lines.
    ``--format json`` or ``--format prom`` prints the metrics registry
    instead (as JSON, or in the Prometheus text exposition format).
``explain``
    Render the maintenance plan *before* running it: propagation levels,
    each node's derivation source and joins, predicted delta rows and
    tuple accesses from the cost model (:mod:`repro.lattice.cost`), and
    the §2.2 with-lattice vs without-lattice comparison.  With
    ``--execute`` the plan then runs under tracing and the table is
    re-printed with measured accesses and error percentages.
``history``
    List the runs recorded in the persistent run ledger
    (:mod:`repro.obs.ledger`; enabled via ``REPRO_LEDGER=PATH``).
``status``
    Fleet-wide freshness/certificate table after one nightly maintenance
    run: per view, the maintained certificate and its verdict against the
    stored rows, last-refresh run id and kind, staleness seconds, and
    pending change counts.  ``--prom`` additionally prints the freshness
    and integrity gauges in the Prometheus text format.  Exit 1 on any
    certificate drift.
``lineage``
    Change-set lineage explorer over a retail warehouse that ran several
    nightly rounds and holds one still-pending batch: the default report
    prints per-view visibility-lag percentiles over every recorded epoch
    manifest; ``--batch N`` answers "which view epochs include batch N"
    (exit 1 for an unknown id); ``--view NAME`` lists one view's
    manifests and its pending backlog.
``audit``
    Corruption-detecting integrity audit after one nightly maintenance
    run.  Full mode (default) compares maintained, stored, and
    recompute certificates per view; ``--sample K`` re-derives K random
    summary tuples per view from base facts instead.  ``--inject KIND``
    first injects one corruption (``mutate``, ``drop``, ``phantom``,
    ``missed-delta``) for fault-injection smoke tests.  ``--report PATH``
    writes the audit report as JSON.  Exit 1 on any FAIL verdict.
``serve-metrics``
    Run a live demo serving deployment: a retail warehouse under
    continuous query load and versioned maintenance, with the embedded
    metrics exporter (``/metrics``, ``/status``, ``/slow``) bound to
    ``--port`` for ``--duration`` seconds.  Point ``repro top`` or a
    Prometheus scraper at it.
``top``
    Poll a running exporter's ``/status`` endpoint (``--url``) and render
    a live per-view QPS / latency / staleness / cache table, one frame
    per ``--interval`` seconds (``--frames 0`` = until interrupted).
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _cmd_figure9(args: argparse.Namespace) -> int:
    if args.scale is not None:
        os.environ["REPRO_BENCH_SCALE"] = str(args.scale)
    from .bench import (
        check_lattice_helps_propagate,
        check_maintenance_beats_rematerialization,
        format_claims,
        format_panel,
        run_panel,
    )

    panel = run_panel(args.panel)
    print(format_panel(panel))
    print()
    claims = [
        check_maintenance_beats_rematerialization(panel),
        check_lattice_helps_propagate(panel),
    ]
    print(format_claims(claims))
    return 0 if all(claim.holds for claim in claims) else 1


def _cmd_lattice(args: argparse.Namespace) -> int:
    from .lattice import build_lattice_for_views, combined_lattice
    from .workload import RetailConfig, build_retail_warehouse, generate_retail

    data = generate_retail(RetailConfig(pos_rows=args.pos_rows))
    warehouse = build_retail_warehouse(data)
    lattice = build_lattice_for_views(warehouse.views_over("pos"))
    print("Maintenance plan (paper, Figure 8):")
    print(lattice.describe())

    combined = combined_lattice([
        data.stores.hierarchy.levels,
        data.items.hierarchy.levels,
        ("date",),
    ])
    print(
        f"\nCombined cube lattice (paper, Figure 5): {len(combined.nodes)} "
        f"candidate views, {len(combined.edges)} derivation edges."
    )
    return 0


def _cmd_maintain(args: argparse.Namespace) -> int:
    from .lattice import maintain_lattice, rematerialize_with_lattice
    from .workload import (
        RetailConfig,
        build_retail_warehouse,
        generate_retail,
        insertion_generating_changes,
        update_generating_changes,
    )

    data = generate_retail(RetailConfig(pos_rows=args.pos_rows))
    warehouse = build_retail_warehouse(data)
    views = warehouse.views_over("pos")
    if args.workload == "insert":
        changes = insertion_generating_changes(
            data.pos, data.config, args.changes, data.rng
        )
    else:
        changes = update_generating_changes(
            data.pos, data.config, args.changes, data.rng
        )

    result = maintain_lattice(views, changes)
    print(f"Maintained {len(views)} summary tables over "
          f"{changes.size():,} changes:")
    for name, stats in result.stats.items():
        print(f"  {name:<12} {stats.updated:>6} updated  {stats.inserted:>5} "
              f"inserted  {stats.deleted:>5} deleted  "
              f"{stats.recomputed:>5} recomputed")
    print(f"\n{result.report.summary()}")

    started = time.perf_counter()
    rematerialize_with_lattice(views)
    print(f"(rematerialising instead would have taken "
          f"{time.perf_counter() - started:.3f}s of batch window)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .obs import (
        format_span_tree,
        prometheus_text,
        registry,
        trace,
        trace_summary,
        write_trace_jsonl,
    )
    from .obs.tracing import span, trace_kill_switch
    from .warehouse.nightly import run_nightly_maintenance
    from .workload import (
        RetailConfig,
        build_retail_warehouse,
        generate_retail,
        insertion_generating_changes,
        update_generating_changes,
    )

    if trace_kill_switch():
        print(
            "tracing is disabled by REPRO_TRACE=0; "
            "unset it (or set REPRO_TRACE=1) to record spans"
        )
        return 1

    data = generate_retail(RetailConfig(pos_rows=args.pos_rows))
    warehouse = build_retail_warehouse(data)
    if args.workload == "insert":
        staged = insertion_generating_changes(
            data.pos, data.config, args.changes, data.rng
        )
    else:
        staged = update_generating_changes(
            data.pos, data.config, args.changes, data.rng
        )
    pending = warehouse.pending_changes("pos")
    for row in staged.insertions.scan():
        pending.insert(row)
    for row in staged.deletions.scan():
        pending.delete(row)

    registry().reset()
    # Only this run's spans: an ambient recorder (REPRO_TRACE=1) holds
    # every earlier run's too.
    with trace(), span("trace") as root:
        result = run_nightly_maintenance(warehouse)
    summary = trace_summary(root, registry())
    window = summary["window"]

    if args.format == "prom":
        sys.stdout.write(prometheus_text(registry()))
    elif args.format == "json":
        print(json.dumps(registry().snapshot(), indent=2, sort_keys=True))
    else:
        print(format_span_tree(root, max_depth=args.max_depth))
        print(
            f"\nbatch window from span tags: "
            f"online {window['online_s']:.3f}s, "
            f"offline {window['offline_s']:.3f}s"
            f" ({summary['spans']} spans recorded)"
        )
        if "metrics" in summary:
            print("metrics:")
            for name, value in sorted(summary["metrics"]["counters"].items()):
                print(f"  {name:<32} {value:>12,}")
            for name, stats in sorted(
                summary["metrics"]["histograms"].items()
            ):
                print(
                    f"  {name:<32} count={stats['count']:,} "
                    f"mean={stats['mean']:.6g} max={stats['max']:.6g}"
                )

    # The span-derived window must agree with the clock's.  The registry
    # formats keep stdout machine-readable, so their verdicts go to stderr.
    verdicts = sys.stdout if args.format == "tree" else sys.stderr
    report = result.report
    agrees = True
    for span_total, clock_total, label in (
        (window["online_s"], report.online_seconds, "online"),
        (window["offline_s"], report.offline_seconds, "offline"),
    ):
        if clock_total > 0:
            drift = abs(span_total - clock_total) / clock_total
        else:
            drift = abs(span_total)
        ok = drift <= 0.01
        agrees = agrees and ok
        print(
            f"{label}: spans {span_total:.3f}s vs clock {clock_total:.3f}s "
            f"({'agree' if ok else f'DISAGREE, drift {drift:.1%}'})",
            file=verdicts,
        )

    if args.jsonl is not None:
        path = write_trace_jsonl(root, args.jsonl)
        print(f"trace written to {path}", file=verdicts)
    return 0 if agrees else 1


def _serving_queries(pos):
    """A mixed query workload, every query answerable from a summary table."""
    from .aggregates import CountStar, Sum
    from .query import AggregateQuery
    from .relational.expressions import col

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


def _cmd_serve_metrics(args: argparse.Namespace) -> int:
    import threading

    from .lattice import maintain_lattice
    from .serve import QueryServer
    from .workload import (
        RetailConfig,
        build_retail_warehouse,
        generate_retail,
        update_generating_changes,
    )

    data = generate_retail(RetailConfig(pos_rows=args.pos_rows))
    warehouse = build_retail_warehouse(data)
    views = warehouse.views_over("pos")
    queries = _serving_queries(data.pos)
    stop = threading.Event()
    failures: list[BaseException] = []

    def loader(seed: int) -> None:
        i = 0
        try:
            while not stop.is_set():
                server.answer(queries[(seed + i) % len(queries)])
                i += 1
                time.sleep(args.query_interval)
        except BaseException as failure:
            failures.append(failure)

    def maintainer() -> None:
        try:
            while not stop.is_set():
                changes = update_generating_changes(
                    data.pos, data.config, args.changes, data.rng
                )
                maintain_lattice(views, changes)
                stop.wait(args.maintenance_interval)
        except BaseException as failure:
            failures.append(failure)

    with QueryServer(
        warehouse,
        max_workers=args.threads,
        staleness_slo_s=args.slo,
        expose_http=args.port,
    ) as server:
        print(f"serving metrics at {server.exporter.url}/metrics")
        print(f"status JSON at     {server.exporter.url}/status")
        print(f"slow queries at    {server.exporter.url}/slow")
        print(f"(running {args.duration:.0f}s of query load + versioned "
              f"maintenance; try: repro top --url {server.exporter.url})")
        workers = [
            threading.Thread(target=loader, args=(seed,), daemon=True)
            for seed in range(args.threads)
        ]
        workers.append(threading.Thread(target=maintainer, daemon=True))
        for worker in workers:
            worker.start()
        try:
            time.sleep(args.duration)
        except KeyboardInterrupt:
            pass
        stop.set()
        for worker in workers:
            worker.join()
        snapshot = server.stats.snapshot()
    if failures:
        raise failures[0]
    print(f"served {snapshot['queries']:,} queries "
          f"({snapshot['cache_hits']:,} cache hits); "
          f"{max(view.epoch for view in views)} epochs published")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import json
    from urllib.error import URLError
    from urllib.request import urlopen

    from .obs.serving import format_top

    url = args.url.rstrip("/") + "/status"
    previous = None
    frame = 0
    while args.frames <= 0 or frame < args.frames:
        if frame:
            time.sleep(args.interval)
        try:
            with urlopen(url, timeout=5.0) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except (URLError, OSError, ValueError) as exc:
            print(f"cannot scrape {url}: {exc}", file=sys.stderr)
            return 2
        if frame:
            print()
        print(format_top(payload, previous))
        previous = payload
        frame += 1
    return 0


def _retail_run_inputs(pos_rows: int, change_rows: int, workload: str):
    """(views, changes) for one synthetic retail maintenance run."""
    from .workload import (
        RetailConfig,
        build_retail_warehouse,
        generate_retail,
        insertion_generating_changes,
        update_generating_changes,
    )

    data = generate_retail(RetailConfig(pos_rows=pos_rows))
    warehouse = build_retail_warehouse(data)
    factory = (
        insertion_generating_changes if workload == "insert"
        else update_generating_changes
    )
    changes = factory(data.pos, data.config, change_rows, data.rng)
    return warehouse.views_over("pos"), changes


def _cmd_explain(args: argparse.Namespace) -> int:
    from .lattice import (
        actual_node_accesses,
        actual_refresh_accesses,
        build_lattice_for_views,
        collect_statistics,
        compare_plan,
        estimate_plan_cost,
        maintain_lattice,
    )
    from .obs import trace
    from .obs.tracing import trace_kill_switch

    views, changes = _retail_run_inputs(
        args.pos_rows, args.changes, args.workload
    )
    lattice = build_lattice_for_views(views)
    stats = collect_statistics(lattice, changes, views=views)
    estimate = estimate_plan_cost(lattice, stats)

    print(
        f"Maintenance plan: {len(views)} summary tables over "
        f"{len(views[0].definition.fact.table):,} pos rows, "
        f"{changes.size():,} pending changes ({args.workload} workload)\n"
    )
    header = (
        f"{'node':<12} {'lvl':>3}  {'source':<12} {'joins':<16} "
        f"{'scan':<6} {'est.delta':>10} {'est.accesses':>13}"
    )
    print(header)
    print("-" * len(header))
    for name in estimate.order:
        node = estimate.nodes[name]
        if node.source == "changes":
            scan = "-"
        elif not node.shared_scan:
            # Derived but unfused: cost-based fusion declined the group,
            # so the edge is replayed per child.
            scan = "child"
        elif node.scan_owner:
            scan = "owner"
        else:
            scan = "fused"
        print(
            f"{node.name:<12} {node.level:>3}  {node.source:<12} "
            f"{','.join(node.joins) or '-':<16} {scan:<6} "
            f"{node.delta_rows:>10,.0f} {node.propagate_accesses:>13,.0f}"
        )
    print(
        f"\npropagate with lattice:    "
        f"{estimate.with_lattice_accesses:>13,.0f} accesses"
        f"\npropagate without lattice: "
        f"{estimate.without_lattice_accesses:>13,.0f} accesses"
        f"  (lattice saves {estimate.lattice_savings_ratio:.2f}x — §2.2)"
        f"\nrefresh (lower bound):     "
        f"{estimate.refresh_accesses:>13,.0f} accesses"
    )
    print(
        f"shared-scan engine:        "
        f"{estimate.shared_scan_saved_accesses:>13,.0f} accesses saved "
        f"vs per-child pipelines ({estimate.per_child_accesses:,.0f})"
    )
    if not args.execute:
        return 0
    if trace_kill_switch():
        print(
            "\ncannot execute under REPRO_TRACE=0: predicted-vs-actual "
            "needs recorded spans",
            file=sys.stderr,
        )
        return 2

    with trace() as recorder:
        maintain_lattice(views, changes, lattice=lattice)
    root = recorder.finish()
    rows = compare_plan(estimate, actual_node_accesses(root))
    refresh_actuals = actual_refresh_accesses(root)

    print("\npredicted vs actual (propagate tuple accesses):")
    header = (
        f"{'node':<12} {'predicted':>12} {'actual':>12} "
        f"{'error':>8} {'ratio':>6}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        error = f"{row.error_pct:+.1f}%" if row.error_pct is not None else "-"
        ratio = f"{row.ratio:.2f}" if row.ratio is not None else "-"
        print(
            f"{row.name:<12} {row.predicted:>12,.0f} {row.actual:>12,.0f} "
            f"{error:>8} {ratio:>6}"
        )
    measured_refresh = sum(refresh_actuals.values())
    print(
        f"refresh: predicted lower bound "
        f"{estimate.refresh_accesses:,.0f}, measured "
        f"{measured_refresh:,.0f} accesses (gap = MIN/MAX recompute probes)"
    )
    return 0



def _retail_warehouse_after_nightly(pos_rows: int, change_rows: int,
                                    workload: str):
    """A retail warehouse that has been through one nightly maintenance
    run over *change_rows* staged changes (returns warehouse + the data
    bundle, whose ``rng`` continues the deterministic stream)."""
    from .warehouse.nightly import run_nightly_maintenance
    from .workload import (
        RetailConfig,
        build_retail_warehouse,
        generate_retail,
        insertion_generating_changes,
        update_generating_changes,
    )

    data = generate_retail(RetailConfig(pos_rows=pos_rows))
    warehouse = build_retail_warehouse(data)
    factory = (
        insertion_generating_changes if workload == "insert"
        else update_generating_changes
    )
    staged = factory(data.pos, data.config, change_rows, data.rng)
    warehouse.stage_changes("pos", staged)
    run_nightly_maintenance(warehouse)
    return warehouse, data


def _cmd_status(args: argparse.Namespace) -> int:
    from .obs import prometheus_text, registry
    from .warehouse.health import (
        export_status_gauges,
        format_status,
        warehouse_status,
    )
    from .workload import update_generating_changes

    warehouse, data = _retail_warehouse_after_nightly(
        args.pos_rows, args.changes, args.workload
    )
    # Stage (but do not maintain) a second batch so the table shows what
    # pending-change pressure looks like between nightly runs.
    staged = update_generating_changes(
        data.pos, data.config, max(1, args.changes // 2), data.rng
    )
    warehouse.stage_changes("pos", staged)

    statuses = warehouse_status(warehouse)
    print(format_status(statuses))
    if args.prom:
        export_status_gauges(warehouse, registry())
        print()
        sys.stdout.write(prometheus_text(registry()))
    drifted = [s.name for s in statuses if s.certificate_ok is False]
    if drifted:
        print(f"certificate drift detected: {drifted}", file=sys.stderr)
        return 1
    return 0


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    import math

    if not sorted_values:
        return 0.0
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


def _cmd_lineage(args: argparse.Namespace) -> int:
    from .warehouse.nightly import run_nightly_maintenance
    from .workload import (
        RetailConfig,
        build_retail_warehouse,
        generate_retail,
        update_generating_changes,
    )

    data = generate_retail(RetailConfig(pos_rows=args.pos_rows))
    warehouse = build_retail_warehouse(data)
    # update_generating_changes needs an even size (delete+reinsert pairs).
    per_round = max(2, (args.changes // max(1, args.rounds)) // 2 * 2)
    for _ in range(args.rounds):
        staged = update_generating_changes(
            data.pos, data.config, per_round, data.rng
        )
        warehouse.stage_changes("pos", staged)
        run_nightly_maintenance(warehouse)
    # Leave one batch staged but unmaintained, so the pending side of the
    # report (and --batch on a not-yet-visible id) is exercised.
    warehouse.stage_changes(
        "pos",
        update_generating_changes(
            data.pos, data.config, max(2, (per_round // 2) // 2 * 2), data.rng
        ),
    )
    pending = warehouse.pending_changes("pos")

    if args.batch is not None:
        return _lineage_batch_report(warehouse, pending, args.batch)
    if args.view is not None:
        return _lineage_view_report(warehouse, pending, args.view)
    return _lineage_summary(warehouse, pending)


def _lineage_batch_report(warehouse, pending, batch_id: int) -> int:
    """Which epochs include *batch_id* — one line per view."""
    print(f"batch {batch_id}:")
    found = False
    for name in sorted(warehouse.views):
        manifest = warehouse.views[name].lineage.manifest_for(batch_id)
        if manifest is None:
            continue
        found = True
        lag = manifest.lags()[batch_id]
        print(
            f"  {name:<14} epoch {manifest.epoch:>3}  "
            f"refresh {manifest.refresh_count:>3}  lag {lag:.6f}s"
        )
    if batch_id in pending.lineage:
        found = True
        print(
            f"  (staged, not yet visible in any view — "
            f"age {pending.lineage.oldest_age_s():.6f}s ceiling)"
        )
    if not found:
        print("  unknown batch id (never staged here)")
        return 1
    return 0


def _lineage_view_report(warehouse, pending, view_name: str) -> int:
    """Every epoch manifest of one view, plus its pending backlog."""
    view = warehouse.views.get(view_name)
    if view is None:
        print(f"no view named {view_name!r}", file=sys.stderr)
        return 2
    print(f"view {view_name}: {len(view.lineage)} manifests")
    for manifest in view.lineage.manifests():
        intervals = ",".join(
            f"{lo}-{hi}" if lo != hi else f"{lo}"
            for lo, hi in manifest.intervals()
        )
        print(
            f"  epoch {manifest.epoch:>3}  "
            f"batches [{intervals}]  max_lag {manifest.max_lag_s:.6f}s"
        )
    backlog = view.lineage.pending_against(pending.lineage)
    if backlog:
        intervals = ",".join(
            f"{lo}-{hi}" if lo != hi else f"{lo}"
            for lo, hi in backlog.intervals()
        )
        print(
            f"  pending: {len(backlog)} batches [{intervals}] "
            f"oldest {backlog.oldest_age_s():.6f}s"
        )
    else:
        print("  pending: none")
    return 0


def _lineage_summary(warehouse, pending) -> int:
    """Per-view visibility-lag percentiles over all recorded manifests."""
    header = (
        f"{'view':<14} {'manifests':>9} {'batches':>8} {'pending':>8} "
        f"{'lag_p50':>9} {'lag_p95':>9} {'lag_p99':>9} {'lag_max':>9}"
    )
    print(header)
    print("-" * len(header))
    for name in sorted(warehouse.views):
        view = warehouse.views[name]
        lags = sorted(
            lag
            for manifest in view.lineage.manifests()
            for lag in manifest.lags().values()
        )
        backlog = view.lineage.pending_against(pending.lineage)
        print(
            f"{name:<14} {len(view.lineage):>9} "
            f"{view.lineage.batches_published():>8} {len(backlog):>8} "
            f"{_nearest_rank(lags, 0.50):>9.6f} "
            f"{_nearest_rank(lags, 0.95):>9.6f} "
            f"{_nearest_rank(lags, 0.99):>9.6f} "
            f"{(lags[-1] if lags else 0.0):>9.6f}"
        )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    import json
    import random

    from .warehouse.health import audit_warehouse, inject_corruption

    warehouse, _data = _retail_warehouse_after_nightly(
        args.pos_rows, args.changes, args.workload
    )
    rng = random.Random(args.seed)
    if args.inject:
        description = inject_corruption(
            warehouse, args.inject, rng=rng, view_name=args.view
        )
        print(f"injected: {description}\n")
    report = audit_warehouse(warehouse, sample=args.sample, rng=rng)
    print(report.format())
    if args.report is not None:
        from .io.atomic import atomic_write_text

        atomic_write_text(
            args.report,
            json.dumps(report.to_record(), indent=2, sort_keys=True) + "\n",
        )
        print(f"audit report written to {args.report}")
    return 0 if report.passed else 1


def _ledger_from_args(args: argparse.Namespace):
    from .obs.ledger import LEDGER_ENV_VAR, RunLedger

    path = args.ledger or os.environ.get(LEDGER_ENV_VAR, "").strip()
    if not path:
        print(
            f"no ledger: pass --ledger PATH or set {LEDGER_ENV_VAR}",
            file=sys.stderr,
        )
        return None
    return RunLedger(path)


def _cmd_history(args: argparse.Namespace) -> int:
    ledger = _ledger_from_args(args)
    if ledger is None:
        return 2
    try:
        records = ledger.records()
    except (OSError, ValueError) as exc:
        print(f"cannot read ledger: {exc}", file=sys.stderr)
        return 2
    if args.kind:
        records = [r for r in records if r.get("kind") == args.kind]
    if not records:
        print("no recorded runs")
        return 0
    header = (
        f"{'run':>4}  {'when':<19} {'kind':<16} {'online':>8} "
        f"{'offline':>8} {'accesses':>10} {'views':>5} {'changes':>8} "
        f"{'batches':>7} {'lag_s':>8}"
    )
    print(header)
    print("-" * len(header))
    for record in records[-args.limit:]:
        when = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(record.get("ts", 0))
        )
        access = record.get("access") or {}
        changes = record.get("changes") or {}
        n_changes = sum(changes.values())
        # End-to-end visibility: batches the run published and the worst
        # ingest->publish lag over all its manifests (older ledgers have
        # no lineage section -> "-").
        lineage = record.get("lineage")
        if lineage:
            batches = max(
                (m.get("batches", 0) for m in lineage.values()), default=0
            )
            lag = f"{max(m.get('max_lag_s', 0.0) for m in lineage.values()):.3f}"
        else:
            batches, lag = 0, "-"
        print(
            f"{record.get('run_id', '?'):>4}  {when:<19} "
            f"{record.get('kind', '?'):<16} "
            f"{record.get('online_s', 0.0):>8.3f} "
            f"{record.get('offline_s', 0.0):>8.3f} "
            f"{access.get('total', 0):>10,} "
            f"{len(record.get('views') or {}):>5} {n_changes:>8,} "
            f"{batches:>7,} {lag:>8}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Summary-delta warehouse maintenance (SIGMOD 1997 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figure9 = sub.add_parser("figure9", help="run one Figure 9 panel")
    figure9.add_argument("panel", choices=["a", "b", "c", "d"])
    figure9.add_argument("--scale", type=float, default=None,
                         help="workload scale factor (default: paper scale)")
    figure9.set_defaults(func=_cmd_figure9)

    lattice = sub.add_parser("lattice", help="print the Figure 8 plan")
    lattice.add_argument("--pos-rows", type=int, default=10_000)
    lattice.set_defaults(func=_cmd_lattice)

    maintain = sub.add_parser("maintain", help="one nightly maintenance run")
    maintain.add_argument("--pos-rows", type=int, default=50_000)
    maintain.add_argument("--changes", type=int, default=5_000)
    maintain.add_argument("--workload", choices=["update", "insert"],
                          default="update")
    maintain.set_defaults(func=_cmd_maintain)

    trace = sub.add_parser(
        "trace",
        help="trace one nightly maintenance run and print the span tree",
    )
    trace.add_argument("--pos-rows", type=int, default=50_000)
    trace.add_argument("--changes", type=int, default=5_000)
    trace.add_argument("--workload", choices=["update", "insert"],
                       default="update")
    trace.add_argument("--max-depth", type=int, default=None,
                       help="limit the printed span-tree depth")
    trace.add_argument("--jsonl", default=None, metavar="PATH",
                       help="also export the trace as JSON lines")
    trace.add_argument("--format", choices=["tree", "json", "prom"],
                       default="tree",
                       help="print the span tree (default), or instead the "
                            "metrics registry as JSON or Prometheus text")
    trace.set_defaults(func=_cmd_trace)

    explain = sub.add_parser(
        "explain",
        help="show the maintenance plan with predicted tuple accesses",
    )
    explain.add_argument("--pos-rows", type=int, default=50_000)
    explain.add_argument("--changes", type=int, default=5_000)
    explain.add_argument("--workload", choices=["update", "insert"],
                         default="update")
    explain.add_argument("--execute", action="store_true",
                         help="run the plan under tracing and print "
                              "predicted-vs-actual accesses")
    explain.set_defaults(func=_cmd_explain)

    history = sub.add_parser(
        "history", help="list runs recorded in the run ledger"
    )
    history.add_argument("--ledger", default=None, metavar="PATH",
                         help="ledger file (default: $REPRO_LEDGER)")
    history.add_argument("--limit", type=int, default=20)
    history.add_argument("--kind", default=None,
                         help="only show runs of this kind")
    history.set_defaults(func=_cmd_history)

    status = sub.add_parser(
        "status",
        help="fleet-wide freshness/certificate table after one nightly run",
    )
    status.add_argument("--pos-rows", type=int, default=5_000)
    status.add_argument("--changes", type=int, default=500)
    status.add_argument("--workload", choices=["update", "insert"],
                        default="update")
    status.add_argument("--prom", action="store_true",
                        help="also print freshness/integrity gauges in the "
                             "Prometheus text format")
    status.set_defaults(func=_cmd_status)

    lineage = sub.add_parser(
        "lineage",
        help="change-set lineage explorer: batch->epoch manifests and "
             "visibility-lag percentiles",
    )
    lineage.add_argument("--pos-rows", type=int, default=5_000)
    lineage.add_argument("--changes", type=int, default=500,
                         help="total change rows across all rounds")
    lineage.add_argument("--rounds", type=int, default=3,
                         help="nightly maintenance rounds to run")
    lineage.add_argument("--batch", type=int, default=None, metavar="N",
                         help="show which view epochs include batch N")
    lineage.add_argument("--view", default=None, metavar="NAME",
                         help="show every epoch manifest of one view")
    lineage.set_defaults(func=_cmd_lineage)

    audit = sub.add_parser(
        "audit",
        help="integrity audit of every summary table (exit 1 on any FAIL)",
    )
    audit.add_argument("--pos-rows", type=int, default=5_000)
    audit.add_argument("--changes", type=int, default=500)
    audit.add_argument("--workload", choices=["update", "insert"],
                       default="update")
    audit.add_argument("--sample", type=int, default=None, metavar="K",
                       help="sampled drill-down audit of K tuples per view "
                            "(default: full certificate audit)")
    audit.add_argument("--inject", choices=["mutate", "drop", "phantom",
                                            "missed-delta"],
                       default=None,
                       help="inject one corruption before auditing "
                            "(fault-injection smoke)")
    audit.add_argument("--view", default=None,
                       help="target view for --inject (default: first "
                            "non-empty view)")
    audit.add_argument("--seed", type=int, default=0,
                       help="random seed for sampling and injection")
    audit.add_argument("--report", default=None, metavar="PATH",
                       help="write the audit report as JSON")
    audit.set_defaults(func=_cmd_audit)

    serve_metrics = sub.add_parser(
        "serve-metrics",
        help="run a demo serving deployment with the live metrics exporter",
    )
    serve_metrics.add_argument("--port", type=int, default=9464,
                               help="exporter port (0 = ephemeral)")
    serve_metrics.add_argument("--duration", type=float, default=30.0,
                               help="seconds to keep serving")
    serve_metrics.add_argument("--pos-rows", type=int, default=5_000)
    serve_metrics.add_argument("--changes", type=int, default=500,
                               help="change-batch size per maintenance cycle")
    serve_metrics.add_argument("--threads", type=int, default=2,
                               help="query loader threads")
    serve_metrics.add_argument("--slo", type=float, default=None,
                               metavar="SECONDS",
                               help="staleness SLO (default: "
                                    "$REPRO_STALENESS_SLO_S)")
    serve_metrics.add_argument("--query-interval", type=float, default=0.01,
                               metavar="SECONDS",
                               help="pause between queries per loader thread")
    serve_metrics.add_argument("--maintenance-interval", type=float,
                               default=2.0, metavar="SECONDS",
                               help="pause between versioned maintenance "
                                    "cycles")
    serve_metrics.set_defaults(func=_cmd_serve_metrics)

    top = sub.add_parser(
        "top",
        help="live per-view QPS/latency/staleness table from an exporter",
    )
    top.add_argument("--url", default="http://127.0.0.1:9464",
                     help="exporter base URL (see serve-metrics)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between frames")
    top.add_argument("--frames", type=int, default=0,
                     help="frames to render (0 = until interrupted)")
    top.set_defaults(func=_cmd_top)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
