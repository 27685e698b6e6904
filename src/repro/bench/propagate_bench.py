"""Micro-benchmark for the propagate engine.

Measures the two rungs of the engine on a pos-shaped aggregation — the
exact hot loop of summary-delta computation:

* **serial** — the seed path: interpreted ``group_by`` with per-row closure
  dispatch (``compiled=False`` forces it);
* **compiled** — the same call through the codegen fast path
  (:mod:`repro.relational.codegen`).

Further sections time :func:`~repro.lattice.plan.propagate_lattice` over
the Figure 9 retail lattice with the shared-scan engine off vs on and with
row vs columnar storage, the refresh locator's access growth, and the
tracing overhead.

Results are printed and merged into ``BENCH_propagate.json`` at the repo
root (see :func:`repro.bench.reporting.write_bench_json`), seeding the
machine-readable perf trajectory.

Run as::

    PYTHONPATH=src python -m repro.bench.propagate_bench [--quick]
"""

from __future__ import annotations

import argparse
import math
import os
import random
import time
from typing import Callable, Sequence

from ..core.propagate import PropagateOptions, compute_summary_delta
from ..core.refresh import refresh
from ..lattice.plan import (
    build_lattice_for_views,
    propagate_lattice,
    refresh_lattice,
)
from ..obs import tracing
from ..relational.stats import measuring
from ..relational.aggregation import (
    AggregateSpec,
    MaxReducer,
    MinReducer,
    SumReducer,
    group_by,
)
from ..relational.expressions import col, lit
from ..relational.table import Table
from ..views.materialize import MaterializedView
from ..workload.changes import update_generating_changes
from ..workload.generator import RetailConfig, generate_retail
from ..workload.retail import retail_view_definitions
from .reporting import write_bench_json

#: Group keys and workload shape mirror the pos fact table and its
#: summary-delta aggregation (SUM/COUNT deltas plus MIN/MAX companions).
#: storeID x date gives ~80 input rows per group at the default scale,
#: matching the store/date-grained retail summary views.
MICRO_KEYS = ("storeID", "date")
DEFAULT_ROWS = 200_000
DEFAULT_REPEATS = 3


def build_pos_shaped_table(rows: int, seed: int = 97) -> Table:
    """A synthetic pos-shaped table: uniform store/item/date, nullable
    qty/price (aggregation must exercise the null-skipping branches)."""
    rng = random.Random(seed)
    data = []
    for _ in range(rows):
        qty = None if rng.random() < 0.03 else rng.randint(1, 10)
        price = None if rng.random() < 0.03 else round(rng.uniform(0.5, 99.5), 2)
        data.append(
            (rng.randrange(100), rng.randrange(200), rng.randrange(25), qty, price)
        )
    return Table("pos_bench", ["storeID", "itemID", "date", "qty", "price"], data)


def delta_style_specs() -> list[AggregateSpec]:
    """Aggregates shaped like a summary-delta computation: COUNT(*) and SUM
    deltas (SumReducer over the Table 1 sources) plus MIN/MAX companions."""
    return [
        ("_count", lit(1), SumReducer()),
        ("total_qty", col("qty"), SumReducer()),
        ("total_dollars", col("qty") * col("price"), SumReducer()),
        ("min_price", col("price"), MinReducer()),
        ("max_price", col("price"), MaxReducer()),
    ]


def _rows_equivalent(expected, actual) -> bool:
    """Row-set equality, tolerating last-ulp drift in float aggregates."""
    if len(expected) != len(actual):
        return False
    for row_a, row_b in zip(expected, actual):
        for a, b in zip(row_a, row_b):
            if a == b:
                continue
            if isinstance(a, float) and isinstance(b, float):
                if math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                    continue
            return False
    return True


def _best_of(thunk: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - started)
    return best


def run_micro(
    rows: int = DEFAULT_ROWS, repeats: int = DEFAULT_REPEATS
) -> dict:
    """Time interpreted vs compiled aggregation on *rows* input rows."""
    table = build_pos_shaped_table(rows)
    specs = delta_style_specs()
    keys = list(MICRO_KEYS)

    serial = group_by(table, keys, specs, compiled=False)
    compiled = group_by(table, keys, specs, compiled=True)
    if serial.rows() != compiled.rows():
        raise AssertionError(
            "propagate engine paths disagree: compiled output does not "
            "match the serial group_by"
        )

    serial_s = _best_of(lambda: group_by(table, keys, specs, compiled=False), repeats)
    compiled_s = _best_of(lambda: group_by(table, keys, specs, compiled=True), repeats)
    return {
        "rows": rows,
        "groups": len(serial),
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "serial_group_by_s": round(serial_s, 6),
        "compiled_group_by_s": round(compiled_s, 6),
        "speedup_compiled": round(serial_s / compiled_s, 3),
    }


def _access_units(snapshot: dict) -> int:
    """Sum a stats snapshot's access counters (``as_dict`` includes a
    precomputed ``total`` key that must not be double-counted)."""
    return sum(value for key, value in snapshot.items() if key != "total")


def run_shared_scan(
    pos_rows: int = 50_000, change_size: int = 5_000, repeats: int = DEFAULT_REPEATS
) -> dict:
    """Time lattice propagate with the shared-scan engine off vs on.

    The shared engine (:mod:`repro.relational.fused`) replaces each sibling
    group's k join+aggregate pipelines with one fused pass over the parent's
    summary delta.  Both runs must produce byte-identical deltas — same
    rows, same order — which is asserted before anything is timed.
    """
    data = generate_retail(RetailConfig(pos_rows=pos_rows, seed=1997))
    views = [
        MaterializedView.build(definition)
        for definition in retail_view_definitions(data.pos)
    ]
    changes = update_generating_changes(data.pos, data.config, change_size, data.rng)
    lattice = build_lattice_for_views(views)

    legacy_options = PropagateOptions(shared_scan=False)
    shared_options = PropagateOptions(shared_scan=True)

    legacy = propagate_lattice(lattice, changes, legacy_options)
    shared = propagate_lattice(lattice, changes, shared_options)
    for name, delta in legacy.items():
        if delta.table.rows() != shared[name].table.rows():
            raise AssertionError(f"shared-scan delta differs for {name!r}")

    with measuring() as measured:
        propagate_lattice(lattice, changes, legacy_options)
    legacy_units = _access_units(measured.snapshot().as_dict())
    with measuring() as measured:
        propagate_lattice(lattice, changes, shared_options)
    shared_units = _access_units(measured.snapshot().as_dict())

    legacy_s = _best_of(
        lambda: propagate_lattice(lattice, changes, legacy_options), repeats
    )
    shared_s = _best_of(
        lambda: propagate_lattice(lattice, changes, shared_options), repeats
    )
    groups = [list(group) for group in lattice.sibling_groups()]
    return {
        "pos_rows": pos_rows,
        "change_size": change_size,
        "repeats": repeats,
        "sibling_groups": groups,
        "scans_saved": sum(len(group) - 1 for group in groups),
        "legacy_propagate_s": round(legacy_s, 6),
        "shared_propagate_s": round(shared_s, 6),
        "speedup_shared_scan": round(legacy_s / shared_s, 3),
        "legacy_access_units": legacy_units,
        "shared_access_units": shared_units,
        "access_units_saved": legacy_units - shared_units,
    }


def run_columnar(
    pos_rows: int = 50_000, change_size: int = 5_000, repeats: int = DEFAULT_REPEATS
) -> dict:
    """Time lattice propagate with row-store vs columnar table storage.

    The whole workload (fact, dimensions, views, change set) is rebuilt
    under each ``REPRO_COLUMNAR`` setting, because a table's storage is
    fixed at construction.  Both modes must produce equivalent deltas and
    identical access-unit totals for propagate (the batch operators charge
    exactly what the row paths charge); the speedup comes from batch table
    construction and column-wise operators replacing per-row tuple
    materialisation.  Refresh access units are measured too — the batched
    Figure 7 apply path must stay no worse than the indexed row path.
    """

    def with_mode(flag: str | None):
        prior = os.environ.get("REPRO_COLUMNAR")
        if flag is None:
            os.environ.pop("REPRO_COLUMNAR", None)
        else:
            os.environ["REPRO_COLUMNAR"] = flag

        def restore() -> None:
            if prior is None:
                os.environ.pop("REPRO_COLUMNAR", None)
            else:
                os.environ["REPRO_COLUMNAR"] = prior

        return restore

    modes: dict[str, dict] = {}
    delta_snapshots: dict[str, dict[str, list]] = {}
    for mode, flag in (("row", "0"), ("columnar", "1")):
        restore = with_mode(flag)
        try:
            data = generate_retail(RetailConfig(pos_rows=pos_rows, seed=1997))
            views = [
                MaterializedView.build(definition)
                for definition in retail_view_definitions(data.pos)
            ]
            changes = update_generating_changes(
                data.pos, data.config, change_size, data.rng
            )
            lattice = build_lattice_for_views(views)
            options = PropagateOptions()

            deltas = propagate_lattice(lattice, changes, options)
            delta_snapshots[mode] = {
                name: delta.table.sorted_rows()
                for name, delta in deltas.items()
            }
            with measuring() as measured:
                propagate_lattice(lattice, changes, options)
            propagate_units = _access_units(measured.snapshot().as_dict())
            propagate_s = _best_of(
                lambda: propagate_lattice(lattice, changes, options), repeats
            )

            # Refresh: apply base changes first (the paper's assumption),
            # then measure the Figure 7 apply path once per mode.
            changes.apply_to(data.pos.table)
            with measuring() as measured:
                refresh_lattice(
                    {view.name: view for view in views}, deltas
                )
            refresh_units = _access_units(measured.snapshot().as_dict())
        finally:
            restore()
        modes[mode] = {
            "propagate_s": propagate_s,
            "propagate_access_units": propagate_units,
            "refresh_access_units": refresh_units,
        }

    for name, rows_of_view in delta_snapshots["row"].items():
        if not _rows_equivalent(rows_of_view, delta_snapshots["columnar"][name]):
            raise AssertionError(f"columnar delta differs for {name!r}")

    row, columnar = modes["row"], modes["columnar"]
    return {
        "pos_rows": pos_rows,
        "change_size": change_size,
        "repeats": repeats,
        "row_propagate_s": round(row["propagate_s"], 6),
        "columnar_propagate_s": round(columnar["propagate_s"], 6),
        "speedup_columnar": round(
            row["propagate_s"] / columnar["propagate_s"], 3
        ),
        "row_access_units": row["propagate_access_units"],
        "columnar_access_units": columnar["propagate_access_units"],
        "row_refresh_access_units": row["refresh_access_units"],
        "columnar_refresh_access_units": columnar["refresh_access_units"],
    }


def run_refresh_index(
    pos_scales: Sequence[int] = (4_000, 16_000), change_size: int = 400
) -> dict:
    """Show refresh locates groups in O(|summary-delta|) tuple accesses with
    the group-key index and O(|summary table|) without it.

    The same fixed-size change set is refreshed into warehouses of growing
    scale, once per locator mode (``REPRO_REFRESH_INDEX`` 1/0).  Only the
    SUM/COUNT retail views participate: MIN/MAX views can trigger base-data
    recomputation, whose O(|fact|) scans would drown the lookup cost being
    measured in both modes.  Under the index the access total tracks the
    (flat) delta size; the scan fallback grows with the summary tables.
    Final summary tables must be identical across modes, and the refresh
    must leave every group-key index exact (``Table.verify_indexes``).
    """
    scales: list[dict] = []
    definitions: list = []
    for pos_rows in pos_scales:
        data = generate_retail(RetailConfig(pos_rows=pos_rows, seed=7))
        definitions = [
            definition for definition in retail_view_definitions(data.pos)
            if all(
                output.function.kind not in ("min", "max")
                for output in definition.aggregates
            )
        ]
        changes = update_generating_changes(
            data.pos, data.config, change_size, data.rng
        )
        entry: dict = {"pos_rows": pos_rows}
        finals: dict[str, dict] = {}
        for mode, flag in (("indexed", "1"), ("scan", "0")):
            prior = os.environ.get("REPRO_REFRESH_INDEX")
            os.environ["REPRO_REFRESH_INDEX"] = flag
            try:
                views = [MaterializedView.build(d) for d in definitions]
                deltas = [
                    compute_summary_delta(view.definition, changes)
                    for view in views
                ]
                with measuring() as measured:
                    for view, delta in zip(views, deltas):
                        refresh(view, delta)
                units = _access_units(measured.snapshot().as_dict())
            finally:
                if prior is None:
                    os.environ.pop("REPRO_REFRESH_INDEX", None)
                else:
                    os.environ["REPRO_REFRESH_INDEX"] = prior
            finals[mode] = {
                view.definition.name: view.table.sorted_rows() for view in views
            }
            entry[f"{mode}_access_units"] = units
            if mode == "indexed":
                entry["summary_rows"] = sum(len(view.table) for view in views)
                entry["delta_rows"] = sum(len(delta.table) for delta in deltas)
                if not all(view.table.verify_indexes() for view in views):
                    raise AssertionError(
                        "refresh left a group-key index inconsistent"
                    )
        if finals["indexed"] != finals["scan"]:
            raise AssertionError("refresh modes disagree on final summary tables")
        scales.append(entry)

    first, last = scales[0], scales[-1]

    def growth(key: str) -> float | None:
        return round(last[key] / first[key], 3) if first[key] else None

    return {
        "change_size": change_size,
        "views": [definition.name for definition in definitions],
        "scales": scales,
        "summary_rows_growth": growth("summary_rows"),
        "indexed_access_growth": growth("indexed_access_units"),
        "scan_access_growth": growth("scan_access_units"),
    }


def run_trace_overhead(
    rows: int = DEFAULT_ROWS, repeats: int = DEFAULT_REPEATS
) -> dict:
    """Measure the cost of the observability layer on the propagate hot loop.

    Times the compiled ``group_by`` micro-workload untraced and again under
    an active :class:`~repro.obs.tracing.TraceRecorder`, in one process.
    Instrumentation fires per *operation*, never per row, so the traced run
    should stay within a few percent of the untraced one; the ISSUE budget
    is <3% at 200k rows, and the CI smoke fails above 5%.

    Under ``REPRO_TRACE=0`` the kill-switch makes the "traced" run a no-op
    recorder, so the measured overhead is of the disabled fast path itself.
    """
    table = build_pos_shaped_table(rows)
    specs = delta_style_specs()
    keys = list(MICRO_KEYS)
    ambient = tracing.enabled()
    # Keep each timed sample around 100ms of folded work so small --rows
    # settings (the --quick smoke) don't shrink samples into the
    # scheduler-noise floor.
    calls_per_sample = max(1, min(50, 200_000 // max(rows, 1)))

    def untraced() -> None:
        for _ in range(calls_per_sample):
            group_by(table, keys, specs, compiled=True)

    def traced() -> None:
        with tracing.trace():
            for _ in range(calls_per_sample):
                group_by(table, keys, specs, compiled=True)

    # The per-call overhead (one span + a handful of counter adds) is far
    # below single-sample timing noise on a shared box, so layer three
    # noise filters: each side of a pair is the best of `repeats` runs
    # (drops per-call scheduler bursts), adjacent pairs alternate which
    # mode goes first and are compared as ratios (cancels CPU-frequency
    # drift and ordering bias), and the verdict is the median round-median
    # (a sustained throughput shift during one round cannot swing it).
    untraced()
    traced()
    rounds = 3
    pairs_per_round = 6
    best_of = max(repeats, 3)
    untraced_best = float("inf")
    traced_best = float("inf")
    round_medians: list[float] = []
    for _ in range(rounds):
        ratios: list[float] = []
        for index in range(pairs_per_round):
            if index % 2 == 0:
                u = _best_of(untraced, best_of)
                t = _best_of(traced, best_of)
            else:
                t = _best_of(traced, best_of)
                u = _best_of(untraced, best_of)
            untraced_best = min(untraced_best, u)
            traced_best = min(traced_best, t)
            ratios.append(t / u if u > 0 else 1.0)
        ratios.sort()
        round_medians.append(ratios[len(ratios) // 2])
    round_medians.sort()
    overhead = round_medians[len(round_medians) // 2] - 1.0
    # Report per-call times so the numbers stay comparable to run_micro.
    untraced_s = untraced_best / calls_per_sample
    traced_s = traced_best / calls_per_sample
    return {
        "rows": rows,
        "repeats": repeats,
        "ambient_recorder": ambient,
        "kill_switch": tracing.trace_kill_switch(),
        "untraced_s": round(untraced_s, 6),
        "traced_s": round(traced_s, 6),
        "overhead_pct": round(overhead * 100.0, 2),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.propagate_bench",
        description="propagate-engine micro-benchmark",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke-test scale (20k rows, 1 repeat) for CI",
    )
    parser.add_argument("--rows", type=int, default=None, help="input rows")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--output", default=None,
        help="JSON path (default: BENCH_propagate.json at the repo root)",
    )
    parser.add_argument(
        "--trace-threshold", type=float, default=None, metavar="PCT",
        help="fail (exit 1) if tracing overhead exceeds PCT percent",
    )
    args = parser.parse_args(argv)

    rows = args.rows or (20_000 if args.quick else DEFAULT_ROWS)
    repeats = args.repeats or (1 if args.quick else DEFAULT_REPEATS)

    micro = run_micro(rows=rows, repeats=repeats)
    print(
        f"group_by over {micro['rows']:,} rows -> {micro['groups']:,} groups: "
        f"serial {micro['serial_group_by_s']:.3f}s, "
        f"compiled {micro['compiled_group_by_s']:.3f}s "
        f"({micro['speedup_compiled']:.2f}x)"
    )

    shared = run_shared_scan(
        pos_rows=max(rows // 4, 2_000),
        change_size=max(rows // 40, 500),
        repeats=repeats,
    )
    print(
        f"shared-scan propagate over {shared['pos_rows']:,} pos rows, "
        f"{shared['change_size']:,} changes: "
        f"legacy {shared['legacy_propagate_s']:.3f}s, "
        f"shared {shared['shared_propagate_s']:.3f}s "
        f"({shared['speedup_shared_scan']:.2f}x, "
        f"{shared['scans_saved']} scans saved, "
        f"{shared['legacy_access_units']:,} -> "
        f"{shared['shared_access_units']:,} access units)"
    )

    columnar = run_columnar(
        pos_rows=max(rows // 4, 2_000),
        change_size=max(rows // 40, 500),
        repeats=repeats,
    )
    print(
        f"columnar propagate over {columnar['pos_rows']:,} pos rows, "
        f"{columnar['change_size']:,} changes: "
        f"row {columnar['row_propagate_s']:.3f}s, "
        f"columnar {columnar['columnar_propagate_s']:.3f}s "
        f"({columnar['speedup_columnar']:.2f}x; refresh accesses "
        f"{columnar['row_refresh_access_units']:,} -> "
        f"{columnar['columnar_refresh_access_units']:,})"
    )

    refresh_index = run_refresh_index(
        pos_scales=(2_000, 8_000) if args.quick else (4_000, 16_000),
        change_size=200 if args.quick else 400,
    )
    low, high = refresh_index["scales"][0], refresh_index["scales"][-1]
    print(
        f"refresh locator over {low['pos_rows']:,}->{high['pos_rows']:,} pos "
        f"rows ({refresh_index['change_size']:,} changes): summary rows "
        f"x{refresh_index['summary_rows_growth']}, indexed accesses "
        f"x{refresh_index['indexed_access_growth']}, scan accesses "
        f"x{refresh_index['scan_access_growth']}"
    )

    overhead = run_trace_overhead(rows=rows, repeats=repeats)
    print(
        f"tracing overhead on compiled group_by ({overhead['rows']:,} rows): "
        f"untraced {overhead['untraced_s']:.3f}s, "
        f"traced {overhead['traced_s']:.3f}s "
        f"({overhead['overhead_pct']:+.2f}%)"
    )

    path = write_bench_json("micro", micro, args.output)
    write_bench_json("shared_scan", shared, args.output)
    write_bench_json("columnar", columnar, args.output)
    write_bench_json("refresh_index", refresh_index, args.output)
    write_bench_json("trace_overhead", overhead, args.output)
    print(f"results merged into {path}")

    if (
        args.trace_threshold is not None
        and overhead["overhead_pct"] > args.trace_threshold
    ):
        print(
            f"FAIL: tracing overhead {overhead['overhead_pct']:.2f}% exceeds "
            f"the {args.trace_threshold:.2f}% threshold"
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
