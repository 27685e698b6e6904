"""One run of one workload: set up, drive cycles and queries, check, report.

A *cycle* stages the day's changes in micro-batches, runs
``maintain_lattice`` over the pending change set and discards it.  An
untraced run calls the program exactly as a user would and times whole
cycles; a traced run alternates those with cycles driven *stepwise*
through the public functions ``maintain_lattice`` itself calls, with one
of the benchmark's spans around each step, so the per-layer times come
with the cost of taking them (``trace_overhead_pct``) measured in the
same process.

Timed regions contain only calls into the program.  Inputs are generated
before them and answers are checked after them.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import api
from inputs import (
    Domain,
    FactModel,
    answer_total,
    cycle_rng,
    evaluate,
    fact_rows,
    item_rows,
    micro_batches,
    store_rows,
)
from openloop import Timing, run_open_loop
from percentiles import lower_quartile, median, nearest_rank, summary
from spans import Tracer
from workloads import BASE_FALLBACK_QUERY, LATENCY_LIMIT_MS, Workload

#: A run sets up as many warehouses as come to this many fact rows, three
#: at most: one sample of a 1 s set-up follows the machine's mood, and a
#: 7 s set-up cannot be repeated within the run's share of the driver's
#: hour.
SETUP_ROWS = 500_000
#: Batteries timed after each cycle: the first right after the publish,
#: the others after dropping the server's cached answers.
BATTERY_REPEATS = 3
#: Views at most this large count as "small" sources of a battery answer.
SMALL_VIEW_ROWS = 2_000
#: Spans directly under a cycle must account for it to within this share.
COVERAGE_TOLERANCE = 0.02
#: A stepwise cycle this much slower (or faster) than a whole one flags
#: the run's per-layer numbers.
OVERHEAD_TOLERANCE_PCT = 5.0

perf = time.perf_counter


@dataclass
class Outcome:
    """What one run measured and found."""

    metrics: dict[str, float]
    #: Per metric, what its value is made of (sample count, quartiles).
    notes: dict[str, str]
    #: Counts and context printed under the metrics, never compared.
    info: dict[str, object]
    attempted: int
    failed: int
    problems: list[str]
    #: Cycles applied when the view digests were taken, and the digests.
    digest_cycles: int
    digests: dict[str, str]
    tracer: Tracer | None

    @property
    def correct(self) -> bool:
        return not self.problems


def digest(rows) -> str:
    """The benchmark's own fingerprint of a table: its rows, sorted."""
    sha = hashlib.sha256()
    for row in sorted(rows):
        sha.update(repr(row).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def collect_garbage() -> None:
    """Run a full collection before a timed cycle or battery.  The cyclic
    collector starts a full pass after a fixed number of allocations, and
    one pass over a 500k-row warehouse takes as long as the slowest
    answer: without this, whether a pass lands inside a 20 ms battery
    depends on how many objects the cycle before it happened to allocate,
    and a change that allocates one object more moves the metric by 3x."""
    gc.collect()


def spread(samples: list[float]) -> str:
    s = summary(samples)
    return f"n={s['n']} p25={s['p25']:.4g} p75={s['p75']:.4g}"


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if traced else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cycle_index = 0
        #: SUM(qty) of the fact table after cycle k (index 0: as loaded).
        self.totals: list[int] = []
        self.cycle_layers: list[dict[str, float]] = []   # per stepwise cycle
        self.query_layers: list[dict[str, float]] = []   # per stepwise battery
        self.retained_max = 0

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    def generate(self) -> float:
        start = perf()
        domain = Domain()
        rng = random.Random(f"{self.seed}/{self.workload.name}/load")
        self.stores = store_rows(domain)
        self.items = item_rows(domain, rng)
        self.model = FactModel(
            domain, fact_rows(domain, self.workload.pos_rows, rng)
        )
        self.totals.append(self.model.sum_qty)
        return perf() - start

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def set_up_repeatedly(self) -> list[float]:
        """Set up, then drop the warehouse and set up again; the last one
        built is the one the run drives.  A traced run sets up once: its
        spans are of that one set-up."""
        repeats = 1 if self.tracer else max(
            1, min(3, SETUP_ROWS // max(1, self.workload.pos_rows))
        )
        times = [self.set_up()]
        while len(times) < repeats:
            self.engine.close()
            del self.engine, self.queries
            gc.collect()
            times.append(self.set_up())
        return times

    def set_up(self) -> float:
        """From the first constructor to a warehouse that answers queries;
        all of the time is inside the program."""
        gc.collect()
        start = perf()
        with self.span("warehouse.fact.load"):
            engine = api.Engine(self.stores, self.items, self.model.live)
        with self.span("warehouse.catalog.define_views"):
            for spec in self.workload.views:
                engine.define_view(spec)
        engine.start_server()
        elapsed = perf() - start
        self.engine = engine
        self.queries = [engine.query(spec) for spec in self.workload.battery]
        return elapsed

    # ------------------------------------------------------------------
    # Cycles
    # ------------------------------------------------------------------

    def next_changes(self) -> list:
        """Generate the next cycle's change rows (outside any timed
        region) and note the fact total they lead to."""
        self.cycle_index += 1
        rng = cycle_rng(self.seed, self.workload.name, self.cycle_index)
        make = (
            self.model.update_generating
            if self.workload.change_kind == "update"
            else self.model.insertion_generating
        )
        inserts, deletes = make(rng, self.workload.changes_per_cycle)
        self.totals.append(self.model.sum_qty)
        return micro_batches(inserts, deletes)

    def cycle(self, batches: list) -> float:
        """One cycle as a user runs it; seconds from the first staging
        call to ``maintain_lattice`` returning."""
        engine = self.engine
        start = perf()
        for inserts, deletes in batches:
            engine.stage(inserts, deletes)
        engine.maintain()
        elapsed = perf() - start
        engine.discard()
        self.attempted += 1
        return elapsed

    def stepwise_cycle(self, batches: list, probes: bool = True) -> float:
        """The same cycle in the steps ``maintain_lattice`` takes, a span
        around each; then the probes, unless readers would feel them."""
        engine, tracer = self.engine, self.tracer
        tracer.cycle = at = self.cycle_index
        marks = engine.manifest_marks()
        counts = []
        refresh_units = 0
        with tracer.span("cycle") as cycle:
            with tracer.span("warehouse.changes.stage"):
                for inserts, deletes in batches:
                    engine.stage(inserts, deletes)
            with tracer.span("lattice.plan.build_lattice"):
                lattice = engine.build_lattice()
            with tracer.span("lattice.plan.propagate"), api.measuring() as units:
                deltas = engine.propagate(lattice)
            propagate_units = units.total_accesses
            with tracer.span("warehouse.changes.apply_base"):
                engine.apply_base()
            for view in engine.views:
                with tracer.span("core.refresh.refresh", detail=view.name), \
                        api.measuring() as units:
                    counts.append(engine.refresh(
                        view, deltas[view.name], self.timed_recompute
                    ))
                refresh_units += units.total_accesses
        self.attempted += 1
        change_rows = engine.pending_size()
        copied = self.probe(lattice) if probes else 0
        manifest_batches = engine.manifest_batches_since(marks)
        engine.discard()
        tracer.cycle = None

        sizes = engine.view_sizes()
        top_view = max(sizes, key=sizes.get)
        delta_rows = sum(count[0] for count in counts)
        seconds = tracer.seconds
        layer = {
            "cycle_s": cycle.seconds,
            "coverage": tracer.coverage(cycle),
            "warehouse.changes.stage_s": seconds("warehouse.changes.stage", at),
            "warehouse.changes.rows": change_rows,
            "warehouse.changes.batches": len(batches),
            "lattice.plan.build_lattice_s": seconds("lattice.plan.build_lattice", at),
            "lattice.plan.propagate_s": seconds("lattice.plan.propagate", at),
            "lattice.plan.delta_rows": delta_rows,
            "relational.stats.propagate_access_units": propagate_units,
            "warehouse.changes.apply_base_s": seconds("warehouse.changes.apply_base", at),
            "core.refresh.refresh_s": seconds("core.refresh.refresh", at),
            "core.refresh.refresh_top_view_s": seconds("core.refresh.refresh", at, top_view),
            "core.refresh.inserted": sum(count[1] for count in counts),
            "core.refresh.updated": sum(count[2] for count in counts),
            "core.refresh.deleted": sum(count[3] for count in counts),
            "relational.stats.refresh_access_units": refresh_units,
            "core.recompute.recompute_s": seconds("core.recompute.recompute", at),
            "core.recompute.groups": sum(count[4] for count in counts),
            "obs.lineage.manifest_batches": manifest_batches,
        }
        if probes:
            copy_s = seconds("views.materialize.begin_version", at)
            certificate_s = seconds("obs.audit.rows_certificate", at)
            layer.update({
                "core.propagate.root_delta_s": seconds("core.propagate.root_delta", at),
                "views.materialize.begin_version_s": copy_s,
                "views.materialize.copied_rows": copied,
                "views.materialize.copy_amplification":
                    copied / delta_rows if delta_rows else 0.0,
                "obs.audit.rows_certificate_s": certificate_s,
                "core.refresh.apply_est_s":
                    layer["core.refresh.refresh_s"] - copy_s - certificate_s
                    - layer["core.recompute.recompute_s"],
            })
        self.cycle_layers.append(layer)
        self.retained_max = max(
            [self.retained_max]
            + [retained for _current, retained in engine.epoch_stats().values()]
        )
        return cycle.seconds

    def timed_recompute(self, recompute):
        def timed(keys):
            with self.tracer.span("core.recompute.recompute"):
                return recompute(keys)
        return timed

    def probe(self, lattice) -> int:
        """Cost what the cycle does inside one call by repeating the call
        on the same data: each root's delta straight from the change set,
        the copy into a shadow version, the digest of every row that
        publishing validates.  Returns the rows copied."""
        engine, tracer = self.engine, self.tracer
        with tracer.span("core.propagate.root_delta", probe=True):
            engine.probe_root_deltas(lattice)
        copied = 0
        for view in engine.views:
            with tracer.span("views.materialize.begin_version", probe=True):
                copied += engine.probe_begin_version(view)
            with tracer.span("obs.audit.rows_certificate", probe=True):
                engine.probe_certificate(view)
        return copied

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def battery(self) -> dict[str, float]:
        """The five-query battery through the server, right after a cycle,
        when the publish has made every cached answer stale; then again
        with the cache dropped, so that every battery is computed from the
        views.  One battery in five takes half as long again (a neighbour
        on the machine, a collection of the young generations), so a
        cycle's value is the median of its batteries: their total and
        their median answer, in milliseconds."""
        collect_garbage()
        batteries = []
        for repeat in range(BATTERY_REPEATS):
            if repeat:
                self.engine.clear_cache()
            times, answers = [], []
            for query in self.queries:
                start = perf()
                answers.append(self.engine.serve(query))
                times.append(perf() - start)
            self.check_battery(times, answers)
            batteries.append(times)
        return {
            "first_query_ms": median([sum(times) for times in batteries]) * 1e3,
            "query_ms_p50": median([median(times) for times in batteries]) * 1e3,
        }

    def stepwise_battery(self) -> None:
        """The battery step by step through the router, then through the
        server twice: misses, then hits."""
        engine, tracer = self.engine, self.tracer
        collect_garbage()
        sizes = engine.view_sizes()
        top_view = max(sizes, key=sizes.get)
        layer = {"plan": 0.0, "small": 0.0, "rollup": 0.0, "other": 0.0}
        for query in self.queries:
            with tracer.span("query.router.plan") as span:
                plan = engine.plan(query)
            layer["plan"] += span.seconds
            source, rows = api.plan_source(plan)
            if source == top_view:
                kind = "rollup"
            elif rows <= SMALL_VIEW_ROWS:
                kind = "small"
            else:
                kind = "other"
            with tracer.span("query.router.eval", detail=kind) as span:
                engine.answer_plan(plan)
            layer[kind] += span.seconds
        for name in ("miss", "hit"):
            times, answers = [], []
            for query in self.queries:
                with tracer.span(f"serve.server.answer_{name}") as span:
                    answers.append(engine.serve(query))
                times.append(span.seconds)
            self.check_battery(times, answers)
            layer[name] = times
        self.query_layers.append(layer)

    def check_battery(self, times: list[float], answers: list) -> None:
        """Each answer's SUM(qty) must be the fact table's after the cycle
        just published, and each answer must come within the limit."""
        for spec, seconds, answer in zip(self.workload.battery, times, answers):
            self.attempted += 1
            total = answer_total(spec, api.result_rows(answer))
            if total != self.totals[-1]:
                self.fail(
                    f"cycle {self.cycle_index}: answer grouped by "
                    f"{spec.group_by} totals {total}, fact table has "
                    f"{self.totals[-1]}"
                )
            elif seconds * 1e3 > LATENCY_LIMIT_MS:
                self.failed += 1

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    # ------------------------------------------------------------------
    # Measured phases
    # ------------------------------------------------------------------

    def measure_batch(self) -> dict[str, list[float]]:
        """Batch-window workloads: cycles back to back, a first-query
        battery after each.  A traced run times pairs of one whole and one
        stepwise cycle, swapping the order every pair."""
        samples: dict[str, list[float]] = {
            "cycle_s": [], "stepwise_cycle_s": [], "first_query_ms": [],
            "query_ms_p50": [],
        }
        cycles = self.workload.timed_cycles(self.seconds)
        plan = [False] * cycles
        if self.tracer:
            plan = [
                step for pair in range(max(3, (cycles + 1) // 2))
                for step in ((False, True) if pair % 2 == 0 else (True, False))
            ]
        for stepwise in plan:
            batches = self.next_changes()
            collect_garbage()
            if stepwise:
                samples["stepwise_cycle_s"].append(self.stepwise_cycle(batches))
                self.stepwise_battery()
            else:
                samples["cycle_s"].append(self.cycle(batches))
                for name, value in self.battery().items():
                    samples[name].append(value)
        return samples

    def measure_serving(self) -> dict[str, list]:
        """Two threads: this one maintains in a closed loop, the other
        issues the battery round-robin on a fixed schedule."""
        engine, queries = self.engine, self.queries
        rate = self.workload.serve_rate
        count = max(len(queries), self.workload.served_queries(self.seconds))
        answers: list = []
        timings: list[Timing] = []
        done = threading.Event()

        def issue(index: int) -> None:
            try:
                answers.append(engine.serve(queries[index % len(queries)]))
            except Exception as failure:   # counted as a failed query
                answers.append(failure)

        def reader() -> None:
            try:
                timings.extend(run_open_loop(count, rate, issue))
            finally:
                done.set()

        thread = threading.Thread(target=reader, name="open-loop-reader")
        samples: dict[str, list] = {"cycle_s": [], "stepwise_cycle_s": []}
        thread.start()
        try:
            while not done.is_set():
                batches = self.next_changes()
                if self.tracer and self.cycle_index % 2:
                    last = samples["stepwise_cycle_s"]
                    last.append(self.stepwise_cycle(batches, probes=False))
                else:
                    last = samples["cycle_s"]
                    last.append(self.cycle(batches))
        finally:
            thread.join()
        # The cycle running when the reader finished was served in part.
        if len(last) > 1:
            last.pop()
        samples.update(self.check_served(timings, answers))
        return samples

    def check_served(self, timings: list[Timing], answers: list) -> dict:
        """Every served answer must total the fact table at some published
        epoch, and per query the epochs must never go backwards."""
        specs = self.workload.battery
        epoch_of_query = [0] * len(specs)
        total_of: dict[int, int] = {}
        miss_service_ms: list[list[float]] = [[] for _ in specs]
        for index, (timing, answer) in enumerate(zip(timings, answers)):
            self.attempted += 1
            which = index % len(specs)
            if isinstance(answer, Exception):
                self.fail(f"served query {index} raised {answer!r}")
                continue
            if id(answer) not in total_of:
                # A table not handed out before was computed for this
                # query: a cache miss.  ``answers`` keeps every table
                # alive, so an id is never reused.
                total_of[id(answer)] = answer_total(
                    specs[which], api.result_rows(answer)
                )
                miss_service_ms[which].append(timing.service * 1e3)
            total = total_of[id(answer)]
            epoch = epoch_of_query[which]
            while epoch < len(self.totals) and self.totals[epoch] != total:
                epoch += 1
            if epoch == len(self.totals):
                self.fail(
                    f"served query {index} totals {total}: no published "
                    f"epoch from {epoch_of_query[which]} on has it"
                )
                continue
            epoch_of_query[which] = epoch
            if timing.latency * 1e3 > LATENCY_LIMIT_MS:
                self.failed += 1
        return {
            "query_ms": [timing.latency * 1e3 for timing in timings],
            "wait_ms": [timing.wait * 1e3 for timing in timings],
            "service_ms": [timing.service * 1e3 for timing in timings],
            "miss_service_ms": miss_service_ms,
        }

    # ------------------------------------------------------------------
    # Checks after the measured phase
    # ------------------------------------------------------------------

    def verify(self) -> None:
        """``verify_certificates`` recomputes every view from the fact
        table and compares row digests, stored, recomputed and maintained;
        ``verify_views`` recomputes them once more to compare the rows
        themselves, which at 500k rows takes as long as two cycles.  The
        traced runs do both, the untraced ones spend that time on cycles."""
        engine = self.engine
        checks = {"verify_certificates": engine.verify_certificates()}
        if self.tracer:
            checks["verify_views"] = engine.verify_views()
        for check, verdicts in checks.items():
            for view, consistent in verdicts.items():
                if not consistent:
                    self.fail(f"{check}: {view} is inconsistent")
        expected = evaluate(
            self.workload.battery, self.model.live, self.stores, self.items
        )
        for spec, query, rows in zip(self.workload.battery, self.queries, expected):
            self.attempted += 1
            if sorted(api.result_rows(engine.serve(query))) != rows:
                self.fail(
                    f"final answer grouped by {spec.group_by} differs from "
                    "the same query evaluated from the benchmark's own rows"
                )

    def digests(self) -> dict[str, str]:
        return {
            view.name: digest(self.engine.view_rows(view))
            for view in self.engine.views
        }

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------

    def execute(self) -> Outcome:
        generate_s = self.generate()
        setup_times = self.set_up_repeatedly()
        try:
            return self.measure(generate_s, setup_times)
        finally:
            self.engine.close()

    def measure(self, generate_s: float, setup_times: list[float]) -> Outcome:
        serving = bool(self.workload.serve_rate)
        # Warm-up: the first cycle and battery compile kernels and build
        # the lazily created indexes.
        self.cycle(self.next_changes())
        self.battery()
        if serving:
            # The number of cycles served depends on the machine; the
            # state after the warm-up cycle does not.
            digests, digest_cycles = self.digests(), self.cycle_index
            samples = self.measure_serving()
        else:
            samples = self.measure_batch()
        rss = peak_rss_mb()
        if self.tracer:
            self.after_traced_phase(serving)
        self.verify()
        if not serving:
            digests, digest_cycles = self.digests(), self.cycle_index

        info: dict[str, object] = {
            "generate_s": round(generate_s, 3),
            "cycles": self.cycle_index,
            "view_rows": self.engine.view_sizes(),
            "server": self.engine.server_stats(),
        }
        if self.tracer:
            metrics, notes = self.layer_metrics(samples, serving)
        else:
            metrics, notes = self.end_to_end_metrics(
                samples, serving, setup_times, rss
            )
        if serving:
            info["generator_late_ms"] = spread(samples["wait_ms"])
            # Printed, and per-layer metrics of traced runs, but not
            # end-to-end ones: the stalled answers behind each publish set
            # the tail, and between runs of one commit it spreads past any
            # bound a metric may have.
            info["query_ms_p95"] = round(nearest_rank(samples["query_ms"], 0.95), 3)
            info["query_ms_p99"] = round(nearest_rank(samples["query_ms"], 0.99), 3)
            info["slowest_query_ms"] = round(max(samples["query_ms"]), 3)
        return Outcome(
            metrics, notes, info, self.attempted, self.failed, self.problems,
            digest_cycles, digests, self.tracer,
        )

    def after_traced_phase(self, serving: bool) -> None:
        """What a traced run costs once, with no reader to disturb: the
        probes and the stepwise battery of a serving workload, and one
        answer from the fact table on every workload."""
        engine, tracer = self.engine, self.tracer
        if serving:
            # One more stepwise cycle, now with the probes; of its numbers
            # only the probes' are kept, the rest were taken under load.
            self.stepwise_cycle(self.next_changes())
            quiesced = self.cycle_layers.pop()
            served = self.cycle_layers[-1]
            served.update(
                {name: value for name, value in quiesced.items()
                 if name not in served}
            )
            self.stepwise_battery()
        with tracer.span("query.router.eval", detail="base"):
            engine.answer_plan(engine.plan(engine.query(BASE_FALLBACK_QUERY)))

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def end_to_end_metrics(self, samples, serving, setup_times, rss):
        """Timings a run has several samples of are reported as their
        lower quartile (see ``percentiles.lower_quartile``)."""
        metrics = {
            "setup_s": lower_quartile(setup_times),
            "cycle_s": lower_quartile(samples["cycle_s"]),
            "peak_rss_mb": rss,
        }
        notes = {
            "setup_s": "lower quartile, " + spread(setup_times),
            "cycle_s": "lower quartile, " + spread(samples["cycle_s"]),
        }
        if serving:
            # The wait behind earlier answers is left out: which of the
            # five queries comes first after a publish, and so which of
            # them queue behind the roll-up, changes from cycle to cycle.
            misses = [ms for ms in samples["miss_service_ms"] if ms]
            metrics["first_query_ms"] = sum(median(ms) for ms in misses)
            metrics["query_ms_p50"] = nearest_rank(samples["query_ms"], 0.50)
            notes["first_query_ms"] = (
                "sum over the battery of each query's median miss service "
                f"time, n={[len(ms) for ms in samples['miss_service_ms']]}"
            )
            notes["query_ms_p50"] = (
                f"open loop, from due time, n={len(samples['query_ms'])}"
            )
        else:
            for name in ("first_query_ms", "query_ms_p50"):
                metrics[name] = lower_quartile(samples[name])
                notes[name] = "lower quartile over cycles, " + spread(samples[name])
            notes["query_ms_p50"] += " (median answer of a battery)"
        return metrics, notes

    def layer_metrics(self, samples, serving):
        tracer = self.tracer
        metrics: dict[str, float] = {}
        notes: dict[str, str] = {}

        def once(name: str, detail: str | None = None) -> float:
            return sum(
                span.seconds for span in tracer.spans
                if span.name == name and span.cycle is None
                and (detail is None or span.detail == detail)
            )

        metrics["warehouse.fact.load_s"] = once("warehouse.fact.load")
        metrics["warehouse.catalog.define_views_s"] = once(
            "warehouse.catalog.define_views"
        )
        names = {name for layer in self.cycle_layers for name in layer}
        for name in sorted(names - {"cycle_s", "coverage"}):
            values = [layer[name] for layer in self.cycle_layers if name in layer]
            metrics[name] = median(values)
            notes[name] = spread(values)

        batteries = self.query_layers
        metrics["query.router.plan_s"] = median([b["plan"] for b in batteries])
        metrics["query.router.eval_small_s"] = median([b["small"] for b in batteries])
        metrics["query.router.eval_rollup_s"] = median([b["rollup"] for b in batteries])
        metrics["query.router.eval_base_s"] = once("query.router.eval", "base")
        hits = [seconds for b in batteries for seconds in b["hit"]]
        metrics["serve.server.answer_hit_s"] = median(hits)
        notes["serve.server.answer_hit_s"] = spread(hits)
        if serving:
            wait_ms, service_ms = samples["wait_ms"], samples["service_ms"]
            miss_service_ms = [
                ms for per_query in samples["miss_service_ms"] for ms in per_query
            ]
            query_ms = samples["query_ms"]
        else:
            # No reader beside maintenance: nothing waits, and the
            # service times are those of the stepwise batteries.
            wait_ms = [0.0]
            miss_service_ms = [s * 1e3 for b in batteries for s in b["miss"]]
            query_ms = service_ms = miss_service_ms + [s * 1e3 for s in hits]
        metrics["serve.server.query_ms_p95"] = nearest_rank(query_ms, 0.95)
        metrics["serve.server.query_ms_p99"] = nearest_rank(query_ms, 0.99)
        notes["serve.server.query_ms_p99"] = f"n={len(query_ms)}"
        for name, values in (("wait", wait_ms), ("service", service_ms)):
            metrics[f"serve.server.{name}_ms_p50"] = nearest_rank(values, 0.50)
            metrics[f"serve.server.{name}_ms_p99"] = nearest_rank(values, 0.99)
            notes[f"serve.server.{name}_ms_p99"] = f"n={len(values)}"
        metrics["serve.server.miss_service_ms_p50"] = median(miss_service_ms)
        notes["serve.server.miss_service_ms_p50"] = f"n={len(miss_service_ms)}"
        stats = self.engine.server_stats()
        probes = stats["cache_hits"] + stats["cache_misses"]
        metrics["serve.server.hit_rate"] = stats["cache_hits"] / probes
        epochs = self.engine.epoch_stats().values()
        metrics["views.materialize.epochs_published"] = max(
            current for current, _retained in epochs
        )
        metrics["views.materialize.epochs_retained_max"] = self.retained_max

        whole = median(samples["cycle_s"])
        stepwise = median(samples["stepwise_cycle_s"])
        metrics["trace.stepwise_cycle_s"] = stepwise
        notes["trace.stepwise_cycle_s"] = spread(samples["stepwise_cycle_s"])
        metrics["trace.whole_cycle_s"] = whole
        notes["trace.whole_cycle_s"] = spread(samples["cycle_s"])
        # Whole and stepwise cycles alternate, so each pair of neighbours
        # saw the same table sizes and the same mood of the machine.
        overhead = median([
            (step - base) / base * 100.0
            for base, step in zip(samples["cycle_s"], samples["stepwise_cycle_s"])
        ])
        metrics["trace_overhead_pct"] = overhead
        notes["trace_overhead_pct"] = "median over neighbouring pairs"
        if abs(overhead) > OVERHEAD_TOLERANCE_PCT:
            notes["trace_overhead_pct"] += (
                f"; FLAGGED: beyond {OVERHEAD_TOLERANCE_PCT}%, read the "
                "layer times of this run with care"
            )
        coverage = min(layer["coverage"] for layer in self.cycle_layers)
        metrics["trace.cycle_children_coverage"] = coverage
        if abs(1.0 - coverage) > COVERAGE_TOLERANCE:
            notes["trace.cycle_children_coverage"] = (
                f"FLAGGED: children miss their cycle by over "
                f"{COVERAGE_TOLERANCE:.0%}"
            )
        return metrics, notes
