"""The serving-telemetry acceptance battery.

Three properties, each scraped from a *live* embedded exporter rather
than read out of process state, because the exporter is the contract a
real deployment sees:

* with span recording forced off (``REPRO_TRACE=0``), ``/metrics`` still
  reports ``repro_serve_queries`` equal to every query submitted by the
  10k-query concurrency battery — serving metrics are unconditional;
* per-view staleness gauges move across a versioned publish;
* the epoch retention watermark follows pinned readers down and returns
  to the newest epoch once they let go.
"""

import gc
import json
import re
import threading
import urllib.request

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.serve import QueryServer

from .conftest import run_cycle
from .test_concurrent_serving import query_pool

TOTAL_QUERIES = 10_000
READERS = 8
PER_READER = TOTAL_QUERIES // READERS


@pytest.fixture(autouse=True)
def tracing_off_metrics_fresh(monkeypatch):
    """REPRO_TRACE=0 (spans forbidden) plus a private metrics registry:
    the acceptance criterion is that serving metrics record anyway."""
    monkeypatch.setenv("REPRO_TRACE", "0")
    previous_recorder = tracing.active_recorder()
    tracing.install_recorder(None)
    previous_registry = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    yield
    obs_metrics.set_registry(previous_registry)
    tracing.install_recorder(previous_recorder)


def scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.read().decode("utf-8")


def prom_samples(text: str) -> dict[str, float]:
    """Parse 0.0.4 text into ``{name_with_labels: value}``."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        samples[key] = float(value)
    return samples


def test_metrics_endpoint_counts_every_query_with_tracing_off(retail):
    data, warehouse = retail
    queries = query_pool(data.pos)
    errors: list[BaseException] = []
    barrier = threading.Barrier(READERS)

    with QueryServer(warehouse, max_workers=READERS,
                     expose_http=0) as server:
        assert not tracing.enabled(), "battery must run with spans off"

        def reader(seed: int) -> None:
            barrier.wait()
            try:
                for i in range(PER_READER):
                    server.answer(queries[(seed + i) % len(queries)])
            except BaseException as failure:
                errors.append(failure)

        workers = [
            threading.Thread(target=reader, args=(seed,), daemon=True)
            for seed in range(READERS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        body = scrape(server.exporter.url + "/metrics")

    samples = prom_samples(body)
    assert samples["repro_serve_queries"] == TOTAL_QUERIES
    by_source = sum(
        value for key, value in samples.items()
        if key.startswith("repro_serve_queries_by_source{")
    )
    assert by_source == TOTAL_QUERIES
    assert samples["repro_serve_latency_s_count"] == TOTAL_QUERIES
    # Sub-second latencies must land in real buckets, not all in +Inf's
    # catch-all — the custom bounds are doing their job.
    assert samples['repro_serve_latency_s_bucket{le="1.0"}'] == pytest.approx(
        TOTAL_QUERIES
    )
    assert samples['repro_serve_latency_s_bucket{le="+Inf"}'] == (
        samples["repro_serve_latency_s_count"]
    )
    # Every sample belongs to a family declared by a `# TYPE` line (a
    # histogram's `_bucket`/`_sum`/`_count` series to the histogram's).
    typed = {
        line.split()[2] for line in body.splitlines()
        if line.startswith("# TYPE ")
    }
    for key in samples:
        family = key.split("{", 1)[0]
        for suffix in ("_bucket", "_sum", "_count"):
            if family.endswith(suffix) and family[: -len(suffix)] in typed:
                family = family[: -len(suffix)]
        assert family in typed, f"sample without a TYPE line: {key}"
    hits = samples["repro_serve_cache_hits"]
    misses = samples["repro_serve_cache_misses"]
    assert hits + misses == TOTAL_QUERIES, (
        "every summary-routed query is a cache probe"
    )
    assert "repro_serve_base_fallbacks" not in samples or (
        samples["repro_serve_base_fallbacks"] == 0
    )


def test_staleness_gauges_move_across_a_publish(retail):
    data, warehouse = retail
    queries = query_pool(data.pos)
    with QueryServer(warehouse, max_workers=2, expose_http=0) as server:
        server.answer(queries[0])
        import time as _time
        _time.sleep(0.05)
        before = prom_samples(scrape(server.exporter.url + "/metrics"))
        run_cycle(data, warehouse)
        after = prom_samples(scrape(server.exporter.url + "/metrics"))

    view_names = [view.name for view in warehouse.views_over("pos")]
    for name in view_names:
        key = f'repro_serve_staleness_seconds{{view="{name}"}}'
        assert before[key] >= 0.05, (
            f"{name}: staleness must accumulate while no refresh runs"
        )
        assert after[key] < before[key], (
            f"{name}: a versioned publish must reset the staleness gauge"
        )


def test_watermark_returns_to_newest_epoch_after_readers_unpin(retail):
    data, warehouse = retail
    view = warehouse.views_over("pos")[0]
    key = f'repro_epochs_watermark{{view="{view.name}"}}'
    with QueryServer(warehouse, max_workers=2, expose_http=0) as server:
        pinned = view.pin()                      # reader holding epoch 0
        run_cycle(data, warehouse)
        run_cycle(data, warehouse)
        gc.collect()
        held = prom_samples(scrape(server.exporter.url + "/metrics"))
        assert held[key] == 0, (
            "watermark tracks the oldest epoch still pinned by a reader"
        )
        assert held[f'repro_epochs_published{{view="{view.name}"}}'] == 2

        del pinned
        gc.collect()
        released = prom_samples(scrape(server.exporter.url + "/metrics"))
        assert released[key] == 2, (
            "watermark returns to the newest epoch once readers unpin"
        )
        assert released[f'repro_epochs_retained{{view="{view.name}"}}'] == 0


def test_staleness_slo_violations_are_counted(retail):
    data, warehouse = retail
    queries = query_pool(data.pos)
    registry = obs_metrics.registry()
    # SLO of zero seconds: any routed query is a violation (views are
    # always at least epsilon stale), so the counter must move per query.
    with QueryServer(warehouse, max_workers=2, staleness_slo_s=0.0) as server:
        for _ in range(4):
            server.answer(queries[0], use_cache=False)
    assert registry.counter_value("serve.slo_violations") == 4
    routed = server.router.plan(queries[0]).source_view
    assert registry.counter_value(
        "serve.slo_violations_by_view", labels={"view": routed.name}
    ) == 4


def test_no_slo_means_no_violations(retail):
    data, warehouse = retail
    queries = query_pool(data.pos)
    registry = obs_metrics.registry()
    with QueryServer(warehouse, max_workers=2) as server:
        assert server.staleness_slo_s is None
        server.answer(queries[0])
    assert registry.counter_value("serve.slo_violations") == 0


def test_slo_from_environment(retail, monkeypatch):
    data, warehouse = retail
    monkeypatch.setenv("REPRO_STALENESS_SLO_S", "0")
    queries = query_pool(data.pos)
    registry = obs_metrics.registry()
    with QueryServer(warehouse, max_workers=2) as server:
        assert server.staleness_slo_s == 0.0
        server.answer(queries[0])
    assert registry.counter_value("serve.slo_violations") == 1


def test_status_endpoint_reflects_serving_and_epochs(retail):
    data, warehouse = retail
    queries = query_pool(data.pos)
    with QueryServer(warehouse, max_workers=2, expose_http=0) as server:
        for _ in range(3):
            server.answer(queries[0])
        run_cycle(data, warehouse)
        payload = json.loads(scrape(server.exporter.url + "/status"))
        slow = json.loads(scrape(server.exporter.url + "/slow"))

    assert payload["serving"]["queries"] == 3
    assert payload["serving"]["latency"]["count"] == 3
    assert payload["serving"]["latency"]["p50_s"] is not None
    view_records = payload["views"]
    assert set(view_records) == {
        view.name for view in warehouse.views_over("pos")
    }
    for record in view_records.values():
        assert record["epoch"] == 1
        assert record["epoch_watermark"] in (0, 1)
    routed = [r for r in view_records.values() if r["queries"]]
    assert routed, "the answered query must show up under its routed view"
    assert len(slow) == 3
    assert all(re.fullmatch(r"hit|miss|bypass", s["cache"]) for s in slow)


def test_status_lineage_section_tracks_manifests_and_backlog(retail):
    data, warehouse = retail
    queries = query_pool(data.pos)
    with QueryServer(warehouse, max_workers=2, expose_http=0) as server:
        server.answer(queries[0])
        run_cycle(data, warehouse)
        # Stage (but do not maintain) a batch: it must show up as pending
        # lineage backlog on the very next scrape.
        from repro.workload import update_generating_changes
        warehouse.stage_changes(
            "pos",
            update_generating_changes(data.pos, data.config, 10, data.rng),
        )
        payload = json.loads(scrape(server.exporter.url + "/status"))
        samples = prom_samples(scrape(server.exporter.url + "/metrics"))

    staged = warehouse.pending_changes("pos")
    for name, record in payload["views"].items():
        lineage = record["lineage"]
        assert lineage["manifests"] == 1
        assert lineage["batches_published"] > 0
        assert lineage["pending_batches"] == len(staged.lineage)
        assert lineage["oldest_pending_batch_age_s"] > 0
        last = lineage["last_manifest"]
        assert last["view"] == name
        assert last["epoch"] == 1
        lag = lineage["visibility_lag"]
        assert lag["count"] == lineage["batches_published"]
        assert lag["p50_s"] is not None
        # The same numbers are scraped as gauges from /metrics.
        assert samples[
            f'repro_lineage_pending_batches{{view="{name}"}}'
        ] == len(staged.lineage)
        assert samples[
            f'repro_lineage_oldest_pending_batch_age_s{{view="{name}"}}'
        ] > 0


def test_status_lineage_agrees_with_view_manifests(retail):
    data, warehouse = retail
    with QueryServer(warehouse, max_workers=2, expose_http=0) as server:
        run_cycle(data, warehouse)
        run_cycle(data, warehouse)
        payload = json.loads(scrape(server.exporter.url + "/status"))

    for view in warehouse.views_over("pos"):
        lineage = payload["views"][view.name]["lineage"]
        assert lineage["manifests"] == len(view.lineage)
        assert lineage["batches_published"] == view.lineage.batches_published()
        assert lineage["intervals"] == [
            [lo, hi] for lo, hi in __import__("repro").obs.lineage
            .compress_intervals(view.lineage.published_batches())
        ]
