"""Warehouse health: status, integrity audits, and the corruption matrix."""

import random

import pytest

from repro.core import apply_refresh, base_recompute_fn, compute_summary_delta
from repro.lattice import maintain_lattice
from repro.obs import RunLedger, set_ledger
from repro.obs.metrics import MetricsRegistry
from repro.warehouse import (
    Warehouse,
    audit_warehouse,
    export_status_gauges,
    format_status,
    inject_corruption,
    run_nightly_maintenance,
    warehouse_status,
)
from repro.warehouse.health import CORRUPTION_KINDS
from repro.workload import (
    RetailConfig,
    build_retail_warehouse,
    generate_retail,
    update_generating_changes,
)

from ..conftest import (
    make_items,
    make_pos,
    make_stores,
    sic_definition,
    sid_definition,
)


@pytest.fixture(autouse=True)
def no_ambient_ledger(monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    previous = set_ledger(None)
    yield
    set_ledger(previous)


def small_retail(pos_rows=400, seed=3):
    data = generate_retail(RetailConfig(pos_rows=pos_rows, seed=seed,
                                        n_dates=10))
    return data, build_retail_warehouse(data)


def maintained_retail(pos_rows=400, seed=3, change_rows=40):
    """A Figure 1 lattice warehouse after one clean nightly cycle."""
    data, warehouse = small_retail(pos_rows, seed)
    rng = random.Random(seed)
    changes = update_generating_changes(
        data.pos, data.config, change_rows, rng
    )
    warehouse.stage_insertions("pos", changes.insertions.rows())
    warehouse.stage_deletions("pos", changes.deletions.rows())
    run_nightly_maintenance(warehouse)
    return data, warehouse


@pytest.fixture
def small_warehouse(pos):
    warehouse = Warehouse()
    warehouse.add_fact(pos)
    warehouse.define_summary_table(sid_definition(pos))
    warehouse.define_summary_table(sic_definition(pos))
    return warehouse, pos


class TestStatus:
    def test_one_line_per_view_sorted(self, small_warehouse):
        warehouse, _ = small_warehouse
        statuses = warehouse_status(warehouse)
        assert [s.name for s in statuses] == ["SID_sales", "SiC_sales"]
        for status in statuses:
            assert status.fact == "pos"
            assert status.rows == len(warehouse.view(status.name).table)
            assert status.certificate_ok is True
            assert len(status.certificate) == 16

    def test_pending_counts_surface(self, small_warehouse):
        warehouse, _ = small_warehouse
        warehouse.stage_insertions("pos", [(1, 10, 9, 2, 1.0)])
        warehouse.stage_deletions("pos", [(2, 12, 3, 5, 1.6)])
        status = warehouse_status(warehouse)[0]
        assert status.pending_insertions == 1
        assert status.pending_deletions == 1

    def test_refresh_updates_freshness(self, small_warehouse):
        warehouse, _ = small_warehouse
        warehouse.stage_insertions("pos", [(1, 10, 9, 2, 1.0)])
        run_nightly_maintenance(warehouse)
        for status in warehouse_status(warehouse):
            assert status.freshness.refresh_count == 1
            assert status.freshness.last_refresh_kind == "nightly"
            assert status.staleness_seconds < 60

    def test_drift_detected(self, small_warehouse):
        warehouse, _ = small_warehouse
        inject_corruption(warehouse, "mutate", view_name="SID_sales")
        by_name = {s.name: s for s in warehouse_status(warehouse)}
        assert by_name["SID_sales"].certificate_ok is False
        assert by_name["SiC_sales"].certificate_ok is True
        assert "DRIFT" in format_status(by_name.values())

    def test_cheap_listing_skips_verification(self, small_warehouse):
        warehouse, _ = small_warehouse
        status = warehouse_status(warehouse, verify_certificates=False)[0]
        assert status.certificate_ok is None
        assert status.certificate is not None

    def test_gauges_exported(self, small_warehouse):
        warehouse, _ = small_warehouse
        warehouse.stage_insertions("pos", [(1, 10, 9, 2, 1.0)])
        metrics = MetricsRegistry()
        export_status_gauges(warehouse, metrics=metrics)
        labels = {"view": "SID_sales"}
        assert metrics.gauge(
            "freshness.pending_insertions", labels=labels
        ).snapshot() == 1
        assert metrics.gauge(
            "integrity.certificate_ok", labels=labels
        ).snapshot() == 1


class TestCleanAudit:
    def test_full_audit_passes(self):
        _, warehouse = maintained_retail()
        report = audit_warehouse(warehouse, metrics=MetricsRegistry())
        assert report.passed
        assert report.failed_views == []
        assert report.mode == "full"
        for result in report.results.values():
            assert result.maintained == result.stored == result.expected

    def test_sample_audit_passes(self):
        _, warehouse = maintained_retail()
        report = audit_warehouse(
            warehouse, sample=5, rng=random.Random(1),
            metrics=MetricsRegistry(),
        )
        assert report.passed
        assert report.mode == "sample"
        for result in report.results.values():
            assert result.drilldown_checked == min(5, result.rows)

    def test_derivable_views_cross_checked_against_parent(self):
        _, warehouse = maintained_retail()
        report = audit_warehouse(warehouse, metrics=MetricsRegistry())
        # The Figure 1 lattice derives at least one view from another
        # materialised view rather than from base data.
        assert any(
            result.parent is not None for result in report.results.values()
        )

    def test_audit_recorded_in_ledger(self, tmp_path):
        _, warehouse = maintained_retail()
        set_ledger(RunLedger(tmp_path / "runs.jsonl"))
        audit_warehouse(warehouse, metrics=MetricsRegistry())
        records = [
            r for r in set_ledger(None).records() if r["kind"] == "audit"
        ]
        assert len(records) == 1
        assert records[0]["passed"] is True
        assert set(records[0]["views"]) == set(warehouse.views)

    def test_audit_metrics(self):
        _, warehouse = maintained_retail()
        metrics = MetricsRegistry()
        audit_warehouse(warehouse, metrics=metrics)
        assert metrics.counter("integrity.audits").snapshot() == 1
        assert metrics.gauge("integrity.last_audit_ok").snapshot() == 1

    def test_format_mentions_every_view(self):
        _, warehouse = maintained_retail()
        text = audit_warehouse(warehouse, metrics=MetricsRegistry()).format()
        for name in warehouse.views:
            assert name in text
        assert text.endswith("verdict: PASS")


class TestCorruptionMatrix:
    """Each corruption class is caught, and flags exactly the corrupted
    view — the acceptance criterion of the audit subsystem."""

    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    @pytest.mark.parametrize("victim", ["SID_sales", "sCD_sales"])
    def test_full_audit_flags_exactly_the_victim(self, kind, victim):
        _, warehouse = maintained_retail()
        description = inject_corruption(
            warehouse, kind, rng=random.Random(5), view_name=victim
        )
        assert kind.split("-")[0] in description
        report = audit_warehouse(warehouse, metrics=MetricsRegistry())
        assert report.failed_views == [victim]

    @pytest.mark.parametrize("kind", ["mutate", "drop", "phantom"])
    def test_sample_audit_catches_certificate_drift(self, kind):
        _, warehouse = maintained_retail()
        inject_corruption(
            warehouse, kind, rng=random.Random(5), view_name="SID_sales"
        )
        report = audit_warehouse(
            warehouse, sample=5, rng=random.Random(1),
            metrics=MetricsRegistry(),
        )
        assert report.failed_views == ["SID_sales"]
        assert "certificate-drift" in report.results["SID_sales"].failures

    def test_missed_delta_is_drift_free_but_stale(self):
        # The signature distinguishing a missed delta from storage
        # corruption: the view is internally consistent (certificate
        # matches its rows) yet disagrees with recomputation.
        _, warehouse = maintained_retail()
        inject_corruption(
            warehouse, "missed-delta", rng=random.Random(5),
            view_name="SID_sales",
        )
        report = audit_warehouse(warehouse, metrics=MetricsRegistry())
        result = report.results["SID_sales"]
        assert result.failures == ("recompute-mismatch",)
        assert result.maintained == result.stored != result.expected

    def test_parent_corruption_does_not_fail_clean_children(self):
        _, warehouse = maintained_retail()
        report = audit_warehouse(warehouse, metrics=MetricsRegistry())
        child = next(
            name for name, result in report.results.items()
            if result.parent is not None
        )
        parent = report.results[child].parent
        inject_corruption(
            warehouse, "mutate", rng=random.Random(5), view_name=parent
        )
        report = audit_warehouse(warehouse, metrics=MetricsRegistry())
        assert report.failed_views == [parent]
        # The child records the edge disagreement as a warning only.
        child_events = report.results[child].events
        assert any(e.kind == "parent-mismatch" for e in child_events)
        assert all(e.severity == "warning" for e in child_events)

    def test_unknown_kind_rejected(self, small_warehouse):
        warehouse, _ = small_warehouse
        with pytest.raises(ValueError, match="unknown corruption kind"):
            inject_corruption(warehouse, "bitflip")

    def test_corruption_events_reach_metrics(self):
        _, warehouse = maintained_retail()
        inject_corruption(
            warehouse, "mutate", rng=random.Random(5), view_name="SID_sales"
        )
        metrics = MetricsRegistry()
        audit_warehouse(warehouse, metrics=metrics)
        assert metrics.counter(
            "integrity.events", labels={"severity": "critical"}
        ).snapshot() >= 1
        assert metrics.gauge(
            "integrity.view_ok", labels={"view": "SID_sales"}
        ).snapshot() == 0
        assert metrics.gauge("integrity.last_audit_ok").snapshot() == 0


class TestAbandonedRefreshThenAudit:
    def test_abandoned_refresh_leaves_view_stale_but_not_corrupt(
        self, small_warehouse
    ):
        warehouse, pos = small_warehouse
        view = warehouse.view("SID_sales")
        changes = warehouse.pending_changes("pos")
        changes.insert_many([(1, 10, 1, 7, 1.0), (4, 13, 9, 2, 1.3)])
        delta = compute_summary_delta(view.definition, changes)
        sic_delta = compute_summary_delta(
            warehouse.view("SiC_sales").definition, changes
        )
        warehouse.apply_pending_to_base("pos")
        recompute = base_recompute_fn(view.definition)
        apply_refresh(
            warehouse.view("SiC_sales"), sic_delta,
            base_recompute_fn(warehouse.view("SiC_sales").definition),
        )

        def hook(stage):
            if stage == "publish":
                raise RuntimeError("injected between build and swap")

        with pytest.raises(RuntimeError):
            apply_refresh(view, delta, recompute, failure_hook=hook)

        report = audit_warehouse(warehouse, metrics=MetricsRegistry())
        result = report.results["SID_sales"]
        # The published epoch was never touched: no certificate drift,
        # just stale.
        assert result.failures == ("recompute-mismatch",)
        assert report.failed_views == ["SID_sales"]

        # Retrying the refresh heals the view; the audit then passes.
        apply_refresh(view, delta, recompute)
        report = audit_warehouse(warehouse, metrics=MetricsRegistry())
        assert report.passed


class TestNightlyCertificateVerify:
    def test_clean_run_passes(self, small_warehouse):
        warehouse, _ = small_warehouse
        warehouse.stage_insertions("pos", [(1, 10, 9, 2, 1.0)])
        result = run_nightly_maintenance(warehouse, verify="certificate")
        assert result.views_maintained == 2

    def test_corrupt_view_fails_the_run(self, small_warehouse):
        from repro.errors import MaintenanceError

        warehouse, _ = small_warehouse
        inject_corruption(warehouse, "mutate", view_name="SID_sales")
        warehouse.stage_insertions("pos", [(1, 10, 9, 2, 1.0)])
        with pytest.raises(MaintenanceError, match="certificate"):
            run_nightly_maintenance(warehouse, verify="certificate")


class TestFreshnessPlumbing:
    def test_ledger_record_carries_freshness(self, tmp_path):
        warehouse = Warehouse()
        pos = make_pos(make_stores(), make_items())
        warehouse.add_fact(pos)
        warehouse.define_summary_table(sid_definition(pos))
        set_ledger(RunLedger(tmp_path / "runs.jsonl"))
        warehouse.stage_insertions("pos", [(1, 10, 9, 2, 1.0)])
        run_nightly_maintenance(warehouse)
        record = set_ledger(None).records()[-1]
        assert record["kind"] == "nightly"
        freshness = record["freshness"]["SID_sales"]
        assert freshness["refresh_count"] == 1
        assert freshness["last_refresh_run_id"] is None  # stamped after
        view = warehouse.view("SID_sales")
        assert view.freshness.last_refresh_run_id == record["run_id"]
        assert view.freshness.last_refresh_kind == "nightly"


class TestDrilldownRederivesWholeRows:
    def test_recomputed_group_with_a_corrupt_sum_is_a_drilldown_mismatch(
        self, small_warehouse
    ):
        """Refresh reads a recomputed group's MIN/MAX from base data and
        trusts the update arithmetic for its COUNT and SUM; the sampled
        audit re-derives every aggregate, so a wrong SUM published with a
        consistent certificate is still caught."""
        warehouse, pos = small_warehouse
        pos.table.track_domain("date")
        warehouse.stage_deletions("pos", [(3, 10, 1, 6, 1.0)])  # a minimum
        result = maintain_lattice(
            warehouse.views_over("pos"), warehouse.pending_changes("pos")
        )
        warehouse.discard_pending("pos")
        assert result.stats["SiC_sales"].recomputed == 1

        view = warehouse.view("SiC_sales")
        shadow = view.begin_version()
        slot = shadow.group_key_index().lookup_one((3, "fruit"))
        row = list(shadow.table.row_at(slot))
        row[shadow.table.schema.position("TotalQuantity")] += 1
        shadow.table.update_slot(slot, tuple(row))
        view.publish(shadow)

        report = audit_warehouse(
            warehouse, sample=len(view.table), rng=random.Random(1),
            metrics=MetricsRegistry(),
        )
        assert report.failed_views == ["SiC_sales"]
        assert report.results["SiC_sales"].failures == ("drilldown-mismatch",)
