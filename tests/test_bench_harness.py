"""The Figure 9 harness itself: scaling, measurement, and shape checkers."""

import pytest

from repro.bench import (
    Figure9Panel,
    Figure9Point,
    check_lattice_benefit_grows_with_change_size,
    check_lattice_helps_propagate,
    check_maintenance_beats_rematerialization,
    check_propagate_flat_in_pos_size,
    check_refresh_cheaper_for_insertions,
    format_claims,
    format_panel,
    measure_point,
    scaled,
)
from repro.bench.reporting import check_deletions_drop_with_pos_size
from repro.views import compute_rows
from repro.workload import (
    RetailConfig,
    build_retail_warehouse,
    generate_retail,
    update_generating_changes,
)


def point(propagate=0.01, refresh=0.1, remat=1.0, direct=0.02,
          pos_rows=1000, change_size=100, recomputes=0, deletes=0):
    return Figure9Point(
        pos_rows=pos_rows,
        change_size=change_size,
        propagate_lattice_s=propagate,
        refresh_s=refresh,
        rematerialize_s=remat,
        propagate_direct_s=direct,
        recompute_groups=recomputes,
        deleted_groups=deletes,
    )


def panel(points, x_label="change size"):
    return Figure9Panel(
        name="test", x_label=x_label, workload="update-generating",
        points=points,
    )


class TestScaled:
    def test_identity_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert scaled(10_000) == 10_000

    def test_scaling(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        assert scaled(10_000) == 1_000

    def test_minimum_enforced(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0001")
        assert scaled(10_000, minimum=50) == 50

    def test_result_is_even(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0123")
        assert scaled(10_000) % 2 == 0


class TestShapeCheckers:
    def test_maintenance_win_detected(self):
        claim = check_maintenance_beats_rematerialization(
            panel([point(), point(refresh=0.2)])
        )
        assert claim.holds and "speedup" in claim.evidence

    def test_maintenance_loss_detected(self):
        claim = check_maintenance_beats_rematerialization(
            panel([point(refresh=2.0)])
        )
        assert not claim.holds

    def test_lattice_benefit(self):
        assert check_lattice_helps_propagate(panel([point()])).holds
        assert not check_lattice_helps_propagate(
            panel([point(propagate=0.05, direct=0.02)])
        ).holds

    def test_growth_of_lattice_gap(self):
        growing = panel([
            point(propagate=0.01, direct=0.02),
            point(propagate=0.02, direct=0.06),
        ])
        assert check_lattice_benefit_grows_with_change_size(growing).holds

    def test_flatness(self):
        flat = panel(
            [point(propagate=0.01), point(propagate=0.011)], x_label="pos size"
        )
        assert check_propagate_flat_in_pos_size(flat).holds
        steep = panel(
            [point(propagate=0.01), point(propagate=0.1)], x_label="pos size"
        )
        assert not check_propagate_flat_in_pos_size(steep).holds

    def test_insertion_refresh_comparison(self):
        update_panel = panel([point(refresh=0.2)])
        insert_panel = panel([point(refresh=0.05)])
        claim = check_refresh_cheaper_for_insertions(update_panel, insert_panel)
        assert claim.holds
        assert not check_refresh_cheaper_for_insertions(
            insert_panel, update_panel
        ).holds

    def test_deletion_mechanism(self):
        falling = panel(
            [point(deletes=100, pos_rows=1000), point(deletes=40, pos_rows=5000)],
            x_label="pos size",
        )
        assert check_deletions_drop_with_pos_size(falling).holds


class TestFormatting:
    def test_panel_table_contains_series(self):
        text = format_panel(panel([point()]))
        assert "Propagate" in text and "SD Maint." in text
        assert "Remater." in text and "Prop(w/o)" in text

    def test_claims_verdicts(self):
        claim = check_maintenance_beats_rematerialization(panel([point()]))
        text = format_claims([claim])
        assert "[REPRODUCED]" in text


class TestMeasurePoint:
    def test_leaves_warehouse_consistent(self):
        data = generate_retail(RetailConfig(pos_rows=1000, seed=91))
        warehouse = build_retail_warehouse(data)
        views = warehouse.views_over("pos")
        changes = update_generating_changes(data.pos, data.config, 100, data.rng)
        result = measure_point(data, views, changes)
        assert result.pos_rows == 1000
        assert result.change_size == 100
        for view in views:
            expected = compute_rows(view.definition).sorted_rows()
            assert view.table.sorted_rows() == expected

    def test_all_series_positive(self):
        data = generate_retail(RetailConfig(pos_rows=500, seed=93))
        warehouse = build_retail_warehouse(data)
        views = warehouse.views_over("pos")
        changes = update_generating_changes(data.pos, data.config, 50, data.rng)
        result = measure_point(data, views, changes)
        assert result.propagate_lattice_s > 0
        assert result.refresh_s > 0
        assert result.rematerialize_s > 0
        assert result.propagate_direct_s > 0
        assert result.maintenance_s == pytest.approx(
            result.propagate_lattice_s + result.refresh_s
        )

