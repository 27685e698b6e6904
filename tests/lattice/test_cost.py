"""The cost model (repro.lattice.cost) against the engine it predicts.

The acceptance gate for the plan-explain layer: on the Figure 9 retail
lattice, every node's predicted propagate tuple accesses must land within
2x of what a traced run actually measures (the spans and the cost model
share the tuple-access unit, ACCESS_FIELDS).  The update workload is the
canonical one — both change sides are populated, as in the paper's panel
(a)/(b) experiments.
"""

import dataclasses

import pytest

from repro.lattice import (
    actual_node_accesses,
    actual_refresh_accesses,
    build_lattice_for_views,
    collect_statistics,
    compare_plan,
    estimate_plan_cost,
    expected_groups,
    maintain_lattice,
    span_access_units,
)
from repro.obs import trace
from repro.obs.tracing import active_recorder, install_recorder
from repro.relational.stats import measuring
from repro.views import MaterializedView
from repro.workload import (
    RetailConfig,
    generate_retail,
    retail_view_definitions,
    update_generating_changes,
)

#: The documented prediction-accuracy bound (acceptance criterion).
PREDICTION_FACTOR = 2.0


@pytest.fixture(autouse=True)
def clean_tracing(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    previous = active_recorder()
    install_recorder(None)
    yield
    install_recorder(previous)


def retail_setup(pos_rows=2_000, change_rows=250, seed=23):
    data = generate_retail(RetailConfig(pos_rows=pos_rows, seed=seed))
    views = [
        MaterializedView.build(definition)
        for definition in retail_view_definitions(data.pos)
    ]
    changes = update_generating_changes(
        data.pos, data.config, change_rows, data.rng
    )
    return data, views, changes


class TestExpectedGroups:
    def test_tends_to_n_when_groups_plentiful(self):
        assert expected_groups(10, 1_000_000) == pytest.approx(10, rel=1e-3)

    def test_saturates_at_group_count(self):
        assert expected_groups(100_000, 50) == pytest.approx(50, rel=1e-6)

    def test_degenerate_cases(self):
        assert expected_groups(0, 100) == 0.0
        assert expected_groups(5, 1) == 1.0
        assert expected_groups(5, 0) == 1.0


class TestPlanEstimate:
    def test_structure_mirrors_the_lattice(self):
        _data, views, changes = retail_setup()
        lattice = build_lattice_for_views(views)
        estimate = estimate_plan_cost(
            lattice, collect_statistics(lattice, changes, views=views)
        )
        assert set(estimate.nodes) == set(lattice.order)
        assert estimate.order == tuple(lattice.order)
        for name, node in estimate.nodes.items():
            lattice_node = lattice.node(name)
            assert node.is_root == lattice_node.is_root
            if not lattice_node.is_root:
                assert node.source == lattice_node.parent
            assert node.propagate_accesses > 0
            assert node.refresh_accesses > 0

    def test_lattice_predicted_cheaper_than_direct(self):
        """The §2.2 claim, in predicted units: derived nodes cost less
        through the lattice than straight from the changes."""
        _data, views, changes = retail_setup()
        lattice = build_lattice_for_views(views)
        estimate = estimate_plan_cost(
            lattice, collect_statistics(lattice, changes, views=views)
        )
        assert (
            estimate.with_lattice_accesses < estimate.without_lattice_accesses
        )
        assert estimate.lattice_savings_ratio > 1.0
        for node in estimate.nodes.values():
            if node.is_root:
                assert node.propagate_accesses == node.direct_accesses
            else:
                assert node.propagate_accesses < node.direct_accesses

    def test_missing_statistic_raises_with_node_name(self):
        _data, views, changes = retail_setup()
        lattice = build_lattice_for_views(views)
        stats = collect_statistics(lattice, changes, views=views[:1])
        # Only one view supplied: the others fall back to the arity proxy,
        # so estimation still succeeds...
        estimate_plan_cost(lattice, stats)
        # ...but a statistics object that genuinely lacks a node fails loudly.
        from repro.lattice import LatticeStatistics

        bad = LatticeStatistics(side_rows=(1, 1), group_counts={})
        with pytest.raises(KeyError, match=lattice.order[0]):
            estimate_plan_cost(lattice, bad)


class TestPredictedVsActual:
    @pytest.mark.parametrize("pos_rows,change_rows", [
        (2_000, 250),
        (6_000, 600),
    ])
    def test_predictions_within_factor_of_measured(self, pos_rows, change_rows):
        """Acceptance: every node's prediction within 2x of span actuals."""
        _data, views, changes = retail_setup(pos_rows, change_rows)
        lattice = build_lattice_for_views(views)
        estimate = estimate_plan_cost(
            lattice, collect_statistics(lattice, changes, views=views)
        )
        with trace() as recorder:
            maintain_lattice(views, changes, lattice=lattice)
        root = recorder.finish()
        rows = compare_plan(estimate, actual_node_accesses(root))
        assert {row.name for row in rows} == set(lattice.order)
        for row in rows:
            assert row.actual > 0, row.name
            assert row.ratio is not None
            assert 1.0 / PREDICTION_FACTOR <= row.ratio <= PREDICTION_FACTOR, (
                f"{row.name}: predicted {row.predicted:.0f} vs actual "
                f"{row.actual:.0f} (ratio {row.ratio:.2f})"
            )
            assert row.error_pct == pytest.approx(
                (row.predicted - row.actual) / row.actual * 100.0
            )

    @pytest.mark.parametrize("pos_rows,change_rows", [
        (2_000, 250),
        (6_000, 600),
    ])
    def test_per_node_schedule_predictions_within_factor(
        self, per_child, pos_rows, change_rows
    ):
        """With sibling groups not fused, the estimate's per-child
        accesses hold to the same bound."""
        _data, views, changes = retail_setup(pos_rows, change_rows)
        lattice = build_lattice_for_views(views)
        fused = estimate_plan_cost(
            lattice, collect_statistics(lattice, changes, views=views)
        )
        estimate = dataclasses.replace(fused, nodes={
            name: dataclasses.replace(
                node, propagate_accesses=node.per_child_accesses
            )
            for name, node in fused.nodes.items()
        })
        with per_child(), trace() as recorder:
            maintain_lattice(views, changes, lattice=lattice)
        rows = compare_plan(estimate, actual_node_accesses(recorder.finish()))
        assert {row.name for row in rows} == set(lattice.order)
        for row in rows:
            assert row.actual > 0, row.name
            assert 1.0 / PREDICTION_FACTOR <= row.ratio <= PREDICTION_FACTOR, (
                f"{row.name}: predicted {row.predicted:.0f} vs actual "
                f"{row.actual:.0f} (ratio {row.ratio:.2f})"
            )

    def test_span_units_equal_access_stats_units(self):
        """The join is only meaningful if spans and AccessStats count the
        same thing: one traced+measured run must agree on totals."""
        _data, views, changes = retail_setup()
        with trace() as recorder, measuring() as stats:
            maintain_lattice(views, changes)
        root = recorder.finish()
        assert span_access_units(root) == stats.total_accesses > 0

    def test_refresh_prediction_is_a_lower_bound(self):
        """MIN/MAX recompute scans are data-dependent and excluded, so the
        refresh estimate must under- (never over-) predict."""
        _data, views, changes = retail_setup()
        lattice = build_lattice_for_views(views)
        estimate = estimate_plan_cost(
            lattice, collect_statistics(lattice, changes, views=views)
        )
        with trace() as recorder:
            maintain_lattice(views, changes, lattice=lattice)
        root = recorder.finish()
        measured = sum(actual_refresh_accesses(root).values())
        assert estimate.refresh_accesses <= measured
