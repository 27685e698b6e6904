"""Shared-scan plan structure: lattice memoization, shared scan as the one
propagate schedule, and the cost model's fused-scan accounting (`per_child_accesses` / `scan_owner`
/ `shared_scan_saved_accesses`).

Complements tests/lattice/test_cost.py (the 2x prediction-accuracy gate)
with the invariants the shared-scan engine introduced.
"""

import dataclasses

import pytest

from repro.core import PropagateOptions
from repro.lattice import (
    build_lattice_for_views,
    collect_statistics,
    estimate_plan_cost,
    group_fusion_choice,
)
from repro.views import MaterializedView
from repro.workload import (
    RetailConfig,
    generate_retail,
    retail_view_definitions,
    update_generating_changes,
)


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


@pytest.fixture(scope="module")
def retail():
    return retail_setup()


class TestMemoization:
    def test_propagation_levels_memoized(self, retail):
        _data, views, _changes = retail
        lattice = build_lattice_for_views(views)
        first = lattice.propagation_levels()
        assert lattice.propagation_levels() is first

    def test_sibling_groups_memoized_and_cover_derived_nodes(self, retail):
        _data, views, _changes = retail
        lattice = build_lattice_for_views(views)
        groups = lattice.sibling_groups()
        assert lattice.sibling_groups() is groups
        derived = {
            name for name in lattice.order
            if not lattice.node(name).is_root
        }
        assert {name for group in groups for name in group} == derived
        # Every group shares one derivation parent.
        for group in groups:
            parents = {lattice.node(name).parent for name in group}
            assert len(parents) == 1

    def test_fresh_lattices_do_not_share_caches(self, retail):
        _data, views, _changes = retail
        first = build_lattice_for_views(views)
        second = build_lattice_for_views(views)
        assert first.propagation_levels() is not second.propagation_levels()
        assert first.propagation_levels() == second.propagation_levels()


class TestSharedScanShipped:
    def test_shared_scan_is_not_an_option(self):
        """Sibling groups always take the fused kernel where it applies;
        the per-child path is only its fallback."""
        assert [field.name for field in dataclasses.fields(PropagateOptions)] \
            == ["policy", "pre_aggregate"]


class TestSharedCostModel:
    def test_shared_estimate_marks_owners_and_saves_accesses(self, retail):
        _data, views, changes = retail
        lattice = build_lattice_for_views(views)
        stats = collect_statistics(lattice, changes)
        estimate = estimate_plan_cost(lattice, stats)

        owners = {group[0] for group in lattice.sibling_groups()}
        fused_names = {
            name
            for group in lattice.sibling_groups()
            if group_fusion_choice(
                [len(lattice.node(m).edge.dimension_joins) for m in group]
            )
            for name in group
        }
        assert fused_names  # the retail lattice has at least one fused group
        for name, node in estimate.nodes.items():
            if node.is_root:
                assert not node.shared_scan
                assert node.per_child_accesses == node.propagate_accesses
            elif name in fused_names:
                assert node.shared_scan
                assert node.scan_owner == (name in owners)
                # Fusing never costs more than the per-child replay it
                # replaces; non-owners skip the input scan entirely.
                assert node.propagate_accesses <= node.per_child_accesses
                if not node.scan_owner:
                    assert node.propagate_accesses < node.per_child_accesses
            else:
                # Cost-based fusion: a lone no-join child replays its edge
                # per-child, so it is predicted (and executed) unfused.
                assert not node.shared_scan
                assert not node.scan_owner
                assert node.propagate_accesses == node.per_child_accesses

        saved = estimate.shared_scan_saved_accesses
        assert saved > 0
        assert saved == pytest.approx(
            estimate.per_child_accesses - estimate.with_lattice_accesses
        )


class TestGroupFusionChoice:
    """The cost-based fusion rule: fuse a sibling group when it has two
    or more children (one scan amortizes) or any dimension joins (the
    fused kernel probes once where per-child replay probes per join);
    a lone join-free child gains nothing from the fused kernel."""

    @pytest.mark.parametrize("join_counts,fused", [
        ([0], False),          # singleton, no joins: replay the edge
        ([1], True),           # singleton with a join: probes amortize
        ([2], True),
        ([0, 0], True),        # two siblings always share the scan
        ([1, 1], True),
        ([], False),           # degenerate: nothing to fuse
    ])
    def test_rule(self, join_counts, fused):
        assert group_fusion_choice(join_counts) is fused

    def test_plan_and_estimate_make_the_same_choice(self, retail):
        """`run_unit` (plan.py) and `estimate_plan_cost` both defer to
        this predicate, keyed by each node's dimension-join count."""
        _data, views, changes = retail
        lattice = build_lattice_for_views(views)
        stats = collect_statistics(lattice, changes)
        plan = estimate_plan_cost(lattice, stats)
        for unit in lattice.sibling_groups():
            expected = group_fusion_choice([
                len(lattice.node(name).edge.dimension_joins)
                for name in unit
            ])
            for name in unit:
                assert plan.nodes[name].shared_scan is expected
