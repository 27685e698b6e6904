"""The one propagate schedule: a serial topological walk of the D-lattice.

The paper's D-lattice propagation (Section 5.5) only constrains a node to
run after its derivation parent.  These tests pin down (a) the level and
sibling-group decomposition the walk follows over the Figure 9 retail
lattice, and (b) that the walk's deltas — fused sibling groups or one
pipeline per node — equal each other and the deltas computed directly from
the change set, across change workloads and MIN/MAX policies.
"""

from contextlib import nullcontext

import pytest

from repro.core import MinMaxPolicy, PropagateOptions
from repro.lattice import (
    ViewLattice,
    build_lattice_for_views,
    maintain_lattice,
    propagate_lattice,
    propagate_without_lattice,
)
from repro.relational.stats import measuring
from repro.views import MaterializedView
from repro.warehouse import BatchWindowClock
from repro.workload import (
    RetailConfig,
    generate_retail,
    insertion_generating_changes,
    retail_view_definitions,
    update_generating_changes,
)

from ..conftest import assert_view_matches_recomputation, per_node_deltas

FACTORIES = {
    "update": update_generating_changes,
    "insertion": insertion_generating_changes,
}


def retail_setup(seed=23, pos_rows=2_000):
    data = generate_retail(RetailConfig(pos_rows=pos_rows, seed=seed))
    views = [
        MaterializedView.build(definition)
        for definition in retail_view_definitions(data.pos)
    ]
    return data, views


class TestPropagationLevels:
    def test_figure9_retail_lattice_levels(self):
        _data, views = retail_setup()
        lattice = build_lattice_for_views(views)
        levels = lattice.propagation_levels()
        # Level 0 holds exactly the roots; every other node sits one level
        # below its chosen parent, so siblings share a level.
        assert [name for name in levels[0]] == [
            node.name for node in lattice.roots()
        ]
        flat = [name for level in levels for name in level]
        assert sorted(flat) == sorted(lattice.order)
        depth = {
            name: index
            for index, level in enumerate(levels)
            for name in level
        }
        for name in lattice.order:
            node = lattice.node(name)
            if not node.is_root:
                assert depth[name] == depth[node.parent] + 1

    def test_sibling_views_share_a_level(self):
        """The retail lattice's sCD and SiC views both derive from SID."""
        _data, views = retail_setup()
        lattice = build_lattice_for_views(views)
        levels = lattice.propagation_levels()
        parents = {
            name: lattice.node(name).parent for name in lattice.order
        }
        siblings = [
            name for name in lattice.order
            if parents[name] == "SID_sales"
        ]
        if len(siblings) >= 2:  # guard against future lattice re-planning
            (level_of,) = [
                index for index, level in enumerate(levels)
                if siblings[0] in level
            ]
            assert all(name in levels[level_of] for name in siblings)

    def test_sibling_groups_cover_every_derived_node_once(self):
        _data, views = retail_setup()
        lattice = build_lattice_for_views(views)
        groups = lattice.sibling_groups()
        flat = [name for group in groups for name in group]
        derived = [name for name in lattice.order
                   if not lattice.node(name).is_root]
        assert sorted(flat) == sorted(derived)
        assert len(flat) == len(set(flat))
        # One parent per group, and every group's parent is computed
        # before the group: a root, or a member of an earlier group.
        ready = {node.name for node in lattice.roots()}
        for group in groups:
            (parent,) = {lattice.node(name).parent for name in group}
            assert parent in ready
            ready.update(group)


def shared_scan_lattice(pos):
    from ..differential.test_shared_scan_differential import (
        lattice_definitions,
    )

    return lattice_definitions(pos)


def auxiliary_lattice(pos):
    """A fine root, a non-materialised intermediate and two coarse views:
    the shape ``maintain_lattice(auxiliary=...)`` walks."""
    from repro.workload import sid_sales

    from .test_auxiliary_nodes import coarse_views, shared_parent

    return [sid_sales(pos), shared_parent(pos), *coarse_views(pos)]


LATTICES = {
    "retail": retail_view_definitions,
    "shared-scan": shared_scan_lattice,
    "auxiliary": auxiliary_lattice,
}


@pytest.fixture(params=sorted(LATTICES))
def shaped(request):
    """(retail data, lattice, its definitions) for each lattice shape."""
    data = generate_retail(RetailConfig(pos_rows=1_200, seed=43))
    definitions = [
        d if d.is_resolved() else d.resolved()
        for d in LATTICES[request.param](data.pos)
    ]
    return data, ViewLattice.build(definitions), definitions


class TestScheduleShapes:
    """The walk's decomposition and its deltas on lattices of several
    shapes: the Figure 8 retail plan, the shared-scan suite's four views
    over every Table 1 aggregate, and a plan through an auxiliary node."""

    def test_levels_put_each_node_below_its_parent(self, shaped):
        _data, lattice, _definitions = shaped
        levels = lattice.propagation_levels()
        assert levels[0] == [node.name for node in lattice.roots()]
        depth = {name: i for i, level in enumerate(levels) for name in level}
        assert sorted(depth) == sorted(lattice.order)
        for name in lattice.order:
            node = lattice.node(name)
            if not node.is_root:
                assert depth[name] == depth[node.parent] + 1
        # Within a level the walk keeps the lattice's order.
        for level in levels:
            assert level == [n for n in lattice.order if n in level]

    def test_sibling_groups_follow_their_parents(self, shaped):
        _data, lattice, _definitions = shaped
        ready = {node.name for node in lattice.roots()}
        seen = []
        for group in lattice.sibling_groups():
            (parent,) = {lattice.node(name).parent for name in group}
            assert parent in ready
            ready.update(group)
            seen.extend(group)
        assert sorted(seen) == sorted(
            name for name in lattice.order if not lattice.node(name).is_root
        )

    def test_walk_matches_direct_deltas(self, shaped):
        data, lattice, definitions = shaped
        changes = update_generating_changes(data.pos, data.config, 120, data.rng)
        options = PropagateOptions(policy=MinMaxPolicy.PAPER)
        walked = propagate_lattice(lattice, changes, options)
        direct = propagate_without_lattice(definitions, changes, options)
        assert list(walked) == list(lattice.order)
        for name in direct:
            assert (
                walked[name].table.sorted_rows()
                == direct[name].table.sorted_rows()
            ), name


class TestScheduleEquality:
    @pytest.mark.parametrize("workload", sorted(FACTORIES))
    @pytest.mark.parametrize("policy", list(MinMaxPolicy))
    def test_fused_groups_match_per_node_pipelines(self, workload, policy):
        """Fused sibling groups and one pipeline per node give the same
        rows in the same order for every node."""
        data, views = retail_setup()
        changes = FACTORIES[workload](data.pos, data.config, 250, data.rng)
        lattice = build_lattice_for_views(views)
        per_node = per_node_deltas(lattice, changes, policy)
        fused = propagate_lattice(
            lattice, changes, PropagateOptions(policy=policy)
        )
        assert list(fused) == list(per_node) == list(lattice.order)
        for name in lattice.order:
            assert fused[name].table.rows() == per_node[name].rows(), name

    @pytest.mark.parametrize("workload", sorted(FACTORIES))
    def test_lattice_deltas_match_direct_deltas(self, workload):
        """Deriving a delta from its parent's delta (Theorem 5.1) gives
        the delta computed straight from the change set.  (Under the
        SPLIT policy a derived delta may leave the insert/delete-side
        extremes of a group whose changes cancel in the parent empty,
        which refreshes the same; the next test covers that policy.)"""
        data, views = retail_setup(seed=29)
        changes = FACTORIES[workload](data.pos, data.config, 300, data.rng)
        lattice = build_lattice_for_views(views)
        options = PropagateOptions(policy=MinMaxPolicy.PAPER)
        walked = propagate_lattice(lattice, changes, options)
        direct = propagate_without_lattice(
            [view.definition for view in views], changes, options
        )
        assert set(walked) == set(direct)
        for name in direct:
            assert (
                walked[name].table.sorted_rows()
                == direct[name].table.sorted_rows()
            ), name

    @pytest.mark.parametrize("workload", sorted(FACTORIES))
    @pytest.mark.parametrize("policy", list(MinMaxPolicy))
    def test_lattice_and_direct_maintenance_land_same_views(
        self, workload, policy
    ):
        tables = {}
        for use_lattice in (True, False):
            data, views = retail_setup(seed=29)
            changes = FACTORIES[workload](data.pos, data.config, 300, data.rng)
            maintain_lattice(
                views, changes, options=PropagateOptions(policy=policy),
                use_lattice=use_lattice,
            )
            for view in views:
                assert_view_matches_recomputation(view)
            tables[use_lattice] = {
                view.name: view.table.sorted_rows() for view in views
            }
        assert tables[True] == tables[False]

    @pytest.mark.parametrize("schedule", ["fused", "per-child"])
    def test_clock_records_every_node_online(self, per_child, schedule):
        data, views = retail_setup(seed=31, pos_rows=800)
        changes = update_generating_changes(data.pos, data.config, 80, data.rng)
        lattice = build_lattice_for_views(views)
        clock = BatchWindowClock()
        with declined(per_child, schedule):
            propagate_lattice(lattice, changes, PropagateOptions(), clock)
        recorded = sorted(phase.name for phase in clock.report.phases)
        assert recorded == sorted(
            f"propagate:{name}" for name in lattice.order
        )
        assert all(not phase.offline for phase in clock.report.phases)

    @pytest.mark.parametrize("workload", sorted(FACTORIES))
    @pytest.mark.parametrize("schedule", ["fused", "per-child"])
    def test_full_maintenance_converges(self, per_child, workload, schedule):
        """End to end: propagate + refresh lands every view on its
        recomputed state."""
        data, views = retail_setup(seed=37, pos_rows=1_500)
        changes = FACTORIES[workload](data.pos, data.config, 150, data.rng)
        with declined(per_child, schedule):
            maintain_lattice(views, changes)
        for view in views:
            assert_view_matches_recomputation(view)


class TestPropagateSpans:
    @pytest.fixture
    def traced(self, monkeypatch):
        from repro.obs import trace
        from repro.obs.tracing import active_recorder, install_recorder

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        previous = active_recorder()
        install_recorder(None)
        try:
            yield trace
        finally:
            install_recorder(previous)

    @pytest.mark.parametrize("schedule", ["fused", "per-child"])
    def test_span_totals_equal_access_totals(self, traced, per_child, schedule):
        """One ``node:`` span per lattice node, and the propagate span's
        subtree charges exactly what the access collector saw — the fused
        scan is charged once, to its group's first node."""
        data, views = retail_setup(seed=61, pos_rows=800)
        changes = update_generating_changes(data.pos, data.config, 80, data.rng)
        lattice = build_lattice_for_views(views)
        with declined(per_child, schedule), traced() as recorder, \
                measuring() as access:
            propagate_lattice(lattice, changes)
        propagate = recorder.finish().find("propagate")
        assert sorted(
            span.name for span in propagate.walk()
            if span.name.startswith("node:")
        ) == sorted(f"node:{name}" for name in lattice.order)
        for counter in ("rows_scanned", "index_lookups"):
            assert propagate.total_counter(counter) == getattr(access, counter)
        # sCD and SiC share SID's delta and both join a dimension, so they
        # fuse; sR, a lone child with no join, replays its edge directly.
        (group,) = propagate.find_all("shared_scan:SID_sales")
        assert group.tags["children"] == 2
        assert propagate.find("shared_scan:sCD_sales") is None
        if schedule == "fused":
            assert group.tags["scans_saved"] == 1
        else:
            assert "scans_saved" not in group.tags

    def test_declined_group_falls_back_per_child(self, traced, per_child):
        """A sibling group whose fused kernel declines runs each child's
        own pipeline under its group span, tagged with the reason, and
        derives and charges exactly what the per-node walk does."""
        data, views = retail_setup(seed=61, pos_rows=800)
        changes = update_generating_changes(data.pos, data.config, 80, data.rng)
        lattice = build_lattice_for_views(views)
        with measuring() as per_node_access:
            per_node = per_node_deltas(lattice, changes)
        with per_child(), traced() as recorder, measuring() as access:
            fallback = propagate_lattice(lattice, changes, PropagateOptions())
        propagate = recorder.finish().find("propagate")
        (group,) = propagate.find_all("shared_scan:SID_sales")
        assert group.tags["shared_scan_fallback"] == "unsupported-edge"
        assert "scans_saved" not in group.tags
        assert access.as_dict() == per_node_access.as_dict()
        for counter in ("rows_scanned", "index_lookups"):
            assert propagate.total_counter(counter) == getattr(access, counter)
        for name in lattice.order:
            assert fallback[name].table.rows() == per_node[name].rows()


def declined(per_child, schedule):
    """The fused kernel as shipped, or declining every sibling group."""
    return per_child() if schedule == "per-child" else nullcontext()
