"""Unit tests for the shared-scan fused kernel (`repro.relational.fused`).

The differential suite proves end-to-end equivalence on random change sets;
these tests pin the component contracts: fallback conditions, byte-identical
per-child outputs, probe accounting, and kernel caching.
"""

import dataclasses

import pytest

from repro.core import MinMaxPolicy
from repro.lattice import build_lattice_for_views, propagate_lattice
from repro.relational import col, lit
from repro.relational.aggregation import SumReducer
from repro.relational.fused import prepare_fused_scan
from repro.relational.table import Table
from repro.views import MaterializedView
from repro.warehouse import ChangeSet

from ..conftest import minmax_definition, sic_definition, sid_definition

INSERTS = [(1, 10, 1, 7, 1.0), (4, 13, 9, 2, 1.3), (2, 11, 4, None, 2.0)]
DELETES = [(2, 12, 3, 5, 1.6)]


@pytest.fixture
def fused_inputs(pos, per_child):
    """(lattice, parent delta, sibling edges) over the SID → {SiC, minmax}
    derivation: two siblings with different dimension joins."""
    views = [
        MaterializedView.build(sid_definition(pos)),
        MaterializedView.build(sic_definition(pos)),
        MaterializedView.build(minmax_definition(pos)),
    ]
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(INSERTS)
    changes.delete_many(DELETES)
    lattice = build_lattice_for_views(views)
    with per_child():
        deltas = propagate_lattice(lattice, changes)
    edges = [
        lattice.node(name).edge
        for name in lattice.order
        if lattice.node(name).edge is not None
        and lattice.node(name).edge.parent.name == "SID_sales"
    ]
    assert len(edges) == 2, "fixture expects two siblings under SID_sales"
    return deltas["SID_sales"], edges


class TestFallbacks:
    def test_no_children(self, pos):
        assert prepare_fused_scan(pos.table.schema, ()) is None

    def test_join_without_unique_index_falls_back(self, fused_inputs):
        parent_delta, edges = fused_inputs
        child = edges[0].fused_child(MinMaxPolicy.PAPER)
        join = child.joins[0]
        bare = Table(join.table.name, join.table.schema, join.table.rows())
        stripped = dataclasses.replace(
            child, joins=(dataclasses.replace(join, table=bare),)
        )
        assert prepare_fused_scan(parent_delta.table.schema, [stripped]) is None

    def test_unsupported_expression_falls_back(self, fused_inputs):
        parent_delta, edges = fused_inputs
        child = edges[0].fused_child(MinMaxPolicy.PAPER)
        broken = dataclasses.replace(
            child, aggregates=(("bad", col("no_such_column"), SumReducer()),)
        )
        assert prepare_fused_scan(parent_delta.table.schema, [broken]) is None

    def test_unhashable_literal_compiles_uncached(self, fused_inputs):
        """A literal that cannot key the kernel cache is no reason to
        decline: the kernel is compiled afresh each time instead."""
        parent_delta, edges = fused_inputs
        child = edges[0].fused_child(MinMaxPolicy.PAPER)
        source = child.aggregates[0][1]
        listed = dataclasses.replace(
            child, aggregates=(("reps", source * lit([7]), SumReducer()),)
        )
        schema = parent_delta.table.schema
        first = prepare_fused_scan(schema, [listed])
        second = prepare_fused_scan(schema, [listed])
        assert first is not None and second is not None
        assert first._fold_cols is not second._fold_cols
        groups, _probes = first.fold_columns(
            parent_delta.table.columns(), len(parent_delta.table)
        )
        [(_keys, [states])] = groups
        assert all(state is None or set(state) == {7} for state in states)


def fold(scan, table):
    """Run *scan* over *table*'s columns."""
    return scan.fold_columns(table.columns(), len(table))


def finalized(scan, groups):
    """Every child's output rows (values and order) from folded groups."""
    return [scan.finalize(index, folded).rows()
            for index, folded in enumerate(groups)]


class TestKernel:
    @pytest.mark.parametrize("policy", list(MinMaxPolicy))
    def test_byte_identical_to_per_child_pipelines(self, fused_inputs, policy):
        parent_delta, edges = fused_inputs
        children = [edge.fused_child(policy) for edge in edges]
        scan = prepare_fused_scan(parent_delta.table.schema, children)
        assert scan is not None
        groups, _probes = fold(scan, parent_delta.table)
        for index, edge in enumerate(edges):
            fused = scan.finalize(index, groups[index])
            per_child = edge.apply_delta(parent_delta.table, policy)
            assert fused.rows() == per_child.rows()
            assert fused.name == per_child.name
            assert fused.schema == per_child.schema

    @pytest.mark.parametrize("policy", list(MinMaxPolicy))
    def test_equals_per_child_pipelines_on_the_interpreter(
        self, fused_inputs, policy, interpreted
    ):
        """The per-child pipelines folded by the interpreter are the
        reference the fused kernel (still compiled) is held to."""
        parent_delta, edges = fused_inputs
        children = [edge.fused_child(policy) for edge in edges]
        scan = prepare_fused_scan(parent_delta.table.schema, children)
        groups, _probes = fold(scan, parent_delta.table)
        with interpreted():
            expected = [edge.apply_delta(parent_delta.table, policy).rows()
                        for edge in edges]
        assert finalized(scan, groups) == expected

    def test_probe_counts_are_exact(self, fused_inputs):
        parent_delta, edges = fused_inputs
        children = [edge.fused_child(MinMaxPolicy.PAPER) for edge in edges]
        scan = prepare_fused_scan(parent_delta.table.schema, children)
        _groups, probes = fold(scan, parent_delta.table)
        # Both siblings join on a group-by foreign key that is never null
        # and always matches its dimension: exactly one probe per row each.
        n = len(parent_delta.table)
        assert probes == [n, n]

    def test_kernel_is_cached(self, fused_inputs):
        parent_delta, edges = fused_inputs
        children = [edge.fused_child(MinMaxPolicy.PAPER) for edge in edges]
        first = prepare_fused_scan(parent_delta.table.schema, children)
        second = prepare_fused_scan(parent_delta.table.schema, children)
        assert first is not second  # fresh wrapper …
        assert first._fold_cols is second._fold_cols  # … same compiled kernel

    def test_source_is_one_function(self, fused_inputs):
        parent_delta, edges = fused_inputs
        children = [edge.fused_child(MinMaxPolicy.PAPER) for edge in edges]
        scan = prepare_fused_scan(parent_delta.table.schema, children)
        assert scan.source.count("def ") == 1
        assert scan.source.startswith("def _fold_cols(_cols, _n, _dims):")


class TestBatchFolds:
    """The fused fold over any columnar parent delta equals the per-child
    pipelines run on that delta."""

    def scan_and_delta(self, fused_inputs, policy=MinMaxPolicy.PAPER):
        parent_delta, edges = fused_inputs
        children = [edge.fused_child(policy) for edge in edges]
        scan = prepare_fused_scan(parent_delta.table.schema, children)
        assert scan is not None
        return scan, parent_delta, edges

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_folds_of_a_prefix_equal_per_child(self, fused_inputs, n):
        """On the first *n* rows of the parent delta — none, one, a few —
        the fold equals the per-child pipelines run on those rows."""
        scan, parent_delta, edges = self.scan_and_delta(fused_inputs)
        prefix = Table(
            parent_delta.table.name,
            parent_delta.table.schema,
            parent_delta.table.rows()[:n],
        )
        groups, probes = fold(scan, prefix)
        expected = [edge.apply_delta(prefix, MinMaxPolicy.PAPER).rows()
                    for edge in edges]
        assert finalized(scan, groups) == expected
        assert probes == [n, n]
