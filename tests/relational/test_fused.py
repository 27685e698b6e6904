"""Unit tests for the shared-scan fused kernel (`repro.relational.fused`).

The differential suite proves end-to-end equivalence on random change sets;
these tests pin the component contracts: fallback conditions, byte-identical
per-child outputs, probe accounting, and kernel caching.
"""

import dataclasses

import pytest

from repro.core import MinMaxPolicy
from repro.lattice import build_lattice_for_views, propagate_lattice
from repro.relational import col
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


class TestKernel:
    @pytest.mark.parametrize("policy", list(MinMaxPolicy))
    def test_byte_identical_to_per_child_pipelines(self, fused_inputs, policy):
        parent_delta, edges = fused_inputs
        children = [edge.fused_child(policy) for edge in edges]
        scan = prepare_fused_scan(parent_delta.table.schema, children)
        assert scan is not None
        rows = parent_delta.table.rows()
        groups, probes = scan.fold(rows)
        for index, edge in enumerate(edges):
            fused = scan.finalize(index, groups[index])
            legacy = edge.apply_delta(parent_delta.table, policy)
            assert fused.rows() == legacy.rows()
            assert fused.name == legacy.name
            assert fused.schema == legacy.schema

    def test_probe_counts_are_exact(self, fused_inputs):
        parent_delta, edges = fused_inputs
        children = [edge.fused_child(MinMaxPolicy.PAPER) for edge in edges]
        scan = prepare_fused_scan(parent_delta.table.schema, children)
        rows = parent_delta.table.rows()
        _groups, probes = scan.fold(rows)
        # Both siblings join on a group-by foreign key that is never null
        # and always matches its dimension: exactly one probe per row each.
        assert probes == [len(rows), len(rows)]

    def test_kernel_is_cached(self, fused_inputs):
        parent_delta, edges = fused_inputs
        children = [edge.fused_child(MinMaxPolicy.PAPER) for edge in edges]
        first = prepare_fused_scan(parent_delta.table.schema, children)
        second = prepare_fused_scan(parent_delta.table.schema, children)
        assert first is not second  # fresh wrapper …
        assert first._fold is second._fold  # … same compiled kernel

    def test_source_is_one_loop(self, fused_inputs):
        parent_delta, edges = fused_inputs
        children = [edge.fused_child(MinMaxPolicy.PAPER) for edge in edges]
        scan = prepare_fused_scan(parent_delta.table.schema, children)
        assert scan.source.count("for _r in _rows:") == 1


def finalized(scan, groups):
    """Every child's output rows (values and order) from folded groups."""
    return [scan.finalize(index, folded).rows()
            for index, folded in enumerate(groups)]


class TestBatchFolds:
    """The batch (columnar) fold of one fused scan must equal the row
    fold — same finalized tables, same probe counts, in either
    storage mode."""

    def scan_and_delta(self, fused_inputs, policy=MinMaxPolicy.PAPER):
        parent_delta, edges = fused_inputs
        children = [edge.fused_child(policy) for edge in edges]
        scan = prepare_fused_scan(parent_delta.table.schema, children)
        assert scan is not None
        return scan, parent_delta, edges

    @pytest.mark.parametrize("policy", list(MinMaxPolicy))
    def test_fold_columns_equals_fold(self, fused_inputs, policy):
        scan, parent_delta, _edges = self.scan_and_delta(fused_inputs, policy)
        assert scan.supports_columns
        rows = parent_delta.table.rows()
        row_groups, row_probes = scan.fold(rows)
        col_groups, col_probes = scan.fold_columns(
            parent_delta.table.columns(), len(parent_delta.table)
        )
        assert finalized(scan, col_groups) == finalized(scan, row_groups)
        assert col_probes == row_probes

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_folds_of_a_prefix_equal_per_child(self, fused_inputs, n):
        """On the first *n* rows of the parent delta — none, one, a few —
        both folds equal the per-child pipelines run on those rows."""
        scan, parent_delta, edges = self.scan_and_delta(fused_inputs)
        prefix = Table(
            parent_delta.table.name,
            parent_delta.table.schema,
            parent_delta.table.rows()[:n],
            storage="column",
        )
        row_groups, row_probes = scan.fold(prefix.rows())
        col_groups, col_probes = scan.fold_columns(prefix.columns(), n)
        expected = [edge.apply_delta(prefix, MinMaxPolicy.PAPER).rows()
                    for edge in edges]
        assert finalized(scan, row_groups) == expected
        assert finalized(scan, col_groups) == expected
        assert row_probes == col_probes == [n, n]

    def test_finalize_inherits_requested_storage(self, fused_inputs):
        scan, parent_delta, edges = self.scan_and_delta(fused_inputs)
        groups, _probes = scan.fold(parent_delta.table.rows())
        for index, edge in enumerate(edges):
            as_row = scan.finalize(index, groups[index], storage="row")
            as_col = scan.finalize(index, groups[index], storage="column")
            assert as_row.storage == "row"
            assert as_col.storage == "column"
            assert as_col.rows() == as_row.rows()
            assert as_row.rows() == edge.apply_delta(
                parent_delta.table, MinMaxPolicy.PAPER
            ).rows()

    def test_fold_columns_on_columnar_delta(self, fused_inputs):
        """Feeding the kernel a real columnar table's columns (typed
        arrays included) changes nothing."""
        scan, parent_delta, _edges = self.scan_and_delta(fused_inputs)
        columnar = Table(
            parent_delta.table.name,
            parent_delta.table.schema,
            storage="column",
        )
        columnar.append_batch(parent_delta.table.columns())
        row_groups, row_probes = scan.fold(parent_delta.table.rows())
        col_groups, col_probes = scan.fold_columns(
            columnar.columns(), len(columnar)
        )
        assert finalized(scan, col_groups) == finalized(scan, row_groups)
        assert col_probes == row_probes
