"""Figure 4: the data-cube lattice, and partial materialisation (§3.4)."""

import pytest

from repro.errors import LatticeError
from repro.lattice import (
    DAG,
    bottom,
    cube_lattice,
    grouping_label,
    remove_node,
    restrict_to,
    top,
)


@pytest.fixture
def figure4():
    return cube_lattice(["storeID", "itemID", "date"])


class TestFigure4:
    def test_has_2_to_the_k_nodes(self, figure4):
        assert len(figure4.nodes) == 8

    def test_top_and_bottom(self, figure4):
        assert top(figure4) == frozenset({"storeID", "itemID", "date"})
        assert bottom(figure4) == frozenset()

    def test_edges_drop_exactly_one_attribute(self, figure4):
        for parent, child in figure4.edges:
            assert child < parent
            assert len(parent - child) == 1

    def test_edge_count(self, figure4):
        # Each of the 8 subsets has one outgoing edge per member: 3·2^2 = 12.
        assert len(figure4.edges) == 12

    def test_every_node_reachable_from_top(self, figure4):
        reachable = figure4.descendants(top(figure4))
        assert len(reachable) == 7

    def test_is_a_dag(self, figure4):
        # topological_order raises LatticeError on a cycle.
        assert len(figure4.topological_order()) == 8

    def test_example_edge(self, figure4):
        assert figure4.has_edge(
            frozenset({"storeID", "itemID", "date"}),
            frozenset({"storeID", "itemID"}),
        )
        assert not figure4.has_edge(
            frozenset({"storeID", "itemID", "date"}),
            frozenset({"storeID"}),
        )


class TestPartialMaterialisation:
    def test_remove_node_reconnects(self, figure4):
        si = frozenset({"storeID", "itemID"})
        reduced = remove_node(figure4, si)
        assert si not in reduced
        # (storeID) and (itemID) must now be reachable from the top directly.
        assert reduced.has_edge(top(figure4), frozenset({"storeID"}))
        assert reduced.has_edge(top(figure4), frozenset({"itemID"}))

    def test_remove_missing_node_raises(self, figure4):
        with pytest.raises(LatticeError):
            remove_node(figure4, frozenset({"ghost"}))

    def test_remove_does_not_mutate_original(self, figure4):
        remove_node(figure4, frozenset({"storeID"}))
        assert frozenset({"storeID"}) in figure4

    def test_restrict_to_keeps_derivability(self, figure4):
        keep = [
            frozenset({"storeID", "itemID", "date"}),
            frozenset({"storeID"}),
            frozenset(),
        ]
        reduced = restrict_to(figure4, keep)
        assert set(reduced.nodes) == set(keep)
        assert reduced.has_edge(keep[0], keep[1])
        assert reduced.has_edge(keep[1], keep[2])
        # Hasse diagram: no shortcut edge across (storeID).
        assert not reduced.has_edge(keep[0], keep[2])

    def test_restrict_to_unknown_node_raises(self, figure4):
        with pytest.raises(LatticeError):
            restrict_to(figure4, [frozenset({"ghost"})])

    def test_removing_bottom_leaves_partial_order(self, figure4):
        reduced = remove_node(figure4, frozenset())
        leaves = [n for n in reduced.nodes if reduced.out_degree(n) == 0]
        assert len(leaves) == 3  # no longer a lattice: three bottom elements


class TestLabels:
    def test_label_uses_canonical_order(self):
        label = grouping_label(
            frozenset({"date", "storeID"}), ["storeID", "itemID", "date"]
        )
        assert label == "(storeID, date)"

    def test_empty_label(self):
        assert grouping_label(frozenset(), []) == "()"


class TestDAG:
    def test_cycle_raises_lattice_error(self):
        graph = DAG()
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")
        with pytest.raises(LatticeError, match="cycle"):
            graph.topological_order()

    def test_ties_break_in_insertion_order(self):
        graph = DAG()
        for node in ("root", "z", "a", "m"):
            graph.add_node(node)
        graph.add_edge("root", "m")
        graph.add_edge("root", "z")
        graph.add_edge("z", "a")
        assert graph.topological_order() == ["root", "m", "z", "a"]

    def test_relabel_keeps_edges_and_attributes(self):
        graph = DAG()
        graph.add_node("a", levels=(0,))
        graph.add_edge("a", "b")
        renamed = graph.relabel(str.upper)
        assert renamed.edges == [("A", "B")]
        assert renamed.nodes["A"] == {"levels": (0,)}
