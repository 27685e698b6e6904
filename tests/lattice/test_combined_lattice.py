"""Figure 5: the direct product of fact and dimension-hierarchy lattices."""

import pytest

from repro.errors import LatticeError
from repro.lattice import bottom, combined_lattice, hierarchy_chain, top
from repro.warehouse import DimensionHierarchy

STORE_CHAIN = ("storeID", "city", "region")
ITEM_CHAIN = ("itemID", "category")
DATE_CHAIN = ("date",)


@pytest.fixture
def figure5():
    return combined_lattice([STORE_CHAIN, ITEM_CHAIN, DATE_CHAIN])


class TestFigure5:
    def test_node_count_is_product_of_choices(self, figure5):
        # (storeID|city|region|−) × (itemID|category|−) × (date|−) = 4·3·2.
        assert len(figure5.nodes) == 24

    def test_top_is_finest_grouping(self, figure5):
        assert top(figure5) == frozenset({"storeID", "itemID", "date"})

    def test_bottom_is_empty_grouping(self, figure5):
        assert bottom(figure5) == frozenset()

    @pytest.mark.parametrize(
        "node",
        [
            {"storeID", "itemID", "date"},
            {"storeID", "category", "date"},
            {"city", "itemID", "date"},
            {"city", "category", "date"},
            {"region", "itemID", "date"},
            {"region", "category", "date"},
            {"city", "date"},
            {"region", "category"},
            {"region"},
            {"category"},
            {"date"},
            set(),
        ],
    )
    def test_paper_figure_nodes_present(self, figure5, node):
        assert frozenset(node) in figure5.nodes

    def test_figure5_example_edges(self, figure5):
        # (storeID, itemID, date) -> (storeID, category, date): coarsen item.
        assert figure5.has_edge(
            frozenset({"storeID", "itemID", "date"}),
            frozenset({"storeID", "category", "date"}),
        )
        # (city, date) -> (region, date): coarsen store hierarchy one step.
        assert figure5.has_edge(
            frozenset({"city", "date"}), frozenset({"region", "date"})
        )
        # No edge skipping a hierarchy level.
        assert not figure5.has_edge(
            frozenset({"storeID", "date"}), frozenset({"region", "date"})
        )

    def test_mixed_granularity_never_within_one_dimension(self, figure5):
        for node in figure5.nodes:
            assert len(node & set(STORE_CHAIN)) <= 1
            assert len(node & set(ITEM_CHAIN)) <= 1

    def test_is_dag_with_single_top_and_bottom(self, figure5):
        # topological_order raises LatticeError on a cycle.
        assert len(figure5.topological_order()) == 24
        assert top(figure5) is not None and bottom(figure5) is not None

    def test_levels_attribute_recorded(self, figure5):
        levels = figure5.nodes[frozenset({"region", "category", "date"})]["levels"]
        assert levels == (2, 1, 0)


class TestValidation:
    def test_empty_chain_list_rejected(self):
        with pytest.raises(LatticeError):
            combined_lattice([])

    def test_empty_chain_rejected(self):
        with pytest.raises(LatticeError):
            combined_lattice([("a",), ()])

    def test_shared_attributes_rejected(self):
        with pytest.raises(LatticeError, match="share"):
            combined_lattice([("a", "b"), ("b",)])

    def test_hierarchy_chain_helper(self):
        hierarchy = DimensionHierarchy("stores", STORE_CHAIN)
        assert hierarchy_chain(hierarchy) == STORE_CHAIN
