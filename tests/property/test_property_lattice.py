"""Property-based checks of lattice construction and edge-query semantics."""

from hypothesis import given, settings, strategies as st

from repro.aggregates import CountStar, Min, Sum
from repro.lattice import combined_lattice, cube_lattice, derive, top
from repro.relational import col
from repro.views import SummaryViewDefinition, compute_rows
from repro.warehouse import ChangeSet

from .test_property_refresh import build_fact, fact_rows


attribute_names = st.lists(
    st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=4, unique=True
)


@settings(max_examples=50, deadline=None)
@given(attrs=attribute_names)
def test_cube_lattice_counts(attrs):
    graph = cube_lattice(attrs)
    k = len(attrs)
    assert len(graph.nodes) == 2 ** k
    assert len(graph.edges) == k * 2 ** (k - 1)
    assert len(graph.topological_order()) == 2 ** k   # acyclic
    assert top(graph) == frozenset(attrs)


chain_lists = st.lists(
    st.integers(1, 3), min_size=1, max_size=3
).map(
    lambda lengths: [
        [f"d{i}_{j}" for j in range(length)] for i, length in enumerate(lengths)
    ]
)


@settings(max_examples=50, deadline=None)
@given(chains=chain_lists)
def test_combined_lattice_is_product_of_chains(chains):
    graph = combined_lattice(chains)
    expected_nodes = 1
    for chain in chains:
        expected_nodes *= len(chain) + 1
    assert len(graph.nodes) == expected_nodes
    # Edge count: per node, one outgoing edge per dimension not yet dropped.
    expected_edges = sum(
        sum(
            1
            for i, depth in enumerate(graph.nodes[node]["levels"])
            if depth < len(chains[i])
        )
        for node in graph.nodes
    )
    assert len(graph.edges) == expected_edges
    assert len(graph.topological_order()) == expected_nodes   # acyclic


@settings(max_examples=40, deadline=None)
@given(base=fact_rows, extra=fact_rows)
def test_edge_query_commutes_with_base_changes(base, extra):
    """Deriving a child view from a parent view gives the same result before
    and after arbitrary base-data growth (edge queries are queries, not
    snapshots)."""
    pos = build_fact(base)
    parent = SummaryViewDefinition.create(
        "parent", pos, ["storeID", "itemID", "date"],
        [("n", CountStar()), ("total", Sum(col("qty")))],
    ).resolved()
    child = SummaryViewDefinition.create(
        "child", pos, ["region"],
        [("n", CountStar()), ("total", Sum(col("qty"))),
         ("first", Min(col("date")))],
        dimensions=["stores"],
    ).resolved()
    edge = derive(child, parent)

    assert edge.apply(compute_rows(parent)).sorted_rows() == compute_rows(child).sorted_rows()

    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(extra)
    changes.apply_to(pos.table)

    assert edge.apply(compute_rows(parent)).sorted_rows() == compute_rows(child).sorted_rows()
