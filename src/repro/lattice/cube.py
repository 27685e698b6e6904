"""Cube and dimension-hierarchy lattices (paper, Sections 3.2–3.4).

A data cube with *k* dimension attributes is shorthand for 2^k cube views,
one per subset of the attributes; arranging them by ⊂ gives the cube
lattice of Figure 4.  Dimension hierarchies contribute their own small
lattices (group by storeID, by city, by region, or not at all), and the
*direct product* of the fact lattice with the hierarchy lattices yields the
combined lattice of Figure 5 ([HRU96]).

Nodes are ``frozenset`` s of attribute names.  Edges run from the node
above (finer) to the node below (coarser): an edge ``v1 → v2`` means the
view grouping by ``v2`` can be answered from the view grouping by ``v1``.
Only *covering* edges (one granularity step in one dimension) are stored —
the Hasse diagram — since all other derivations follow by transitivity.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from ..errors import LatticeError
from ..warehouse.dimension import DimensionHierarchy
from .dag import DAG

GroupingSet = frozenset


def hierarchy_chain(hierarchy: DimensionHierarchy) -> tuple[str, ...]:
    """The grouping chain a hierarchy contributes, finest level first."""
    return hierarchy.levels


def combined_lattice(chains: Sequence[Sequence[str]]) -> DAG:
    """Direct product of per-dimension grouping chains (Figure 5).

    Each chain lists one dimension's grouping attributes from finest to
    coarsest; every dimension additionally offers "not grouped".  A plain
    (non-hierarchical) dimension attribute is a chain of length one.

    Nodes of the result are frozensets of attribute names; edges are the
    covering steps (coarsen exactly one dimension by exactly one level).
    Each node also carries a ``levels`` attribute — the per-chain depth
    vector that produced it (``len(chain)`` means "dropped").
    """
    if not chains:
        raise LatticeError("combined_lattice requires at least one chain")
    normalized = [tuple(chain) for chain in chains]
    for chain in normalized:
        if not chain:
            raise LatticeError("every chain must contain at least one attribute")
    all_attrs = [attr for chain in normalized for attr in chain]
    if len(set(all_attrs)) != len(all_attrs):
        raise LatticeError(f"chains share attributes: {all_attrs}")

    graph = DAG()
    # Depth d in [0, len(chain)]: group by chain[d], or drop when d == len.
    depth_choices = [range(len(chain) + 1) for chain in normalized]
    for depths in product(*depth_choices):
        node = _node_for(normalized, depths)
        graph.add_node(node, levels=tuple(depths))
        for position, depth in enumerate(depths):
            if depth < len(normalized[position]):
                coarser = list(depths)
                coarser[position] = depth + 1
                graph.add_edge(node, _node_for(normalized, tuple(coarser)))
    return graph


def _node_for(chains: Sequence[tuple[str, ...]], depths: Sequence[int]) -> GroupingSet:
    attrs = []
    for chain, depth in zip(chains, depths):
        if depth < len(chain):
            attrs.append(chain[depth])
    return frozenset(attrs)


def cube_lattice(attributes: Iterable[str]) -> DAG:
    """The plain 2^k cube lattice over *attributes* (Figure 4)."""
    return combined_lattice([[attribute] for attribute in attributes])


def top(graph: DAG) -> GroupingSet:
    """The unique finest node (no incoming edges)."""
    roots = [node for node in graph.nodes if graph.in_degree(node) == 0]
    if len(roots) != 1:
        raise LatticeError(f"lattice has {len(roots)} top elements")
    return roots[0]


def bottom(graph: DAG) -> GroupingSet:
    """The unique coarsest node (no outgoing edges)."""
    leaves = [node for node in graph.nodes if graph.out_degree(node) == 0]
    if len(leaves) != 1:
        raise LatticeError(f"lattice has {len(leaves)} bottom elements")
    return leaves[0]


def remove_node(graph: DAG, node: GroupingSet) -> DAG:
    """Partially-materialised lattice step (Section 3.4): drop *node*,
    reconnecting every (ancestor, descendant) pair across it."""
    if node not in graph:
        raise LatticeError(f"node {set(node)!r} not in lattice")
    result = graph.copy()
    parents = result.predecessors(node)
    children = result.successors(node)
    result.remove_node(node)
    for parent in parents:
        for child in children:
            result.add_edge(parent, child)
    return result


def restrict_to(graph: DAG, keep: Iterable[GroupingSet]) -> DAG:
    """Drop every node not in *keep*, preserving derivability edges.

    The result is the partially-materialised lattice over exactly the kept
    nodes: an edge u → v exists when v ⊆-derivable from u through any path
    of removed nodes, reduced to its Hasse diagram.
    """
    keep_set = set(keep)
    missing = keep_set - set(graph.nodes)
    if missing:
        raise LatticeError(f"nodes not in lattice: {[set(m) for m in missing]}")
    return graph.transitive_closure().subgraph(keep_set).transitive_reduction()


def grouping_label(node: GroupingSet, order: Sequence[str]) -> str:
    """Human-readable label, attributes in canonical *order*."""
    ordered = [attr for attr in order if attr in node]
    extras = sorted(node - set(ordered))
    return "(" + ", ".join(ordered + extras) + ")"
