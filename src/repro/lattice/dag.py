"""A small directed acyclic graph for the paper's lattices.

The cube, combined, V- and D-lattices (Sections 3.2–3.4, 5.1) have a few
dozen nodes at most.  :class:`DAG` keeps one as insertion-ordered maps,
so every walk over it, the topological order included, is the same in
every process.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Any, Callable, Hashable, Iterable

from ..errors import LatticeError

Node = Hashable


class DAG:
    """Nodes with attribute dicts, and directed edges parent → child."""

    def __init__(self) -> None:
        #: node → its attribute dict, e.g. ``graph.nodes[node]["levels"]``.
        self.nodes: dict[Node, dict[str, Any]] = {}
        self._children: dict[Node, dict[Node, None]] = {}
        self._parents: dict[Node, dict[Node, None]] = {}

    def add_node(self, node: Node, **attributes: Any) -> None:
        if node not in self.nodes:
            self.nodes[node] = {}
            self._children[node] = {}
            self._parents[node] = {}
        self.nodes[node].update(attributes)

    def add_edge(self, parent: Node, child: Node) -> None:
        self.add_node(parent)
        self.add_node(child)
        self._children[parent][child] = None
        self._parents[child][parent] = None

    def remove_edge(self, parent: Node, child: Node) -> None:
        del self._children[parent][child]
        del self._parents[child][parent]

    def remove_node(self, node: Node) -> None:
        for child in self._children.pop(node):
            del self._parents[child][node]
        for parent in self._parents.pop(node):
            del self._children[parent][node]
        del self.nodes[node]

    def __contains__(self, node: object) -> bool:
        return node in self.nodes

    @property
    def edges(self) -> list[tuple[Node, Node]]:
        return [
            (parent, child)
            for parent, children in self._children.items()
            for child in children
        ]

    def has_edge(self, parent: Node, child: Node) -> bool:
        return child in self._children.get(parent, ())

    def successors(self, node: Node) -> list[Node]:
        return list(self._children[node])

    def predecessors(self, node: Node) -> list[Node]:
        return list(self._parents[node])

    def in_degree(self, node: Node) -> int:
        return len(self._parents[node])

    def out_degree(self, node: Node) -> int:
        return len(self._children[node])

    def descendants(self, node: Node) -> list[Node]:
        """Every node reachable from *node* (itself excluded), breadth
        first."""
        found = list(self._children[node])
        seen = set(found)
        for reached in found:
            for child in self._children[reached]:
                if child not in seen:
                    seen.add(child)
                    found.append(child)
        return found

    def topological_order(self) -> list[Node]:
        """Parents before children: generation by generation, each in
        insertion order.  Raises :class:`LatticeError` on a cycle."""
        sorter: TopologicalSorter = TopologicalSorter()
        for node in self.nodes:
            sorter.add(node)
        for parent, child in self.edges:
            sorter.add(child, parent)
        try:
            return list(sorter.static_order())
        except CycleError as error:
            raise LatticeError(f"graph contains a cycle: {error.args[1]}") from None

    def subgraph(self, keep: Iterable[Node]) -> "DAG":
        """A copy of the nodes in *keep* and of the edges between them."""
        kept = set(keep)
        result = DAG()
        for node, attributes in self.nodes.items():
            if node in kept:
                result.add_node(node, **attributes)
        for parent, child in self.edges:
            if parent in kept and child in kept:
                result.add_edge(parent, child)
        return result

    def copy(self) -> "DAG":
        return self.subgraph(self.nodes)

    def relabel(self, name: Callable[[Node], Node]) -> "DAG":
        """A copy with every node renamed by *name*."""
        result = DAG()
        for node, attributes in self.nodes.items():
            result.add_node(name(node), **attributes)
        for parent, child in self.edges:
            result.add_edge(name(parent), name(child))
        return result

    def transitive_closure(self) -> "DAG":
        """A copy with an edge from every node to each of its
        descendants."""
        result = self.copy()
        for node in self.nodes:
            for descendant in self.descendants(node):
                result.add_edge(node, descendant)
        return result

    def transitive_reduction(self) -> "DAG":
        """The Hasse diagram: a copy keeping an edge only when no longer
        path joins its ends."""
        reach = {node: set(self.descendants(node)) for node in self.nodes}
        result = self.copy()
        for parent, child in self.edges:
            if any(child in reach[other] for other in self._children[parent]):
                result.remove_edge(parent, child)
        return result
