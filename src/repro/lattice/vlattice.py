"""Placing summary tables into a (partially-materialised) V-lattice.

Given a set of resolved view definitions, :class:`ViewLattice` computes the
derives relation between every pair (Section 5.1), reduces it to its Hasse
diagram, and picks one *derivation parent* per view — the ancestor whose
rows (or summary-delta rows, by Theorem 5.1) the view will be computed
from.  Views with no parent are *roots* and are computed directly from the
base data (or, for deltas, directly from the change set).

Parent choice is cost-based in the spirit of [AAD+96]/[SAG96], as
Section 5.5 prescribes: among candidate parents the one with the smallest
estimated input is chosen, with each dimension join annotated on the edge
adding a small multiplicative penalty.  Pass ``size_hints`` (e.g. current
materialised row counts) for an informed choice; without hints a proxy
based on group-by arity is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import LatticeError
from ..views.definition import SummaryViewDefinition
from .dag import DAG
from .derives import EdgeQuery, try_derive

#: Multiplicative cost penalty per dimension join annotated on an edge.
JOIN_PENALTY = 1.25


@dataclass
class PlanNode:
    """One view's place in the lattice plan."""

    definition: SummaryViewDefinition
    parent: str | None
    edge: EdgeQuery | None

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def is_root(self) -> bool:
        return self.parent is None


class ViewLattice:
    """The V-lattice over a set of summary-table definitions."""

    def __init__(
        self,
        nodes: dict[str, PlanNode],
        order: Sequence[str],
        graph: DAG,
        edges: dict[tuple[str, str], EdgeQuery],
    ):
        self.nodes = nodes
        self.order = list(order)
        self.graph = graph
        self.edges = edges
        # Memoized schedule decompositions (the lattice is immutable after
        # build(), so these never need invalidation).  ``explain``, the cost
        # model, and every maintenance run ask for the same antichain
        # decomposition; computing it once per lattice instead of once per
        # call keeps repeated explain/maintain cycles O(1) here.
        self._levels: list[list[str]] | None = None
        self._sibling_groups: list[list[str]] | None = None

    # ------------------------------------------------------------------

    @staticmethod
    def build(
        definitions: Sequence[SummaryViewDefinition],
        size_hints: Mapping[str, int] | None = None,
    ) -> "ViewLattice":
        """Compute the derives relation and a derivation plan.

        *definitions* must be resolved and have unique names.
        """
        names = [definition.name for definition in definitions]
        if len(set(names)) != len(names):
            raise LatticeError(f"duplicate view names: {names}")
        by_name = {definition.name: definition for definition in definitions}

        # Full derives DAG (parent -> child).
        edges: dict[tuple[str, str], EdgeQuery] = {}
        full = DAG()
        for name in names:
            full.add_node(name)
        for child in definitions:
            for parent in definitions:
                if child.name == parent.name:
                    continue
                edge = try_derive(child, parent)
                if edge is not None:
                    edges[(parent.name, child.name)] = edge
                    full.add_edge(parent.name, child.name)

        # Equivalent views (mutual derivability) would form 2-cycles; break
        # them deterministically by keeping only the lexicographically
        # earlier view as the parent.
        for parent_name, child_name in list(full.edges):
            if full.has_edge(child_name, parent_name) and parent_name > child_name:
                full.remove_edge(parent_name, child_name)
                edges.pop((parent_name, child_name), None)
        full.topological_order()   # raises LatticeError on a cycle
        hasse = full.transitive_reduction()

        def estimated_size(name: str) -> float:
            if size_hints is not None and name in size_hints:
                return float(size_hints[name])
            # Proxy: finer views (more group-by attributes) are larger.
            return float(10 ** len(by_name[name].group_by))

        nodes: dict[str, PlanNode] = {}
        for name in names:
            candidates = list(hasse.predecessors(name))
            if not candidates:
                nodes[name] = PlanNode(by_name[name], parent=None, edge=None)
                continue

            def cost(parent_name: str) -> float:
                edge = edges[(parent_name, name)]
                return estimated_size(parent_name) * (
                    JOIN_PENALTY ** len(edge.dimension_joins)
                )

            best = min(sorted(candidates), key=cost)
            nodes[name] = PlanNode(
                by_name[name], parent=best, edge=edges[(best, name)]
            )

        return ViewLattice(nodes, hasse.topological_order(), hasse, edges)

    # ------------------------------------------------------------------

    def roots(self) -> list[PlanNode]:
        """Views computed directly from base data / change sets."""
        return [node for node in self.nodes.values() if node.is_root]

    def propagation_levels(self) -> list[list[str]]:
        """Group the D-lattice nodes into parent-depth levels (antichains).

        Level 0 holds the roots; level *k* holds every node whose chosen
        derivation parent sits at level *k*-1.  Each node's delta depends
        only on its parent's delta, so every node of one level can be
        computed once the previous level is complete.  Within a level,
        nodes keep their ``order`` relative order, which makes the walk
        deterministic.

        Memoized: callers must treat the result as read-only.
        """
        if self._levels is None:
            depth: dict[str, int] = {}
            levels: list[list[str]] = []
            for name in self.order:
                node = self.node(name)
                if node.is_root:
                    level = 0
                else:
                    parent_depth = depth.get(node.parent)
                    if parent_depth is None:
                        raise LatticeError(
                            f"parent delta {node.parent!r} missing for {name!r}"
                        )
                    level = parent_depth + 1
                depth[name] = level
                if level == len(levels):
                    levels.append([])
                levels[level].append(name)
            self._levels = levels
        return self._levels

    def sibling_groups(self) -> list[list[str]]:
        """Derived nodes grouped into shared-scan units.

        One group per (level, derivation parent) pair, in level order and
        first-occurrence order within a level — exactly the units the
        shared-scan propagation engine fuses into one pass over the
        parent's delta, and the grouping the cost model mirrors when
        predicting saved scans.  Roots are not listed (they read the change
        set, not a parent delta).

        Memoized: callers must treat the result as read-only.
        """
        if self._sibling_groups is None:
            groups: list[list[str]] = []
            for level in self.propagation_levels():
                by_parent: dict[str, list[str]] = {}
                for name in level:
                    node = self.node(name)
                    if node.is_root:
                        continue
                    group = by_parent.get(node.parent)
                    if group is None:
                        group = by_parent[node.parent] = []
                        groups.append(group)
                    group.append(name)
            self._sibling_groups = groups
        return self._sibling_groups

    def node(self, name: str) -> PlanNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise LatticeError(f"no view named {name!r} in the lattice") from None

    def describe(self) -> str:
        """Multi-line plan description (matches the Figure 8 annotations)."""
        lines = []
        for name in self.order:
            node = self.nodes[name]
            if node.is_root:
                lines.append(f"{name} <- base data")
            else:
                joins = (
                    f" joining [{', '.join(node.edge.dimension_joins)}]"
                    if node.edge.dimension_joins
                    else ""
                )
                lines.append(f"{name} <- {node.parent}{joins}")
        return "\n".join(lines)
