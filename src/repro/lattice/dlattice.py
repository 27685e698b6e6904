"""The D-lattice: summary-delta tables arranged like their views.

Theorem 5.1: *the D-lattice is identical to the V-lattice, including the
queries along each edge, modulo a change in the names of tables at each
node.*  In this reproduction the theorem is executable rather than merely
structural: a :class:`~repro.lattice.derives.EdgeQuery` derived for the
V-lattice computes child *view* rows when applied to parent view rows and
child *summary-delta* rows when applied to parent summary-delta rows
(:meth:`~repro.lattice.derives.EdgeQuery.apply_delta`).

The helpers here exist mostly for introspection and tests: they produce the
renamed graph the theorem talks about and verify the delta/view schema
correspondence.
"""

from __future__ import annotations

from ..core.deltas import MinMaxPolicy, delta_schema
from .dag import DAG
from .vlattice import ViewLattice


def delta_name(view_name: str) -> str:
    """The paper's naming convention for summary-delta tables."""
    return f"sd_{view_name}"


def summary_delta_lattice(lattice: ViewLattice) -> DAG:
    """The D-lattice graph: the V-lattice with nodes renamed ``sd_…``."""
    return lattice.graph.relabel(delta_name)


def check_theorem_5_1(lattice: ViewLattice, policy: MinMaxPolicy) -> bool:
    """Structural statement of Theorem 5.1 for this lattice.

    Confirms that renaming view nodes to delta nodes is a graph isomorphism
    (trivially true by construction — asserted for tests) and that every
    delta table's schema extends its view's storage schema only by the
    SPLIT-policy bookkeeping columns.
    """
    renamed = summary_delta_lattice(lattice)
    if set(renamed.nodes) != {delta_name(name) for name in lattice.nodes}:
        return False
    for name, node in lattice.nodes.items():
        view_columns = list(node.definition.storage_schema().columns)
        delta_columns = list(delta_schema(node.definition, policy).columns)
        if delta_columns[: len(view_columns)] != view_columns:
            return False
        if policy is MinMaxPolicy.PAPER and delta_columns != view_columns:
            return False
    return True
