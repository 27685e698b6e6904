"""Fixtures for the concurrent-serving suite: a small retail warehouse
plus helpers to run maintenance cycles and canonicalise query results."""

import pytest

from repro.workload import (
    RetailConfig,
    build_retail_warehouse,
    generate_retail,
    update_generating_changes,
)


@pytest.fixture
def retail():
    """A generated retail star schema with its four Figure 1 views."""
    data = generate_retail(RetailConfig(pos_rows=3_000))
    warehouse = build_retail_warehouse(data)
    return data, warehouse


def run_cycle(data, warehouse, n_changes=300, **kwargs):
    """One full maintenance cycle over the warehouse's pos views."""
    from repro.lattice.plan import maintain_lattice

    changes = update_generating_changes(
        data.pos, data.config, n_changes, data.rng
    )
    return maintain_lattice(warehouse.views_over("pos"), changes, **kwargs)


def canon(table):
    """A comparable canonical form for a query result table."""
    return tuple(sorted(table.rows()))
