"""Differential testing of D-lattice maintenance against direct propagation.

Hypothesis generates random star-schema change sets and drives them
through the four-view lattice of the shared-scan suite two ways: the
D-lattice walk (roots from the change set, every other node from its
parent's delta, Theorem 5.1) and the paper's propagate-without-lattice
baseline (every delta straight from the change set).  Both must land
identical summary tables, certificates and epoch manifests, equal to
from-scratch recomputation and to the SQLite backend executing the
paper's literal SQL.  Every node's delta must carry the change set's
lineage either way.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from repro.core import MinMaxPolicy, PropagateOptions
from repro.lattice import (
    build_lattice_for_views,
    maintain_lattice,
    propagate_lattice,
    propagate_without_lattice,
)
from repro.obs.lineage import LineageClock, set_lineage_clock
from repro.sqlite_backend import SqliteWarehouse
from repro.views import MaterializedView, compute_rows

from ..property.test_property_refresh import build_fact, fact_rows, split_changes
from .harness import differ_message, rows_equivalent
from .test_engines_differential import build_changes, delete_picks
from .test_shared_scan_differential import lattice_definitions


@contextmanager
def fresh_lineage_clock():
    """Pin batch-id allocation so independently built runs stamp the same
    ids and their manifests become exactly comparable."""
    previous = set_lineage_clock(LineageClock())
    try:
        yield
    finally:
        set_lineage_clock(previous)


def manifest_fingerprints(views):
    """Per-view manifest identity minus wall-clock noise: which batches
    became visible in which epoch."""
    return {
        view.definition.name: [
            (m.epoch, m.refresh_count, m.batches)
            for m in view.lineage.manifests()
        ]
        for view in views
    }


def maintained_state(base, to_insert, to_delete, policy, *, use_lattice):
    """Run full maintenance and return the final tables, certificates,
    manifest fingerprints and the views themselves."""
    with fresh_lineage_clock():
        pos = build_fact(base)
        views = [MaterializedView.build(d) for d in lattice_definitions(pos)]
        changes = build_changes(pos, to_insert, to_delete)
        maintain_lattice(
            views, changes, options=PropagateOptions(policy=policy),
            use_lattice=use_lattice,
        )
        tables = {
            view.definition.name: view.table.sorted_rows() for view in views
        }
        certificates = {
            view.definition.name: (
                view.certificate.value if view.certificate else None
            )
            for view in views
        }
        return tables, certificates, manifest_fingerprints(views), views


@pytest.mark.parametrize("policy", list(MinMaxPolicy))
@settings(max_examples=10, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_lattice_maintenance_matches_direct_and_sqlite(
    policy, base, inserted, picks
):
    """Lattice maintenance ≡ direct maintenance ≡ SQLite, with identical
    certificates and epoch manifests, across both MIN/MAX policies."""
    to_insert, to_delete = split_changes(base, inserted, picks)

    direct_tables, direct_certs, direct_manifests, _ = maintained_state(
        base, to_insert, to_delete, policy, use_lattice=False
    )
    tables, certs, manifests, views = maintained_state(
        base, to_insert, to_delete, policy, use_lattice=True
    )

    for name, reference in direct_tables.items():
        assert tables[name] == reference, differ_message(
            f"direct and lattice tables for {name!r}",
            base, to_insert, to_delete, reference, tables[name],
        )
    assert certs == direct_certs
    assert manifests == direct_manifests
    for view in views:
        expected = compute_rows(view.definition).sorted_rows()
        assert rows_equivalent(
            expected, view.table.sorted_rows()
        ), differ_message(
            f"lattice maintenance and recomputation for "
            f"{view.definition.name!r}",
            base, to_insert, to_delete, expected, view.table.sorted_rows(),
        )
        assert view.table.verify_indexes()

    sqlite_pos = build_fact(base)
    warehouse = SqliteWarehouse()
    warehouse.load_fact(sqlite_pos)
    for definition in lattice_definitions(sqlite_pos):
        warehouse.define_summary_table(definition)
    warehouse.maintain(build_changes(sqlite_pos, to_insert, to_delete))
    for name, rows in tables.items():
        sqlite_rows = [tuple(row) for row in warehouse.sorted_rows(name)]
        assert rows_equivalent(sqlite_rows, rows), differ_message(
            f"sqlite and lattice tables for {name!r}",
            base, to_insert, to_delete, sqlite_rows, rows,
        )


def test_multi_date_change_set_matches_deterministically():
    """A fixed change set touching every date and both sides of several
    groups lands the same tables, certificates and manifests either way,
    and the lattice run reads the change set for its one root only."""
    base = [(s, i, d, s + d, 1.0) for s in (1, 2) for i in (1, 2)
            for d in (1, 2, 3, 4, 5)]
    to_insert = [(2, 1, d, 9, 1.0) for d in (1, 2, 3, 4, 5)]
    to_delete = [(1, 1, 1, 2, 1.0), (1, 2, 4, 5, 1.0)]

    direct = maintained_state(
        base, to_insert, to_delete, MinMaxPolicy.PAPER, use_lattice=False
    )
    walked = maintained_state(
        base, to_insert, to_delete, MinMaxPolicy.PAPER, use_lattice=True
    )
    assert walked[0] == direct[0]
    assert walked[1] == direct[1]
    assert walked[2] == direct[2]
    lattice = build_lattice_for_views(walked[3])
    assert [node.name for node in lattice.roots()] == ["root"]
    assert len(lattice.order) == 4


@pytest.mark.parametrize("policy", list(MinMaxPolicy))
@settings(max_examples=10, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_every_delta_carries_the_change_set_lineage(
    policy, base, inserted, picks
):
    """Derived deltas inherit their parent's lineage, so every node —
    walked or computed directly — names exactly the change set's batches.
    Under the PAPER policy the deltas themselves are equal too."""
    to_insert, to_delete = split_changes(base, inserted, picks)
    with fresh_lineage_clock():
        pos = build_fact(base)
        views = [MaterializedView.build(d) for d in lattice_definitions(pos)]
        lattice = build_lattice_for_views(views)
        changes = build_changes(pos, to_insert, to_delete)
        options = PropagateOptions(policy=policy)
        walked = propagate_lattice(lattice, changes, options)
        direct = propagate_without_lattice(
            [view.definition for view in views], changes, options
        )
    batches = changes.lineage.batch_ids()
    assert batches
    for name in lattice.order:
        assert walked[name].lineage.batch_ids() == batches, name
        assert direct[name].lineage.batch_ids() == batches, name
        if policy is MinMaxPolicy.PAPER:
            reference = direct[name].table.sorted_rows()
            actual = walked[name].table.sorted_rows()
            assert actual == reference, differ_message(
                f"direct and lattice deltas for {name!r}",
                base, to_insert, to_delete, reference, actual,
            )
