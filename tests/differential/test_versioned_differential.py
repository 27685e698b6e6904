"""Differential testing of the one commit path: for any consistent change
set, ``apply_refresh`` must publish exactly one epoch whose rows equal
from-scratch recomputation and the SQLite backend's literal-SQL
maintenance.

The matrix crosses Table 1 view shapes, both MIN/MAX propagation
policies, and both backings of the stored view (columnar, the default,
and an explicit ``storage="row"``).  Hypothesis shrinks any disagreement
to a minimal change set and prints it re-runnably.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    MinMaxPolicy,
    PropagateOptions,
    apply_refresh,
    base_recompute_fn,
    compute_summary_delta,
)
from repro.relational import Table
from repro.sqlite_backend import SqliteWarehouse
from repro.views import MaterializedView, compute_rows
from repro.warehouse import ChangeSet

from ..property.test_property_refresh import (
    build_fact,
    fact_rows,
    make_view,
    split_changes,
)
from .harness import differ_message, rows_equivalent

delete_picks = st.lists(st.integers(0, 10_000), max_size=12)

#: Storage of the stored view's table, per backing.
BACKINGS = {"row": "row", "columnar": "column"}


def run_refresh(shape, policy, backing, base, to_insert, to_delete):
    """Build a fresh warehouse whose view is stored on *backing*, apply
    the change set, and return (final sorted rows, final epoch)."""
    pos = build_fact(base)
    built = MaterializedView.build(make_view(pos, shape))
    table = Table(built.table.name, built.table.schema, built.table.rows(),
                  storage=BACKINGS[backing])
    view = MaterializedView(built.definition, table)
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(to_insert)
    changes.delete_many(to_delete)
    delta = compute_summary_delta(
        view.definition, changes, PropagateOptions(policy=policy)
    )
    changes.apply_to(pos.table)
    apply_refresh(view, delta, recompute=base_recompute_fn(view.definition))
    return view.table.sorted_rows(), view.epoch


@pytest.mark.parametrize("backing", list(BACKINGS))
@pytest.mark.parametrize("policy", list(MinMaxPolicy))
@pytest.mark.parametrize("shape", ["fine", "minmax"])
@settings(max_examples=10, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_refresh_agrees_with_recomputation(
    shape, policy, backing, base, inserted, picks
):
    """Published refresh ≡ recomputation, per shape × policy × backing,
    in exactly one new epoch."""
    to_insert, to_delete = split_changes(base, inserted, picks)
    rows, epoch = run_refresh(
        shape, policy, backing, base, to_insert, to_delete
    )
    assert epoch == 1
    # Recompute from scratch against the *post-change* base.
    pos = build_fact(base)
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(to_insert)
    changes.delete_many(to_delete)
    changes.apply_to(pos.table)
    expected = compute_rows(make_view(pos, shape).resolved()).sorted_rows()

    assert rows_equivalent(expected, rows), differ_message(
        f"recomputation and refreshed views ({shape}, {policy.name}, "
        f"{backing})",
        base, to_insert, to_delete, expected, rows,
    )


@pytest.mark.parametrize("backing", list(BACKINGS))
@settings(max_examples=10, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_versioned_agrees_with_sqlite(backing, base, inserted, picks):
    """The published refresh and the SQLite backend (executing the
    paper's literal maintenance SQL) land identical summary tables."""
    to_insert, to_delete = split_changes(base, inserted, picks)
    versioned_rows, epoch = run_refresh(
        "minmax", MinMaxPolicy.PAPER, backing, base, to_insert, to_delete,
    )
    assert epoch == 1

    sqlite_pos = build_fact(base)
    warehouse = SqliteWarehouse()
    warehouse.load_fact(sqlite_pos)
    warehouse.define_summary_table(make_view(sqlite_pos, "minmax"))
    sqlite_changes = ChangeSet("pos", sqlite_pos.table.schema)
    sqlite_changes.insert_many(to_insert)
    sqlite_changes.delete_many(to_delete)
    warehouse.maintain(sqlite_changes)

    sqlite_rows = [tuple(row) for row in warehouse.sorted_rows("v")]
    assert rows_equivalent(sqlite_rows, versioned_rows), differ_message(
        f"sqlite and versioned post-refresh views ({backing})",
        base, to_insert, to_delete, sqlite_rows, versioned_rows,
    )
