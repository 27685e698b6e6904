"""Differential testing of the one commit path: for any consistent change
set, ``apply_refresh`` must publish exactly one epoch whose rows equal
from-scratch recomputation and the SQLite backend's literal-SQL
maintenance.

The matrix crosses Table 1 view shapes, both MIN/MAX propagation
policies, and both engines (the compiled kernels, and the interpreter
they fall back to, via the ``interpreted`` fixture).  Hypothesis shrinks
any disagreement to a minimal change set and prints it re-runnably.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    MinMaxPolicy,
    PropagateOptions,
    apply_refresh,
    base_recompute_fn,
    compute_summary_delta,
)
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

ENGINES = ["compiled", "interpreted"]


def engine_context(engine, interpreted):
    """The context a run on *engine* happens in."""
    return interpreted if engine == "interpreted" else nullcontext


def run_refresh(shape, policy, engine, base, to_insert, to_delete):
    """Build a fresh warehouse, apply the change set — every fold and
    projection inside the *engine* context — and return (final sorted
    rows, final epoch)."""
    with engine():
        pos = build_fact(base)
        view = MaterializedView.build(make_view(pos, shape))
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert_many(to_insert)
        changes.delete_many(to_delete)
        delta = compute_summary_delta(
            view.definition, changes, PropagateOptions(policy=policy)
        )
        changes.apply_to(pos.table)
        apply_refresh(view, delta,
                      recompute=base_recompute_fn(view.definition))
    return view.table.sorted_rows(), view.epoch


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", list(MinMaxPolicy))
@pytest.mark.parametrize("shape", ["fine", "minmax"])
@settings(max_examples=10, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_refresh_agrees_with_recomputation(
    shape, policy, engine, base, inserted, picks, interpreted
):
    """Published refresh ≡ recomputation, per shape × policy × engine,
    in exactly one new epoch."""
    to_insert, to_delete = split_changes(base, inserted, picks)
    rows, epoch = run_refresh(
        shape, policy, engine_context(engine, interpreted), base,
        to_insert, to_delete,
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
        f"{engine})",
        base, to_insert, to_delete, expected, rows,
    )


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=10, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_versioned_agrees_with_sqlite(engine, base, inserted, picks,
                                      interpreted):
    """The published refresh and the SQLite backend (executing the
    paper's literal maintenance SQL) land identical summary tables."""
    to_insert, to_delete = split_changes(base, inserted, picks)
    versioned_rows, epoch = run_refresh(
        "minmax", MinMaxPolicy.PAPER, engine_context(engine, interpreted),
        base, to_insert, to_delete,
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
        f"sqlite and versioned post-refresh views ({engine})",
        base, to_insert, to_delete, sqlite_rows, versioned_rows,
    )
