"""Differential testing of the columnar engine.

Hypothesis generates random star-schema change sets and demands that the
columnar engine, the same engine on the interpreter
(the ``interpreted`` fixture), and the SQLite backend all land identical
post-refresh summary tables — and that each one matches from-scratch
recomputation — across the Table 1 aggregate shapes and both MIN/MAX
deletion policies.  (A refresh failing at every mutation of its shadow
is swept in ``tests/serving/test_fault_injection.py``.)
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


def final_state(shape, policy, base, to_insert, to_delete):
    """Build → propagate → refresh end to end (table construction
    included) and return the post-refresh summary rows and the recomputed
    ones."""
    pos = build_fact(base)
    view = MaterializedView.build(make_view(pos, shape))
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(to_insert)
    changes.delete_many(to_delete)
    delta = compute_summary_delta(
        view.definition, changes, PropagateOptions(policy=policy)
    )
    changes.apply_to(pos.table)
    apply_refresh(view, delta, recompute=base_recompute_fn(view.definition))
    recomputed = compute_rows(view.definition).sorted_rows()
    return view.table.sorted_rows(), recomputed


@pytest.mark.parametrize("shape", ["fine", "minmax", "coarse"])
@pytest.mark.parametrize("policy", list(MinMaxPolicy))
@settings(max_examples=15, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_columnar_engines_agree(
    interpreted, shape, policy, base, inserted, picks
):
    """Compiled and interpreted folds land identical post-refresh views,
    each equal to from-scratch recomputation."""
    to_insert, to_delete = split_changes(base, inserted, picks)
    states = {}
    for engine, context in (("columnar", nullcontext),
                            ("interpreted", interpreted)):
        with context():
            state, recomputed = final_state(
                shape, policy, base, to_insert, to_delete
            )
        states[engine] = state
        assert rows_equivalent(recomputed, state), differ_message(
            f"{engine} post-refresh view and recomputation",
            base, to_insert, to_delete, recomputed, state,
        )
    assert states["interpreted"] == states["columnar"], differ_message(
        "compiled and interpreted post-refresh views",
        base, to_insert, to_delete, states["columnar"], states["interpreted"],
    )


@settings(max_examples=15, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_columnar_and_sqlite_agree(base, inserted, picks):
    """The columnar engine and the SQLite backend (the paper's literal
    SQL) land identical post-refresh summary tables."""
    to_insert, to_delete = split_changes(base, inserted, picks)
    columnar, _ = final_state(
        "minmax", MinMaxPolicy.PAPER, base, to_insert, to_delete
    )

    sqlite_pos = build_fact(base)
    warehouse = SqliteWarehouse()
    warehouse.load_fact(sqlite_pos)
    warehouse.define_summary_table(make_view(sqlite_pos, "minmax"))
    changes = ChangeSet("pos", sqlite_pos.table.schema)
    changes.insert_many(to_insert)
    changes.delete_many(to_delete)
    warehouse.maintain(changes)
    sqlite_rows = [tuple(row) for row in warehouse.sorted_rows("v")]

    assert rows_equivalent(sqlite_rows, columnar), differ_message(
        "sqlite and columnar post-refresh views",
        base, to_insert, to_delete, sqlite_rows, columnar,
    )
