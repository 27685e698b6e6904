"""Differential testing: every engine must agree on every change set.

Hypothesis generates random star-schema change sets (base rows, inserted
rows, a sampled subset of base rows to delete — always consistent) and
asserts that

* interpreted ``group_by`` (the ``interpreted`` fixture) and
* the codegen fast path

produce identical summary deltas, land identical post-refresh views, and
that the in-memory engine and the SQLite backend agree on the final
summary table.  Failures shrink to a minimal change set and print it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
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
from .harness import describe_changes, differ_message, rows_equivalent

delete_picks = st.lists(st.integers(0, 10_000), max_size=12)


def build_changes(pos, to_insert, to_delete) -> ChangeSet:
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(to_insert)
    changes.delete_many(to_delete)
    return changes


@pytest.mark.parametrize("shape", ["fine", "minmax", "coarse"])
@settings(max_examples=25, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_propagate_engines_agree(interpreted, shape, base, inserted, picks):
    """Interpreter and codegen deltas are identical."""
    pos = build_fact(base)
    definition = make_view(pos, shape)
    to_insert, to_delete = split_changes(base, inserted, picks)
    changes = build_changes(pos, to_insert, to_delete)

    with interpreted():
        interpreted_delta = compute_summary_delta(definition, changes)
    compiled = compute_summary_delta(definition, changes)

    reference = interpreted_delta.table.sorted_rows()
    assert compiled.table.sorted_rows() == reference, differ_message(
        "interpreted and codegen summary deltas",
        base, to_insert, to_delete,
        reference, compiled.table.sorted_rows(),
    )


@pytest.mark.parametrize("shape", ["fine", "minmax"])
@settings(max_examples=25, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_post_refresh_views_agree(interpreted, shape, base, inserted, picks):
    """Refreshing with each engine's delta lands the same view state, and
    that state matches from-scratch recomputation."""
    to_insert, to_delete = split_changes(base, inserted, picks)
    final_states = {}
    for engine in ("interpreted", "compiled"):
        pos = build_fact(base)
        view = MaterializedView.build(make_view(pos, shape))
        changes = build_changes(pos, to_insert, to_delete)
        if engine == "interpreted":
            with interpreted():
                delta = compute_summary_delta(view.definition, changes)
        else:
            delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        apply_refresh(view, delta, recompute=base_recompute_fn(view.definition))
        final_states[engine] = view.table.sorted_rows()
        expected = compute_rows(view.definition).sorted_rows()
        assert rows_equivalent(expected, final_states[engine]), (
            differ_message(
                f"{engine} post-refresh view and recomputation",
                base, to_insert, to_delete,
                expected, final_states[engine],
            )
        )

    assert final_states["interpreted"] == final_states["compiled"], (
        differ_message(
            "interpreted and codegen post-refresh views",
            base, to_insert, to_delete,
            final_states["interpreted"], final_states["compiled"],
        )
    )


@settings(max_examples=25, deadline=None)
@given(base=fact_rows, inserted=fact_rows, picks=delete_picks)
def test_memory_and_sqlite_backends_agree(base, inserted, picks):
    """The in-memory engine and the SQLite backend (which executes the
    paper's literal SQL) land identical post-refresh summary tables."""
    to_insert, to_delete = split_changes(base, inserted, picks)

    engine_pos = build_fact(base)
    engine_view = MaterializedView.build(make_view(engine_pos, "minmax"))
    engine_changes = build_changes(engine_pos, to_insert, to_delete)
    delta = compute_summary_delta(engine_view.definition, engine_changes)
    engine_changes.apply_to(engine_pos.table)
    apply_refresh(engine_view, delta,
                  recompute=base_recompute_fn(engine_view.definition))

    sqlite_pos = build_fact(base)
    warehouse = SqliteWarehouse()
    warehouse.load_fact(sqlite_pos)
    warehouse.define_summary_table(make_view(sqlite_pos, "minmax"))
    warehouse.maintain(build_changes(sqlite_pos, to_insert, to_delete))

    sqlite_rows = [tuple(row) for row in warehouse.sorted_rows("v")]
    assert rows_equivalent(sqlite_rows, engine_view.table.sorted_rows()), (
        differ_message(
            "sqlite and in-memory post-refresh views",
            base, to_insert, to_delete,
            sqlite_rows, engine_view.table.sorted_rows(),
        )
    )


def test_describe_changes_is_rerunnable():
    """The failure-message renderer lists every row of the change set."""
    text = describe_changes(
        [(1, 1, 1, 2, 1.0)], [(2, 2, 2, None, 1.0)], []
    )
    assert "base rows (1):" in text
    assert "(1, 1, 1, 2, 1.0)" in text
    assert "insertions (1):" in text
    assert "(2, 2, 2, None, 1.0)" in text
    assert "deletions (0):" in text
