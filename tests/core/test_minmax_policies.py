"""Null handling and MIN/MAX policy edge cases in refresh."""

import pytest

from repro.aggregates import Count, CountStar, Min, Sum
from repro.core import (
    MinMaxPolicy,
    PropagateOptions,
    apply_refresh,
    base_recompute_fn,
    compute_summary_delta,
)
from repro.relational import col
from repro.views import MaterializedView, SummaryViewDefinition
from repro.warehouse import ChangeSet

from ..conftest import assert_view_matches_recomputation, make_items, make_pos, make_stores


def build_nullable_view(rows):
    """A single-store view over data where qty may be null."""
    pos = make_pos(make_stores(), make_items(), rows=rows)
    definition = SummaryViewDefinition.create(
        "null_view",
        pos,
        group_by=["storeID"],
        aggregates=[
            ("n", CountStar()),
            ("n_qty", Count(col("qty"))),
            ("total", Sum(col("qty"))),
            ("lowest", Min(col("qty"))),
        ],
    )
    return pos, MaterializedView.build(definition)


def run(pos, view, inserts=(), deletes=(), policy=MinMaxPolicy.PAPER):
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(inserts)
    changes.delete_many(deletes)
    delta = compute_summary_delta(
        view.definition, changes, PropagateOptions(policy=policy)
    )
    changes.apply_to(pos.table)
    return apply_refresh(view, delta, recompute=base_recompute_fn(view.definition))


@pytest.mark.parametrize("policy", list(MinMaxPolicy))
class TestNullMeasures:
    def test_deleting_last_non_null_value_nulls_the_aggregates(self, policy):
        pos, view = build_nullable_view([
            (1, 10, 1, 5, 1.0),
            (1, 10, 1, None, 1.0),
        ])
        run(pos, view, deletes=[(1, 10, 1, 5, 1.0)], policy=policy)
        (row,) = view.table.rows()
        # COUNT(*)=1, COUNT(qty)=0, SUM/MIN null.
        assert row[1] == 1 and row[2] == 0
        assert row[3] is None and row[4] is None
        assert_view_matches_recomputation(view)

    def test_inserting_first_non_null_value(self, policy):
        pos, view = build_nullable_view([(1, 10, 1, None, 1.0)])
        run(pos, view, inserts=[(1, 10, 2, 7, 1.0)], policy=policy)
        (row,) = view.table.rows()
        assert row[2] == 1 and row[3] == 7 and row[4] == 7
        assert_view_matches_recomputation(view)

    def test_all_null_batch_leaves_aggregates_null(self, policy):
        pos, view = build_nullable_view([(1, 10, 1, None, 1.0)])
        run(pos, view, inserts=[(1, 10, 2, None, 1.0)], policy=policy)
        (row,) = view.table.rows()
        assert row[1] == 2 and row[2] == 0
        assert row[3] is None and row[4] is None

    def test_deleting_null_value_never_recomputes(self, policy):
        pos, view = build_nullable_view([
            (1, 10, 1, 5, 1.0),
            (1, 10, 1, None, 1.0),
        ])
        stats = run(pos, view, deletes=[(1, 10, 1, None, 1.0)], policy=policy)
        assert stats.recomputed == 0
        assert_view_matches_recomputation(view)


class TestPolicyDivergence:
    def test_tie_with_min_recomputes_under_both_policies_on_delete(self):
        # Two rows share the minimum; deleting one must keep min but the
        # stored extremum is threatened, so both policies recompute.
        for policy in MinMaxPolicy:
            pos, view = build_nullable_view([
                (1, 10, 1, 3, 1.0),
                (1, 10, 2, 3, 1.0),
            ])
            stats = run(pos, view, deletes=[(1, 10, 1, 3, 1.0)], policy=policy)
            assert stats.recomputed == 1
            (row,) = view.table.rows()
            assert row[4] == 3

    def test_insert_above_min_no_recompute_either_policy(self):
        for policy in MinMaxPolicy:
            pos, view = build_nullable_view([(1, 10, 1, 3, 1.0)])
            stats = run(pos, view, inserts=[(1, 10, 2, 9, 1.0)], policy=policy)
            assert stats.recomputed == 0

    def test_insert_below_min_diverges(self):
        pos, view = build_nullable_view([(1, 10, 1, 3, 1.0)])
        stats = run(pos, view, inserts=[(1, 10, 2, 1, 1.0)],
                    policy=MinMaxPolicy.PAPER)
        assert stats.recomputed == 1  # conservative

        pos, view = build_nullable_view([(1, 10, 1, 3, 1.0)])
        stats = run(pos, view, inserts=[(1, 10, 2, 1, 1.0)],
                    policy=MinMaxPolicy.SPLIT)
        assert stats.recomputed == 0  # folds the new min in place
        (row,) = view.table.rows()
        assert row[4] == 1

    def test_simultaneous_insert_below_and_delete_of_min(self):
        # SPLIT must still recompute: the old minimum was deleted, and the
        # inserted value (2) is not necessarily the new minimum... here it
        # is, but the policy cannot know without consulting base data.
        pos, view = build_nullable_view([
            (1, 10, 1, 3, 1.0),
            (1, 10, 2, 5, 1.0),
        ])
        stats = run(
            pos, view,
            inserts=[(1, 10, 3, 2, 1.0)],
            deletes=[(1, 10, 1, 3, 1.0)],
            policy=MinMaxPolicy.SPLIT,
        )
        assert stats.recomputed == 1
        assert_view_matches_recomputation(view)
