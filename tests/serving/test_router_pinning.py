"""Regression suite for the router's stale-read hazard.

Before the fix, :meth:`QueryRouter.answer` re-resolved
``plan.source_view.table`` at evaluation time, so a refresh landing
between planning and evaluation changed the data a single query read —
and a refresh landing *mid-scan* could tear it.  The plan now pins the
routed view's :class:`~repro.views.materialize.ViewVersion` once; these
tests fail on the old re-resolving path.
"""

import pytest

from repro.aggregates import CountStar, Sum
from repro.core import apply_refresh, compute_summary_delta
from repro.query import AggregateQuery, QueryRouter
from repro.relational import col
from repro.warehouse import ChangeSet

from ..conftest import sid_definition
from .conftest import canon


@pytest.fixture
def router(warehouse, pos):
    warehouse.define_summary_table(sid_definition(pos))
    return QueryRouter(warehouse)


def region_query(pos):
    return AggregateQuery.create(
        pos, ["storeID"], [("total", Sum(col("qty"))), ("n", CountStar())]
    )


def run_versioned_cycle(warehouse, pos):
    """Insert rows and publish a new epoch of every view over pos."""
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many([(1, 1, 1, 50, 9.0), (4, 4, 9, 60, 9.0)])
    view = next(iter(warehouse.views.values()))
    delta = compute_summary_delta(view.definition, changes)
    changes.apply_to(pos.table)
    apply_refresh(view, delta)


class TestPlanPinning:
    def test_plan_pins_table_and_epoch(self, router, pos):
        plan = router.plan(region_query(pos))
        assert plan.uses_summary_table
        assert plan.source_table is plan.source_view.table
        assert plan.source_epoch == plan.source_view.epoch

    def test_stale_plan_answers_from_its_pinned_epoch(
        self, router, warehouse, pos
    ):
        """The regression: a plan evaluated after a publish must return the
        pre-publish answer, not silently re-resolve to the new table."""
        query = region_query(pos)
        plan = router.plan(query)
        expected = canon(router.answer_plan(plan))

        run_versioned_cycle(warehouse, pos)
        assert plan.source_view.epoch == plan.source_epoch + 1

        # Old code re-read `source_view.table` here and returned the
        # post-publish answer; the pinned plan must not.
        stale_answer = canon(router.answer_plan(plan))
        assert stale_answer == expected

        fresh_answer = canon(router.answer(query))
        assert fresh_answer != stale_answer

    def test_fresh_plans_see_new_epochs(self, router, warehouse, pos):
        query = region_query(pos)
        before = canon(router.answer(query))
        run_versioned_cycle(warehouse, pos)
        plan = router.plan(query)
        assert plan.source_epoch == 1
        assert canon(router.answer_plan(plan)) != before

    def test_answer_equals_answer_plan(self, router, pos):
        query = region_query(pos)
        assert canon(router.answer(query)) == canon(
            router.answer_plan(router.plan(query))
        )

    def test_hand_built_plan_without_pin_still_answers(self, router, pos):
        """A plan constructed without a pinned table (older callers, or
        tests poking at internals) falls back to pinning at answer time."""
        from dataclasses import replace

        plan = router.plan(region_query(pos))
        unpinned = replace(plan, source_table=None, source_epoch=None)
        assert canon(router.answer_plan(unpinned)) == canon(
            router.answer_plan(plan)
        )

    def test_compensated_read_uses_pinned_table(self, router, warehouse, pos):
        """pending_deltas compensation starts from the pinned epoch, so a
        stale plan + pending delta equals refresh applied to that epoch."""
        query = region_query(pos)
        view = plan_view = router.plan(query).source_view
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert_many([(2, 2, 2, 10, 1.0)])
        delta = compute_summary_delta(view.definition, changes)

        plan = router.plan(query)
        compensated = canon(
            router.answer_plan(plan, pending_deltas={view.name: delta})
        )
        # Apply the same delta for real (versioned) and compare: the
        # compensated answer anticipated exactly the published state.
        changes.apply_to(pos.table)
        apply_refresh(plan_view, delta)
        assert compensated == canon(router.answer(query))
