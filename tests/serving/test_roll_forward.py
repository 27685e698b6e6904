"""Cached answers rolled forward over the source view's summary delta.

A COUNT/SUM answer cached at one epoch of its source view is brought to
the next epoch by refreshing a copy of it with the view's published
summary delta, rolled up along the query's lattice edge — the paper's
maintenance applied to an answer.  It must equal the answer computed from
the view; anything else (a skipped epoch, MIN/MAX, a dimension join) is
computed from the view as before.
"""

import pytest

from repro.aggregates import CountStar, Min, Sum
from repro.query import AggregateQuery
from repro.query import router as router_module
from repro.relational import col
from repro.serve import QueryServer

from .conftest import canon, run_cycle


def queries(pos):
    return {
        "by store and date": AggregateQuery.create(
            pos, ["storeID", "date"],
            [("sales", CountStar()), ("units", Sum(col("qty")))],
        ),
        "total": AggregateQuery.create(pos, [], [("units", Sum(col("qty")))]),
        "by category and date": AggregateQuery.create(
            pos, ["category", "date"], [("sales", CountStar())]
        ),
    }


@pytest.fixture
def rolls(monkeypatch):
    """The names of the queries whose answer was rolled forward."""
    calls = []
    roll = router_module._roll_forward

    def counting(edge, full, delta):
        calls.append(edge.child.group_by)
        return roll(edge, full, delta)

    monkeypatch.setattr(router_module, "_roll_forward", counting)
    return calls


def test_rolled_forward_answers_equal_answers_from_the_view(retail, rolls):
    data, warehouse = retail
    server = QueryServer(warehouse)
    try:
        pool = queries(data.pos)
        first = {name: server.answer(query) for name, query in pool.items()}
        kept = {name: canon(answer) for name, answer in first.items()}
        for _ in range(4):
            run_cycle(data, warehouse)
            for name, query in pool.items():
                assert canon(server.answer(query)) == canon(
                    server.answer(query, use_cache=False)
                ), name
        # Each cycle rolled the two summable, join-free answers forward,
        # and no answer a reader was handed changed.
        assert len(rolls) == 8
        assert {canon(answer) for answer in first.values()} == set(kept.values())
    finally:
        server.close()


def test_a_skipped_epoch_is_answered_from_the_view(retail, rolls):
    data, warehouse = retail
    server = QueryServer(warehouse)
    try:
        query = queries(data.pos)["by store and date"]
        server.answer(query)
        run_cycle(data, warehouse)
        run_cycle(data, warehouse)
        assert canon(server.answer(query)) == canon(
            server.answer(query, use_cache=False)
        )
        assert rolls == []
        run_cycle(data, warehouse)
        assert canon(server.answer(query)) == canon(
            server.answer(query, use_cache=False)
        )
        assert len(rolls) == 1
    finally:
        server.close()


def test_only_summable_join_free_answers_roll_forward(retail):
    data, warehouse = retail
    server = QueryServer(warehouse)
    try:
        pos = data.pos
        plan = server.router.plan
        rolls_forward = server.router.rolls_forward
        pool = queries(pos)
        assert rolls_forward(plan(pool["by store and date"]))
        assert rolls_forward(plan(pool["total"]))
        # From SID_sales joined to items.
        assert not rolls_forward(plan(pool["by category and date"]))
        earliest = AggregateQuery.create(
            pos, ["storeID"], [("first", Min(col("date")))]
        )
        assert not rolls_forward(plan(earliest))
    finally:
        server.close()
