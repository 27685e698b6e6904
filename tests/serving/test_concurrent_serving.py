"""The concurrency battery: hammer the query server from many threads
while versioned maintenance cycles publish new epochs, and prove that
every single answer equals the content of *one* published epoch of the
routed view — never a mixture of two (a torn read).

The validation scheme exploits the core property under test: published
epoch tables are immutable, so the maintainer can log every view's
:class:`~repro.views.materialize.ViewVersion` per epoch as it publishes,
and each recorded answer can be checked after the fact against the
logged table for exactly the epoch the reader's plan pinned.
"""

import threading

import pytest

from repro.aggregates import CountStar, Sum
from repro.lattice.derives import try_derive
from repro.query import AggregateQuery
from repro.query.router import _project_user_columns
from repro.serve import QueryServer
from repro.warehouse.health import audit_warehouse

from .conftest import canon, run_cycle

#: Acceptance floor: total concurrent queries validated per battery run.
TOTAL_QUERIES = 10_000
READERS = 8
PER_READER = TOTAL_QUERIES // READERS


def query_pool(pos):
    """Queries that all route to summary tables (the versioned surface)."""
    return [
        AggregateQuery.create(
            pos, ["region"], [("units", Sum(col_qty()))]
        ),
        AggregateQuery.create(
            pos, ["city", "region"],
            [("sales", CountStar()), ("units", Sum(col_qty()))],
        ),
        AggregateQuery.create(
            pos, ["storeID", "date"], [("units", Sum(col_qty()))]
        ),
        AggregateQuery.create(pos, ["category"], [("sales", CountStar())]),
        AggregateQuery.create(pos, [], [("units", Sum(col_qty()))]),
    ]


def col_qty():
    from repro.relational import col

    return col("qty")


def expected_answer(query, view, version):
    """The answer the query must have if it read exactly *version*."""
    resolved = query.definition.resolved()
    edge = try_derive(resolved, view.definition)
    assert edge is not None
    full = edge.apply(version.table, name="__query__")
    return canon(_project_user_columns(full, resolved, query))


def test_no_torn_reads_under_concurrent_maintenance(retail):
    data, warehouse = retail
    views = warehouse.views_over("pos")
    queries = query_pool(data.pos)

    # Epoch log: version objects per view per epoch, starting at epoch 0.
    # Only the maintainer publishes, so the log is complete by definition.
    epoch_log = {
        view.name: {0: view.pin()} for view in views
    }
    stop = threading.Event()
    cycles_done = [0]
    maintainer_errors: list[BaseException] = []

    def maintainer():
        try:
            while not stop.is_set():
                run_cycle(data, warehouse, n_changes=250, mode="versioned")
                for view in views:
                    version = view.pin()
                    epoch_log[view.name][version.epoch] = version
                cycles_done[0] += 1
        except BaseException as failure:
            maintainer_errors.append(failure)

    # Each reader records (query index, pinned view name, pinned epoch,
    # canonical result); half bypass the result cache so the full
    # evaluation path is exercised under swaps too.
    records: list[list[tuple]] = [[] for _ in range(READERS)]
    reader_errors: list[BaseException] = []
    barrier = threading.Barrier(READERS + 1)

    with QueryServer(warehouse, max_workers=READERS) as server:

        def reader(slot: int):
            use_cache = slot % 2 == 0
            mine = records[slot]
            try:
                barrier.wait()
                for i in range(PER_READER):
                    query = queries[(slot + i) % len(queries)]
                    plan = server.router.plan(query)
                    result = server.router.answer_plan(plan)
                    if use_cache and (i % 3) == 0:
                        # Exercise the cached path as well; its coherence
                        # is asserted separately below.
                        server.answer(query)
                    mine.append((
                        (slot + i) % len(queries),
                        plan.source_view.name,
                        plan.source_epoch,
                        canon(result),
                    ))
            except BaseException as failure:
                reader_errors.append(failure)

        threads = [
            threading.Thread(target=reader, args=(slot,), daemon=True)
            for slot in range(READERS)
        ]
        maintenance = threading.Thread(target=maintainer, daemon=True)
        maintenance.start()
        for thread in threads:
            thread.start()
        barrier.wait()
        for thread in threads:
            thread.join()
        stop.set()
        maintenance.join()

    assert not maintainer_errors, maintainer_errors
    assert not reader_errors, reader_errors
    assert cycles_done[0] >= 2, (
        f"maintenance only completed {cycles_done[0]} cycle(s) during the "
        "battery; the run did not overlap an active refresh"
    )

    # Every answer must equal the logged content of the epoch it pinned.
    all_records = [record for per_reader in records for record in per_reader]
    assert len(all_records) >= TOTAL_QUERIES

    expected_cache: dict[tuple, tuple] = {}
    observed_epochs = set()
    views_by_name = {view.name: view for view in views}
    for query_idx, view_name, epoch, result in all_records:
        observed_epochs.add((view_name, epoch))
        key = (query_idx, view_name, epoch)
        expected = expected_cache.get(key)
        if expected is None:
            version = epoch_log[view_name].get(epoch)
            assert version is not None, (
                f"reader pinned unknown epoch {epoch} of {view_name}"
            )
            expected = expected_answer(
                queries[query_idx], views_by_name[view_name], version
            )
            expected_cache[key] = expected
        assert result == expected, (
            f"torn read: query {query_idx} pinned {view_name}@{epoch} but "
            "its answer matches no single published epoch"
        )

    # Readers genuinely spanned multiple epochs of at least one view.
    assert len({epoch for _name, epoch in observed_epochs}) >= 2

    # The warehouse itself ends consistent: certificates intact, audit green.
    assert audit_warehouse(warehouse).passed


def test_cached_answers_stay_epoch_consistent(retail):
    """Cache coherence under swaps: answers served through the result
    cache always match a direct evaluation at the current epoch."""
    data, warehouse = retail
    queries = query_pool(data.pos)
    with QueryServer(warehouse, max_workers=2) as server:
        for query in queries:
            server.answer(query)
        for query in queries:
            # Same epoch: the repeat is a hit and returns the cached object.
            assert server.answer(query) is server.answer(query)
        for _ in range(3):
            run_cycle(data, warehouse, n_changes=150, mode="versioned")
            for query in queries:
                cached = canon(server.answer(query))
                direct = canon(server.router.answer(query))
                assert cached == direct

    # Repeats within an epoch hit; every post-swap answer missed (stale
    # stamps can never be served).
    assert server.stats.cache_hits > 0
    assert server.stats.cache_misses >= len(queries) * 4


@pytest.mark.parametrize("mode", ["versioned", "inplace", "atomic"])
def test_one_refresh_invalidates_a_cached_answer_once(retail, mode):
    """Regression: a versioned refresh moves the epoch at the swap and the
    freshness count a moment later, and entries used to be stamped with
    both — so an answer computed between the two was stored under a stamp
    no later lookup matched, and the roll-up ran twice per publish."""
    data, warehouse = retail
    query = query_pool(data.pos)[0]
    with QueryServer(warehouse, max_workers=1) as server:
        view = server.router.plan(query).source_view
        server.answer(query)
        between = []
        mark = view.freshness.mark_refreshed

        def answer_then_mark(*args, **kwargs):
            # What a reader thread does when it runs between the publish
            # and the freshness update of a versioned refresh.
            if mode == "versioned":
                between.append(server.answer(query))
            mark(*args, **kwargs)

        view.freshness.mark_refreshed = answer_then_mark
        run_cycle(data, warehouse, n_changes=150, mode=mode)
        misses = server.stats.cache_misses
        after = server.answer(query)
        if between:
            assert after is between[0]
            assert server.stats.cache_misses == misses == 2
        else:
            assert server.stats.cache_misses == misses + 1 == 2
        assert canon(after) == canon(server.router.answer(query))
        assert server.answer(query) is after
