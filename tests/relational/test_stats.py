"""Tuple-access accounting."""

import threading

from repro.relational import Table, measuring
from repro.relational.stats import ACCESS_FIELDS, AccessStats, collector


class TestMeasuring:
    def test_disabled_by_default(self):
        assert collector() is None

    def test_scan_counted(self):
        table = Table("t", ["a"], [(1,), (2,), (3,)])
        with measuring() as stats:
            list(table.scan())
        assert stats.rows_scanned == 3

    def test_tombstones_not_counted(self):
        table = Table("t", ["a"], [(1,), (2,)])
        table.delete_slot(0)
        with measuring() as stats:
            list(table.scan())
        assert stats.rows_scanned == 1

    def test_mutations_counted(self):
        table = Table("t", ["a"], [(1,)])
        with measuring() as stats:
            table.insert((2,))
            table.update_slot(0, (9,))
            table.delete_slot(0)
        assert stats.rows_inserted == 1
        assert stats.rows_updated == 1
        assert stats.rows_deleted == 1

    def test_index_lookups_counted(self):
        table = Table("t", ["a"], [(1,), (1,)])
        index = table.create_index(["a"])
        with measuring() as stats:
            index.lookup((1,))
            index.lookup((9,))
        assert stats.index_lookups == 2

    def test_counting_stops_after_block(self):
        table = Table("t", ["a"], [(1,)])
        with measuring() as stats:
            list(table.scan())
        list(table.scan())
        assert stats.rows_scanned == 1
        assert collector() is None

    def test_nested_blocks_share_collector(self):
        table = Table("t", ["a"], [(1,)])
        with measuring() as outer:
            with measuring() as inner:
                list(table.scan())
            assert inner is outer
        assert outer.rows_scanned == 1

    def test_collector_cleared_on_exception(self):
        try:
            with measuring():
                raise ValueError
        except ValueError:
            pass
        assert collector() is None

    def test_total_accesses(self):
        table = Table("t", ["a"], [(1,)])
        with measuring() as stats:
            list(table.scan())
            table.insert((2,))
        assert stats.total_accesses == 2

    def test_snapshot_is_independent(self):
        table = Table("t", ["a"], [(1,)])
        with measuring() as stats:
            list(table.scan())
            frozen = stats.snapshot()
            list(table.scan())
        assert frozen.rows_scanned == 1
        assert stats.rows_scanned == 2

    def test_since_gives_the_delta(self):
        table = Table("t", ["a"], [(1,), (2,)])
        with measuring() as stats:
            list(table.scan())
            before = stats.snapshot()
            list(table.scan())
            table.insert((3,))
        delta = stats.since(before)
        assert delta.rows_scanned == 2
        assert delta.rows_inserted == 1

    def test_as_dict_covers_every_field(self):
        table = Table("t", ["a"], [(1,)])
        with measuring() as stats:
            list(table.scan())
        data = stats.as_dict()
        assert set(data) == set(ACCESS_FIELDS) | {"total"}
        assert data["total"] == stats.total_accesses == 1


class TestThreadSafety:
    def test_concurrent_add_loses_no_increments(self):
        """Regression: bare ``+=`` on a shared collector loses updates
        under thread interleaving (the query server's worker threads
        charge concurrently).  The locked ``add`` must count exactly."""
        stats = AccessStats()
        threads_n, increments = 8, 2_000

        def hammer():
            for _ in range(increments):
                stats.add("rows_scanned")
                stats.add("index_lookups", 2)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.rows_scanned == threads_n * increments
        assert stats.index_lookups == 2 * threads_n * increments

    def test_concurrent_table_scans_count_exactly(self):
        """End-to-end: worker threads scanning real tables under one
        measuring() block must neither drop nor double-count rows."""
        tables = [
            Table(f"t{i}", ["a"], [(v,) for v in range(200)])
            for i in range(6)
        ]
        with measuring() as stats:
            threads = [
                threading.Thread(target=lambda t=t: list(t.scan()))
                for t in tables
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert stats.rows_scanned == 6 * 200

