"""Unit tests for date-partitioned fact storage (`repro.warehouse.partition`).

The differential suite proves shard-parallel maintenance reproduces the
serial path end to end; these tests pin the component contracts: shard
routing, the slot-directory storage, whole-segment expiration, change
routing exactness, the `Reducer.merge` delta algebra, and the worker-count
fallback rules.
"""

import pytest

from repro.core import MinMaxPolicy, PropagateOptions
from repro.errors import InconsistentDeltaError, TableError
from repro.warehouse import ChangeSet
from repro.warehouse.partition import (
    PartitionedFactTable,
    ShardedTable,
    effective_shard_workers,
    merge_summary_deltas,
    partition_enabled,
    partition_fact,
)

from ..conftest import sid_definition
from ..differential.harness import env

SCHEMA = ["storeID", "itemID", "date", "qty", "price"]
ROWS = [
    (1, 10, 1, 2, 1.0),
    (2, 11, 2, 1, 2.0),
    (1, 12, 2, 5, 1.5),
    (3, 10, 4, 6, 1.0),
    (2, 13, 5, 2, 1.3),
]


def sharded(width=1, rows=ROWS):
    return ShardedTable("pos", SCHEMA, "date", rows=rows, width=width)


class TestKillSwitch:
    def test_default_off(self):
        with env("REPRO_PARTITION", None):
            assert partition_enabled() is False

    def test_zero_and_empty_off(self):
        with env("REPRO_PARTITION", "0"):
            assert partition_enabled() is False
        with env("REPRO_PARTITION", ""):
            assert partition_enabled() is False

    def test_enabled(self):
        with env("REPRO_PARTITION", "1"):
            assert partition_enabled() is True


class TestShardedTable:
    def test_routes_by_date(self):
        table = sharded()
        assert table.shard_keys() == [1, 2, 4, 5]
        assert table.shard_sizes() == {1: 1, 2: 2, 4: 1, 5: 1}

    def test_width_groups_date_ranges(self):
        table = sharded(width=2)
        # dates 1,2 → keys 0,1; 4 → 2; 5 → 2
        assert table.shard_keys() == [0, 1, 2]
        assert table.shard_sizes() == {0: 1, 1: 2, 2: 2}

    def test_null_dates_route_to_null_shard_first(self):
        table = sharded(rows=ROWS + [(9, 10, None, 1, 1.0)])
        assert table.shard_keys() == [None, 1, 2, 4, 5]
        assert table.rows()[0] == (9, 10, None, 1, 1.0)

    def test_rows_are_shard_major(self):
        table = sharded()
        dates = [row[2] for row in table.rows()]
        assert dates == sorted(dates)
        # Insertion order survives within a shard.
        assert [r for r in table.rows() if r[2] == 2] == [ROWS[1], ROWS[2]]

    def test_append_batch_routes_like_appends(self):
        one_shot = sharded()
        batched = sharded(rows=())
        batched.append_batch([list(col) for col in zip(*ROWS)])
        assert batched.rows() == one_shot.rows()

    def test_interleaved_batch_keeps_slots_in_batch_order(self):
        """Regression: a batch spanning shards landed shard by shard, so
        the slots the table indexed its rows at held other rows."""
        table = sharded()
        by_store = table.create_index(["storeID"])
        table.create_index(["itemID", "date"], unique=True)
        table.track_domain("date")
        table.delete_slots([1, 3])                     # two slots to reuse
        batch = [(7, 20, 5, 1, 1.0), (8, 21, 1, 1, 1.0), (7, 22, 5, 1, 1.0),
                 (8, 23, 1, 1, 1.0), (7, 24, 9, 1, 1.0)]
        table.insert_many(batch)
        assert [table.row_at(slot) for slot in (3, 1, 5, 6, 7)] == batch
        assert table.verify_indexes()
        assert [table.row_at(slot) for slot in by_store.lookup((7,))] == batch[::2]
        assert set(table.domain("date")) == {1, 2, 5, 9}
        table.append_batch([list(column) for column in zip(
            (9, 30, 9, 1, 1.0), (9, 31, None, 1, 1.0), (9, 32, 2, 1, 1.0))])
        assert table.verify_indexes()
        assert [row[1] for row in table.rows() if row[0] == 9] == [31, 32, 30]

    def test_width_must_be_positive_int(self):
        for bad in (0, -1, True, 1.5):
            with pytest.raises(TableError, match="shard width"):
                sharded(width=bad)

    def test_indexes_survive_sharding(self):
        table = sharded()
        index = table.create_index(["storeID"])
        assert table.verify_indexes()
        hits = [table.shard_store.get(slot) for slot in index.lookup((1,))]
        assert sorted(hits) == sorted(row for row in ROWS if row[0] == 1)

    def test_date_update_reroutes_row(self):
        table = sharded()
        store = table.shard_store
        slot = next(
            slot for slot, row in store.enumerate_live() if row == ROWS[0]
        )
        moved = (1, 10, 5, 2, 1.0)  # date 1 → 5
        store.set(slot, moved)
        assert store.get(slot) == moved
        assert moved in store.shard_rows(5)
        assert store.shard_live_count(1) == 0

    def test_drop_shard_removes_segment_and_rows(self):
        table = sharded()
        before = len(table)
        assert table.drop_shard(2) == 2
        assert len(table) == before - 2
        assert table.shard_keys() == [1, 4, 5]
        assert all(row[2] != 2 for row in table.rows())

    def test_drop_shard_maintains_indexes_and_domains(self):
        table = sharded()
        table.create_index(["storeID"])
        table.track_domain("storeID")
        table.drop_shard(2)
        assert table.verify_indexes()
        assert set(table.domain("storeID")) == {1, 2, 3}
        table.drop_shard(5)
        assert set(table.domain("storeID")) == {1, 3}

    def test_drop_shard_notifies_observers(self):
        class Spy:
            deleted = []

            def row_inserted(self, row): ...
            def row_updated(self, old, new): ...
            def truncated(self): ...
            def row_deleted(self, row):
                self.deleted.append(row)

        table = sharded()
        table.attach_observer(Spy())
        table.drop_shard(2)
        assert sorted(Spy.deleted) == sorted([ROWS[1], ROWS[2]])

    def test_drop_unknown_shard_raises(self):
        with pytest.raises(TableError, match="no shard"):
            sharded().drop_shard(9)

    def test_dropped_shard_revives_on_insert(self):
        table = sharded()
        table.drop_shard(2)
        table.insert_many([(7, 10, 2, 1, 1.0)])
        assert table.shard_rows(2) == [(7, 10, 2, 1, 1.0)]

    def test_promote_columns_reaches_segments(self):
        table = sharded()
        assert table.promote_columns() >= 0  # no typed-array regressions
        assert table.rows() == sharded().rows()


class TestPartitionedFactTable:
    def test_construction_swaps_table_and_registers(self, pos):
        rows_before = sorted(pos.table.rows())
        indexes_before = set(pos.table.indexes)
        partitioned = partition_fact(pos)
        assert pos.partition is partitioned
        assert isinstance(pos.table, ShardedTable)
        assert sorted(pos.table.rows()) == rows_before
        assert set(pos.table.indexes) == indexes_before
        assert pos.table.verify_indexes()

    def test_partition_fact_is_idempotent(self, pos):
        first = partition_fact(pos, width=2)
        assert partition_fact(pos, width=2) is first

    def test_partition_fact_rejects_mismatched_params(self, pos):
        partition_fact(pos, width=2)
        with pytest.raises(TableError, match="already partitioned"):
            partition_fact(pos, width=3)

    def test_direct_double_partition_raises(self, pos):
        partition_fact(pos)
        with pytest.raises(TableError, match="already partitioned"):
            PartitionedFactTable(pos)

    def test_missing_date_column_raises(self, pos):
        with pytest.raises(TableError, match="no column"):
            PartitionedFactTable(pos, date_column="when")

    def test_route_changes_partitions_exactly(self, pos):
        partitioned = partition_fact(pos, width=2)
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert_many([(1, 10, 1, 1, 1.0), (1, 10, 9, 1, 1.0)])
        changes.delete_many([(2, 11, 2, 1, 2.0)])
        routed = partitioned.route_changes(changes)
        assert [shard.key for shard in routed] == [0, 1, 4]  # scan order
        assert sum(shard.change_rows for shard in routed) == changes.size()
        assert routed[1].deletions == ((2, 11, 2, 1, 2.0),)
        # date 9 names a shard that does not exist yet — still routed.
        assert routed[2].insertions == ((1, 10, 9, 1, 1.0),)

    def test_route_changes_rejects_schema_mismatch(self, pos):
        partitioned = partition_fact(pos)
        foreign = ChangeSet("other", ["a", "b"])
        with pytest.raises(TableError, match="does not match"):
            partitioned.route_changes(foreign)

    def test_expired_keys_respect_width(self, pos):
        partitioned = partition_fact(pos, width=2)
        # Shard 0 covers dates 0-1 and shard 1 dates 2-3: both hold only
        # dates strictly below 4.  Shard 2 (dates 4-5) survives.
        assert partitioned.expired_keys(4) == [0, 1]
        assert partitioned.expired_keys(3) == [0]
        assert partitioned.expired_keys(10) == partitioned.table.shard_keys()

    def test_expire_before_builds_one_batch(self, pos):
        partitioned = partition_fact(pos)
        doomed = [row for row in pos.table.rows() if row[2] < 2]
        changes = partitioned.expire_before(2)
        assert sorted(changes.deletions.scan()) == sorted(doomed)
        assert len(changes.insertions) == 0
        assert len(changes.lineage.batch_ids()) == 1

    def test_apply_expiration_drops_whole_segments(self, pos):
        partitioned = partition_fact(pos)
        expired = partitioned.expired_keys(3)
        outcome = partitioned.apply_changes(partitioned.expire_before(3))
        assert outcome["dropped_shards"] == len(expired)
        assert all(row[2] >= 3 for row in pos.table.rows())
        assert pos.table.verify_indexes()

    def test_apply_changes_mixes_drops_and_row_deletes(self, pos):
        partitioned = partition_fact(pos)
        whole_shard = [r for r in pos.table.rows() if r[2] == 4]
        changes = ChangeSet("pos", pos.table.schema)
        changes.delete_many(whole_shard + [(1, 10, 1, 2, 1.0)])
        changes.insert_many([(4, 13, 9, 1, 1.0)])
        outcome = partitioned.apply_changes(changes)
        assert outcome["dropped_shards"] == 1
        assert outcome["deleted_rows"] == len(whole_shard) + 1
        assert outcome["inserted_rows"] == 1
        assert 9 in pos.table.shard_keys()
        assert 4 not in pos.table.shard_keys()
        assert pos.table.verify_indexes()

    def test_apply_changes_indexes_insertions_across_shards(self, pos):
        partitioned = partition_fact(pos)
        index = pos.table.index_on(["storeID", "itemID", "date"])
        changes = ChangeSet("pos", pos.table.schema)
        inserted = [(4, 13, 9, 1, 1.0), (1, 10, 1, 3, 1.0), (4, 12, 9, 2, 1.0),
                    (1, 11, 1, 4, 1.0), (4, 10, 9, 5, 1.0), (3, 13, 1, 6, 1.0)]
        changes.insert_many(inserted)
        changes.delete_many([(1, 10, 1, 2, 1.0)])
        partitioned.apply_changes(changes)
        assert pos.table.verify_indexes()
        for row in inserted:
            assert row in [pos.table.row_at(slot) for slot in index.lookup(row[:3])]

    def test_apply_changes_validates_before_mutating(self, pos):
        partitioned = partition_fact(pos)
        before = sorted(pos.table.rows())
        # One real deletion plus one targeting an empty shard: nothing
        # may be applied.
        changes = ChangeSet("pos", pos.table.schema)
        changes.delete_many([(1, 10, 1, 2, 1.0), (9, 9, 99, 9, 9.0)])
        with pytest.raises(InconsistentDeltaError, match="match no row"):
            partitioned.apply_changes(changes)
        assert sorted(pos.table.rows()) == before

    def test_apply_changes_rejects_overdrawn_deletes(self, pos):
        partitioned = partition_fact(pos)
        changes = ChangeSet("pos", pos.table.schema)
        changes.delete_many([(1, 11, 2, 1, 2.0)] * 3)  # only one live copy
        with pytest.raises(InconsistentDeltaError, match="match no row"):
            partitioned.apply_changes(changes)


class TestMergeSummaryDeltas:
    def test_merges_states_groupwise(self, pos):
        definition = sid_definition(pos)
        shard_a = [(1, 10, 1, 2, 5), (2, 11, 2, 1, 4)]
        shard_b = [(1, 10, 1, 1, 3), (3, 13, 4, -1, -2)]
        delta = merge_summary_deltas(
            definition, MinMaxPolicy.PAPER, [shard_a, shard_b]
        )
        assert delta.table.rows() == [
            (1, 10, 1, 3, 8),
            (2, 11, 2, 1, 4),
            (3, 13, 4, -1, -2),
        ]

    def test_output_order_is_partition_invariant(self, pos):
        definition = sid_definition(pos)
        rows = [(2, 11, 2, 1, 4), (1, 10, 1, 2, 5), (1, 10, None, 1, 1)]
        together = merge_summary_deltas(
            definition, MinMaxPolicy.PAPER, [rows]
        )
        split = merge_summary_deltas(
            definition, MinMaxPolicy.PAPER, [rows[2:], rows[:2]]
        )
        assert together.table.rows() == split.table.rows()
        # Canonical nulls-first order, independent of input order.
        assert together.table.rows()[0] == (1, 10, None, 1, 1)


class TestEffectiveShardWorkers:
    def test_explicit_workers_capped_by_shards(self):
        options = PropagateOptions(shard_workers=4)
        assert effective_shard_workers(options, 2) == (2, False)
        assert effective_shard_workers(options, 8) == (4, False)

    def test_single_shard_falls_back_inline(self):
        options = PropagateOptions(shard_workers=4)
        assert effective_shard_workers(options, 1) == (1, True)

    def test_single_worker_falls_back_inline(self):
        options = PropagateOptions(shard_workers=1)
        assert effective_shard_workers(options, 8) == (1, True)
