"""Change-set lineage: batch stamping, manifests, and visibility lag."""

import pytest

from repro.core import apply_refresh, compute_summary_delta
from repro.errors import LineageError, TableError
from repro.obs.lineage import (
    BatchLineage,
    LineageClock,
    ViewLineage,
    compress_intervals,
    lineage_clock,
    record_publish,
    set_lineage_clock,
)
from repro.obs.metrics import LAG_BUCKETS_S, MetricsRegistry
from repro.views import MaterializedView
from repro.warehouse import ChangeSet

from ..conftest import sid_definition


@pytest.fixture(autouse=True)
def fresh_clock():
    """Every test allocates batch ids from its own clock, starting at 1."""
    previous = set_lineage_clock(LineageClock())
    yield
    set_lineage_clock(previous)


def make_view(pos):
    return MaterializedView.build(sid_definition(pos))


def maintained_delta(pos, view, changes):
    """Propagate then apply base changes (the Figure 7 ordering)."""
    delta = compute_summary_delta(view.definition, changes)
    changes.apply_to(pos.table)
    return delta


class TestCompressIntervals:
    def test_empty(self):
        assert compress_intervals([]) == []

    def test_dense_run_plus_stragglers(self):
        assert compress_intervals([5, 1, 2, 3, 9, 10]) == [
            (1, 3), (5, 5), (9, 10),
        ]

    def test_duplicates_collapse(self):
        assert compress_intervals([2, 2, 3]) == [(2, 3)]


class TestLineageClock:
    def test_ids_monotonic_and_unique(self):
        clock = LineageClock()
        ids = [clock.next_batch()[0] for _ in range(5)]
        assert ids == [1, 2, 3, 4, 5]
        assert clock.peek() == 6

    def test_explicit_now_becomes_ingest_ts(self):
        clock = LineageClock()
        _, ts = clock.next_batch(now=123.5)
        assert ts == 123.5

    def test_swap_restores_previous(self):
        original = lineage_clock()
        replacement = LineageClock(start=100)
        assert set_lineage_clock(replacement) is original
        assert lineage_clock() is replacement
        set_lineage_clock(original)


class TestBatchLineage:
    def test_stamp_keeps_earliest_timestamp(self):
        lineage = BatchLineage()
        lineage.stamp(1, 10.0)
        lineage.stamp(1, 5.0)
        lineage.stamp(1, 20.0)
        assert lineage.ingest_ts(1) == 5.0

    def test_merge_unions_batches(self):
        a = BatchLineage({1: 1.0, 2: 2.0})
        b = BatchLineage({2: 1.5, 3: 3.0})
        a.merge(b)
        assert sorted(a) == [1, 2, 3]
        assert a.ingest_ts(2) == 1.5

    def test_snapshot_is_independent(self):
        lineage = BatchLineage({1: 1.0})
        frozen = lineage.snapshot()
        lineage.stamp(2, 2.0)
        assert 2 not in frozen and 2 in lineage

    def test_difference_and_oldest_age(self):
        lineage = BatchLineage({1: 10.0, 2: 20.0, 3: 30.0})
        pending = lineage.difference(frozenset({1, 3}))
        assert sorted(pending) == [2]
        assert pending.oldest_age_s(now=25.0) == 5.0
        assert BatchLineage().oldest_age_s(now=25.0) == 0.0


class TestChangeSetStamping:
    def test_every_enqueue_gets_its_own_batch(self):
        changes = ChangeSet("t", ["a", "b"])
        changes.insert((1, 2))
        changes.delete((1, 2))
        changes.insert_many([(3, 4), (5, 6)])
        assert sorted(changes.lineage) == [1, 2, 3]

    def test_batch_scope_groups_enqueues(self):
        changes = ChangeSet("t", ["a", "b"])
        with changes.batch() as batch_id:
            changes.insert((1, 2))
            changes.delete((3, 4))
            with changes.batch() as inner:   # non-nesting: same id
                assert inner == batch_id
                changes.insert((5, 6))
        assert sorted(changes.lineage) == [batch_id]
        changes.insert((7, 8))   # scope closed: fresh id again
        assert len(changes.lineage) == 2

    def test_merge_preserves_original_ingest_stamps(self):
        early = ChangeSet("t", ["a", "b"])
        early.insert((1, 2))
        original_ts = early.lineage.ingest_ts(1)
        accumulator = ChangeSet("t", ["a", "b"])
        accumulator.merge(early)
        assert accumulator.lineage.ingest_ts(1) == original_ts
        assert (1, 2) in accumulator.insertions.rows()

    def test_merge_rejects_schema_mismatch(self):
        changes = ChangeSet("t", ["a", "b"])
        with pytest.raises(TableError, match="schemas differ"):
            changes.merge(ChangeSet("u", ["a"]))

    def test_clear_resets_lineage(self):
        changes = ChangeSet("t", ["a", "b"])
        changes.insert((1, 2))
        changes.clear()
        assert not changes.lineage


class TestDeltaCarriage:
    def test_delta_snapshots_changeset_lineage(self, pos):
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert((1, 10, 1, 2, 1.0))
        delta = compute_summary_delta(sid_definition(pos), changes)
        assert sorted(delta.lineage) == sorted(changes.lineage)
        changes.insert((2, 11, 2, 3, 2.0))   # after propagate: not carried
        assert len(delta.lineage) == 1


class TestManifestRecording:
    def test_committed_refresh_records_manifest(self, pos):
        view = make_view(pos)
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert((1, 10, 1, 7, 1.0))
        delta = maintained_delta(pos, view, changes)
        apply_refresh(view, delta)
        manifest = view.lineage.last_manifest()
        assert manifest is not None
        assert manifest.epoch == 1
        assert manifest.batches == tuple(sorted(changes.lineage))
        epoch, refresh_count = view.version_stamp()
        assert (manifest.epoch, manifest.refresh_count) == (
            epoch, refresh_count
        )
        assert all(lag >= 0 for lag in manifest.lags().values())

    def test_duplicate_batch_raises(self, pos):
        view = make_view(pos)
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert((1, 10, 1, 7, 1.0))
        delta = maintained_delta(pos, view, changes)
        apply_refresh(view, delta)
        with pytest.raises(LineageError, match="already published"):
            apply_refresh(view, delta)

    def test_lineage_free_delta_records_nothing(self, pos):
        view = make_view(pos)
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert((1, 10, 1, 7, 1.0))
        delta = maintained_delta(pos, view, changes)
        delta.lineage.clear()   # hand-built delta: no provenance
        apply_refresh(view, delta)
        assert len(view.lineage) == 0

    def test_manifest_for_and_pending_against(self, pos):
        view = make_view(pos)
        published = ChangeSet("pos", pos.table.schema)
        published.insert((1, 10, 1, 7, 1.0))
        delta = maintained_delta(pos, view, published)
        apply_refresh(view, delta)
        staged = ChangeSet("pos", pos.table.schema)
        staged.insert((2, 11, 2, 3, 2.0))
        backlog = view.lineage.pending_against(staged.lineage)
        assert sorted(backlog) == sorted(staged.lineage)
        for batch_id in published.lineage:
            assert view.lineage.manifest_for(batch_id) is not None
        for batch_id in staged.lineage:
            assert view.lineage.manifest_for(batch_id) is None

    def test_runs_index_matches_a_per_batch_index(self):
        """The log indexes runs of consecutive ids, recorded in any order:
        lookups, counts and intervals read as a per-batch index would,
        and an overlap anywhere in a run names its lowest repeated id."""
        log = ViewLineage()
        recorded = {}
        for epoch, ids in enumerate([(10, 11, 12), (20,), (5, 6, 8), (13, 14)], 1):
            manifest = log.record("v", epoch, epoch, BatchLineage(
                {batch_id: 1.0 for batch_id in ids}
            ))
            recorded.update(dict.fromkeys(ids, manifest))
        for batch_id in range(30):
            assert log.manifest_for(batch_id) is recorded.get(batch_id)
        assert log.published_batches() == frozenset(recorded)
        assert log.batches_published() == len(recorded)
        assert log.as_dict()["intervals"] == [
            list(run) for run in compress_intervals(recorded)
        ]
        assert sorted(log.pending_against(BatchLineage(
            {batch_id: 1.0 for batch_id in (4, 7, 12, 21)}
        ))) == [4, 7, 21]
        for ids, first in [((1, 2, 7, 8, 9), 8), ((15, 16, 17, 19, 20), 20),
                           ((3, 4, 5), 5)]:
            with pytest.raises(LineageError, match=f"batch {first} already"):
                log.record("v", 9, 9, BatchLineage(dict.fromkeys(ids, 1.0)))
        assert log.published_batches() == frozenset(recorded)
        assert len(log) == 4

    def test_record_publish_observes_lag_metrics(self, pos):
        registry = MetricsRegistry()
        view = make_view(pos)
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert((1, 10, 1, 7, 1.0))
        changes.insert((2, 11, 2, 3, 2.0))
        delta = compute_summary_delta(sid_definition(pos), changes)
        manifest = record_publish(view, delta, metrics=registry)
        assert manifest is not None
        histogram = registry.histogram(
            "lineage.visibility_lag_s",
            labels={"view": view.name},
            bounds=LAG_BUCKETS_S,
        )
        assert histogram.count == 2
        assert registry.counter_value(
            "lineage.manifests", labels={"view": view.name}
        ) == 1
        assert registry.counter_value(
            "lineage.batches_published", labels={"view": view.name}
        ) == 2


class TestViewLineage:
    def test_as_dict_shape(self):
        tracker = ViewLineage()
        tracker.record(
            "v", 0, 1, BatchLineage({1: 1.0, 2: 2.0}),
            publish_ts=5.0,
        )
        payload = tracker.as_dict()
        assert payload["manifests"] == 1
        assert payload["batches_published"] == 2
        assert payload["intervals"] == [[1, 2]]
        last = payload["last_manifest"]
        assert last["view"] == "v"
        assert last["max_lag_s"] == 4.0
        assert last["mean_lag_s"] == 3.5

    def test_manifests_since_mark(self):
        tracker = ViewLineage()
        tracker.record("v", 0, 1, BatchLineage({1: 1.0}))
        mark = len(tracker)
        tracker.record("v", 1, 2, BatchLineage({2: 2.0}))
        fresh = tracker.manifests_since(mark)
        assert [m.epoch for m in fresh] == [1]
