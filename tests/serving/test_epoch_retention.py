"""Epoch retention is bounded by readers, not by history.

The GC-as-version-store design (``MaterializedView.publish`` swaps a
reference; superseded epochs live exactly as long as some pinned reader
holds them) previously had no instrumentation and no test that old
epochs actually get freed.  These tests close that ROADMAP item: a
superseded epoch is tracked while pinned, collected once the last
reader lets go, and the retention watermark gauge moves back up to the
current epoch.
"""

import gc

from repro.obs import MetricsRegistry
from repro.views import EpochStats

from .conftest import run_cycle


def pos_views(warehouse):
    return warehouse.views_over("pos")


def test_publish_without_readers_retains_nothing(retail):
    data, warehouse = retail
    run_cycle(data, warehouse)
    gc.collect()
    for view in pos_views(warehouse):
        stats = view.collect_epochs()
        assert view.epoch == 1
        assert stats.current == 1
        assert stats.retained == 0
        assert stats.watermark == 1, (
            "with no pinned readers the watermark is the newest epoch"
        )
        assert stats.collected >= 1


def test_pinned_reader_holds_watermark_down(retail):
    data, warehouse = retail
    view = pos_views(warehouse)[0]
    pinned = view.pin()            # a reader holding epoch 0
    assert pinned.epoch == 0

    for _ in range(3):
        run_cycle(data, warehouse)
    gc.collect()

    stats = view.collect_epochs()
    assert stats.current == 3
    assert stats.retained >= 1, "the pinned epoch must still be tracked"
    assert stats.watermark == 0, (
        "oldest epoch still pinned by a reader anchors the watermark"
    )

    # The reader finishes: the epoch's table becomes unreachable and the
    # next collection notices the weakref died.
    del pinned
    gc.collect()
    stats = view.collect_epochs()
    assert stats.retained == 0
    assert stats.watermark == 3, (
        "watermark returns to the newest epoch once readers unpin"
    )


def test_intermediate_epochs_free_while_oldest_stays_pinned(retail):
    data, warehouse = retail
    view = pos_views(warehouse)[0]
    oldest = view.pin()
    run_cycle(data, warehouse)
    middle = view.pin()            # epoch 1
    run_cycle(data, warehouse)
    del middle
    gc.collect()

    stats = view.collect_epochs()
    assert stats.current == 2
    assert stats.watermark == 0
    assert stats.retained == 1, (
        "the released intermediate epoch must be collected even while an "
        "older epoch stays pinned"
    )
    del oldest


def test_epoch_stats_is_a_pure_read(retail):
    data, warehouse = retail
    view = pos_views(warehouse)[0]
    run_cycle(data, warehouse)
    gc.collect()
    before = view.collect_epochs().collected
    for _ in range(3):
        stats = view.epoch_stats()
        assert isinstance(stats, EpochStats)
    assert view.collect_epochs().collected == before, (
        "epoch_stats must not collect (or double-count) anything"
    )


def test_collect_emits_labelled_gauges(retail):
    data, warehouse = retail
    view = pos_views(warehouse)[0]
    run_cycle(data, warehouse)
    gc.collect()
    registry = MetricsRegistry()
    stats = view.collect_epochs(metrics=registry)
    labels = {"view": view.name}
    assert registry.gauge("epochs.published", labels=labels).value == stats.current
    assert registry.gauge("epochs.retained", labels=labels).value == stats.retained
    assert registry.gauge("epochs.collected", labels=labels).value == stats.collected
    assert registry.gauge("epochs.watermark", labels=labels).value == stats.watermark


def test_as_dict_round_trip(retail):
    data, warehouse = retail
    view = pos_views(warehouse)[0]
    run_cycle(data, warehouse)
    gc.collect()
    record = view.collect_epochs().as_dict()
    assert set(record) == {"current", "retained", "collected", "watermark"}
