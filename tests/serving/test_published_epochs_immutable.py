"""A published epoch's table is never mutated.

Every way the engine changes a view — the lattice and direct cycles,
``run_nightly_maintenance``, ``maintain_view``, the affected-group
baseline, an expiration, both rematerialisations — and a compensated
read through pending deltas run with an observer attached to every
published epoch's table that raises on any insert, delete, update or
truncation.  Nothing
may raise, and each epoch's rows (in slot order, which catches a
compaction too) and certificate are as they were published.
"""

import pytest

from repro.core import (
    MinMaxPolicy,
    PropagateOptions,
    maintain_by_group_recompute,
    maintain_view,
)
from repro.lattice import (
    build_lattice_for_views,
    propagate_lattice,
    rematerialize_with_lattice,
)
from repro.query import QueryRouter
from repro.warehouse import run_nightly_maintenance
from repro.workload import (
    expiration_changes,
    insertion_generating_changes,
    update_generating_changes,
)

from ..conftest import assert_view_matches_recomputation
from .conftest import run_cycle
from .test_concurrent_serving import query_pool


class PublishedEpochMutated(AssertionError):
    pass


class Frozen:
    """A table observer that refuses every mutation it hears of."""

    def __init__(self, view, epoch):
        self.where = f"epoch {epoch} of {view}"

    def _refuse(self, *args):
        raise PublishedEpochMutated(self.where)

    rows_inserted = rows_deleted = rows_updated = rows_moved = truncated = _refuse


class Epochs:
    """Every epoch published while the test runs, frozen as published."""

    def __init__(self, views):
        self.views = views
        self.published = {}

    def freeze(self):
        for view in self.views:
            version = view.pin()
            if (view.name, version.epoch) not in self.published:
                version.table.attach_observer(Frozen(view.name, version.epoch))
                self.published[view.name, version.epoch] = (
                    version, version.table.rows(), version.certificate.value,
                )

    def assert_intact(self):
        self.freeze()
        for version, rows, certificate in self.published.values():
            assert version.table.rows() == rows
            assert version.certificate.value == certificate


def pending(data, warehouse, changes):
    """Stage *changes* in the warehouse's pending change set."""
    staged = warehouse.pending_changes("pos")
    staged.merge(changes)
    return staged


def lattice_cycle(data, warehouse):
    run_cycle(data, warehouse)


def direct_cycle(data, warehouse):
    run_cycle(data, warehouse, use_lattice=False)


def nightly(data, warehouse):
    pending(data, warehouse, update_generating_changes(
        data.pos, data.config, 300, data.rng
    ))
    run_nightly_maintenance(warehouse)


def single_view(data, warehouse):
    changes = update_generating_changes(data.pos, data.config, 300, data.rng)
    views = warehouse.views_over("pos")
    for index, view in enumerate(views):
        maintain_view(view, changes, apply_base_changes=index == 0)


def affected_group_baseline(data, warehouse):
    changes = update_generating_changes(data.pos, data.config, 300, data.rng)
    views = warehouse.views_over("pos")
    for index, view in enumerate(views):
        maintain_by_group_recompute(
            view, changes, apply_base_changes=index == 0
        )


def expiration(data, warehouse):
    from repro.lattice import maintain_lattice

    maintain_lattice(
        warehouse.views_over("pos"), expiration_changes(data.pos, 2)
    )


def compensated_answers(data, warehouse):
    """Answers through computed-but-unapplied deltas (SPLIT policy and
    insertions only, so no MIN/MAX group needs base data)."""
    views = warehouse.views_over("pos")
    changes = insertion_generating_changes(data.pos, data.config, 300, data.rng)
    deltas = propagate_lattice(
        build_lattice_for_views(views), changes,
        PropagateOptions(policy=MinMaxPolicy.SPLIT),
    )
    router = QueryRouter(warehouse)
    for query in query_pool(data.pos):
        assert router.plan(query).source_view is not None
        router.answer(query, pending_deltas=deltas)


def rematerialize_each(data, warehouse):
    data.pos.table.insert((1, 1, 1, 1000, 1.0))
    for view in warehouse.views_over("pos"):
        view.rematerialize()


def rematerialize_lattice(data, warehouse):
    data.pos.table.insert((1, 1, 1, 1000, 1.0))
    rematerialize_with_lattice(warehouse.views_over("pos"))


OPERATIONS = {
    "lattice-cycle": lattice_cycle,
    "direct-cycle": direct_cycle,
    "nightly": nightly,
    "maintain-view": single_view,
    "affected-group-baseline": affected_group_baseline,
    "expiration": expiration,
    "compensated-answers": compensated_answers,
    "rematerialize-each": rematerialize_each,
    "rematerialize-lattice": rematerialize_lattice,
}


@pytest.mark.parametrize("operation", list(OPERATIONS))
def test_no_published_epoch_is_mutated(retail, operation):
    data, warehouse = retail
    views = warehouse.views_over("pos")
    epochs = Epochs(views)
    epochs.freeze()
    for _ in range(2):      # a second round runs over published epochs
        OPERATIONS[operation](data, warehouse)
        epochs.assert_intact()
    if operation != "compensated-answers":
        assert all(view.epoch == 2 for view in views)
        for view in views:
            assert_view_matches_recomputation(view)
    else:
        assert all(view.epoch == 0 for view in views)


def test_the_observer_refuses_a_mutation(retail):
    """The probe is live: a write to a frozen table raises."""
    _data, warehouse = retail
    view = warehouse.views["SID_sales"]
    Epochs([view]).freeze()
    with pytest.raises(PublishedEpochMutated, match="epoch 0 of SID_sales"):
        view.table.delete_slot(0)
