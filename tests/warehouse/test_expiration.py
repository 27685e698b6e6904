"""Expiring old fact data (paper, Section 2.1) through ``ChangeSet.apply_to``.

An expiration is an ordinary change set of deletions — every fact row of
the oldest dates (:func:`~repro.workload.expiration_changes`) — so it takes
the same index or scan plan as any other batch, composes with the day's
other changes, and is maintained into the summary tables by the ordinary
summary-delta cycle, which must recompute exactly the MIN groups whose
extreme expired.
"""

import pytest

from repro.core import MinMaxPolicy, PropagateOptions
from repro.errors import InconsistentDeltaError
from repro.lattice import maintain_lattice
from repro.obs import tracing
from repro.relational import Table
from repro.workload import (
    RetailConfig,
    build_retail_warehouse,
    expiration_changes,
    generate_retail,
    insertion_generating_changes,
)

from .test_apply_plans import apply


@pytest.fixture(autouse=True)
def isolated_tracing(monkeypatch):
    """Span-inspecting tests need a fresh recorder, whatever REPRO_TRACE says."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    previous = tracing.active_recorder()
    tracing.install_recorder(None)
    yield
    tracing.install_recorder(previous)


def retail(seed=71, pos_rows=2_000):
    return generate_retail(RetailConfig(pos_rows=pos_rows, seed=seed))


def indexed_copy(pos):
    table = Table("pos", pos.table.schema, pos.table.rows())
    table.create_index(["storeID", "itemID", "date"])
    table.track_domain("date")
    return table


def state(table):
    """Everything ``apply_to`` may touch, bucket and free-list order
    included."""
    return (
        list(table._rows),                                      # noqa: SLF001
        list(table._free_slots),                                # noqa: SLF001
        {columns: {key: list(index.slots_of(key)) for key in index.keys()}
         for columns, index in table.indexes.items()},
        sorted(table.domain("date")),
    )


@pytest.mark.parametrize("n_oldest", [1, 2, 8])
def test_expired_dates_leave_under_either_plan(n_oldest):
    """One or two of 25 dates are under an eighth of the table and take
    the index plan, eight are not and scan; either way the forced scan
    dooms the same slots and exactly the expired dates leave."""
    data = retail()
    changes = expiration_changes(data.pos, n_oldest)
    expired = set(sorted(set(data.pos.table.column_values("date")))[:n_oldest])
    by_plan = indexed_copy(data.pos)
    by_scan = indexed_copy(data.pos)
    span, doomed, error = apply(changes, by_plan)
    scan_span, scan_doomed, scan_error = apply(
        changes, by_scan, hide_indexes=True
    )
    assert error is None and scan_error is None
    indexed = 8 * len(changes.deletions) < len(data.pos.table)
    assert indexed == (n_oldest < 8)
    assert span.tags["plan"] == ("index" if indexed else "scan")
    assert scan_span.tags["plan"] == "scan"
    assert doomed == scan_doomed
    assert state(by_plan) == state(by_scan)
    assert span.counters["deleted"] == len(changes.deletions)
    assert set(by_plan.domain("date")) == (
        set(data.pos.table.column_values("date")) - expired
    )
    assert by_plan.verify_indexes()


def test_expiring_a_row_the_day_already_deleted_is_refused():
    """Merged with a day's changes that delete one of the expired rows,
    the expiration over-deletes it: the whole batch is refused and the
    fact table is left as it was."""
    data = retail(seed=73)
    changes = expiration_changes(data.pos, 1)
    doubled = changes.deletions.rows()[0]
    changes.delete(doubled)
    changes.insert((1, 1, 99, 1, 1.0))
    before = sorted(data.pos.table.rows())
    with pytest.raises(InconsistentDeltaError, match="match no row"):
        changes.apply_to(data.pos.table)
    assert sorted(data.pos.table.rows()) == before


@pytest.mark.parametrize("policy", list(MinMaxPolicy))
@pytest.mark.parametrize("use_lattice", [True, False],
                         ids=["lattice", "direct"])
def test_expiration_with_new_day_converges(policy, use_lattice):
    """The rolling window: expire the oldest date and load new dates in
    one cycle; every summary table lands on its recomputed state."""
    data = retail(seed=79, pos_rows=1_500)
    warehouse = build_retail_warehouse(data)
    changes = expiration_changes(data.pos, 1)
    changes.merge(
        insertion_generating_changes(data.pos, data.config, 120, data.rng)
    )
    result = maintain_lattice(
        warehouse.views_over("pos"), changes,
        options=PropagateOptions(policy=policy), use_lattice=use_lattice,
    )
    assert all(warehouse.verify_views().values())
    assert result.stats["SID_sales"].deleted > 0
    assert result.stats["SID_sales"].inserted > 0


def test_expiration_refresh_publishes_exact_views():
    """Whole groups deleted and MIN groups recomputed, published as each
    view's next epoch: the views converge, and every view's group-key
    index stays exact."""
    data = retail(seed=89, pos_rows=1_500)
    warehouse = build_retail_warehouse(data)
    views = warehouse.views_over("pos")
    result = maintain_lattice(views, expiration_changes(data.pos, 2))
    assert all(warehouse.verify_views().values())
    assert result.stats["SID_sales"].deleted > 0
    assert result.stats["SiC_sales"].recomputed > 0
    for view in views:
        assert view.table.verify_indexes(), view.name


def test_expiration_recomputes_exactly_the_groups_whose_min_expired():
    """SiC_sales keeps MIN(date): a group loses its EarliestSale iff that
    date expired.  Such a group is deleted when every row expired and
    recomputed from base data otherwise; no other group is recomputed."""
    data = retail(seed=83)
    warehouse = build_retail_warehouse(data)
    (view,) = [v for v in warehouse.views_over("pos") if v.name == "SiC_sales"]
    schema = view.table.schema
    key_at = [schema.position(c) for c in ("storeID", "category")]
    min_at = schema.position("EarliestSale")
    oldest = min(data.pos.table.column_values("date"))
    hit = {
        tuple(row[p] for p in key_at)
        for row in view.table.rows() if row[min_at] == oldest
    }
    changes = expiration_changes(data.pos, 1)
    result = maintain_lattice(
        warehouse.views_over("pos"), changes,
        options=PropagateOptions(policy=MinMaxPolicy.PAPER),
    )
    survivors = {
        tuple(row[p] for p in key_at) for row in view.table.rows()
    }
    stats = result.stats["SiC_sales"]
    assert hit
    assert stats.recomputed == len(hit & survivors)
    assert stats.deleted == len(hit - survivors)
    assert all(warehouse.verify_views().values())
