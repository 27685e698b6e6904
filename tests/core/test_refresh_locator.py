"""The refresh GroupLocator: one index probe per delta tuple.

Covers O(|delta|) access charging, index build-on-first-use, the global
(no group-by) view's single row, exactness of incremental index
maintenance through refresh and an abandoned refresh, the unique
index's refusal of a duplicate group, corruption faults (where the
audit — not the index — must flag the damage), and the span/metric probe
accounting.
"""

import pytest

from repro.core import (
    apply_refresh,
    base_recompute_fn,
    compute_summary_delta,
    refresh,
)
from repro.core.refresh import GroupLocator
from repro.errors import TableError
from repro.relational.stats import measuring
from repro.obs import registry, trace, tracing
from repro.views import MaterializedView, SummaryViewDefinition
from repro.warehouse import ChangeSet

from ..conftest import (
    assert_view_matches_recomputation,
    build_shadow,
    minmax_definition,
    sic_definition,
    sid_definition,
)

INSERTS = [(1, 10, 1, 7, 1.0), (4, 13, 9, 2, 1.3)]
DELETES = [(2, 12, 3, 5, 1.6), (3, 10, 1, 6, 1.0)]


@pytest.fixture(autouse=True)
def default_switches(monkeypatch):
    """These tests read the locator's probe spans from a recorder of their
    own: neither ``REPRO_TRACE=0`` nor the ambient recorder that
    ``REPRO_TRACE=1`` installs, holding every earlier test's spans, may
    stand in for it."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.setattr(tracing, "_active", None)


def prepared(pos, definition_factory, inserts=INSERTS, deletes=DELETES):
    view = build_shadow(definition_factory(pos))
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(inserts)
    changes.delete_many(deletes)
    delta = compute_summary_delta(view.definition, changes)
    changes.apply_to(pos.table)
    return view, delta


def global_definition(pos) -> SummaryViewDefinition:
    from repro.aggregates import CountStar, Sum
    from repro.relational import col

    return SummaryViewDefinition.create(
        "all_sales", pos, [], [("n", CountStar()), ("total", Sum(col("qty")))]
    )


class TestLocator:
    def test_probes_once_per_delta_tuple(self, pos):
        view, delta = prepared(pos, sid_definition)
        with measuring() as measured:
            refresh(view, delta)
        snapshot = measured.snapshot()
        assert snapshot.index_lookups == len(delta.table)
        # Only the delta itself is scanned — never the summary table.
        assert snapshot.rows_scanned == len(delta.table)

    def test_builds_missing_index_once(self, pos):
        view, delta = prepared(pos, sic_definition)
        view.table._indexes.clear()  # noqa: SLF001 — simulate unindexed table
        assert view.group_key_index() is None
        GroupLocator(view)
        built = view.group_key_index()
        assert built is not None
        # A second locator reuses the same index object.
        assert GroupLocator(view)._index is built  # noqa: SLF001
        refresh(view, delta, recompute=base_recompute_fn(view.definition))
        assert_view_matches_recomputation(view)
        assert view.table.verify_indexes()

    def test_global_view_takes_its_single_row(self, pos):
        view = build_shadow(global_definition(pos))
        assert view.group_key_index() is None
        (slot,) = [slot for slot, _row in view.table.slots()]
        locator = GroupLocator(view)
        assert locator.slots_of([], 2) == [slot, slot]
        assert locator.probes == 0
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert_many(INSERTS)
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        refresh(view, delta)
        changes_back = ChangeSet("pos", pos.table.schema)
        changes_back.delete_many(INSERTS)
        refresh(view, compute_summary_delta(view.definition, changes_back))
        changes_back.apply_to(pos.table)
        assert_view_matches_recomputation(view)

    def test_probe_counts_surface_on_span_and_metrics(self, pos):
        view, delta = prepared(pos, sid_definition)
        with trace() as recorder:
            refresh(view, delta)
        root = recorder.finish()
        span = next(s for s in root.walk() if s.name == "refresh")
        assert span.counters["index_probes"] == len(delta.table)
        assert registry().counter("refresh.index_probes").value >= len(delta.table)


class TestExactness:
    def test_index_exact_after_plain_refresh(self, pos):
        view, delta = prepared(pos, minmax_definition)
        refresh(view, delta, recompute=base_recompute_fn(view.definition))
        assert view.table.verify_indexes()

    def test_index_exact_after_an_abandoned_refresh(self, pos):
        """A refresh that fails after its shadow is built leaves the
        published table's group-key index exactly as it was, and the retry
        probes through it."""
        view = MaterializedView.build(sic_definition(pos))
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert_many(INSERTS)
        changes.delete_many(DELETES)
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        before = view.table.sorted_rows()

        class Boom(RuntimeError):
            pass

        def hook(stage):
            if stage == "publish":
                raise Boom

        with pytest.raises(Boom):
            apply_refresh(
                view, delta, base_recompute_fn(view.definition),
                failure_hook=hook,
            )
        assert view.table.sorted_rows() == before
        assert view.table.verify_indexes()
        apply_refresh(view, delta, base_recompute_fn(view.definition))
        assert_view_matches_recomputation(view)
        assert view.table.verify_indexes()

    def test_duplicate_group_row_is_refused_before_any_write(self, pos, warehouse):
        # Refused through the table's single-row mutators, on the private
        # copy a refresh writes to.
        view = warehouse.define_summary_table(sid_definition(pos))
        shadow = view.begin_version()
        table = shadow.table
        table.delete_slot(0)          # a free slot the insert could take
        before = stored_state(shadow)
        with pytest.raises(TableError, match="unique index"):
            table.insert(table.row_at(1))
        with pytest.raises(TableError, match="unique index"):
            table.update_slot(2, table.row_at(1))
        assert stored_state(shadow) == before
        assert len(table) == len(table.rows())
        assert table.verify_indexes()

    def test_verify_indexes_detects_divergence(self, pos):
        view, _ = prepared(pos, sid_definition)
        index = view.group_key_index()
        assert view.table.verify_indexes()
        key = next(iter(index.keys()))
        (slot,) = index.slots_of(key)
        index.remove_key(key, slot)       # behind the table's back
        index.add_key(key, slot + 1)
        assert not view.table.verify_indexes()


class TestCorruptionFaults:
    def test_audit_flags_victim_and_indexes_stay_exact(self):
        """Corruption faults mutate through table operations, so the
        group-key indexes stay exact — it is the audit's certificate and
        recompute comparison, not index drift, that fingers the victim."""
        import random

        from repro.obs.metrics import MetricsRegistry
        from repro.warehouse.health import audit_warehouse, inject_corruption
        from repro.warehouse.nightly import run_nightly_maintenance
        from repro.workload import (
            RetailConfig,
            build_retail_warehouse,
            generate_retail,
            update_generating_changes,
        )

        data = generate_retail(RetailConfig(pos_rows=400, seed=3, n_dates=10))
        warehouse = build_retail_warehouse(data)
        changes = update_generating_changes(
            data.pos, data.config, 40, random.Random(3)
        )
        warehouse.stage_insertions("pos", changes.insertions.rows())
        warehouse.stage_deletions("pos", changes.deletions.rows())
        run_nightly_maintenance(warehouse)

        inject_corruption(
            warehouse, "mutate", rng=random.Random(5), view_name="SID_sales"
        )
        report = audit_warehouse(warehouse, metrics=MetricsRegistry())
        assert report.failed_views == ["SID_sales"]
        for view in warehouse.views_over("pos"):
            assert view.table.verify_indexes(), view.name


def stored_state(shadow):
    """Everything a refresh may write: rows by slot, free slots, index
    entries, tracked domains and the certificate."""
    table = shadow.table
    return (
        table._rows,                                            # noqa: SLF001
        sorted(table._free_slots),                              # noqa: SLF001
        {columns: {key: list(index.slots_of(key)) for key in index.keys()}
         for columns, index in table.indexes.items()},
        [table.domain(column) for column in table.schema.columns],
        shadow.certificate.value,
    )
