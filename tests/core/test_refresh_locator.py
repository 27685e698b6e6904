"""The refresh GroupLocator: indexed O(|delta|) probing vs the scan baseline.

Covers the ``REPRO_REFRESH_INDEX`` kill-switch (identical final states,
O(|summary table|) access charging), index build-on-first-use, exactness of
incremental index maintenance through plain refresh, atomic-refresh
rollback, and corruption faults (where the audit — not the index — must
flag the damage), and the span/metric probe accounting.
"""

import pytest

from repro.core import (
    PropagateOptions,
    base_recompute_fn,
    compute_summary_delta,
    refresh,
    refresh_atomically,
)
from repro.core.refresh import GroupLocator, refresh_index_enabled
from repro.relational.stats import measuring
from repro.obs import registry, trace
from repro.views import MaterializedView, SummaryViewDefinition
from repro.warehouse import ChangeSet

from ..conftest import (
    assert_view_matches_recomputation,
    minmax_definition,
    sic_definition,
    sid_definition,
)
from ..differential.harness import env

INSERTS = [(1, 10, 1, 7, 1.0), (4, 13, 9, 2, 1.3)]
DELETES = [(2, 12, 3, 5, 1.6), (3, 10, 1, 6, 1.0)]


@pytest.fixture(autouse=True)
def default_switches(monkeypatch):
    """These tests exercise the locator itself and read its probe spans:
    pin the default (enabled) environment so CI's kill-switch matrix runs
    don't mask it."""
    monkeypatch.delenv("REPRO_REFRESH_INDEX", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)


def prepared(pos, definition_factory, inserts=INSERTS, deletes=DELETES):
    view = MaterializedView.build(definition_factory(pos))
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


class TestKillSwitch:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_REFRESH_INDEX", raising=False)
        assert refresh_index_enabled() is True
        monkeypatch.setenv("REPRO_REFRESH_INDEX", "0")
        assert refresh_index_enabled() is False

    @pytest.mark.parametrize(
        "definition_factory", [sid_definition, sic_definition, minmax_definition]
    )
    def test_scan_mode_lands_identical_state(self, definition_factory):
        from ..conftest import make_items, make_pos, make_stores

        finals = {}
        for flag in ("1", "0"):
            pos = make_pos(make_stores(), make_items())
            with env("REPRO_REFRESH_INDEX", flag):
                view, delta = prepared(pos, definition_factory)
                refresh(view, delta,
                        recompute=base_recompute_fn(view.definition))
            finals[flag] = view.table.sorted_rows()
            assert_view_matches_recomputation(view)
        assert finals["1"] == finals["0"]

    def test_scan_mode_charges_summary_table_scans(self, pos):
        view, delta = prepared(pos, sid_definition)
        with env("REPRO_REFRESH_INDEX", "0"), measuring() as measured:
            refresh(view, delta)
        snapshot = measured.snapshot()
        # Each delta tuple linear-scans the summary table: the baseline
        # does at least |summary|-ish row touches per miss, far above the
        # delta size — and no index probes at all.
        assert snapshot.rows_scanned > len(view.table)
        assert snapshot.index_lookups == 0

    def test_indexed_mode_probes_once_per_delta_tuple(self, pos):
        view, delta = prepared(pos, sid_definition)
        with measuring() as measured:
            refresh(view, delta)
        snapshot = measured.snapshot()
        assert snapshot.index_lookups == len(delta.table)
        # Only the delta itself is scanned — never the summary table.
        assert snapshot.rows_scanned == len(delta.table)


class TestLocator:
    def test_builds_missing_index_once(self, pos):
        view, delta = prepared(pos, sic_definition)
        view.table._indexes.clear()  # noqa: SLF001 — simulate unindexed table
        assert view.group_key_index() is None
        locator = GroupLocator(view)
        assert locator.indexed
        built = view.group_key_index()
        assert built is not None
        # A second locator reuses the same index object.
        assert GroupLocator(view)._index is built  # noqa: SLF001
        refresh(view, delta, recompute=base_recompute_fn(view.definition))
        assert_view_matches_recomputation(view)
        assert view.table.verify_indexes()

    def test_global_view_has_no_index_in_either_mode(self, pos):
        for flag in ("1", "0"):
            view = MaterializedView.build(global_definition(pos))
            changes = ChangeSet("pos", pos.table.schema)
            changes.insert_many(INSERTS)
            delta = compute_summary_delta(view.definition, changes)
            with env("REPRO_REFRESH_INDEX", flag):
                locator = GroupLocator(view)
                assert not locator.indexed
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
        assert span.tags["indexed"] is True
        assert span.counters["index_probes"] == len(delta.table)
        assert registry().counter("refresh.index_probes").value >= len(delta.table)

    def test_scan_probes_tagged_separately(self, pos):
        view, delta = prepared(pos, sid_definition)
        with env("REPRO_REFRESH_INDEX", "0"), trace() as recorder:
            refresh(view, delta)
        root = recorder.finish()
        span = next(s for s in root.walk() if s.name == "refresh")
        assert span.tags["indexed"] is False
        assert span.counters["scan_probes"] == len(delta.table)
        assert "index_probes" not in span.counters


class TestExactness:
    def test_index_exact_after_plain_refresh(self, pos):
        view, delta = prepared(pos, minmax_definition)
        refresh(view, delta, recompute=base_recompute_fn(view.definition))
        assert view.table.verify_indexes()

    def test_index_exact_after_rollback(self, pos):
        """The undo log replays inverses through the table's mutation hooks,
        so a rolled-back refresh must leave the group-key index exactly as
        a fresh build would."""
        view, delta = prepared(pos, sic_definition)
        before = view.table.sorted_rows()

        class Boom(RuntimeError):
            pass

        def hook(step):
            if step == 2:
                raise Boom

        with pytest.raises(Boom):
            refresh_atomically(
                view, delta, base_recompute_fn(view.definition),
                failure_hook=hook,
            )
        assert view.table.sorted_rows() == before
        assert view.table.verify_indexes()
        # The retry probes through the same (still-exact) index.
        refresh_atomically(view, delta, base_recompute_fn(view.definition))
        assert_view_matches_recomputation(view)
        assert view.table.verify_indexes()

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
