"""Unit tests for the epoch-versioned view machinery itself:
begin/publish lifecycle, pinning, stamps, and the mode dispatcher."""

import pytest

from repro.core import (
    PropagateOptions,
    RefreshMode,
    RefreshVariant,
    apply_refresh,
    compute_summary_delta,
    refresh,
    refresh_versioned,
    resolve_refresh_mode,
    versioned_default,
)
from repro.errors import PublishError
from repro.views import MaterializedView, compute_rows
from repro.warehouse import ChangeSet

from ..conftest import assert_view_matches_recomputation, sid_definition


def make_changes(pos, insertions=(), deletions=()):
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(insertions)
    changes.delete_many(deletions)
    return changes


@pytest.fixture
def view(pos):
    return MaterializedView.build(sid_definition(pos))


class TestVersionLifecycle:
    def test_fresh_view_is_epoch_zero(self, view):
        assert view.epoch == 0
        assert view.pin().epoch == 0
        assert view.pin().table is view.table

    def test_publish_advances_epoch_and_swaps_table(self, view):
        before = view.pin()
        shadow = view.begin_version()
        shadow.table.insert((99, 99, 99, 1, 1.0, 1))
        published = view.publish(shadow)
        assert view.epoch == 1
        assert published.table is view.table
        assert view.table is not before.table
        # The pinned old version is untouched by the publish.
        assert before.epoch == 0
        assert len(before.table) == len(view.table) - 1

    def test_shadow_mutations_invisible_until_publish(self, view):
        rows_before = sorted(view.table.rows())
        shadow = view.begin_version()
        shadow.table.insert((99, 99, 99, 1, 1.0, 1))
        assert sorted(view.table.rows()) == rows_before
        view.publish(shadow)
        assert sorted(view.table.rows()) != rows_before

    def test_stale_shadow_rejected(self, view):
        first = view.begin_version()
        second = view.begin_version()
        view.publish(first)
        with pytest.raises(PublishError, match="stale shadow"):
            view.publish(second)
        # The committed epoch survives the failed publish.
        assert view.epoch == 1
        assert view.table is first.table

    def test_shadow_overtaken_by_in_place_refresh_rejected(self, pos, view):
        """Same epoch, next revision: publishing the shadow would drop
        the in-place refresh's rows without anyone noticing."""
        shadow = view.begin_version()
        changes = make_changes(pos, insertions=[(1, 1, 1, 2, 3.0)])
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        refresh(view, delta)
        assert view.pin().stamp() == (0, 1)
        refreshed = view.pin()
        with pytest.raises(PublishError, match="stale shadow"):
            view.publish(shadow)
        assert view.pin() is refreshed
        assert_view_matches_recomputation(view)

    def test_epochs_are_monotonic(self, view):
        for expected in range(1, 5):
            view.publish(view.begin_version())
            assert view.epoch == expected

    def test_corrupted_shadow_fails_validation(self, view):
        shadow = view.begin_version()
        # Mutate behind the certificate's back: detach the observer first,
        # so the maintained digest no longer matches the rows.
        shadow.table.detach_observer(shadow.certificate)
        shadow.table.insert((99, 99, 99, 1, 1.0, 1))
        with pytest.raises(PublishError, match="certificate mismatch"):
            view.publish(shadow)
        assert view.epoch == 0

    def test_version_stamp_tracks_publishes_and_inplace_refreshes(
        self, pos, view
    ):
        stamp0 = view.version_stamp()
        view.publish(view.begin_version())
        stamp1 = view.version_stamp()
        assert stamp1 != stamp0
        changes = make_changes(pos, insertions=[(1, 1, 1, 2, 3.0)])
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        refresh(view, delta)
        assert view.version_stamp() != stamp1


class TestRefreshVersioned:
    def test_matches_recomputation(self, pos, view):
        changes = make_changes(
            pos,
            insertions=[(1, 1, 1, 5, 2.0), (4, 4, 9, 1, 1.0)],
            deletions=[pos.table.rows()[0]],
        )
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        stats = refresh_versioned(view, delta)
        assert view.epoch == 1
        assert stats.delta_rows == len(delta.table)
        assert_view_matches_recomputation(view)

    def test_certificate_survives_swap(self, pos, view):
        from repro.obs.audit import rows_certificate

        changes = make_changes(pos, insertions=[(2, 2, 2, 7, 1.0)])
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        refresh_versioned(view, delta)
        assert view.certificate is not None
        assert view.certificate.value == rows_certificate(view.table.rows())

    def test_readers_pinned_before_swap_see_old_rows(self, pos, view):
        pinned = view.pin()
        rows_before = sorted(pinned.table.rows())
        changes = make_changes(pos, insertions=[(2, 2, 2, 7, 1.0)])
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        refresh_versioned(view, delta)
        assert sorted(pinned.table.rows()) == rows_before
        assert sorted(view.table.rows()) != rows_before

    def test_name_mismatch_rejected(self, pos, view):
        from repro.errors import MaintenanceError
        from ..conftest import sic_definition

        other = MaterializedView.build(sic_definition(pos))
        changes = make_changes(pos, insertions=[(1, 1, 1, 1, 1.0)])
        delta = compute_summary_delta(other.definition, changes)
        with pytest.raises(MaintenanceError, match="applied to view"):
            refresh_versioned(view, delta)


class TestModeDispatch:
    def test_default_is_versioned(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERSIONED", raising=False)
        assert versioned_default()
        assert resolve_refresh_mode(None) is RefreshMode.VERSIONED

    def test_env_kill_switch_restores_inplace(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERSIONED", "0")
        assert not versioned_default()
        assert resolve_refresh_mode(None) is RefreshMode.INPLACE

    def test_strings_and_members_resolve(self):
        assert resolve_refresh_mode("versioned") is RefreshMode.VERSIONED
        assert resolve_refresh_mode("atomic") is RefreshMode.ATOMIC
        assert resolve_refresh_mode(RefreshMode.INPLACE) is RefreshMode.INPLACE
        with pytest.raises(ValueError):
            resolve_refresh_mode("bogus")

    @pytest.mark.parametrize(
        "mode,expected_epoch",
        [(RefreshMode.INPLACE, 0), (RefreshMode.ATOMIC, 0),
         (RefreshMode.VERSIONED, 1)],
    )
    def test_apply_refresh_dispatches(self, pos, view, mode, expected_epoch):
        changes = make_changes(pos, insertions=[(1, 2, 3, 4, 1.0)])
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        apply_refresh(view, delta, mode=mode)
        assert view.epoch == expected_epoch
        assert_view_matches_recomputation(view)

    def test_engine_config_records_mode(self):
        from repro.lattice.plan import engine_config

        config = engine_config(
            PropagateOptions(), True, RefreshVariant.CURSOR, "versioned"
        )
        assert config["mode"] == "versioned"
        default = engine_config(PropagateOptions(), True, RefreshVariant.CURSOR)
        assert default["mode"] == resolve_refresh_mode(None).value
