"""Consistency certificates, freshness tracking, and integrity events."""

import random
from array import array
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    base_recompute_fn,
    compute_summary_delta,
    refresh,
    refresh_atomically,
)
from repro.obs import trace
from repro.obs.audit import (
    CERT_MASK,
    IntegrityEvent,
    ViewCertificate,
    ViewFreshness,
    certificates_enabled,
    record_events,
    row_digest,
    columns_certificate,
    rows_certificate,
)
from repro.obs.metrics import MetricsRegistry
from repro.relational import Table
from repro.views import MaterializedView
from repro.warehouse import ChangeSet

from ..conftest import assert_view_matches_recomputation, sid_definition


class TestRowDigest:
    def test_deterministic(self):
        row = (1, "sf", 3.5, None)
        assert row_digest(row) == row_digest(row)

    def test_cell_order_matters(self):
        assert row_digest((1, 2)) != row_digest((2, 1))

    def test_integral_float_equals_int(self):
        # Refresh arithmetic can turn SUM results into floats; SQL
        # semantics say 5.0 and 5 are the same aggregate value.
        assert row_digest((1, 5.0)) == row_digest((1, 5))
        assert row_digest(("x", -3.0)) == row_digest(("x", -3))

    def test_bool_equals_int(self):
        assert row_digest((True,)) == row_digest((1,))
        assert row_digest((False,)) == row_digest((0,))

    def test_non_integral_float_distinct(self):
        assert row_digest((5.5,)) != row_digest((5,))

    def test_string_vs_number_distinct(self):
        assert row_digest(("5",)) != row_digest((5,))

    def test_none_distinct_from_zero_and_empty(self):
        digests = {row_digest((None,)), row_digest((0,)), row_digest(("",))}
        assert len(digests) == 3

    def test_cell_boundaries_matter(self):
        # Length-prefixing prevents ("ab", "c") colliding with ("a", "bc").
        assert row_digest(("ab", "c")) != row_digest(("a", "bc"))

    def test_fits_in_64_bits(self):
        assert 0 <= row_digest((1, "x", 2.5)) <= CERT_MASK


class TestRowsCertificate:
    def test_order_independent(self):
        rows = [(1, "a", 2), (2, "b", 3), (3, "c", 4)]
        shuffled = list(reversed(rows))
        assert rows_certificate(rows) == rows_certificate(shuffled)

    def test_multiset_sensitive(self):
        # A bag: duplicate rows must change the certificate.
        assert rows_certificate([(1,), (1,)]) != rows_certificate([(1,)])

    def test_empty_is_zero(self):
        assert rows_certificate([]) == 0

    def test_rows_of_different_arity(self):
        rows = [(1, 2), (), (3,), (4, 5), ()]
        assert rows_certificate(rows) == reference_certificate(rows)


def reference_certificate(rows):
    """The definition the batch kernel must reproduce bit for bit."""
    return sum(row_digest(row) for row in rows) & CERT_MASK


NAN = float("nan")

#: Cells that stress value-sharing in the kernel: numeric values that are
#: equal but typed differently (and must digest equally), NaN both as one
#: shared object and as fresh ones, ints past the typed-array range, and
#: values only equal *by comparison* to a builtin (canonicalised per cell).
cells = st.one_of(
    st.sampled_from([
        0, 0.0, -0.0, False, 1, 1.0, True, None, "", "0", "a", NAN,
        2 ** 63, -(2 ** 63) - 1, 2 ** 80, float("inf"), 1e300, 2.5,
        Decimal("1"), Decimal("1.0"), (1, 2), b"a",
    ]),
    st.floats(allow_nan=True),
    st.integers(-(2 ** 70), 2 ** 70),
    st.text(max_size=3),
)


class TestBatchKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(
        lambda arity: st.lists(st.tuples(*[cells] * arity), max_size=30)
    ))
    def test_equals_sum_of_row_digests(self, rows):
        columns = [list(column) for column in zip(*rows)]
        expected = reference_certificate(rows)
        assert columns_certificate(columns, len(rows)) == expected
        assert rows_certificate(rows) == expected
        assert ViewCertificate.from_rows(rows).value == expected

    def test_zero_arity_rows_count(self):
        assert columns_certificate([], 3) == reference_certificate([()] * 3)
        assert columns_certificate([], 0) == 0

    def test_same_and_distinct_nan_objects(self):
        fresh = [float("nan") for _ in range(3)]
        for column in (
            [NAN, NAN, 1.5], fresh, array("d", [NAN, 2.0, NAN]),
        ):
            rows = [(value,) for value in column]
            assert columns_certificate([column], len(rows)) == \
                reference_certificate(rows)

    def test_equal_numbers_of_different_type_share_a_digest(self):
        column = [0, 0.0, -0.0, False, 1, 1.0, True]
        rows = [(value,) for value in column]
        assert columns_certificate([column], 7) == reference_certificate(rows)
        assert len({row_digest(row) for row in rows}) == 2

    def test_value_equal_to_a_builtin_is_not_merged_with_it(self):
        # Decimal("1") == 1 and hashes alike, but canonicalises by repr.
        column = [1, Decimal("1"), 1.0]
        rows = [(value,) for value in column]
        assert row_digest(rows[0]) != row_digest(rows[1])
        assert columns_certificate([column], 3) == reference_certificate(rows)

    def test_more_rows_than_one_block(self):
        from repro.obs import audit

        count = audit._BLOCK_ROWS * 2 + 17  # noqa: SLF001
        keys = array("q", range(count))
        values = [float(i % 7) for i in range(count)]
        assert columns_certificate([keys, values], count) == \
            reference_certificate(zip(keys, values))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.floats(allow_nan=True)),
                 min_size=1, max_size=20),
        st.data(),
    )
    def test_typed_columns_demotion_and_tombstones(self, rows, data):
        """Fed from ``Table.columns()``: typed arrays, a column demoted by
        a value that does not fit, and tombstoned slots left out."""
        table = Table("t", ["k", "v"], storage="column")
        table.append_batch([list(column) for column in zip(*rows)])
        if data.draw(st.booleans()):
            table.insert((2 ** 63, None))
        doomed = data.draw(st.sets(st.integers(0, len(rows) - 1)))
        table.delete_slots(sorted(doomed))
        assert columns_certificate(table.columns(), len(table)) == \
            reference_certificate(table.rows())


class TestViewCertificate:
    def test_from_rows_matches_incremental(self):
        rows = [(1, "a", 2.0), (2, "b", 3.5)]
        built = ViewCertificate.from_rows(rows)
        incremental = ViewCertificate()
        for row in rows:
            incremental.row_inserted(row)
        assert built.value == incremental.value == rows_certificate(rows)

    def test_invertible(self):
        certificate = ViewCertificate()
        certificate.row_inserted((1, 2))
        certificate.row_inserted((3, 4))
        certificate.row_deleted((1, 2))
        certificate.row_deleted((3, 4))
        assert certificate.value == 0

    def test_update_is_delete_plus_insert(self):
        one = ViewCertificate()
        one.row_inserted((1, 2))
        one.row_updated((1, 2), (1, 3))
        other = ViewCertificate()
        other.row_inserted((1, 3))
        assert one.value == other.value

    def test_truncated_resets(self):
        certificate = ViewCertificate.from_rows([(1,), (2,)])
        certificate.truncated()
        assert certificate.value == 0

    def test_digest_accounting(self):
        certificate = ViewCertificate()
        certificate.row_inserted((1,))
        certificate.row_updated((1,), (2,))
        certificate.row_deleted((2,))
        assert certificate.digests_computed == 4  # 1 + 2 + 1

    def test_charges_span_counter(self):
        certificate = ViewCertificate()
        with trace() as recorder:
            from repro.obs.tracing import span

            with span("work"):
                certificate.row_inserted((1, 2))
                certificate.row_updated((1, 2), (1, 3))
        (work,) = recorder.root.children
        assert work.counters["cert_digests"] == 3

    def test_hex_is_16_digits(self):
        assert len(ViewCertificate.from_rows([(1,)]).hex) == 16


class TestTableObserverIntegration:
    def attach(self, rows):
        table = Table("t", ["a", "b"], rows)
        certificate = ViewCertificate.from_rows(table.rows())
        table.attach_observer(certificate)
        return table, certificate

    def assert_consistent(self, table, certificate):
        assert certificate.value == rows_certificate(table.rows())

    def test_insert(self):
        table, certificate = self.attach([(1, 2)])
        table.insert((3, 4))
        self.assert_consistent(table, certificate)

    def test_delete_slot(self):
        table, certificate = self.attach([(1, 2), (3, 4)])
        table.delete_slot(0)
        self.assert_consistent(table, certificate)

    def test_update_slot(self):
        table, certificate = self.attach([(1, 2)])
        table.update_slot(0, (1, 9))
        self.assert_consistent(table, certificate)

    def test_truncate(self):
        table, certificate = self.attach([(1, 2), (3, 4)])
        table.truncate()
        assert certificate.value == 0

    def test_detach_stops_tracking(self):
        table, certificate = self.attach([(1, 2)])
        table.detach_observer(certificate)
        table.insert((3, 4))
        assert certificate.value != rows_certificate(table.rows())

    def test_copy_does_not_inherit_observers(self):
        table, certificate = self.attach([(1, 2)])
        clone = table.copy()
        assert clone.observers == ()


class TestMaterializedViewCertificate:
    def test_view_certifies_at_build(self, pos):
        view = MaterializedView.build(sid_definition(pos))
        assert view.certificate is not None
        assert view.certificate.value == rows_certificate(view.table.rows())

    def test_kill_switch_disables(self, pos, monkeypatch):
        monkeypatch.setenv("REPRO_CERTIFICATES", "0")
        assert not certificates_enabled()
        view = MaterializedView.build(sid_definition(pos))
        assert view.certificate is None
        assert view.table.observers == ()

    def refreshed(self, pos, inserts, deletes):
        view = MaterializedView.build(sid_definition(pos))
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert_many(inserts)
        changes.delete_many(deletes)
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        return view, delta

    def test_maintained_through_refresh(self, pos):
        view, delta = self.refreshed(
            pos,
            inserts=[(1, 10, 1, 7, 1.0), (4, 13, 9, 2, 1.3)],
            deletes=[(2, 12, 3, 5, 1.6)],
        )
        refresh(view, delta, base_recompute_fn(view.definition))
        assert_view_matches_recomputation(view)
        assert view.certificate.value == rows_certificate(view.table.rows())

    def test_maintained_through_rollback(self, pos):
        view, delta = self.refreshed(
            pos,
            inserts=[(1, 10, 1, 7, 1.0)],
            deletes=[(2, 12, 3, 5, 1.6)],
        )
        before = view.certificate.value

        def hook(step):
            if step == 1:
                raise RuntimeError("injected")

        with pytest.raises(RuntimeError):
            refresh_atomically(
                view, delta, base_recompute_fn(view.definition),
                failure_hook=hook,
            )
        # Undo-log rollback goes through the same observer hooks, so the
        # certificate ends exactly where it started.
        assert view.certificate.value == before
        assert view.certificate.value == rows_certificate(view.table.rows())

    def test_maintained_through_rematerialize(self, pos):
        view = MaterializedView.build(sid_definition(pos))
        pos.table.insert((1, 10, 1, 9, 1.0))
        view.rematerialize()
        assert view.certificate.value == rows_certificate(view.table.rows())


class TestViewFreshness:
    def test_new_view_counts_as_fresh(self):
        freshness = ViewFreshness(created_ts=100.0)
        assert freshness.staleness_seconds(now=107.5) == 7.5
        assert freshness.refresh_count == 0

    def test_mark_refreshed(self):
        freshness = ViewFreshness(created_ts=100.0)
        freshness.mark_refreshed(delta_rows=4, ts=200.0)
        freshness.mark_refreshed(delta_rows=2, ts=300.0)
        assert freshness.refresh_count == 2
        assert freshness.applied_delta_rows == 6
        assert freshness.staleness_seconds(now=305.0) == 5.0

    def test_note_run(self):
        freshness = ViewFreshness()
        freshness.note_run(7, "nightly")
        assert freshness.last_refresh_run_id == 7
        assert freshness.last_refresh_kind == "nightly"

    def test_staleness_never_negative(self):
        freshness = ViewFreshness(created_ts=100.0)
        assert freshness.staleness_seconds(now=50.0) == 0.0

    def test_as_dict_round_trips_fields(self):
        freshness = ViewFreshness()
        freshness.mark_refreshed(delta_rows=3, ts=1.0)
        freshness.note_run(2, "maintain_lattice")
        assert freshness.as_dict() == {
            "last_refresh_ts": 1.0,
            "last_refresh_run_id": 2,
            "last_refresh_kind": "maintain_lattice",
            "refresh_count": 1,
            "applied_delta_rows": 3,
        }


class TestIntegrityEvents:
    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="unknown severity"):
            IntegrityEvent(severity="fatal", kind="x", view="v", message="m")

    def test_record_events_feeds_labelled_counters(self):
        metrics = MetricsRegistry()
        events = [
            IntegrityEvent("critical", "certificate-drift", "SID", "m1"),
            IntegrityEvent("critical", "recompute-mismatch", "SID", "m2"),
            IntegrityEvent("warning", "parent-mismatch", "SiC", "m3"),
        ]
        record_events(events, metrics=metrics)
        assert metrics.counter(
            "integrity.events", labels={"severity": "critical"}
        ).snapshot() == 2
        assert metrics.counter(
            "integrity.events", labels={"severity": "warning"}
        ).snapshot() == 1
        assert metrics.counter(
            "integrity.findings",
            labels={"kind": "parent-mismatch", "view": "SiC"},
        ).snapshot() == 1


class TestDeltaScaling:
    """Certificate maintenance is O(|summary-delta|), not O(|view|)."""

    def test_cert_digests_scale_with_delta_not_view(self):
        rng = random.Random(7)
        from repro.workload import (
            RetailConfig,
            build_retail_warehouse,
            generate_retail,
            update_generating_changes,
        )
        from repro.warehouse import run_nightly_maintenance

        def digests_for(pos_rows, change_rows):
            data = generate_retail(RetailConfig(
                pos_rows=pos_rows, seed=11, n_dates=10
            ))
            warehouse = build_retail_warehouse(data)
            changes = update_generating_changes(
                data.pos, data.config, change_rows, rng
            )
            warehouse.stage_insertions("pos", changes.insertions.rows())
            warehouse.stage_deletions("pos", changes.deletions.rows())
            with trace() as recorder:
                run_nightly_maintenance(warehouse)
            return recorder.root.total_counter("cert_digests")

        same_delta_small_view = digests_for(400, 40)
        same_delta_large_view = digests_for(4000, 40)
        larger_delta = digests_for(400, 200)

        assert same_delta_small_view > 0
        # 10x the view size must not blow up the digest count: the work is
        # bounded by the summary delta, and a bigger fact table only
        # *shrinks* the per-group delta overlap.  Allow 3x slack for
        # grouping differences between the two datasets.
        assert same_delta_large_view <= 3 * same_delta_small_view
        # 5x the delta on the same dataset must grow the digest count.
        assert larger_delta > same_delta_small_view

        # Publishing is held to the same standard, by count: the same
        # delta against N and 10 N groups validates the same rows.
        from repro.aggregates import CountStar, Min, Sum
        from repro.core import refresh_versioned
        from repro.relational import col
        from repro.views import SummaryViewDefinition

        from ..conftest import make_items, make_pos, make_stores

        def publish_counts(groups, insertions, deletions):
            pos = make_pos(make_stores(), make_items(), [
                (1, 10, date, qty, 1.0)
                for date in range(groups) for qty in (2, 5)
            ])
            view = MaterializedView.build(SummaryViewDefinition.create(
                "SID_low", pos, group_by=["storeID", "itemID", "date"],
                aggregates=[("n", CountStar()), ("total", Sum(col("qty"))),
                            ("low", Min(col("qty")))],
            ))
            changes = ChangeSet("pos", pos.table.schema)
            changes.insert_many(insertions)
            changes.delete_many(deletions)
            delta = compute_summary_delta(view.definition, changes)
            changes.apply_to(pos.table)
            with trace() as recorder:
                stats = refresh_versioned(
                    view, delta, recompute=base_recompute_fn(view.definition)
                )
            assert_view_matches_recomputation(view)
            (span,) = recorder.spans("publish")
            touched = (stats.inserted + stats.updated + stats.deleted
                       + stats.recomputed)
            return span.counters, touched, view

        insertions = (
            [(1, 10, date, 1, 1.0) for date in range(5)]          # updates
            + [(2, 11, date, 3, 1.0) for date in range(3)]        # new groups
        )
        deletions = (
            [(1, 10, date, qty, 1.0) for date in (10, 11) for qty in (2, 5)]
            + [(1, 10, 20, 2, 1.0)]                 # the group's MIN: recompute
        )
        small, touched, view = publish_counts(200, insertions, deletions)
        large, touched_large, _view = publish_counts(2000, insertions, deletions)
        assert touched == touched_large == 5 + 3 + 2 + 1
        if view.table.storage == "column":
            assert small == large
            assert small["compacted_rows"] == 2
            assert 0 < small["validated_rows"] <= (
                2 * touched + 2 * small["compacted_rows"]
            )
            assert small["written_slots"] <= touched + small["compacted_rows"]
        else:   # row storage re-inserts: no validated base to lean on
            assert small["validated_rows"] == len(view.table)
        # Nothing to save when half the view was written: the full digest.
        full, _touched, view = publish_counts(6, insertions[:5], [])
        assert full["validated_rows"] == len(view.table) == 6
