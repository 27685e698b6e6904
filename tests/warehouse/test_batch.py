"""Batch-window clock and report arithmetic."""

import pytest

from repro.errors import MaintenanceError
from repro.obs import trace, tracing
from repro.warehouse import BatchReport, BatchWindowClock
from repro.warehouse.batch import Phase


@pytest.fixture(autouse=True)
def isolated_tracing(monkeypatch):
    """Span-inspecting tests need a fresh recorder, whatever REPRO_TRACE says."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    previous = tracing.active_recorder()
    tracing.install_recorder(None)
    yield
    tracing.install_recorder(previous)


class TestClock:
    def test_online_phase_recorded(self):
        clock = BatchWindowClock()
        with clock.online("propagate"):
            pass
        (phase,) = clock.report.phases
        assert phase.name == "propagate" and not phase.offline
        assert phase.seconds >= 0

    def test_offline_phase_recorded(self):
        clock = BatchWindowClock()
        with clock.offline("refresh"):
            pass
        assert clock.report.phases[0].offline

    def test_phase_recorded_even_on_exception(self):
        clock = BatchWindowClock()
        with pytest.raises(ValueError):
            with clock.offline("boom"):
                raise ValueError
        assert len(clock.report.phases) == 1

    def test_multiple_phases_accumulate(self):
        clock = BatchWindowClock()
        with clock.online("a"):
            pass
        with clock.offline("b"):
            pass
        with clock.offline("b"):
            pass
        assert len(clock.report.phases) == 3


class TestReport:
    def make_report(self):
        return BatchReport(
            phases=[
                Phase("propagate", 1.0, offline=False),
                Phase("refresh", 0.25, offline=True),
                Phase("refresh", 0.25, offline=True),
            ]
        )

    def test_online_offline_split(self):
        report = self.make_report()
        assert report.online_seconds == 1.0
        assert report.offline_seconds == 0.5
        assert report.total_seconds == 1.5

    def test_seconds_for(self):
        assert self.make_report().seconds_for("refresh") == 0.5

    def test_merge(self):
        merged = self.make_report().merge(self.make_report())
        assert merged.total_seconds == 3.0

    def test_summary_mentions_batch_window(self):
        assert "batch window" in self.make_report().summary()


class TestNestedPhases:
    def test_nested_phase_records_depth(self):
        clock = BatchWindowClock()
        with clock.offline("batch"):
            with clock.offline("apply-base"):
                pass
        by_name = {phase.name: phase for phase in clock.report.phases}
        assert by_name["batch"].depth == 0
        assert by_name["apply-base"].depth == 1

    def test_nested_phases_do_not_double_count_the_window(self):
        clock = BatchWindowClock()
        with clock.offline("batch"):
            with clock.offline("apply-base"):
                pass
            with clock.offline("refresh"):
                pass
        report = clock.report
        outer = next(p for p in report.phases if p.name == "batch")
        # The window is the outer phase alone; inner phases are detail.
        assert report.offline_seconds == outer.seconds
        assert report.offline_seconds < sum(p.seconds for p in report.phases)

    def test_seconds_for_still_sees_nested_phases(self):
        clock = BatchWindowClock()
        with clock.offline("batch"):
            with clock.offline("apply-base"):
                pass
        assert clock.report.seconds_for("apply-base") > 0


class TestZeroDurationPhases:
    def test_zero_duration_phase_is_recorded(self):
        clock = BatchWindowClock()
        with clock.offline("instant"):
            pass
        (phase,) = clock.report.phases
        assert phase.seconds >= 0.0
        assert clock.report.offline_seconds >= 0.0

    def test_zero_duration_phase_in_report_arithmetic(self):
        report = BatchReport(phases=[
            Phase("instant", 0.0, offline=True),
            Phase("real", 0.5, offline=True),
        ])
        assert report.offline_seconds == 0.5
        assert report.seconds_for("instant") == 0.0


class TestPhaseReentry:
    def test_reentering_open_phase_raises(self):
        clock = BatchWindowClock()
        with pytest.raises(MaintenanceError, match="re-entered"):
            with clock.online("propagate"):
                with clock.online("propagate"):
                    pass

    def test_failed_reentry_does_not_corrupt_the_clock(self):
        clock = BatchWindowClock()
        with pytest.raises(MaintenanceError):
            with clock.online("p"):
                with clock.online("p"):
                    pass
        # The outer phase still closed; the name is reusable afterwards.
        with clock.online("p"):
            pass
        assert len(clock.report.phases) == 2

    def test_sequential_same_name_phases_are_fine(self):
        clock = BatchWindowClock()
        with clock.offline("refresh"):
            pass
        with clock.offline("refresh"):
            pass
        assert len(clock.report.phases) == 2


class TestSpanBackedClock:
    def test_phases_become_window_tagged_spans(self):
        clock = BatchWindowClock()
        with trace() as recorder:
            with clock.online("propagate"):
                pass
            with clock.offline("refresh", node="v"):
                pass
        spans = {span.name: span for span in recorder.root.walk()}
        assert spans["propagate"].tags["window"] == "online"
        assert spans["refresh"].tags["window"] == "offline"
        assert spans["refresh"].tags["node"] == "v"

    def test_report_agrees_with_spans_exactly(self):
        clock = BatchWindowClock()
        with trace() as recorder:
            with clock.online("propagate"):
                sum(range(1000))
            with clock.offline("refresh"):
                sum(range(1000))
        from_spans = BatchReport.from_spans(recorder.root)
        report = clock.report
        # The clock reads the span's own stopwatch, so agreement is exact,
        # not merely within tolerance.
        assert from_spans.online_seconds == report.online_seconds
        assert from_spans.offline_seconds == report.offline_seconds

    def test_from_spans_assigns_nested_depth(self):
        clock = BatchWindowClock()
        with trace() as recorder:
            with clock.offline("batch"):
                with clock.offline("apply-base"):
                    pass
        from_spans = BatchReport.from_spans(recorder.root)
        by_name = {phase.name: phase for phase in from_spans.phases}
        assert by_name["batch"].depth == 0
        assert by_name["apply-base"].depth == 1
        outer = by_name["batch"]
        assert from_spans.offline_seconds == outer.seconds

    def test_from_spans_without_window_tags_is_empty(self):
        from repro.obs import span

        with trace() as recorder:
            with span("not-a-phase"):
                pass
        assert BatchReport.from_spans(recorder.root).phases == []

    def test_clock_works_identically_without_tracing(self):
        clock = BatchWindowClock()
        with clock.online("propagate"):
            pass
        with clock.offline("refresh"):
            pass
        assert len(clock.report.phases) == 2
        assert clock.report.online_seconds > 0
        assert clock.report.offline_seconds > 0
