"""The open-loop scheduler measures from the due time (fake clock)."""

import pytest

from openloop import run_open_loop


class FakeClock:
    def __init__(self):
        self.now = 100.0
        self.slept = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.slept.append(seconds)
        self.now += seconds


def drive(service_times, rate=100.0):
    fake = FakeClock()

    def issue(index):
        fake.now += service_times[index]

    timings = run_open_loop(
        len(service_times), rate, issue, clock=fake.clock, sleep=fake.sleep
    )
    return fake, timings


def test_requests_are_due_on_the_fixed_schedule():
    _fake, timings = drive([0.001] * 5)
    assert [t.due for t in timings] == pytest.approx(
        [100.0 + i * 0.01 for i in range(5)]
    )
    for timing in timings:
        assert timing.wait == pytest.approx(0.0)
        assert timing.latency == pytest.approx(0.001)


def test_a_stall_shows_up_as_latency_on_the_requests_behind_it():
    # Request 1 stalls for 35 ms at 100 requests/s: requests 2, 3 and 4
    # were due during the stall and start late; request 5 is on time again.
    fake, timings = drive([0.001, 0.035, 0.001, 0.001, 0.001, 0.001])
    stalled = timings[1]
    assert stalled.latency == pytest.approx(0.035)
    assert timings[2].wait == pytest.approx(0.025)
    assert timings[2].latency == pytest.approx(0.026)
    assert timings[3].wait == pytest.approx(0.016)
    assert timings[4].wait == pytest.approx(0.007)
    assert timings[5].wait == pytest.approx(0.0)
    # A closed loop would have reported 1 ms for each of them.
    assert all(t.service == pytest.approx(0.001) for t in timings[2:])
    # The generator never sleeps while it is behind schedule.
    assert len(fake.slept) == 2       # before request 1 and request 5


def test_latency_is_wait_plus_service():
    _fake, timings = drive([0.02, 0.0, 0.013, 0.004])
    for timing in timings:
        assert timing.latency == pytest.approx(timing.wait + timing.service)
        assert timing.wait >= -1e-12


def test_generator_does_not_slow_down_when_the_service_does():
    # 10 requests of 30 ms at 100/s: an open loop keeps the schedule, so
    # the last request is due 90 ms in and has waited for all before it.
    _fake, timings = drive([0.03] * 10)
    assert timings[-1].due == pytest.approx(100.09)
    assert timings[-1].wait == pytest.approx(9 * 0.03 - 0.09)
