"""Open-loop due-time latency, lag and backlog accounting on a fake clock."""

import math

import pytest

from perfbench.loops import run_closed_loop, run_open_loop
from perfbench.stats import Arrival, backlog_max, due_times, summarize_open_loop


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


def serving(clock, service_s, failing=()):
    """A request that takes ``service_s[i]`` (or a fixed time) of fake time."""

    def task(i):
        clock.now += service_s[i] if isinstance(service_s, list) else service_s
        return i not in failing

    return task


def test_due_times_are_a_fixed_schedule():
    assert due_times(1.0, 4.0, 3) == [1.0, 1.25, 1.5]
    with pytest.raises(ValueError):
        due_times(0.0, 0.0, 1)


def test_fast_server_has_no_lag_and_latency_equals_service_time():
    clock = FakeClock()
    arrivals = run_open_loop(serving(clock, 0.05), 10.0, 5, 1, clock, clock.sleep)
    assert [a.due for a in arrivals] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])
    assert [a.lag for a in arrivals] == pytest.approx([0.0] * 5)
    assert [a.latency for a in arrivals] == pytest.approx([0.05] * 5)
    assert backlog_max(arrivals) == 0


def test_a_stall_is_charged_to_every_request_it_delays():
    clock = FakeClock()
    # request 1 stalls for 0.35 s; the generator starts 2 and 3 late
    service = [0.05, 0.35, 0.05, 0.05, 0.05]
    arrivals = run_open_loop(serving(clock, service), 10.0, 5, 1, clock, clock.sleep)
    starts = [a.start for a in arrivals]
    assert starts == pytest.approx([0.0, 0.1, 0.45, 0.5, 0.55])
    # latency runs from the due time, not from the late start
    assert [a.latency for a in arrivals] == pytest.approx([0.05, 0.35, 0.3, 0.25, 0.2])
    assert [a.lag for a in arrivals] == pytest.approx([0.0, 0.0, 0.25, 0.2, 0.15])
    summary = summarize_open_loop(arrivals)
    assert summary.samples == 5
    assert summary.lag_p90_s == pytest.approx(0.25)
    assert summary.p50_s == pytest.approx(0.25)
    assert summary.p90_s == pytest.approx(0.35)
    # at t=0.3 and t=0.4 requests 2..3 / 2..4 were due but not started
    assert summary.backlog_max == 3


def test_overload_grows_lag_and_backlog_without_bound():
    clock = FakeClock()
    arrivals = run_open_loop(serving(clock, 0.25), 10.0, 8, 1, clock, clock.sleep)
    lags = [a.lag for a in arrivals]
    assert lags == pytest.approx([0.15 * i for i in range(8)])
    assert backlog_max(arrivals) == 5  # at t=0.7: 8 due, 3 started


def test_failed_requests_miss_every_latency_limit():
    clock = FakeClock()
    arrivals = run_open_loop(
        serving(clock, 0.01, failing={1, 3}), 10.0, 4, 1, clock, clock.sleep
    )
    summary = summarize_open_loop(arrivals)
    assert [a.ok for a in arrivals] == [True, False, True, False]
    assert arrivals[1].latency == math.inf
    assert summary.p90_s == math.inf
    assert summary.p50_s == pytest.approx(0.01)


def test_backlog_on_synthetic_arrivals():
    arrivals = [
        Arrival(due=0.0, start=0.0, end=1.0),
        Arrival(due=0.1, start=1.0, end=1.1),
        Arrival(due=0.2, start=1.1, end=1.2),
        Arrival(due=2.0, start=2.0, end=2.1),
    ]
    assert backlog_max(arrivals) == 2
    assert backlog_max([]) == 0


def test_closed_loop_runs_back_to_back_until_time_is_up():
    clock = FakeClock()
    latencies = run_closed_loop(serving(clock, 0.3, failing={2}), 1.0, 1, clock)
    assert latencies == pytest.approx([0.3, 0.3, math.inf, 0.3])
    assert clock() == pytest.approx(1.2)
