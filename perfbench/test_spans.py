"""Span recording, per-thread self time and the Chrome trace export."""

import threading

import pytest

from perfbench.spans import (
    Span,
    Tracer,
    chrome_trace,
    covered_length,
    self_time_by_name,
    self_times,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (2, 3)]) == 2.0
    assert covered_length([(0, 4), (1, 2), (3, 6)]) == 6.0
    assert covered_length([(5, 5), (1, 0)]) == 0.0


def test_self_time_subtracts_union_of_overlapping_children_per_thread():
    A, B = 1, 2
    spans = [
        # thread A: parent [0, 10] with two children that overlap on [3, 4]
        Span("sql", 0.0, 10.0, 1, None, "j", A),
        Span("iofmt", 1.0, 4.0, 2, 1, "j", A),
        Span("hdfs", 3.0, 6.0, 3, 1, "j", A),
        # a grandchild inside child 2: takes time from child 2 only
        Span("hdfs", 2.0, 3.0, 4, 2, "j", A),
        # thread B: a span whose parent is on thread A ran concurrently
        # with it, so it takes nothing from the parent's self time
        Span("send", 2.0, 9.0, 5, 1, "j", B),
        # thread B's own tree: children overlap each other and one
        # sticks out past its parent's end (only the overlap counts)
        Span("ingest", 0.0, 8.0, 6, None, "j", B),
        Span("train", 1.0, 2.0, 7, 6, "j", B),
        Span("train", 1.5, 3.0, 8, 6, "j", B),
        Span("train", 7.0, 9.0, 9, 6, "j", B),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(7.0)
    assert own[6] == pytest.approx(8.0 - 3.0)  # [1, 3] and [7, 8]
    totals = self_time_by_name(spans)
    assert totals["train"] == pytest.approx(1.0 + 1.5 + 2.0)
    # On one thread with properly nested spans, self times add up to the
    # root's wall time exactly.
    nested = [
        Span("job", 0.0, 5.0, 1, None, "j", A),
        Span("a", 1.0, 3.0, 2, 1, "j", A),
        Span("b", 1.5, 2.5, 3, 2, "j", A),
        Span("c", 3.5, 4.0, 4, 1, "j", A),
    ]
    assert sum(self_times(nested).values()) == pytest.approx(5.0)


def test_tracer_links_parents_on_each_thread_and_tags_jobs():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.job("job-1"):
        with tracer.span("outer"):
            clock.now = 1.0
            with tracer.span("inner"):
                clock.now = 2.0
            assert tracer.current_name() == "outer"

            # A pool thread names no job: it inherits the only job in flight.
            def worker():
                with tracer.span("pool"):
                    pass

            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
            clock.now = 3.0
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["outer"].parent is None
    assert by_name["pool"].parent is None  # its own thread's root
    assert by_name["pool"].thread != by_name["outer"].thread
    assert {s.job for s in tracer.spans} == {"job-1"}
    assert (by_name["outer"].start, by_name["outer"].end) == (0.0, 3.0)


def test_concurrent_jobs_leave_pool_spans_unattributed():
    tracer = Tracer(clock=FakeClock())
    with tracer.job("a"):
        entered = threading.Event()
        release = threading.Event()

        def other_client():
            with tracer.job("b"):
                entered.set()
                release.wait(timeout=10)

        client = threading.Thread(target=other_client)
        client.start()
        assert entered.wait(timeout=10)

        def worker():
            with tracer.span("pool"):
                pass

        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        release.set()
        client.join(timeout=10)
        assert not t.is_alive() and not client.is_alive()
    assert [s.job for s in tracer.spans] == [None]


def test_end_closes_spans_left_open_inside_and_is_idempotent():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.begin("reader")
    tracer.begin("leaked")  # never closed
    clock.now = 2.0
    tracer.end(outer)
    tracer.end(outer)
    assert [s.name for s in tracer.spans] == ["reader"]
    assert tracer.current_name() is None


def test_chrome_trace_events():
    spans = [
        Span("sql.plan", 1.5, 1.75, 2, 1, "j", 7),
        Span("sql", 1.0, 2.0, 1, None, "j", 7),
    ]
    events = chrome_trace(spans)["traceEvents"]
    assert [e["name"] for e in events] == ["sql", "sql.plan"]
    first, second = events
    assert first["ph"] == "X" and first["ts"] == 0.0 and first["dur"] == 1e6
    assert second["ts"] == pytest.approx(0.5e6) and second["cat"] == "sql"
    assert second["tid"] == 7
    assert second["args"] == {"span": 2, "parent": 1, "job": "j"}
