"""In-memory span recorder, per-thread self time, and Chrome trace export.

A span is one timed call into a layer: name, start, end, the span that was
open on the same thread when it began (its parent), the job it belongs to
and the thread it ran on.  Spans are kept in a list while the benchmark
runs and written out once at the end.
"""

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    job: str | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters from any number of threads.

    Each thread keeps its own stack of open spans, so a span's parent is the
    innermost span open on the same thread.  A thread that never named a
    job (an executor pool thread, say) tags its spans with the only job in
    flight, or with ``None`` when several jobs run at once.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._active_jobs: set[str] = set()
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------- jobs

    @contextmanager
    def job(self, job_id: str):
        """Tag every span this thread opens with ``job_id``."""
        with self._lock:
            self._active_jobs.add(job_id)
        previous = getattr(self._local, "job", None)
        self._local.job = job_id
        try:
            yield
        finally:
            self._local.job = previous
            with self._lock:
                self._active_jobs.discard(job_id)

    def _current_job(self) -> str | None:
        job = getattr(self._local, "job", None)
        if job is not None:
            return job
        with self._lock:
            if len(self._active_jobs) == 1:
                return next(iter(self._active_jobs))
        return None

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> str | None:
        """Name of the innermost span open on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def begin(self, name: str) -> tuple:
        """Open a span on this thread; pass the token to :meth:`end`."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        token = (next(self._ids), name, parent, self._current_job(), self._clock())
        stack.append(token)
        return token

    def end(self, token: tuple) -> None:
        """Close a span opened by :meth:`begin` on this thread.  Closing is
        idempotent, and closing a span also drops any span opened inside it
        that was never closed."""
        end = self._clock()
        stack = self._stack()
        for depth in range(len(stack) - 1, -1, -1):
            if stack[depth] is token:
                del stack[depth:]
                break
        else:
            return
        span_id, name, parent, job, start = token
        self.spans.append(
            Span(name, start, end, span_id, parent, job, threading.get_ident())
        )

    @contextmanager
    def span(self, name: str):
        token = self.begin(name)
        try:
            yield
        finally:
            self.end(token)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount


def covered_length(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span, computed per thread: the span's duration
    minus the part of it covered by its children *on the same thread*.

    Children may overlap (their union is subtracted, never their sum), and
    a child on another thread ran concurrently with its parent rather than
    inside it, so it takes nothing from the parent's self time.
    """
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None and parent.thread == s.thread:
            children[parent.span_id].append(s)
    result = {}
    for s in spans:
        covered = covered_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.span_id]
        )
        result[s.span_id] = s.duration - covered
    return result


def self_time_by_name(spans) -> dict[str, float]:
    """Summed self time per span name, over every thread."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += own[s.span_id]
    return dict(totals)


def chrome_trace(spans) -> dict:
    """Spans as Chrome trace-event JSON (complete ``X`` events, in
    microseconds from the first span), loadable in chrome://tracing or
    Perfetto."""
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": s.duration * 1e6,
            "pid": 1,
            "tid": s.thread,
            "args": {"span": s.span_id, "parent": s.parent, "job": s.job},
        }
        for s in sorted(spans, key=lambda s: s.start)
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans), fh)
