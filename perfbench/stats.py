"""Order statistics and open-loop accounting for the benchmark.

Everything here is pure: it takes recorded numbers and returns summaries,
so the tests can drive it with synthetic inputs and no clock.
"""

import math
from dataclasses import dataclass

#: A percentile is only *supported* by a sample when at least this many
#: samples lie beyond it; below that the tail estimate is one or two
#: unlucky jobs, not a property of the system.
MIN_SAMPLES_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the sample at or below it (``q`` in (0, 100]).

    Failed operations enter as ``math.inf`` so they count as missing any
    latency limit instead of vanishing from the tail.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100.0)
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``q``-th percentile."""
    return n - max(math.ceil(q * n / 100.0), 1)


def is_supported(n: int, q: float) -> bool:
    """The sample-count rule: a percentile is reportable as a tail only
    when at least :data:`MIN_SAMPLES_BEYOND` samples lie beyond it."""
    return samples_beyond(n, q) >= MIN_SAMPLES_BEYOND


def median(values) -> float:
    return percentile(values, 50)


@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it was due, when the generator actually
    started it, when it completed, and whether it succeeded."""

    due: float
    start: float
    end: float
    ok: bool = True

    @property
    def latency(self) -> float:
        """Latency timed from the due time, so a generator stall is charged
        to every request it delayed.  A failed request never meets a
        latency limit."""
        return self.end - self.due if self.ok else math.inf

    @property
    def lag(self) -> float:
        """How late the generator started this request."""
        return max(0.0, self.start - self.due)


def due_times(start: float, rate_per_s: float, count: int) -> list[float]:
    """A fixed-rate schedule: request ``i`` is due at ``start + i / rate``."""
    if rate_per_s <= 0:
        raise ValueError(f"rate must be positive, got {rate_per_s}")
    return [start + i / rate_per_s for i in range(count)]


def backlog_max(arrivals) -> int:
    """Largest number of requests that were due but not yet started, taken
    at every due time (the instants at which the backlog can grow)."""
    starts = sorted(a.start for a in arrivals)
    dues = sorted(a.due for a in arrivals)
    worst = 0
    started = 0
    for i, due in enumerate(dues):
        while started < len(starts) and starts[started] <= due:
            started += 1
        worst = max(worst, (i + 1) - started)
    return worst


@dataclass(frozen=True)
class OpenLoopSummary:
    samples: int
    p50_s: float
    p90_s: float
    lag_p90_s: float
    backlog_max: int


def summarize_open_loop(arrivals) -> OpenLoopSummary:
    arrivals = list(arrivals)
    latencies = [a.latency for a in arrivals]
    return OpenLoopSummary(
        samples=len(arrivals),
        p50_s=percentile(latencies, 50),
        p90_s=percentile(latencies, 90),
        lag_p90_s=percentile([a.lag for a in arrivals], 90),
        backlog_max=backlog_max(arrivals),
    )


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median, with quartiles as
    :func:`statistics.quantiles` gives them (the gate the benchmark's
    bounds are checked against)."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
