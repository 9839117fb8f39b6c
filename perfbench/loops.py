"""Load loops: open loop at a fixed rate, closed loop for a fixed time.

Both take the clock and (for the open loop) the sleep function as
arguments, so the tests can run them on a fake clock without waiting.
"""

import itertools
import math
import threading
import time

from perfbench.stats import Arrival, due_times


def _run_clients(client, clients: int) -> None:
    if clients == 1:
        client()
        return
    threads = [
        threading.Thread(target=client, name=f"perfbench-client-{c}")
        for c in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run_open_loop(
    task,
    rate_per_s: float,
    count: int,
    clients: int,
    clock=time.perf_counter,
    sleep=time.sleep,
) -> list[Arrival]:
    """Offer ``count`` requests on a fixed schedule of ``rate_per_s``.

    ``task(i)`` runs request ``i`` and returns whether it succeeded.  Each
    of ``clients`` threads takes the next request in due order, sleeps
    until it is due if it is early, and otherwise starts it late; the
    lateness is recorded, and latency is timed from the due time.
    """
    dues = due_times(clock(), rate_per_s, count)
    arrivals: list[Arrival | None] = [None] * count
    indexes = itertools.count()

    def client() -> None:
        while True:
            i = next(indexes)
            if i >= count:
                return
            wait = dues[i] - clock()
            if wait > 0:
                sleep(wait)
            start = clock()
            ok = task(i)
            arrivals[i] = Arrival(dues[i], start, clock(), ok)

    _run_clients(client, clients)
    return arrivals


def run_closed_loop(task, seconds: float, clients: int, clock=time.perf_counter):
    """Each of ``clients`` threads runs requests back to back until
    ``seconds`` have passed.  Returns the latencies; a failed request's
    latency is ``math.inf``."""
    deadline = clock() + seconds
    latencies: list[float] = []
    indexes = itertools.count()

    def client() -> None:
        while clock() < deadline:
            i = next(indexes)
            begun = clock()
            ok = task(i)
            latencies.append(clock() - begun if ok else math.inf)

    _run_clients(client, clients)
    return latencies
