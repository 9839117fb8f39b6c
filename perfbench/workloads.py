"""The benchmark workloads and the run that measures one of them.

Every workload drives the public API only: ``make_deployment``, the
``AnalyticsPipeline.run_*`` entry points, and
``repro.workloads.loadgen.run_one_session``.  README.md in this directory
says why each workload exists and which layer each one stresses.
"""

import gc
import itertools
import math
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import make_deployment
from repro.common.errors import ReproError
from repro.workloads.loadgen import (
    LoadReport,
    SessionOutcome,
    make_points_table,
    run_one_session,
    solo_weights,
    verify_against_solo,
)
from repro.workloads.retail import generate_retail

from perfbench.layers import JOB_SPAN, Instrumentation, layer_metrics
from perfbench.loops import run_closed_loop, run_open_loop
from perfbench.spans import Tracer, write_chrome_trace
from perfbench.stats import is_supported, median, percentile, summarize_open_loop

#: Retail size of the bench setup (ROADMAP's baseline table).
ETL_USERS = 1_500
ETL_CARTS = 15_000
ETL_BLOCK_SIZE = 256 * 1024
COMMAND = "svm_with_sgd"
ITERATIONS = 10

#: Simulated paper-scale seconds that ``run_figure3`` reports at the
#: default workload seed (pinned hash seed); the pipelines must reproduce
#: them to the millisecond.
FIGURE3_SEED = 7
FIGURE3_SIM_S = {"etl-stream": 128.697, "etl-dfs": 280.676}

#: Ledger categories whose per-job totals depend on thread timing (how
#: far a reader lags its writer, who waited for a slot), not on the data.
#: Every other category must repeat exactly from job to job.
TIMING_DEPENDENT = frozenset(
    {"stream.spilled", "admission.queued", "scheduler.waits", "governor.throttled"}
)

#: Serving: the session control plane under two tenants.  The open-loop
#: rate sits well below the knee (~70 sessions/s) where p90 stops being
#: repeatable on a 2-core host.  One admission slot for nproc clients, so
#: sessions queue for admission; the per-tenant quotas are what turn the
#: multi-tenant admission plane on at a single slot.
SERVE_RATE_PER_S = 25.0
SERVE_TENANTS = ("tenant-a", "tenant-b")
SERVE_MAX_SESSIONS = 1
SERVE_ITERATIONS = 3
SERVE_WARMUP = 20
SERVE_VERIFY_SAMPLE = 16

#: The timed part of an untraced run is split into ROUNDS rounds, each
#: after a setup probe.  The host's speed drifts over seconds, so
#: setup_s is the median of builds timed at the start of every round
#: rather than in one burst, and jobs_per_s and cpu_per_job_s are
#: medians over the rounds, which a slow stretch of a few seconds cannot
#: move much.
ROUNDS = 8

WORKLOADS = ("etl-stream", "etl-columnar", "etl-dfs", "serve")


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports no numbers."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def client_threads() -> int:
    """nproc: the benchmark never drives the program with more threads."""
    return len(os.sched_getaffinity(0))


class GcTimer:
    """Wall time spent in the cyclic garbage collector."""

    def __init__(self):
        self.total = 0.0
        self._started = 0.0

    def __call__(self, phase, _info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.total += time.perf_counter() - self._started

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


@dataclass
class Phase:
    """One measured stretch of jobs.  A failed job's latency is ``inf``."""

    latencies: list[float]
    busy_s: float  # time spent running jobs
    cpu_s: float  # process CPU time spent running jobs
    gc_s: float = 0.0
    ledger_delta: dict = field(default_factory=dict)

    @property
    def jobs(self) -> int:
        return len(self.latencies)

    @property
    def completed(self) -> int:
        return sum(1 for v in self.latencies if v != math.inf)


def measure(body, ledger, gc_timer) -> Phase:
    """Run ``body() -> latencies`` as one stretch of back-to-back work and
    take the process-level readings around it."""
    before = ledger.snapshot()
    gc0 = gc_timer.total
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    latencies = body()
    wall = time.perf_counter() - t0
    return Phase(
        latencies=list(latencies),
        busy_s=wall,
        cpu_s=time.process_time() - cpu0,
        gc_s=gc_timer.total - gc0,
        ledger_delta=ledger.delta(before, ledger.snapshot()),
    )


class SetupProbe:
    """Times deployment builds (deployment plus data load) on demand."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.times: list[float] = []

    def build(self):
        """One timed build; returns the workload's runner on it."""
        # Collect the previous build's garbage first so this build does not
        # pay for it, and so the jobs resuming after a probe do not either.
        gc.collect()
        t0 = time.perf_counter()
        runner = self.workload.setup(self.seed)
        self.times.append(time.perf_counter() - t0)
        return runner

    def __call__(self) -> None:
        for _ in range(self.workload.builds_per_probe):
            self.build()
        gc.collect()


@contextmanager
def job_scope(tracer, job_id: str):
    """Root span of one job when tracing, nothing otherwise."""
    if tracer is None:
        yield
        return
    with tracer.job(job_id), tracer.span(JOB_SPAN):
        yield


# ----------------------------------------------------------------- batch


class EtlWorkload:
    """Repeated Figure 3 pipeline jobs on the bench-size retail workload."""

    #: Two builds per setup probe, so setup_s is a median of 17 builds.
    builds_per_probe = 2

    def __init__(self, name: str, approach: str, columnar: bool):
        self.name = name
        self.approach = approach
        self.columnar = columnar

    def setup(self, seed: int):
        deployment = make_deployment(block_size=ETL_BLOCK_SIZE, columnar=self.columnar)
        workload = generate_retail(
            deployment.engine,
            deployment.dfs,
            num_users=ETL_USERS,
            num_carts=ETL_CARTS,
            seed=seed,
        )
        deployment.pipeline.byte_scale = workload.byte_scale
        return EtlRunner(self, deployment, workload, seed)


class EtlRunner:
    def __init__(self, workload: EtlWorkload, deployment, retail, seed: int):
        self.workload = workload
        self.deployment = deployment
        self.retail = retail
        self.seed = seed
        self.jobs = 0
        self.failed = 0
        self.reference = None  # (weights, sim_s, ledger delta) of the first job
        self._expected_rows = None

    def run_job(self, tracer=None) -> tuple[float, float]:
        """One pipeline job; returns its latency (``inf`` if it failed) and
        the process CPU time it took."""
        if self._expected_rows is None:
            # Counted once, outside both the setup and the job timings.
            self._expected_rows = len(self.deployment.engine.query_rows(self.retail.prep_sql))
        pipeline = self.deployment.pipeline
        ledger = self.deployment.cluster.ledger
        run = getattr(pipeline, self.workload.approach)
        self.jobs += 1
        before = ledger.snapshot()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with job_scope(tracer, f"{self.workload.name}-{self.jobs}"):
                result = run(
                    self.retail.prep_sql, self.retail.spec, COMMAND, {"iterations": ITERATIONS}
                )
        except ReproError:
            self.failed += 1
            return math.inf, time.process_time() - cpu0
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        self._check(result, ledger.delta(before, ledger.snapshot()))
        if self.workload.approach == "run_naive":
            # Each naive job leaves its two DFS hops behind; drop them so
            # memory does not grow with the number of jobs a run fits.
            self.deployment.dfs.delete(pipeline.workdir, recursive=True)
        return wall, cpu

    def _check(self, result, delta: dict) -> None:
        name = self.workload.name
        model = result.ml_result.model
        weights = tuple(float(w) for w in model.weights) + (float(model.intercept),)
        records = result.ml_result.dataset.count()
        check(
            records == self._expected_rows,
            f"{name}: trained on {records} records, the prep query returns "
            f"{self._expected_rows}",
        )
        for category in ("transform.rows_skipped", "transform.unseen_nulled"):
            count = delta.get(category, 0)
            check(count == 0, f"{name}: {category} = {count}")
        bytes_moved = {k: v for k, v in delta.items() if k not in TIMING_DEPENDENT and v}
        if self.reference is None:
            self.reference = (weights, result.total_sim_seconds, bytes_moved)
            expected = FIGURE3_SIM_S.get(name)
            if expected is not None and self.seed == FIGURE3_SEED:
                check(
                    round(result.total_sim_seconds, 3) == expected,
                    f"{name}: {result.total_sim_seconds:.3f} simulated s at seed "
                    f"{FIGURE3_SEED}, Figure 3 gives {expected:.3f}",
                )
            return
        ref_weights, ref_sim, ref_bytes = self.reference
        check(weights == ref_weights, f"{name}: job {self.jobs} weights differ from job 1")
        check(
            result.total_sim_seconds == ref_sim,
            f"{name}: job {self.jobs} simulated {result.total_sim_seconds!r} s, "
            f"job 1 {ref_sim!r} s",
        )
        check(
            bytes_moved == ref_bytes,
            f"{name}: job {self.jobs} ledger {sorted(bytes_moved.items())} differs "
            f"from job 1 {sorted(ref_bytes.items())}",
        )

    def warm_up(self) -> None:
        # The first job is also the reference every later job must match.
        check(self.run_job()[0] != math.inf, f"{self.workload.name}: warm-up job failed")

    def run_for(self, seconds: float, tracer=None) -> Phase:
        """Jobs back to back until ``seconds`` have passed (at least one)."""
        latencies: list[float] = []
        busy = cpu = 0.0
        start = time.perf_counter()
        while not latencies or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            latency, job_cpu = self.run_job(tracer)
            busy += time.perf_counter() - t0
            cpu += job_cpu
            latencies.append(latency)
        return Phase(latencies=latencies, busy_s=busy, cpu_s=cpu)

    def final_checks(self) -> None:
        if not self.workload.columnar:
            return
        # The columnar plane must train exactly the model the rows plane
        # trains on the same data.
        rows = EtlWorkload("etl-stream", self.workload.approach, columnar=False)
        reference = rows.setup(self.seed)
        check(reference.run_job()[0] != math.inf, f"{self.workload.name}: rows-plane job failed")
        check(
            reference.reference[0] == self.reference[0],
            f"{self.workload.name}: columnar weights differ from the rows plane",
        )

    @property
    def sim_s(self) -> float:
        return self.reference[1]


# ----------------------------------------------------------------- serving


class ServeWorkload:
    """Many small streaming-ML sessions through the mux socket transport."""

    name = "serve"
    #: A serving deployment builds in well under a millisecond, so each
    #: setup probe times several builds.
    builds_per_probe = 25

    def setup(self, seed: int):
        return ServeRunner(self._deployment(), seed)

    @staticmethod
    def _deployment():
        deployment = make_deployment(
            transport="socket",
            max_concurrent_sessions=SERVE_MAX_SESSIONS,
            tenant_quotas={tenant: 1 for tenant in SERVE_TENANTS},
        )
        make_points_table(deployment.engine)
        return deployment


class ServeRunner:
    def __init__(self, deployment, seed: int):
        self.deployment = deployment
        self.seed_base = seed * 1_000_000
        self._ids = itertools.count()
        self.outcomes: list[SessionOutcome] = []
        self.tracer = None

    def session(self, _index: int = 0) -> bool:
        """One complete session (create, stream, train, close)."""
        n = next(self._ids)
        session_id = f"s{n}"
        with job_scope(self.tracer, session_id):
            outcome = run_one_session(
                self.deployment,
                session_id,
                seed=self.seed_base + n,
                tenant=SERVE_TENANTS[n % len(SERVE_TENANTS)],
                iterations=SERVE_ITERATIONS,
            )
        self.outcomes.append(outcome)
        return outcome.error is None

    def warm_up(self) -> None:
        for _ in range(SERVE_WARMUP):
            self.session()

    def open_loop(self, seconds: float):
        count = max(1, int(SERVE_RATE_PER_S * seconds))
        return run_open_loop(self.session, SERVE_RATE_PER_S, count, client_threads())

    def closed_loop(self, seconds: float) -> list[float]:
        return run_closed_loop(self.session, seconds, client_threads())

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.error is not None)

    def final_checks(self) -> None:
        """A spread sample of sessions must train exactly what the same
        seeds train alone on a fresh, identical deployment."""
        done = [o for o in self.outcomes if o.error is None]
        check(bool(done), "serve: no session completed")
        step = max(1, len(done) // SERVE_VERIFY_SAMPLE)
        sample = done[::step][:SERVE_VERIFY_SAMPLE]
        baselines = solo_weights(
            ServeWorkload._deployment(),
            [o.seed for o in sample],
            iterations=SERVE_ITERATIONS,
        )
        report = LoadReport(
            num_sessions=len(sample),
            num_clients=1,
            wall_seconds=0.0,
            p50_s=0.0,
            p99_s=0.0,
            mean_s=0.0,
            max_s=0.0,
            outcomes=sample,
        )
        check(
            verify_against_solo(report, baselines),
            "serve: sampled sessions differ from their solo re-runs",
        )


def make_workload(name: str):
    if name == "etl-stream":
        return EtlWorkload(name, "run_insql_stream", columnar=False)
    if name == "etl-columnar":
        return EtlWorkload(name, "run_insql_stream", columnar=True)
    if name == "etl-dfs":
        return EtlWorkload(name, "run_naive", columnar=False)
    if name == "serve":
        return ServeWorkload()
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


# --------------------------------------------------------------------- run


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    notes: list[str]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, trace_path: str | None):
    workload = make_workload(name)
    # The program and the benchmark are imported by now; what the process
    # holds beyond this is the deployment's and the jobs' memory.
    baseline_rss = peak_rss_mb()
    probe = SetupProbe(workload, seed)
    with GcTimer() as gc_timer:
        runner = probe.build()
        runner.warm_up()
        # Read before the first setup probe: a probe's deployment lives
        # beside the measured one, and it is the benchmark's, not the
        # program's.  Setup plus one whole job (or the serving warm-up) is
        # a fixed amount of work, so the reading does not grow with the
        # number of jobs a faster program fits into the run.
        rss_growth = peak_rss_mb() - baseline_rss
        if trace:
            traced = _run_serve_traced if isinstance(workload, ServeWorkload) else _run_etl_traced
            result = traced(runner, seconds, trace_path, gc_timer)
        else:
            rounds = _run_serve if isinstance(workload, ServeWorkload) else _run_etl
            result = rounds(runner, seconds, gc_timer, probe)
            result.metrics["setup_s"] = (median(probe.times), "s")
            result.metrics["peak_rss_growth_mb"] = (rss_growth, "MB")
            result.notes.append(f"setup_s over {len(probe.times)} builds")
    runner.final_checks()
    return result


def _sample_note(latencies: list[float]) -> str:
    n = len(latencies)
    tail = "supports" if is_supported(n, 90) else "is too small for"
    return f"job_p50_s over {n} samples; the sample {tail} a p90"


def _end_to_end(job_p50_s: float, rounds: list[Phase]) -> dict:
    return {
        "job_p50_s": (job_p50_s, "s"),
        "jobs_per_s": (median([p.completed / p.busy_s for p in rounds]), "1/s"),
        "cpu_per_job_s": (median([p.cpu_s / p.jobs for p in rounds]), "s"),
    }


def _traced(body, ledger, gc_timer, trace_path):
    tracer = Tracer()
    with Instrumentation(tracer):
        phase = measure(lambda: body(tracer), ledger, gc_timer)
    if trace_path:
        write_chrome_trace(tracer.spans, trace_path)
    return tracer, phase


def _layer_result(tracer, traced: Phase, untraced: Phase, extra: dict) -> dict:
    metrics = {
        k: (v, _layer_unit(k))
        for k, v in layer_metrics(tracer, traced.ledger_delta, traced.jobs).items()
    }
    metrics["trace.overhead"] = (
        percentile(traced.latencies, 50) / percentile(untraced.latencies, 50),
        "ratio",
    )
    metrics["process.cpu_util"] = (untraced.cpu_s / untraced.busy_s, "ratio")
    metrics["process.gc_s"] = (untraced.gc_s / untraced.jobs, "s")
    metrics.update(extra)
    return metrics


def _layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith(("_ratio", "_share", ".overhead", ".cpu_util")):
        return "ratio"
    return "count"


def _run_etl(runner: EtlRunner, seconds, gc_timer, probe) -> RunResult:
    name = runner.workload.name
    rounds = []
    for _ in range(ROUNDS):
        probe()
        rounds.append(runner.run_for(seconds / ROUNDS))
    latencies = [v for p in rounds for v in p.latencies]
    return RunResult(
        attempted=runner.jobs,
        failed=runner.failed,
        metrics=_end_to_end(percentile(latencies, 50), rounds),
        notes=[f"{name}: {len(latencies)} jobs in {ROUNDS} rounds", _sample_note(latencies)],
    )


def _run_etl_traced(runner: EtlRunner, seconds, trace_path, gc_timer) -> RunResult:
    name = runner.workload.name
    ledger = runner.deployment.cluster.ledger
    untraced = measure(lambda: runner.run_for(seconds / 2).latencies, ledger, gc_timer)
    tracer, traced = _traced(
        lambda t: runner.run_for(seconds / 2, tracer=t).latencies,
        ledger,
        gc_timer,
        trace_path,
    )
    metrics = _layer_result(
        tracer,
        traced,
        untraced,
        {
            "pipeline.sim_s": (runner.sim_s, "s"),
            "loadgen.p90_s": (0.0, "s"),
            "loadgen.lag_p90_s": (0.0, "s"),
            "loadgen.backlog_max": (0, "count"),
            "error_rate": (runner.failed / runner.jobs, "ratio"),
        },
    )
    notes = [
        f"{name}: {untraced.jobs} untraced and {traced.jobs} traced jobs; "
        f"{len(tracer.spans)} spans"
    ]
    return RunResult(attempted=runner.jobs, failed=runner.failed, metrics=metrics, notes=notes)


def _run_serve(runner: ServeRunner, seconds, gc_timer, probe) -> RunResult:
    ledger = runner.deployment.cluster.ledger
    # Each round runs both phases, so both sample the host's speed across
    # the whole run.
    arrivals = []
    closed = []
    for _ in range(ROUNDS):
        probe()
        arrivals.extend(runner.open_loop(seconds / ROUNDS / 2))
        closed.append(measure(lambda: runner.closed_loop(seconds / ROUNDS / 2), ledger, gc_timer))
    summary = summarize_open_loop(arrivals)
    closed_jobs = sum(p.jobs for p in closed)
    notes = [
        f"serve: open loop {summary.samples} sessions at {SERVE_RATE_PER_S:g}/s, "
        f"closed loop {closed_jobs} sessions with {client_threads()} clients",
        _sample_note([a.latency for a in arrivals]),
    ]
    return RunResult(
        attempted=len(runner.outcomes),
        failed=runner.failed,
        metrics=_end_to_end(summary.p50_s, closed),
        notes=notes,
    )


def _run_serve_traced(runner: ServeRunner, seconds, trace_path, gc_timer) -> RunResult:
    ledger = runner.deployment.cluster.ledger
    summary = summarize_open_loop(runner.open_loop(seconds / 3))
    untraced = measure(lambda: runner.closed_loop(seconds / 3), ledger, gc_timer)

    def traced_body(tracer):
        runner.tracer = tracer
        try:
            return runner.closed_loop(seconds / 3)
        finally:
            runner.tracer = None

    tracer, traced = _traced(traced_body, ledger, gc_timer, trace_path)
    metrics = _layer_result(
        tracer,
        traced,
        untraced,
        {
            "pipeline.sim_s": (0.0, "s"),
            "loadgen.p90_s": (summary.p90_s, "s"),
            "loadgen.lag_p90_s": (summary.lag_p90_s, "s"),
            "loadgen.backlog_max": (summary.backlog_max, "count"),
            "error_rate": (runner.failed / len(runner.outcomes), "ratio"),
        },
    )
    notes = [
        f"serve: {summary.samples} open-loop, {untraced.jobs} untraced and "
        f"{traced.jobs} traced closed-loop sessions; {len(tracer.spans)} spans"
    ]
    return RunResult(
        attempted=len(runner.outcomes), failed=runner.failed, metrics=metrics, notes=notes
    )
