"""Layer spans recorded from outside the program, and the per-layer metrics.

:class:`Instrumentation` wraps public entry points of each layer in
``repro`` with a span for the duration of a traced phase and restores them
afterwards; nothing under ``src/`` records anything itself.  Methods are
wrapped on their class, so every caller sees the wrapper however it
imported the class.  Module-level functions that callers import by name
(``batch_to_xy``, ``plan_blocks``) cannot be wrapped that way; their time
falls to the enclosing wrapped method (``ml.ingest``, ``transfer.send``).
"""

import functools
import types

from repro.columnar.batch import ColumnBatch
from repro.hdfs.filesystem import DfsReader, DfsWriter, DistributedFileSystem
from repro.integration.jaql import JaqlEngine
from repro.integration.pipeline import AnalyticsPipeline
from repro.iofmt.text import CsvInputFormat, CsvRecordReader
from repro.ml.job import MLJob
from repro.ml.system import MLSystem
from repro.rewriter.rewriter import QueryRewriter
from repro.sql.engine import BigSQL
from repro.transfer.coordinator import Coordinator
from repro.transfer.stream_udf import StreamTransferUDF
from repro.transform.dummy import DummyCodeUDF
from repro.transform.recode import LocalDistinctUDF, RecodeUDF

from perfbench.spans import self_time_by_name

#: (span name, class, method) wrapped as one span per call.
SPANNED_METHODS = (
    ("sql.plan", BigSQL, "plan"),
    ("rewriter.plan", QueryRewriter, "plan"),
    # Recode pass 1 has no public entry point of its own: the pipeline's
    # stage method is its only boundary.
    ("transform.pass1", AnalyticsPipeline, "_run_pass1"),
    ("transform.udf", LocalDistinctUDF, "process_partition"),
    ("transform.udf", LocalDistinctUDF, "process_batch"),
    ("transform.udf", RecodeUDF, "process_partition"),
    ("transform.udf", RecodeUDF, "process_batch"),
    ("transform.udf", DummyCodeUDF, "process_partition"),
    ("transform.udf", DummyCodeUDF, "process_batch"),
    # SQL-side half of the stream transfer: worker registration, channel
    # matching, row fan-out, frame encoding and channel sends.
    ("transfer.send", StreamTransferUDF, "process_partition"),
    ("transfer.send", StreamTransferUDF, "process_batch"),
    ("transfer.session_open", Coordinator, "create_session"),
    ("transfer.session_close", Coordinator, "close_session"),
    ("transfer.result_wait", Coordinator, "wait_result"),
    ("hdfs.write", DistributedFileSystem, "write_bytes"),
    ("hdfs.write", DfsWriter, "write"),
    ("hdfs.write", DfsWriter, "close"),
    ("hdfs.read", DistributedFileSystem, "read_bytes"),
    ("hdfs.read", DfsReader, "read"),
    ("hdfs.read", DfsReader, "seek"),
    ("mapreduce.jaql", JaqlEngine, "transform"),
    ("columnar.from_rows", ColumnBatch, "from_rows"),
    ("columnar.to_rows", ColumnBatch, "to_rows"),
)

#: span name -> per-layer self-time metric.
SPAN_METRICS = {
    "sql": "sql.self_s",
    "sql.plan": "sql.plan_s",
    "iofmt.split_read": "iofmt.split_read_s",
    "rewriter.plan": "rewriter.plan_s",
    "transform.pass1": "transform.pass1_s",
    "transform.udf": "transform.udf_s",
    "transfer.session_open": "transfer.session_open_s",
    "transfer.session_close": "transfer.session_close_s",
    "transfer.send": "transfer.send_s",
    "transfer.result_wait": "transfer.result_wait_s",
    "ml.ingest": "ml.ingest_s",
    "ml.train": "ml.train_s",
    "hdfs.write": "hdfs.write_s",
    "hdfs.read": "hdfs.read_s",
    "mapreduce.jaql": "mapreduce.jaql_s",
    "columnar.from_rows": "columnar.from_rows_s",
    "columnar.to_rows": "columnar.to_rows_s",
}

#: per-layer metric -> ledger categories summed (per job).
LEDGER_METRICS = {
    "sql.scan_bytes": ("sql.scan",),
    "sql.shuffle_bytes": ("sql.shuffle",),
    "sql.output_bytes": ("sql.output",),
    "transfer.sent_bytes": ("stream.sent",),
    "transfer.spilled_bytes": ("stream.spilled",),
    "transfer.net_bytes": ("stream.net",),
    "transfer.admission_queued": ("admission.queued",),
    "transfer.scheduler_waits": ("scheduler.waits",),
    "transform.rows_dropped": ("transform.rows_skipped",),
    "ml.ingest_bytes": ("ml.ingest",),
    "hdfs.write_bytes": ("dfs.write.local",),
    "hdfs.read_bytes": ("dfs.read",),
    "hdfs.remote_read_bytes": ("dfs.read.remote_net",),
    "mapreduce.shuffle_bytes": ("mr.shuffle",),
    "mapreduce.io_bytes": ("mr.read", "mr.write"),
    "columnar.fallbacks": ("columnar.fallback",),
}

#: per-layer metric -> tracer counter (per job).
COUNTER_METRICS = {
    "sql.calls": "sql.calls",
    "iofmt.splits": "iofmt.splits",
    "ml.records": "ml.records",
}

#: Name the root span of every job carries.
JOB_SPAN = "job"


class Instrumentation:
    """Context manager: wrap every layer boundary while the block runs."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved: list[tuple[type, str, object]] = []

    def __enter__(self):
        for name, cls, attr in SPANNED_METHODS:
            self._patch(cls, attr, self._spanned(name, cls.__dict__[attr]))
        self._patch(BigSQL, "execute_distributed", self._sql(BigSQL.execute_distributed))
        self._patch(MLJob, "ingest", self._ingest(MLJob.ingest))
        self._patch(MLSystem, "trainer", self._trainer(MLSystem.trainer))
        self._patch(
            CsvInputFormat,
            "create_record_reader",
            self._open_reader(CsvInputFormat.create_record_reader),
        )
        self._patch(CsvRecordReader, "close", self._close_reader(CsvRecordReader.close))
        return self

    def __exit__(self, *exc):
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    def _patch(self, cls, attr, replacement) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def _spanned(self, name: str, original):
        tracer = self.tracer
        if isinstance(original, classmethod):
            return classmethod(self._spanned(name, original.__func__))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
                # Table UDFs are generators: the work happens while the
                # caller drains them, so drain inside the span.
                if isinstance(result, types.GeneratorType):
                    result = list(result)
                return result

        return wrapper

    def _sql(self, original):
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count("sql.calls")
            # The distinct-scan query of recode pass 1 is booked to
            # transform.pass1, so sql.self_s is the rest of the SQL work.
            if tracer.current_name() == "transform.pass1":
                return original(*args, **kwargs)
            with tracer.span("sql"):
                return original(*args, **kwargs)

        return wrapper

    def _ingest(self, original):
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span("ml.ingest"):
                dataset, stats = original(*args, **kwargs)
            tracer.count("ml.records", stats.records)
            return dataset, stats

        return wrapper

    def _trainer(self, original):
        """The stream pipeline reports no training time of its own, so the
        trainer callable is timed where the ML system hands it out."""
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            train = original(*args, **kwargs)

            def traced_train(*targs, **tkwargs):
                with tracer.span("ml.train"):
                    return train(*targs, **tkwargs)

            return traced_train

        return wrapper

    def _open_reader(self, original):
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count("iofmt.splits")
            token = tracer.begin("iofmt.split_read")
            try:
                reader = original(*args, **kwargs)
            except BaseException:
                tracer.end(token)
                raise
            reader._perfbench_span = token
            return reader

        return wrapper

    def _close_reader(self, original):
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(reader):
            try:
                return original(reader)
            finally:
                token = getattr(reader, "_perfbench_span", None)
                if token is not None:
                    tracer.end(token)

        return wrapper


def layer_metrics(tracer, ledger_delta: dict, jobs: int) -> dict[str, float]:
    """Per-job layer metrics from one traced phase.

    Self times are summed over every thread, so layers that run on pool
    threads concurrently with the job's own thread can add up to more than
    the job's wall time.  The job's own thread is accounted exactly:
    ``trace.remainder_s`` is its time outside every layer span, and with
    the self times of the layer spans on that thread it sums to
    ``trace.job_s``.
    """
    spans = tracer.spans
    self_s = self_time_by_name(spans)
    out = {metric: self_s.get(name, 0.0) / jobs for name, metric in SPAN_METRICS.items()}
    for metric, categories in LEDGER_METRICS.items():
        out[metric] = sum(ledger_delta.get(c, 0) for c in categories) / jobs
    sent = ledger_delta.get("stream.sent", 0)
    out["transfer.retry_ratio"] = ledger_delta.get("stream.retry", 0) / sent if sent else 0.0
    for metric, counter in COUNTER_METRICS.items():
        out[metric] = tracer.counters.get(counter, 0) / jobs
    job_spans = [s for s in spans if s.name == JOB_SPAN]
    job_wall = sum(s.duration for s in job_spans)
    out["trace.job_s"] = job_wall / len(job_spans)
    out["trace.remainder_s"] = self_s[JOB_SPAN] / len(job_spans)
    out["trace.remainder_share"] = self_s[JOB_SPAN] / job_wall
    return out
