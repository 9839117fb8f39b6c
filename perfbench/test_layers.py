"""Layer instrumentation and the per-job accounting built on it."""

import pytest

from repro import make_deployment
from repro.columnar.batch import ColumnBatch
from repro.sql.engine import BigSQL
from repro.sql.types import DataType, Schema

from perfbench.layers import Instrumentation, layer_metrics
from perfbench.spans import Span, Tracer


def test_instrumentation_records_layer_spans_and_restores_the_classes():
    original_plan = BigSQL.__dict__["plan"]
    original_from_rows = ColumnBatch.__dict__["from_rows"]
    deployment = make_deployment()
    deployment.engine.create_table(
        "t", Schema.of(("a", DataType.INT)), [(i,) for i in range(8)]
    )
    tracer = Tracer()
    with Instrumentation(tracer):
        with tracer.job("q"), tracer.span("job"):
            rows = deployment.engine.query_rows("SELECT a FROM t WHERE a > 3")
    assert sorted(rows) == [(4,), (5,), (6,), (7,)]
    names = [s.name for s in tracer.spans]
    assert names.count("sql") == 1 and names.count("sql.plan") == 1
    assert tracer.counters["sql.calls"] == 1
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["sql.plan"].parent == by_name["sql"].span_id
    assert by_name["sql"].parent == by_name["job"].span_id
    assert BigSQL.__dict__["plan"] is original_plan
    assert ColumnBatch.__dict__["from_rows"] is original_from_rows


def test_job_thread_self_times_plus_remainder_make_the_job_wall_time():
    MAIN, POOL = 1, 2
    tracer = Tracer()
    tracer.spans = [
        Span("job", 0.0, 10.0, 1, None, "j", MAIN),
        Span("sql", 1.0, 6.0, 2, 1, "j", MAIN),
        Span("sql.plan", 2.0, 3.0, 3, 2, "j", MAIN),
        Span("transfer.result_wait", 6.0, 9.0, 4, 1, "j", MAIN),
        # pool-thread work overlaps the job thread's sql span
        Span("iofmt.split_read", 1.0, 5.0, 5, None, "j", POOL),
        Span("hdfs.read", 1.0, 2.0, 6, 5, "j", POOL),
    ]
    tracer.counters["sql.calls"] = 2
    metrics = layer_metrics(tracer, {"stream.sent": 200, "stream.retry": 10}, jobs=1)
    assert metrics["sql.self_s"] == pytest.approx(4.0)
    assert metrics["sql.plan_s"] == pytest.approx(1.0)
    assert metrics["transfer.result_wait_s"] == pytest.approx(3.0)
    assert metrics["iofmt.split_read_s"] == pytest.approx(3.0)
    assert metrics["hdfs.read_s"] == pytest.approx(1.0)
    assert metrics["trace.job_s"] == pytest.approx(10.0)
    assert metrics["trace.remainder_s"] == pytest.approx(2.0)
    assert metrics["trace.remainder_share"] == pytest.approx(0.2)
    job_thread = ("sql.self_s", "sql.plan_s", "transfer.result_wait_s", "trace.remainder_s")
    assert sum(metrics[m] for m in job_thread) == pytest.approx(metrics["trace.job_s"])
    assert metrics["transfer.sent_bytes"] == 200
    assert metrics["transfer.retry_ratio"] == pytest.approx(0.05)
    assert metrics["sql.calls"] == 2
    assert metrics["columnar.from_rows_s"] == 0.0
