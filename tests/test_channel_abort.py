"""A failed or dying producer aborts its channels on every transport.

Readers of an aborted channel must get the typed ``ChannelAbortedError`` at
once — never a clean EOF (that would ingest a truncated stream as complete)
and never a receive timeout (that would mask the real failure).  Both
transports share one channel class, so each case runs on both pipes.
"""

import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.common.errors import ChannelAbortedError
from repro.faults import FaultConfig, FaultInjector
from repro.sql.types import DataType, Schema
from repro.sql.udf import UdfContext
from repro.transfer.coordinator import Coordinator
from repro.transfer.stream_udf import StreamTransferUDF

TRANSPORTS = ["memory", "socket"]
SCHEMA = Schema.of(("id", DataType.BIGINT), ("v", DataType.DOUBLE))


def register_all(coord, session_id, n):
    ips = [node.ip for node in coord.cluster.workers]
    for worker_id in range(n):
        coord.register_sql_worker(session_id, worker_id, ips[worker_id], n, "noop")


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_channel_failure_aborts_group_readers(transport):
    coord = Coordinator(
        make_paper_cluster(),
        launcher=lambda session: "launched",
        timeout_s=2.0,
        transport=transport,
    )
    coord.create_session("s", command="noop")
    register_all(coord, "s", n=2)
    coord.plan_input_splits("s", 4)
    session = coord.session("s")
    for channel in session.channels.values():
        channel.send_row((1, 1.0))  # delivered prefix the abort must hide

    coord.notify_channel_failure("s", 0, "socket reset")

    for cid in session.groups[0]:
        channel = session.channels[cid]
        channel.close()  # a later close must not turn the abort into EOF
        with pytest.raises(ChannelAbortedError, match="socket reset"):
            channel.receive(timeout=0.5)
        with pytest.raises(ChannelAbortedError):
            channel.receive(timeout=0.5)  # sticky
    # The other SQL worker's group is untouched.
    for cid in session.groups[1]:
        channel = session.channels[cid]
        channel.close()
        assert list(channel) == [(1, 1.0)]
    coord.close_session("s")


def _dying_rows(n):
    for i in range(n):
        yield (i, float(i))
    raise RuntimeError("disk on fire")


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("sender", ["per-row", "blocks", "resilient"])
def test_dying_producer_reraises_and_aborts_readers(transport, sender):
    coord = Coordinator(
        make_paper_cluster(),
        timeout_s=2.0,
        transport=transport,
        batch_rows=1 if sender == "per-row" else 16,
        fault_injector=(
            FaultInjector(FaultConfig(seed=0)) if sender == "resilient" else None
        ),
    )
    coord.launcher = lambda session: coord.plan_input_splits(session.session_id, 2)
    coord.create_session("s", command="noop")
    worker = coord.cluster.workers[0]
    ctx = UdfContext(0, 1, worker, coord.cluster.ledger, {"coordinator": coord})

    # The producer's own failure surfaces, not a teardown AttributeError.
    with pytest.raises(RuntimeError, match="disk on fire"):
        list(
            StreamTransferUDF().process_partition(_dying_rows(40), SCHEMA, ("s",), ctx)
        )

    for channel in coord.session("s").channels.values():
        with pytest.raises(ChannelAbortedError, match="disk on fire"):
            while channel.receive(timeout=2.0) is not None:
                pass
    coord.close_session("s")
