"""Socket-transport stream channels: framing, backpressure, e2e transfer."""

import threading

import pytest

from repro import make_deployment
from repro.common.errors import ChannelAbortedError, TransferError
from repro.sql.types import DataType, Schema
from repro.transfer.channel import ChannelId, StreamChannel
from repro.transfer.socket_channel import MuxSocketTransport


def socket_channel(channel_id: ChannelId, buffer_bytes: int = 4096, **kwargs):
    """A stream channel on the socket pipe: one tag of its own mux pair."""
    return StreamChannel(
        channel_id, mux=MuxSocketTransport(buffer_bytes=buffer_bytes), **kwargs
    )


class TestSocketChannelUnit:
    def test_send_receive_roundtrip(self):
        channel = socket_channel(ChannelId(0, 0), buffer_bytes=65536)
        rows = [(i, f"value-{i}", i * 0.5, None) for i in range(100)]
        for row in rows:
            channel.send_row(row)
        channel.close()
        assert list(channel) == rows
        assert channel.rows_sent == channel.rows_received == 100
        assert channel.bytes_sent == channel.bytes_received > 0

    def test_eof_after_close(self):
        channel = socket_channel(ChannelId(0, 1))
        channel.send_row((1,))
        channel.close()
        assert channel.receive() == (1,)
        assert channel.receive() is None
        assert channel.receive() is None  # repeated EOF stays EOF

    def test_send_after_close_rejected(self):
        channel = socket_channel(ChannelId(0, 2))
        channel.close()
        with pytest.raises(TransferError):
            channel.send_row((1,))

    def test_backpressure_spills_without_blocking(self):
        """A tiny kernel buffer and no reader: the sender must keep going,
        spilling overflow locally like the paper requires."""
        channel = socket_channel(ChannelId(1, 0), buffer_bytes=2048)
        big_row = ("x" * 512,)
        for _ in range(200):  # far beyond any kernel buffer rounding
            channel.send_row(big_row)
        assert channel.spilled_bytes > 0
        # a concurrent reader drains everything, including the overflow
        received = []
        reader = threading.Thread(target=lambda: received.extend(iter(channel)))
        reader.start()
        channel.close()
        reader.join(timeout=10)
        assert len(received) == 200

    def test_receive_timeout(self):
        channel = socket_channel(ChannelId(2, 0))
        with pytest.raises(TransferError, match="timed out"):
            channel.receive(timeout=0.05)

    def test_concurrent_producer_consumer(self):
        channel = socket_channel(ChannelId(3, 0), buffer_bytes=4096)
        rows = [(i, "payload" * (i % 5)) for i in range(3000)]
        received = []

        def produce():
            for row in rows:
                channel.send_row(row)
            channel.close()

        def consume():
            received.extend(iter(channel))

        threads = [threading.Thread(target=produce), threading.Thread(target=consume)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert received == rows


def per_tag_state(transport: MuxSocketTransport) -> dict:
    """Sizes of every per-tag container a mux transport keeps."""
    return {
        "live": len(transport._live),
        "sending": len(transport._sending),
        "eof": len(transport._eof),
        "frames": len(transport._frames),
        "overflow": len(transport._overflow),
        "governed": len(transport._tag_governor),
        "cancelled": len(transport._cancelled),
        "aborted": len(transport._aborted),
    }


class TestMuxTagLifecycle:
    """Per-tag state lives only as long as the tag: a transport shared by
    many sessions must not grow with the number of sessions it served."""

    def test_closed_sessions_leave_no_tag_state(self):
        transport = MuxSocketTransport(buffer_bytes=4096)
        for session in range(50):
            channels = [
                StreamChannel(ChannelId(session, j), mux=transport) for j in range(3)
            ]
            for channel in channels:
                channel.send_row((session, "x" * 40))
                channel.close()
            for channel in channels:
                assert list(channel) == [(session, "x" * 40)]
                channel.release()
        assert all(size == 0 for size in per_tag_state(transport).values())

    def test_released_tag_drops_late_frames_and_reads_eof(self):
        transport = MuxSocketTransport(buffer_bytes=65536)
        early, other = transport.new_tag(), transport.new_tag()
        transport.send(early, b"unread")
        transport.release_tag(early)
        transport.send(other, b"kept")
        transport.close_tag(other)
        assert transport.recv(other, timeout=5) == b"kept"
        assert transport.recv(other, timeout=5) is None
        transport.release_tag(other)
        # The unread frame crossed the wire after its tag was released.
        assert transport.recv(early, timeout=5) is None
        assert all(size == 0 for size in per_tag_state(transport).values())

    def test_send_after_close_or_release_raises(self):
        transport = MuxSocketTransport()
        closed, released = transport.new_tag(), transport.new_tag()
        transport.close_tag(closed)
        transport.release_tag(released)
        for tag in (closed, released):
            with pytest.raises(TransferError, match="closed mux tag"):
                transport.send(tag, b"late")

    def test_abort_stays_sticky_over_close_and_release(self):
        transport = MuxSocketTransport()
        tag = transport.new_tag()
        transport.send(tag, b"prefix")
        transport.abort_tag(tag, "producer died")
        transport.close_tag(tag)  # no-op after an abort
        with pytest.raises(ChannelAbortedError, match="producer died"):
            transport.recv(tag, timeout=5)
        transport.release_tag(tag)
        with pytest.raises(ChannelAbortedError, match="producer died"):
            transport.recv(tag, timeout=5)

    def test_socket_deployment_sessions_leave_no_tag_state(self):
        deployment = make_deployment(transport="socket")
        engine = deployment.engine
        engine.create_table(
            "pts",
            Schema.of(("a", DataType.DOUBLE), ("y", DataType.DOUBLE)),
            [(float(i % 5), float(i % 2)) for i in range(40)],
        )
        for i in range(8):
            session_id = f"s{i}"
            deployment.coordinator.create_session(
                session_id, command="noop", conf_props={"record.format": "raw"}
            )
            engine.query_rows(
                "SELECT * FROM TABLE(stream_transfer("
                f"(SELECT a, y FROM pts), '{session_id}')) AS s"
            )
            deployment.coordinator.wait_result(session_id)
            deployment.coordinator.close_session(session_id)
        transports = list(deployment.coordinator._mux_transports.values())
        assert transports
        for transport in transports:
            assert all(size == 0 for size in per_tag_state(transport).values())


class TestSocketTransportEndToEnd:
    def test_pipeline_over_sockets_matches_memory_transport(self):
        from repro.workloads import generate_retail

        mem = make_deployment(block_size=64 * 1024, transport="memory")
        sock = make_deployment(block_size=64 * 1024, transport="socket")
        results = {}
        for name, deployment in (("memory", mem), ("socket", sock)):
            wl = generate_retail(
                deployment.engine, deployment.dfs, num_users=150, num_carts=1_500, seed=31
            )
            deployment.pipeline.byte_scale = wl.byte_scale
            result = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")
            results[name] = sorted(
                (lp.label, tuple(lp.features))
                for lp in result.ml_result.dataset.collect()
            )
        assert results["memory"] == results["socket"]
        assert len(results["socket"]) > 0

    def test_socket_transport_trains_model(self):
        deployment = make_deployment(block_size=64 * 1024, transport="socket")
        engine = deployment.engine
        engine.create_table(
            "pts",
            Schema.of(("a", DataType.DOUBLE), ("b", DataType.DOUBLE), ("y", DataType.DOUBLE)),
            [(float(i % 5), float(i % 3), float(i % 2)) for i in range(400)],
        )
        deployment.coordinator.create_session(
            "socksvm",
            command="svm_with_sgd",
            args={"iterations": 3},
            conf_props={"record.format": "labeled_csv", "label.index": -1},
        )
        engine.query_rows(
            "SELECT * FROM TABLE(stream_transfer((SELECT a, b, y FROM pts), 'socksvm')) AS s"
        )
        result = deployment.coordinator.wait_result("socksvm")
        assert result.dataset.count() == 400
        assert result.model.weights.shape == (2,)

    def test_unknown_transport_rejected(self):
        from repro.cluster.cluster import make_paper_cluster
        from repro.transfer.coordinator import Coordinator

        with pytest.raises(TransferError, match="transport"):
            Coordinator(make_paper_cluster(), transport="carrier-pigeon")
