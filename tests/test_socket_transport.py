"""Socket-transport stream channels: framing, backpressure, e2e transfer."""

import threading

import pytest

from repro import make_deployment
from repro.common.errors import TransferError
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
