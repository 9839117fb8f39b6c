"""One SQL-worker -> ML-worker stream channel."""

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from repro.cluster.cost import CostLedger
from repro.transfer.buffers import (
    SpillableBuffer,
    block_logical_bytes,
    decode_block,
    decode_col_block,
    encode_block,
    encode_col_block,
    encode_row,
    encode_seq_block,
    is_columnar_frame,
    split_seq_frame,
)
from repro.transfer.socket_channel import MuxPipe


@dataclass(frozen=True)
class ChannelId:
    """Identity of a channel inside a session: (SQL worker, subchannel)."""

    sql_worker_id: int
    index: int

    def __str__(self) -> str:
        return f"sql{self.sql_worker_id}->ml{self.index}"


class StreamChannel:
    """A unidirectional SQL-worker -> ML-worker pipe with a bounded,
    spill-on-backpressure buffer (§3 step 7's TCP connection).

    The channel owns everything the paper's contract needs on top of the
    raw bytes: the frame encodings, ``stream.sent``/``stream.net``/
    ``stream.retry`` accounting, the tenant governor throttle, and §6
    sequence dedup on the receive side.  The bytes themselves travel
    through a *pipe* chosen by the transport:

    * ``mux=None`` (memory transport) — a :class:`SpillableBuffer` whose
      capacity plays both the send and the receive buffer (the paper sets
      both to the same 4 KB anyway), spilling to ``spill_path`` when full;
    * ``mux=<MuxSocketTransport>`` (socket transport) — one tag of the SQL
      worker's shared socket pair
      (:class:`~repro.transfer.socket_channel.MuxPipe`); its kernel buffer
      size is the transport's, so ``buffer_bytes``, ``spill_path`` and
      ``injector`` apply to the memory pipe only.

    ``local`` records whether coordinator matchmaking managed to colocate
    the endpoints — remote channels cost network bytes in the ledger, local
    ones do not.
    """

    def __init__(
        self,
        channel_id: ChannelId,
        buffer_bytes: int = 4096,
        ledger: CostLedger | None = None,
        spill_path: str | None = None,
        local: bool = False,
        governor=None,
        tenant: str = "default",
        budget=None,
        clock=None,  # repro.sim.clock.Clock | None — receive-wait timing
        injector=None,  # FaultInjector | None — dfs.enospc at the spill site
        mux=None,  # MuxSocketTransport | None — socket pipe instead of memory
    ):
        self.channel_id = channel_id
        self.local = local
        self._ledger = ledger
        # Backpressure isolation (multi-tenant deployments only): senders
        # consult the tenant's SpillGovernor *before* enqueueing, so a tenant
        # whose spill is over budget pauses its own producers while every
        # other tenant's channels keep flowing.  governor=None (the default)
        # is the seed path — zero extra work per send.
        self._governor = governor
        self._tenant = tenant
        # Per-session Budget: receive waits derive from its remaining time
        # (inside the pipe) and governor pauses observe its cancel flag.
        self._budget = budget
        if mux is None:
            self.pipe = SpillableBuffer(
                capacity_bytes=buffer_bytes,
                spill_path=spill_path,
                ledger=ledger,
                governor=governor,
                tenant=tenant,
                budget=budget,
                clock=clock,
                injector=injector,
            )
        else:
            self.pipe = MuxPipe(
                mux,
                ledger=ledger,
                governor=governor,
                tenant=tenant,
                budget=budget,
                clock=clock,
            )
        self.rows_sent = 0
        self.bytes_sent = 0
        self.rows_received = 0
        self.bytes_received = 0
        #: §6 replay traffic: bytes re-sent by a restarted SQL worker
        #: (charged to ``stream.retry``, never to ``stream.sent``).
        self.retry_bytes = 0
        #: §6 dedup on the ML side: replayed blocks dropped by sequence number
        self.duplicate_blocks = 0
        self.duplicate_bytes = 0
        self._last_seq = -1  # highest accepted block sequence number
        self._pending: deque[tuple] = deque()  # rows decoded but not yet read

    # ------------------------------------------------------------ SQL side

    def send_row(self, row: tuple) -> None:
        """Serialize and enqueue one row (the seed's per-row wire format)."""
        self._send(encode_row(row), 1)

    def send_many(self, rows: Sequence[tuple]) -> None:
        """Serialize and enqueue a RowBlock: one pipe item, one lock
        acquisition, one ledger entry for the whole batch.  Accounted at
        the block's logical (per-row framing) size, keeping byte totals
        identical to the seed path."""
        if rows:
            self._send(encode_block(rows), len(rows))

    def send_col_batch(self, batch) -> None:
        """Serialize and enqueue a :class:`ColumnBatch` as one columnar
        (``C``) frame.  Accounted at the batch's logical (seed per-row
        formula) size, so ledgers stay on the row-path scale while the wire
        carries pickled numpy arrays instead of per-row pickles."""
        if len(batch):
            self._send(encode_col_block(batch), len(batch))

    def send_block(self, rows: Sequence[tuple], seq: int, retry: bool = False) -> None:
        """Enqueue a *sequenced* RowBlock (the §6 resilient send path).

        ``seq`` is this channel's per-epoch block number; the receiver drops
        any frame whose number it already accepted, so a restarted worker can
        replay its partition from block 0 without double delivery.  ``retry``
        marks a restart epoch's traffic: its bytes land in the separate
        ``stream.retry`` ledger counter, keeping the fault-free ``stream.sent``
        and ``stream.net`` totals byte-for-byte invariant.
        """
        if rows:
            self._send(encode_seq_block(rows, seq), len(rows), retry)

    def _send(self, payload: bytes, num_rows: int, retry: bool = False) -> None:
        if self._governor is not None:
            self._governor.throttle(self._tenant, budget=self._budget)
        self.pipe.put(payload)
        logical = block_logical_bytes(payload)
        if retry:
            self.retry_bytes += logical
            if self._ledger is not None:
                self._ledger.add("stream.retry", logical)
            return
        self.rows_sent += num_rows
        self.bytes_sent += logical
        if self._ledger is not None:
            self._ledger.add("stream.sent", logical)
            if not self.local:
                self._ledger.add("stream.net", logical)

    def close(self) -> None:
        """End of stream from the sender."""
        self.pipe.close()

    def abort(self, reason: str = "producer failed") -> None:
        """Fatal end of stream: the producer died mid-send, so receivers
        must get a typed :class:`ChannelAbortedError`, never the clean EOF
        that would pass off the delivered prefix as a complete dataset.
        Sticky over a later :meth:`close`."""
        self.pipe.abort(reason)

    def cancel(self) -> None:
        """Tell the receiver its session was cancelled (``cancel_session``
        fans this out; the socket pipe sends a CANCEL control frame)."""
        self.pipe.cancel()

    def release(self) -> None:
        """Free transfer resources at session teardown: pending rows are
        dropped and any leftover spill is freed (``close_session`` calls
        this so finished *and* failed sessions leave no spill files)."""
        self.pipe.release()
        self._pending.clear()

    # ------------------------------------------------------------- ML side

    def receive_frame(self, timeout: float | None = 30.0):
        """Next frame in its native representation: a
        :class:`~repro.columnar.batch.ColumnBatch` for columnar frames, a
        row list otherwise, or None at end of stream.

        Sequenced frames are deduplicated here: a frame whose sequence
        number was already accepted is a §6 replay duplicate — dropped and
        counted, never delivered, so the ML side sees each row exactly once.
        """
        if self._pending:
            rows = list(self._pending)
            self._pending.clear()
            return rows
        while True:
            payload = self.pipe.get(timeout)
            if payload is None:
                return None
            seq, frame = split_seq_frame(payload)
            if seq is not None:
                if seq <= self._last_seq:
                    self.duplicate_blocks += 1
                    self.duplicate_bytes += block_logical_bytes(frame)
                    continue
                self._last_seq = seq
            out = (
                decode_col_block(frame)
                if is_columnar_frame(frame)
                else decode_block(frame)
            )
            self.rows_received += len(out)
            self.bytes_received += block_logical_bytes(frame)
            return out

    def receive_block(self, timeout: float | None = 30.0) -> list[tuple] | None:
        """Next RowBlock (possibly a one-row block from a per-row sender),
        or None at end of stream: the rows view of :meth:`receive_frame`."""
        frame = self.receive_frame(timeout)
        if frame is None or isinstance(frame, list):
            return frame
        return frame.to_rows()

    def receive(self, timeout: float | None = 30.0) -> tuple | None:
        """Next row, or None at end of stream."""
        if not self._pending:
            block = self.receive_block(timeout=timeout)
            if block is None:
                return None
            self._pending.extend(block)
        return self._pending.popleft()

    def __iter__(self):
        while True:
            block = self.receive_block()
            if block is None:
                return
            yield from block

    @property
    def spilled_bytes(self) -> int:
        """Bytes that overflowed the pipe's buffer (backpressure events)."""
        return self.pipe.spilled_bytes
