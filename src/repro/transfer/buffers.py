"""Bounded buffers with spill-to-disk backpressure handling.

The paper: "Inside a SQL worker, there is a send-buffer associated with each
target ML worker ... If an ML worker is slow to ingest its data and the
corresponding send buffer becomes full, we can spill it onto the local disks
to synchronize the producer and consumers."  So a full buffer never blocks
the producer — overflow goes to a spill file (or an accounted in-memory
overflow region when no spill directory is configured), and the consumer
drains strictly in FIFO order across the memory/spill boundary.
"""

import os
import pickle
import struct
import threading
from collections import deque
from collections.abc import Sequence

from repro.common.errors import (
    ChannelAbortedError,
    ChannelTimeoutError,
    StorageFullError,
    TransferError,
)
from repro.sim.clock import WALL

_LENGTH = struct.Struct(">I")


class SpillableBuffer:
    """FIFO byte-item buffer: bounded memory, unbounded accounted spill."""

    def __init__(
        self,
        capacity_bytes: int,
        spill_path: str | None = None,
        ledger=None,
        governor=None,
        tenant: str = "default",
        budget=None,
        clock=None,  # repro.sim.clock.Clock | None — read-wait timing
        injector=None,  # FaultInjector | None — dfs.enospc spill window
    ):
        if capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1")
        self._capacity = capacity_bytes
        self._clock = clock or WALL
        # Optional per-session Budget: get() waits are clamped to its
        # remaining time and a cancel wakes blocked readers immediately.
        self._budget = budget
        if budget is not None:
            budget.on_cancel(self._wake_readers)
        # Multi-tenant backpressure isolation: outstanding spill bytes are
        # charged to a SpillGovernor per tenant; the *sender* consults it
        # (before put) so an over-budget tenant throttles itself while other
        # tenants' buffers stay untouched.  Charge/credit only ever touch the
        # governor's own lock, so calling them under this buffer's lock is
        # deadlock-free.
        self._governor = governor
        self._tenant = tenant
        self._memory: deque[bytes] = deque()
        self._memory_bytes = 0
        self._spill_path = spill_path
        self._spill_file = None
        self._spill_read_offset = 0
        self._spill_pending = 0  # items in the spill region not yet consumed
        self._file_pending = 0  # subset of pending that sits in the spill file
        self._spill_failed = False  # disk refused a spill — degrade to memory
        self._injector = injector
        self._overflow: deque[bytes] = deque()  # in-memory spill stand-in
        self._ledger = ledger
        self._closed = False
        self._abort_reason: str | None = None
        self._lock = threading.Lock()
        self._readable = threading.Condition(self._lock)
        self.spilled_bytes = 0
        self._governed = 0  # spilled bytes charged to the governor, not yet credited

    # ---------------------------------------------------------------- write

    def put(self, item: bytes) -> None:
        """Append an item; spills instead of blocking when memory is full."""
        with self._lock:
            if self._closed:
                raise TransferError("put() on a closed buffer")
            # FIFO across the boundary: once anything sits in spill, new
            # items must follow it there.
            if self._spill_pending == 0 and self._memory_bytes + len(item) <= self._capacity:
                self._memory.append(item)
                self._memory_bytes += len(item)
            else:
                self._spill(item)
            self._readable.notify()

    def close(self) -> None:
        """Signal end of stream; pending items remain readable."""
        with self._lock:
            self._closed = True
            self._readable.notify_all()

    def abort(self, reason: str = "producer failed") -> None:
        """Poison the stream: every blocked or future :meth:`get` raises
        :class:`ChannelAbortedError` instead of draining to EOF.  Pending
        items are a truncated prefix of a stream whose producer died, so
        they must never be delivered as if the stream completed.  Sticky —
        a later :meth:`close` does not clear it.  Idempotent."""
        with self._lock:
            if self._abort_reason is None:
                self._abort_reason = reason
            self._closed = True
            self._readable.notify_all()

    def cancel(self) -> None:
        """No-op: a cancelled session's budget already wakes blocked readers
        (the socket pipe needs an explicit CANCEL frame instead)."""

    def release(self) -> None:
        """Drop everything and release the spill file (session teardown).

        Unlike :meth:`close`, pending items are *not* kept readable — a
        blocked or late reader sees immediate EOF — and a spill file that
        was never fully drained is closed and unlinked, so a finished (or
        failed) session leaves nothing on disk.
        """
        with self._lock:
            self._closed = True
            self._memory.clear()
            self._memory_bytes = 0
            if self._governor is not None and self._governed:
                self._governor.credit(self._tenant, self._governed)
                self._governed = 0
            self._overflow.clear()
            self._spill_pending = 0
            self._file_pending = 0
            if self._spill_file is not None:
                path = self._spill_file.name
                self._spill_file.close()
                self._spill_file = None
                self._spill_read_offset = 0
                try:
                    os.unlink(path)
                except OSError:
                    pass
            self._readable.notify_all()

    # ----------------------------------------------------------------- read

    def _wake_readers(self) -> None:
        with self._lock:
            self._readable.notify_all()

    def get(self, timeout: float | None = 30.0) -> bytes | None:
        """Next item in FIFO order, or None at end of stream.

        Raises :class:`TransferError` if nothing arrives within ``timeout``
        (a deadlock guard; the paper's streams always terminate with EOF).
        With a session budget installed, the wait is additionally clamped to
        the budget's remaining time and raises the typed
        ``DeadlineExceeded``/``SessionCancelled`` instead of the retryable
        flat-timeout error.
        """
        deadline = None if timeout is None else self._clock.now() + timeout
        with self._lock:
            while True:
                if self._abort_reason is not None:
                    raise ChannelAbortedError(
                        f"stream aborted: {self._abort_reason}"
                    )
                if self._memory:
                    item = self._memory.popleft()
                    self._memory_bytes -= len(item)
                    self._refill_from_spill()
                    return item
                if self._spill_pending:
                    self._refill_from_spill()
                    continue
                if self._closed:
                    return None
                if self._budget is not None:
                    self._budget.check("buffer read")
                # The deadline spans wait() wakeups: repeated notifies that
                # deliver nothing (another reader won the race) must not
                # extend the deadlock guard indefinitely.
                remaining = None if deadline is None else deadline - self._clock.now()
                if remaining is not None and remaining <= 0:
                    raise ChannelTimeoutError(
                        f"buffer read timed out after {timeout}s (producer stalled?)"
                    )
                if self._budget is not None:
                    # Clamped wait: on expiry the loop re-enters and the
                    # budget check (or the flat deadline above) raises.
                    if not self._clock.wait_on(
                        self._readable, self._budget.clamp(remaining)
                    ):
                        self._budget.check("buffer read")
                    continue
                if not self._clock.wait_on(self._readable, remaining):
                    raise ChannelTimeoutError(
                        f"buffer read timed out after {timeout}s (producer stalled?)"
                    )

    def __iter__(self):
        while True:
            item = self.get()
            if item is None:
                return
            yield item

    # ------------------------------------------------------------ internals

    def _spill(self, item: bytes) -> None:
        self.spilled_bytes += len(item)
        if self._ledger is not None:
            self._ledger.add("stream.spilled", len(item))
        if self._governor is not None:
            self._governor.charge(self._tenant, len(item))
            self._governed += len(item)
        if self._spill_path is not None and not self._spill_failed:
            try:
                if self._injector is not None:
                    # dfs.enospc: an injected full-disk window at the spill
                    # site (real spill disks fail with OSError below).
                    self._injector.check_dfs_enospc(
                        f"spill/{self._tenant}/{self._spill_path}"
                    )
                if self._spill_file is None:
                    os.makedirs(
                        os.path.dirname(self._spill_path) or ".", exist_ok=True
                    )
                    self._spill_file = open(self._spill_path, "w+b")
                self._spill_file.seek(0, os.SEEK_END)
                self._spill_file.write(_LENGTH.pack(len(item)))
                self._spill_file.write(item)
                self._file_pending += 1
            except (OSError, StorageFullError):
                # ENOSPC ladder: the spill disk refused the item — degrade to
                # the accounted in-memory overflow region instead of crashing
                # the producer.  Permanently, so FIFO order across the
                # file/overflow boundary stays intact (file items drain
                # strictly before overflow items).
                self._spill_failed = True
                if self._ledger is not None:
                    self._ledger.add("stream.spill_enospc", 1)
                self._overflow.append(item)
        else:
            self._overflow.append(item)
        self._spill_pending += 1

    def _refill_from_spill(self) -> None:
        """Move spilled items back into free memory space, preserving order."""
        while self._spill_pending and self._memory_bytes < self._capacity:
            item = self._read_one_spilled()
            self._memory.append(item)
            self._memory_bytes += len(item)
            self._spill_pending -= 1
            if self._governor is not None:
                self._governor.credit(self._tenant, len(item))
                self._governed = max(self._governed - len(item), 0)
        if self._file_pending == 0 and self._spill_file is not None:
            path = self._spill_file.name
            self._spill_file.close()
            self._spill_file = None
            self._spill_read_offset = 0
            try:
                os.unlink(path)
            except OSError:
                pass

    def _read_one_spilled(self) -> bytes:
        # FIFO across regions: everything that reached the spill file was
        # appended before the first overflow item (degradation is one-way),
        # so the file drains first.
        if self._spill_file is not None and self._file_pending:
            self._spill_file.seek(self._spill_read_offset)
            header = self._spill_file.read(_LENGTH.size)
            (length,) = _LENGTH.unpack(header)
            item = self._spill_file.read(length)
            self._spill_read_offset = self._spill_file.tell()
            self._file_pending -= 1
            return item
        return self._overflow.popleft()


def encode_row(row: tuple) -> bytes:
    """Serialize one row for the wire (length-accounted pickle)."""
    return pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL)


def decode_row(payload: bytes) -> tuple:
    """Inverse of :func:`encode_row`."""
    return pickle.loads(payload)


_BLOCK_HEADER = struct.Struct(">Q")
_PICKLE_MARKER = b"\x80"  # first byte of every protocol >= 2 pickle
_BLOCK_MARKER = b"B"  # leading byte of a RowBlock frame (0x42)
COLUMNAR_MARKER = b"C"  # leading byte of a columnar frame (0x43)


def encode_block(rows: Sequence[tuple]) -> bytes:
    """Serialize a RowBlock — a batch of rows moved as one frame.

    One block is one buffer/spill/socket/broker item, so the whole batch
    costs a single lock acquisition, frame header, and ledger entry instead
    of one per row.

    Frame layout: ``B`` marker, an 8-byte header recording the block's
    *logical* size (the bytes these rows would occupy in the seed's per-row
    framing), then each row as a length-prefixed per-row pickle.  Because
    the body reuses the per-row pickles verbatim, the logical size is the
    sum of the body's row-frame lengths — one serialization pass computes
    both (the seed encoder pickled every row twice: once for the header,
    once inside a block-level list pickle).  All ledger byte accounting
    charges the logical size, so the simulated cost of a transfer is
    identical at every ``batch_rows`` setting — only real wall-clock
    changes.
    """
    frames = [
        pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL) for row in rows
    ]
    logical = sum(len(frame) for frame in frames)
    body = b"".join(_LENGTH.pack(len(frame)) + frame for frame in frames)
    return _BLOCK_MARKER + _BLOCK_HEADER.pack(logical) + body


def _decode_row_frames(body: bytes) -> list[tuple]:
    rows = []
    offset, end = 0, len(body)
    while offset < end:
        (length,) = _LENGTH.unpack_from(body, offset)
        offset += _LENGTH.size
        rows.append(pickle.loads(body[offset : offset + length]))
        offset += length
    return rows


def decode_block(payload: bytes) -> list[tuple]:
    """Inverse of :func:`encode_block`, returning a list of row tuples.

    Accepts every framing on the wire and normalizes to rows:

    * an :func:`encode_row` frame (bare pickle, leading 0x80) becomes a
      one-row block — which is what lets ``batch_rows=1`` reproduce the
      seed's per-row wire format exactly;
    * a sequenced frame is unwrapped (sequence number discarded — use
      :func:`split_seq_frame` when dedup matters);
    * a columnar ``C`` frame is decoded and pivoted to rows, so row-oriented
      receivers interoperate with columnar senders.

    Anything else raises :class:`TransferError`.
    """
    first = payload[:1]
    if first == _PICKLE_MARKER:
        return [pickle.loads(payload)]
    if first == _SEQ_MARKER:
        payload = payload[1 + _BLOCK_HEADER.size :]
        first = payload[:1]
    if first == _BLOCK_MARKER:
        return _decode_row_frames(payload[1 + _BLOCK_HEADER.size :])
    if first == COLUMNAR_MARKER:
        return decode_col_block(payload).to_rows()
    raise TransferError(f"unrecognised frame marker {first!r}")


def encode_col_block(batch) -> bytes:
    """Serialize a :class:`~repro.columnar.batch.ColumnBatch` as one frame.

    Frame layout: ``C`` marker, 8-byte logical-size header (the batch's
    seed-formula :meth:`logical_bytes`, so ledgers account columnar traffic
    on the same scale as row traffic), then one pickle of the batch's
    column arrays.  numpy arrays pickle as raw buffers, so the whole batch
    costs a handful of memcpys instead of per-row pickling — this is where
    the columnar wire path's speedup comes from.
    """
    names = tuple(column.name for column in batch.schema)
    dtypes = tuple(column.dtype.value for column in batch.schema)
    columns = tuple(
        (vector.data, vector.valid, vector.dictionary) for vector in batch.columns
    )
    body = pickle.dumps(
        (names, dtypes, batch.num_rows, columns), protocol=pickle.HIGHEST_PROTOCOL
    )
    return COLUMNAR_MARKER + _BLOCK_HEADER.pack(batch.logical_bytes()) + body


def decode_col_block(payload: bytes):
    """Inverse of :func:`encode_col_block` (accepts a sequenced wrapper)."""
    from repro.columnar.batch import ColumnBatch, ColumnVector
    from repro.sql.types import DataType, Schema

    if payload[:1] == _SEQ_MARKER:
        payload = payload[1 + _BLOCK_HEADER.size :]
    if payload[:1] != COLUMNAR_MARKER:
        raise TransferError("not a columnar frame")
    names, dtypes, num_rows, columns = pickle.loads(
        payload[1 + _BLOCK_HEADER.size :]
    )
    schema = Schema.of(*((n, DataType(d)) for n, d in zip(names, dtypes)))
    vectors = [
        ColumnVector(DataType(dtype), data, valid, dictionary)
        for dtype, (data, valid, dictionary) in zip(dtypes, columns)
    ]
    return ColumnBatch.from_columns(schema, vectors, num_rows)


def is_columnar_frame(payload: bytes) -> bool:
    """True when the (possibly sequenced) frame carries a ColumnBatch."""
    if payload[:1] == _SEQ_MARKER:
        payload = payload[1 + _BLOCK_HEADER.size :]
    return payload[:1] == COLUMNAR_MARKER


_SEQ_MARKER = b"S"  # leading byte of a sequenced frame (0x53)


def encode_seq_block(rows: Sequence[tuple], seq: int) -> bytes:
    """Serialize a *sequenced* RowBlock: a block frame prefixed with a
    marker byte and an 8-byte sequence number.

    Sequence numbers are the §6 replay-dedup handle: a restarted SQL worker
    re-streams its partition from the beginning with the same per-channel
    block numbering, and the receiver drops every frame whose number it has
    already accepted, so each logical row crosses the ML boundary exactly
    once.  The prefix is unambiguous against the other framings: per-row
    frames start with the pickle protocol marker (0x80), block frames with
    ``B`` (0x42) and columnar frames with ``C`` (0x43).
    """
    return _SEQ_MARKER + _BLOCK_HEADER.pack(seq) + encode_block(rows)


def split_seq_frame(payload: bytes) -> tuple[int | None, bytes]:
    """(sequence number, inner frame) of a sequenced frame; (None, payload)
    for unsequenced per-row/block frames."""
    if payload[:1] != _SEQ_MARKER:
        return None, payload
    (seq,) = _BLOCK_HEADER.unpack_from(payload, 1)
    return seq, payload[1 + _BLOCK_HEADER.size :]


def block_logical_bytes(payload: bytes) -> int:
    """Accountable size of a frame: its rows' seed (per-row framing) bytes.

    For a per-row frame that is simply ``len(payload)``; for a block frame
    it is read from the header.  Ledgers charge this instead of the wire
    length so byte accounting — and therefore simulated time — is invariant
    under re-batching.

    Block (``B``) and columnar (``C``) frames carry their logical size in
    the 8-byte header after the marker.  Payloads that are none of the
    framings (the broker stores opaque records) are charged at their wire
    length.
    """
    first = payload[:1]
    if first == _PICKLE_MARKER:
        return len(payload)
    if first == _SEQ_MARKER:
        payload = payload[1 + _BLOCK_HEADER.size :]
        first = payload[:1]
    if first == _BLOCK_MARKER or first == COLUMNAR_MARKER:
        (logical,) = _BLOCK_HEADER.unpack_from(payload, 1)
        return logical
    return len(payload)
