"""The SQL-side sender: a parallel table UDF (§3's entry point).

"The data transfer starts from the parallel table UDF in the SQL system.
This UDF takes in as inputs the table to be transferred, the [coordinator],
as well as the command and arguments to invoke the desired ML algorithm."

Usage::

   SELECT * FROM TABLE(stream_transfer((SELECT ...), 'session-1'))

or, self-contained (no pre-configured session)::

   SELECT * FROM TABLE(stream_transfer((SELECT ...), 'session-1',
                                        'svm_with_sgd', 'iterations=10'))

Each invocation registers its worker with the coordinator (step 1), blocks
until matchmaking hands it its k channels (steps 5-7), streams its
partition's rows round-robin across them (step 8), closes with EOF, and
returns a one-row transfer summary.
"""

from collections.abc import Iterable, Sequence

from repro.common.errors import (
    RetriesExhaustedError,
    TransferError,
    WorkerFailedError,
)
from repro.sql.types import DataType, Schema
from repro.sql.udf import TableUDF, UdfContext
from repro.transfer.coordinator import Coordinator


def plan_blocks(
    partition: Sequence[tuple], k: int, batch_rows: int
) -> list[tuple[int, int, list[tuple]]]:
    """Deterministic round-robin blocking of a partition over k channels.

    Returns ``(channel_index, sequence_number, rows)`` triples in send
    order.  Row i goes to channel ``i % k`` exactly as in the seed path, and
    the plan depends only on the partition and the settings — so a restarted
    worker replaying its partition produces *identical* blocks with
    identical per-channel sequence numbers, which is what makes the
    receiver's dedup-by-seq sound (§6).
    """
    batch_rows = max(batch_rows, 1)
    pending: list[list[tuple]] = [[] for _ in range(k)]
    next_seq = [0] * k
    blocks: list[tuple[int, int, list[tuple]]] = []
    for i, row in enumerate(partition):
        target = i % k
        batch = pending[target]
        batch.append(row)
        if len(batch) >= batch_rows:
            blocks.append((target, next_seq[target], list(batch)))
            next_seq[target] += 1
            batch.clear()
    for target, batch in enumerate(pending):
        if batch:  # EOF flush of the partial batch
            blocks.append((target, next_seq[target], list(batch)))
    return blocks


def parse_ml_args(text: str) -> dict:
    """Parse ``'iterations=10,step=0.5'`` style ML argument strings."""
    args: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise TransferError(f"bad ML argument {part!r} (expected key=value)")
        key, value = part.split("=", 1)
        args[key.strip()] = value.strip()
    return args


class StreamTransferUDF(TableUDF):
    """``TABLE(stream_transfer(input, session [, command [, args]]))``."""

    name = "stream_transfer"

    def output_schema(self, input_schema: Schema, args: tuple) -> Schema:
        self._parse_args(args)
        return Schema.of(
            ("worker_id", DataType.INT),
            ("rows_sent", DataType.BIGINT),
            ("bytes_sent", DataType.BIGINT),
            ("spilled_bytes", DataType.BIGINT),
        )

    def process_partition(
        self, rows: Iterable[tuple], input_schema: Schema, args: tuple, ctx: UdfContext
    ) -> Iterable[tuple]:
        session_id, command, ml_args = self._parse_args(args)
        coordinator: Coordinator = ctx.service("coordinator")

        # Step 1: register (worker id, IP, worker count, command+args).
        session = coordinator.register_sql_worker(
            session_id,
            worker_id=ctx.worker_id,
            ip=ctx.node.ip,
            total_workers=ctx.num_workers,
            command=command,
            args=ml_args,
        )
        # Steps 5-7: receive the matched channels.
        channels = coordinator.sql_worker_channels(session_id, ctx.worker_id)
        if not channels:
            raise TransferError(f"worker {ctx.worker_id} was matched to no channels")

        # Step 8 with §6 recovery installed: the resilient protocol.
        if coordinator.recovery is not None:
            yield from self._stream_resilient(
                coordinator, session_id, ctx, channels, rows, session.batch_rows
            )
            return

        # Step 8: round-robin fan-out over this worker's k channels.  Row i
        # still goes to channel i % k exactly as in the per-row path, but
        # each channel's rows travel as RowBlocks of up to ``batch_rows``
        # (flushed when full and again at EOF), so the whole batch pays one
        # frame + one lock acquisition.  ``batch_rows=1`` takes the seed's
        # per-row send path verbatim.
        batch_rows = session.batch_rows
        # Cooperative cancellation: senders observe the session budget at
        # batch boundaries (every 256 rows on the per-row path), raising the
        # typed error out of the UDF instead of streaming a doomed session
        # to completion.  budget is always present; check() is a flag read.
        budget = session.budget
        rows_sent = 0
        try:
            if batch_rows <= 1:
                for i, row in enumerate(rows):
                    if budget is not None and i % 256 == 0:
                        budget.check("stream send")
                    channels[i % len(channels)].send_row(row)
                    rows_sent += 1
            else:
                pending: list[list[tuple]] = [[] for _ in channels]
                for i, row in enumerate(rows):
                    target = i % len(channels)
                    batch = pending[target]
                    batch.append(row)
                    rows_sent += 1
                    if len(batch) >= batch_rows:
                        if budget is not None:
                            budget.check("stream send")
                        channels[target].send_many(batch)
                        batch.clear()
                for target, batch in enumerate(pending):
                    if batch:  # EOF flush of the partial batch
                        channels[target].send_many(batch)
        except BaseException as exc:
            # A producer that dies mid-send (budget expiry, injected fault)
            # must poison its channels: clean EOF here would let readers
            # ingest the delivered prefix as if the stream had completed.
            for channel in channels:
                channel.abort(f"{type(exc).__name__}: {exc}")
            raise
        else:
            for channel in channels:
                channel.close()

        yield (
            ctx.worker_id,
            rows_sent,
            sum(c.bytes_sent for c in channels),
            sum(c.spilled_bytes for c in channels),
        )

    def process_batch(self, batch, input_schema: Schema, args: tuple, ctx: UdfContext):
        """Columnar step 8: stream the partition as ``C`` frames, one per
        channel, fanned out by ``batch.slice_step(j, k)`` — the exact
        ``i % k`` row placement of the seed path, computed as an index take
        instead of a per-row dispatch loop.

        Declines (``None`` → the executor re-runs :meth:`process_partition`
        over ``batch.to_rows()``) when the session is not columnar or the §6
        recovery protocol is installed — resilient replay is defined over
        sequenced RowBlocks.
        """
        session_id, command, ml_args = self._parse_args(args)
        coordinator: Coordinator = ctx.service("coordinator")
        # Peek at the session *before* registering: registration is not
        # idempotent, and a decline must leave it to process_partition.
        try:
            columnar = coordinator.session(session_id).columnar
        except TransferError:
            columnar = bool(getattr(coordinator, "columnar", False))
        if not columnar or coordinator.recovery is not None:
            return None

        coordinator.register_sql_worker(
            session_id,
            worker_id=ctx.worker_id,
            ip=ctx.node.ip,
            total_workers=ctx.num_workers,
            command=command,
            args=ml_args,
        )
        channels = coordinator.sql_worker_channels(session_id, ctx.worker_id)
        if not channels:
            raise TransferError(f"worker {ctx.worker_id} was matched to no channels")
        budget = coordinator.session(session_id).budget
        k = len(channels)
        rows_sent = 0
        try:
            for j, channel in enumerate(channels):
                if budget is not None:
                    budget.check("columnar stream send")
                part = batch.slice_step(j, k) if k > 1 else batch
                if len(part):
                    channel.send_col_batch(part)
                    rows_sent += len(part)
        except BaseException as exc:
            # Same truncation guard as the row path: a dead producer's
            # channels abort, they never present a prefix as clean EOF.
            for channel in channels:
                channel.abort(f"{type(exc).__name__}: {exc}")
            raise
        else:
            for channel in channels:
                channel.close()
        return [
            (
                ctx.worker_id,
                rows_sent,
                sum(c.bytes_sent for c in channels),
                sum(c.spilled_bytes for c in channels),
            )
        ]

    def _stream_resilient(
        self,
        coordinator: Coordinator,
        session_id: str,
        ctx: UdfContext,
        channels: list,
        rows: Iterable[tuple],
        batch_rows: int,
    ) -> Iterable[tuple]:
        """Step 8 under the §6 recovery protocol.

        The partition is materialized (it is the unit of replay) and planned
        into sequenced blocks once; each block send beats the heartbeat,
        consults the fault injector, and retries transient channel timeouts
        with backoff.  A worker kill triggers a coordinated partial restart:
        only this worker and its k paired ML readers restart, the whole
        partition replays from block 0 in a *retry epoch* whose bytes charge
        the separate ``stream.retry`` ledger counter, and receivers drop
        already-accepted sequence numbers — so the ML side still ingests
        each logical row exactly once.  Exhausted budgets escalate to
        :meth:`Coordinator.notify_channel_failure`, failing the session so
        the pipeline tier (full restart or DFS degradation) takes over.
        """
        recovery = coordinator.recovery
        injector = recovery.injector
        budget = coordinator.session(session_id).budget
        epoch = 0
        try:
            partition = list(rows)
            blocks = plan_blocks(partition, len(channels), batch_rows)
            while True:
                try:
                    rows_streamed = 0
                    for target, seq, block in blocks:
                        # Budget check per block: DeadlineExceeded and
                        # SessionCancelled are neither WorkerFailedError nor
                        # RetriesExhaustedError, so they skip both recovery
                        # tiers and propagate typed (channels still close).
                        if budget is not None:
                            budget.check("resilient stream send")
                        channel = channels[target]
                        # Beat through the *coordinator*, not the recovery
                        # manager directly: the beat is a control-plane
                        # handshake, so under HA it resolves the current
                        # leader (the mid-stream failover point) while the
                        # data plane below never touches the coordinator.
                        coordinator.record_heartbeat(session_id, ctx.worker_id)
                        injector.check_kill(
                            ctx.worker_id, rows_streamed, scope=session_id
                        )
                        recovery.send_with_retry(
                            lambda c=channel, b=block, s=seq, r=epoch > 0: (
                                c.send_block(b, s, retry=r)
                            ),
                            f"{session_id}/{channel.channel_id}",
                        )
                        rows_streamed += len(block)
                    break
                except WorkerFailedError as exc:
                    # §6: restart this worker with its paired ML readers and
                    # replay the partition; dedup-by-seq absorbs the overlap.
                    recovery.begin_partial_restart(
                        coordinator, session_id, ctx.worker_id, str(exc)
                    )
                    epoch += 1
        except RetriesExhaustedError as exc:
            # Budgets spent: fail the session — which aborts this group's
            # channels, so stuck readers wake with a typed error — and
            # escalate the failure to the pipeline tier.
            coordinator.notify_channel_failure(session_id, ctx.worker_id, str(exc))
            raise
        except BaseException as exc:
            # Typed budget errors (and anything else) also kill the stream
            # mid-send: poison the channels so the delivered prefix can
            # never pass for a complete dataset.
            for channel in channels:
                channel.abort(f"{type(exc).__name__}: {exc}")
            raise
        else:
            for channel in channels:
                channel.close()

        yield (
            ctx.worker_id,
            len(partition),
            sum(c.bytes_sent for c in channels),
            sum(c.spilled_bytes for c in channels),
        )

    @staticmethod
    def _parse_args(args: tuple) -> tuple[str, str | None, dict]:
        if not args:
            raise TransferError("stream_transfer needs at least a session id")
        session_id = str(args[0])
        command = str(args[1]) if len(args) > 1 and args[1] is not None else None
        ml_args = parse_ml_args(str(args[2])) if len(args) > 2 and args[2] else {}
        return session_id, command, ml_args
