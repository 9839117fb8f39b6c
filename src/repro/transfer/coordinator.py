"""The long-standing coordinator service bridging SQL and ML workers (§3).

One :class:`Coordinator` serves many *sessions*; a session is one transfer
(one SQL query feeding one ML job).  The protocol state machine follows
Figure 2 step by step; every blocking wait carries a timeout so a lost
endpoint surfaces as a :class:`TransferError` instead of a hang, and the §6
fault-tolerance hooks (:meth:`Coordinator.notify_channel_failure`,
:meth:`StreamSession.restart_plan`) expose the restart pairing the paper
describes: a failed SQL worker implies restarting all ML workers matched to
it.
"""

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.cluster import Cluster
from repro.common.errors import (
    CoordinatorUnavailableError,
    DeadlineExceeded,
    SessionCancelled,
    TransferError,
)
from repro.runtime.budget import Budget
from repro.sim.clock import WALL
from repro.transfer.channel import ChannelId, StreamChannel
from repro.transfer.socket_channel import MuxSocketTransport

DEFAULT_BUFFER_BYTES = 4096  # the paper's send/receive buffer setting
DEFAULT_BATCH_ROWS = 256  # rows per RowBlock frame; 1 = seed's per-row wire
DEFAULT_TIMEOUT_S = 30.0


def _as_bool(value) -> bool:
    """Conf-prop boolean: accepts real bools and the usual string spellings."""
    if isinstance(value, str):
        return value.strip().lower() in ("1", "true", "yes", "on")
    return bool(value)


@dataclass
class SqlWorkerInfo:
    """Registration record of one SQL worker (step 1)."""

    worker_id: int
    ip: str


@dataclass
class StreamSession:
    """All state of one transfer session."""

    session_id: str
    command: str | None = None
    args: dict = field(default_factory=dict)
    conf_props: dict = field(default_factory=dict)
    #: multi-tenant serving: whose quota this session runs under
    tenant: str = "default"
    buffer_bytes: int = DEFAULT_BUFFER_BYTES
    batch_rows: int = DEFAULT_BATCH_ROWS
    #: ship ColumnBatch (``C``) frames instead of RowBlocks; off = seed wire
    columnar: bool = False
    spill_dir: str | None = None
    expected_sql_workers: int | None = None
    sql_workers: dict[int, SqlWorkerInfo] = field(default_factory=dict)
    channels: dict[ChannelId, StreamChannel] = field(default_factory=dict)
    groups: dict[int, list[ChannelId]] = field(default_factory=dict)
    ml_registrations: set[ChannelId] = field(default_factory=set)
    failed: bool = False
    failure_reason: str | None = None
    #: §6 recoverable failures handled by partial restart (post-mortem log)
    recovery_log: list[dict] = field(default_factory=list)
    # events
    all_registered: threading.Event = field(default_factory=threading.Event)
    splits_ready: threading.Event = field(default_factory=threading.Event)
    result_ready: threading.Event = field(default_factory=threading.Event)
    result: Any = None
    error: BaseException | None = None
    launched: bool = False
    #: per-session execution budget (deadline + cancel flag + retry tokens);
    #: every blocking wait in the serving plane derives from it
    budget: Budget | None = None

    def restart_plan(self, sql_worker_id: int) -> dict:
        """§6: which endpoints must restart after a channel failure.

        The failed SQL worker restarts, and *all* ML workers consuming from
        it restart with it, so the transfer can resume consistently.
        """
        return {
            "restart_sql_worker": sql_worker_id,
            "restart_ml_workers": [
                cid.index for cid in self.groups.get(sql_worker_id, [])
            ],
        }


class Coordinator:
    """Registration, launch, split planning, matchmaking, result delivery."""

    def __init__(
        self,
        cluster: Cluster,
        launcher: Callable[["StreamSession"], Any] | None = None,
        default_k: int = 6,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        columnar: bool = False,
        spill_dir: str | None = None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        transport: str = "memory",
        state_store=None,  # CoordinatorStateStore | None (§6 resilience)
        recovery=None,  # RecoveryManager | None — installs §6 recovery
        fault_injector=None,  # FaultInjector | None — convenience wiring
        coordinator_id: str = "coordinator-0",  # HA replica identity
        channel_registry=None,  # ChannelRegistry | None (HA data plane)
        admission=None,  # SessionAdmission | None — multi-tenant quota gate
        worker_pool=None,  # WorkerPoolScheduler | None — shared ML slots
        spill_governor=None,  # SpillGovernor | None — per-tenant spill budgets
        retry_budget=None,  # RetryTokenBucket | None — shared retry cap
        default_deadline_s: float | None = None,  # deadline for new sessions
        clock=None,  # repro.sim.clock.Clock | None — coordinator time source
    ):
        if transport not in ("memory", "socket"):
            raise TransferError(f"unknown transport {transport!r}")
        if batch_rows < 1:
            raise TransferError(f"batch_rows must be >= 1, got {batch_rows}")
        self.clock = clock or WALL
        self.cluster = cluster
        self.launcher = launcher
        self.default_k = default_k
        self.buffer_bytes = buffer_bytes
        self.batch_rows = batch_rows
        self.columnar = bool(columnar)
        self.spill_dir = spill_dir
        self.timeout_s = timeout_s
        self.transport = transport
        self.state_store = state_store
        if recovery is None and fault_injector is not None:
            from repro.faults.recovery import RecoveryManager

            recovery = RecoveryManager(injector=fault_injector, clock=self.clock)
        #: FaultInjector | None — also threaded into spill buffers so an
        #: armed ``dfs.enospc`` window covers the spill write site; callers
        #: that hand over only a RecoveryManager still arm it.
        self.fault_injector = fault_injector or (
            getattr(recovery, "injector", None) if recovery is not None else None
        )
        #: §6 recovery driver; when set, streaming senders take the resilient
        #: protocol (sequenced blocks, heartbeats, retries, partial restart).
        self.recovery = recovery
        self.coordinator_id = coordinator_id
        #: False once this replica crashed (it stops serving immediately)
        self.alive = True
        #: set by :class:`~repro.transfer.ha.CoordinatorHAGroup` on members
        self.ha_group = None
        #: leader term this replica last served in (fencing token)
        self.fencing_epoch: int | None = None
        #: shared data-plane registry: channels outlive a dead coordinator
        self.channel_registry = channel_registry
        #: multi-tenant serving (all None by default = seed single-session
        #: behavior; shared across replicas under HA like the recovery
        #: manager, so a takeover keeps the same quota/slot/budget state)
        self.admission = admission
        self.worker_pool = worker_pool
        self.spill_governor = spill_governor
        #: overload protection (None by default = seed behavior): a shared
        #: retry-token bucket carried on every session budget, and a default
        #: per-session deadline applied when create_session names none
        self.retry_budget = retry_budget
        self.default_deadline_s = default_deadline_s
        #: one shared mux socket pair per SQL worker (socket transport);
        #: every session's channels ride it as tagged streams
        self._mux_transports: dict[int, MuxSocketTransport] = {}
        self._monitor = None  # LivenessMonitor | None
        self._sessions: dict[str, StreamSession] = {}
        #: session_id -> cancel reason for recently cancelled sessions, so a
        #: client that was *between* waits when the cancel landed still gets
        #: the typed SessionCancelled, not "unknown session".  Bounded FIFO.
        self._cancel_tombstones: dict[str, str] = {}
        self._lock = threading.Lock()

    _TOMBSTONE_CAP = 1024

    # ----------------------------------------------------- HA: serving state

    def _ensure_serving(self) -> None:
        """Refuse requests unless this replica is alive and (under HA) holds
        the leader lease.  Clients behind a
        :class:`~repro.transfer.ha.FailoverCoordinator` catch the resulting
        :class:`CoordinatorUnavailableError`, re-resolve the leader from
        ZooKeeperLite, and retry the handshake idempotently."""
        if not self.alive:
            raise CoordinatorUnavailableError(
                f"coordinator {self.coordinator_id!r} is dead"
            )
        group = self.ha_group
        if group is not None and group.leader_id() != self.coordinator_id:
            raise CoordinatorUnavailableError(
                f"coordinator {self.coordinator_id!r} lost its leader lease"
            )

    def kill(self) -> None:
        """Crash this replica (chaos hook).  All session events are set so
        threads blocked in a wait wake up, re-check :meth:`_ensure_serving`,
        and surface :class:`CoordinatorUnavailableError` instead of hanging
        out their timeout against a dead service."""
        self.alive = False
        self.stop_liveness_monitor()
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.all_registered.set()
            session.splits_ready.set()
            session.result_ready.set()

    def become_leader(self, state_store, epoch: int) -> list[str]:
        """Take over as leader: bind the fenced journal for this term and
        reconstruct every in-flight session from it.  Returns the adopted
        session ids."""
        self.state_store = state_store
        self.fencing_epoch = epoch
        return self.adopt_sessions()

    def adopt_sessions(self) -> list[str]:
        """Rebuild :class:`StreamSession` control state from the journal.

        Control state (registrations, split plan, ML claims, recovery log,
        status) comes from ZooKeeperLite; live channel objects — the data
        plane, which conceptually lives on the worker hosts, not on the
        coordinator — are re-attached from the shared channel registry, so
        in-flight streams keep their buffers and dedup sequence state and
        nothing is replayed just because the coordinator died.
        """
        store = self.state_store
        if store is None:
            return []
        adopted: list[str] = []
        for session_id in store.sessions():
            with self._lock:
                if session_id in self._sessions:
                    continue
            view = store.session_view(session_id)
            if view["status"] == "closed":
                continue
            settings = view.get("settings") or {}
            session = StreamSession(
                session_id=session_id,
                command=view.get("command"),
                args=dict(view.get("args") or {}),
                conf_props=dict(view.get("conf") or {}),
                tenant=settings.get("tenant", "default"),
                buffer_bytes=int(settings.get("buffer_bytes", self.buffer_bytes)),
                batch_rows=int(settings.get("batch_rows", self.batch_rows)),
                columnar=_as_bool(settings.get("columnar", self.columnar)),
                spill_dir=settings.get("spill_dir", self.spill_dir),
            )
            # Restore the end-to-end budget from its journaled wall-clock
            # deadline (a takeover enforces the session's *remaining* time,
            # not a fresh allowance); sessions journaled without a deadline
            # get a plain unbounded budget, same as the seed path.
            restored = Budget.from_settings(
                settings,
                session_id=session_id,
                retry_tokens=self.retry_budget,
                ledger=self.cluster.ledger,
                clock=self.clock,
            )
            session.budget = restored or Budget(
                session_id=session_id,
                retry_tokens=self.retry_budget,
                ledger=self.cluster.ledger,
                clock=self.clock,
            )
            session.budget.on_cancel(session.all_registered.set)
            session.budget.on_cancel(session.splits_ready.set)
            session.budget.on_cancel(session.result_ready.set)
            # Re-seed the (group-shared) admission gate: usually a no-op
            # because the gate object survived the dead leader, but a cold
            # standby restoring purely from the journal re-admits here.
            if self.admission is not None:
                self.admission.adopt(session_id, session.tenant)
            for worker_id, info in view["workers"].items():
                session.sql_workers[worker_id] = SqlWorkerInfo(worker_id, info["ip"])
                session.expected_sql_workers = info["total"]
            groups = view.get("groups")
            if groups is not None:
                session.groups = {wid: list(cids) for wid, cids in groups.items()}
                live = (
                    self.channel_registry.channels_of(session_id)
                    if self.channel_registry is not None
                    else {}
                )
                for group in session.groups.values():
                    for cid in group:
                        if cid in live:
                            session.channels[cid] = live[cid]
                session.splits_ready.set()
            session.ml_registrations = set(view.get("ml_claims") or [])
            session.recovery_log = list(view.get("recovery_log") or [])
            status = view["status"]
            complete = (
                session.expected_sql_workers is not None
                and len(session.sql_workers) == session.expected_sql_workers
            )
            if complete:
                session.all_registered.set()
            session.launched = status in ("launched", "completed", "failed")
            if status == "failed":
                session.failed = True
                session.failure_reason = "failed before coordinator takeover"
                session.error = TransferError(session.failure_reason)
                session.result_ready.set()
            with self._lock:
                self._sessions[session_id] = session
            if self.ha_group is not None:
                self.ha_group.replay_result(session_id, self)
            # The old leader died between the last registration and the
            # launch record: this term launches the ML job itself.
            if complete and not session.launched and session.command is not None:
                session.launched = True
                store.record_status(session_id, "launched")
                self._launch(session)
            adopted.append(session_id)
        return adopted

    def apply_result(self, session_id: str, result, error) -> None:
        """Deliver a finished ML job's outcome to this replica's session
        (the HA group routes results here so a takeover mid-job still
        unblocks ``wait_result`` callers on the new leader)."""
        self._ensure_serving()
        session = self.session(session_id)
        self._apply_result(session, result, error)

    def _apply_result(self, session: StreamSession, result, error) -> None:
        if error is None:
            session.result = result
            if self.state_store is not None:
                self.state_store.record_status(session.session_id, "completed")
        else:
            session.error = error
            session.failed = True
            session.failure_reason = str(error)
            # Unblock SQL workers waiting for split planning: they get a
            # prompt error instead of hanging until their timeout.
            session.splits_ready.set()
            if self.state_store is not None:
                self.state_store.record_status(session.session_id, "failed")
        session.result_ready.set()

    # ------------------------------------------------------------- sessions

    def create_session(
        self,
        session_id: str,
        command: str | None = None,
        args: dict | None = None,
        conf_props: dict | None = None,
        buffer_bytes: int | None = None,
        batch_rows: int | None = None,
        columnar: bool | None = None,
        spill_dir: str | None = None,
        exists_ok: bool = False,
        tenant: str = "default",
        deadline_s: float | None = None,
    ) -> StreamSession:
        """Pre-configure a session (the pipeline does this before the query).

        ``exists_ok`` is the HA retry path: a client whose create *response*
        was lost in a failover re-issues the call and gets the existing
        session back instead of an error.

        With a :class:`~repro.transfer.admission.SessionAdmission` gate
        installed the call first acquires an admission slot for ``tenant`` —
        blocking in the bounded FIFO queue when the deployment or the tenant
        is at its concurrency cap, raising
        :class:`~repro.common.errors.AdmissionError` when the queue is full
        or the wait times out.  Admission is idempotent by session id, so
        the HA retry re-issuing this call never double-charges a quota.

        ``deadline_s`` arms the session's end-to-end :class:`Budget`: every
        later blocking wait (admission queue, worker-slot, governor pause,
        channel receive, broker fetch, result wait) derives its timeout from
        the budget's remaining time and raises the typed, non-retryable
        :class:`~repro.common.errors.DeadlineExceeded` when it runs out —
        one clock instead of stacked per-layer defaults.  ``deadline_s=None``
        (the default, unless the ``stream.deadline_s`` conf prop or the
        coordinator's ``default_deadline_s`` names one) is the seed path.
        """
        self._ensure_serving()
        props = dict(conf_props or {})
        if batch_rows is None:
            batch_rows = int(props.get("stream.batch_rows", self.batch_rows))
        if batch_rows < 1:
            raise TransferError(f"batch_rows must be >= 1, got {batch_rows}")
        if columnar is None:
            columnar = _as_bool(props.get("stream.columnar", self.columnar))
        if deadline_s is None:
            raw = props.get("stream.deadline_s")
            deadline_s = float(raw) if raw is not None else self.default_deadline_s
        budget = Budget(
            deadline_s=deadline_s,
            session_id=session_id,
            retry_tokens=self.retry_budget,
            ledger=self.cluster.ledger,
            clock=self.clock,
        )
        admitted = False
        if self.admission is not None:
            admitted = self.admission.acquire(
                session_id, tenant=tenant, budget=budget
            )
        try:
            with self._lock:
                existing = self._sessions.get(session_id)
                if existing is not None:
                    if exists_ok:
                        return existing
                    raise TransferError(f"session {session_id!r} already exists")
                session = StreamSession(
                    session_id=session_id,
                    command=command,
                    args=dict(args or {}),
                    conf_props=props,
                    tenant=tenant,
                    buffer_bytes=buffer_bytes or self.buffer_bytes,
                    batch_rows=batch_rows,
                    columnar=bool(columnar),
                    spill_dir=spill_dir if spill_dir is not None else self.spill_dir,
                    budget=budget,
                )
                self._sessions[session_id] = session
                self._cancel_tombstones.pop(session_id, None)  # id reuse
            # A cancel must wake session-event waiters too; each wait site
            # re-checks the budget after waking, so a spurious set is safe.
            budget.on_cancel(session.all_registered.set)
            budget.on_cancel(session.splits_ready.set)
            budget.on_cancel(session.result_ready.set)
        except BaseException:
            if admitted:
                self.admission.release(session_id)
            raise
        if self.state_store is not None:
            settings = {
                "buffer_bytes": session.buffer_bytes,
                "batch_rows": session.batch_rows,
                "columnar": session.columnar,
                "spill_dir": session.spill_dir,
            }
            # Journaled only when multi-tenancy is in play, so single-tenant
            # deployments keep their PR-4 zk.journal byte totals bit-identical.
            if self.admission is not None or tenant != "default":
                settings["tenant"] = tenant
            # Same gating for the budget: journaled (as wall-clock time, so a
            # takeover enforces the *remaining* budget) only when armed.
            if deadline_s is not None:
                settings.update(budget.to_settings())
            self.state_store.record_session(
                session_id,
                session.command,
                session.conf_props,
                args=session.args,
                settings=settings,
            )
            self._journal_admission("admit", session_id, tenant)
        return session

    def _journal_admission(self, event: str, session_id: str, tenant: str) -> None:
        """Journal one admission transition so a takeover (which shares the
        gate object group-wide) can audit it.  Per-transition, not a
        running-set snapshot: the byte total must not depend on how many
        sessions happen to overlap (interleaving noise would leak into the
        ``zk.journal`` counter and break chaos fingerprint replay)."""
        if self.state_store is not None and self.admission is not None:
            self.state_store.record_admission(
                {"event": event, "session": session_id, "tenant": tenant}
            )

    def session(self, session_id: str) -> StreamSession:
        self._ensure_serving()
        with self._lock:
            session = self._sessions.get(session_id)
            tombstone = self._cancel_tombstones.get(session_id)
        if session is None:
            if tombstone is not None:
                raise SessionCancelled(
                    f"session {session_id!r} cancelled: {tombstone}",
                    session_id=session_id,
                )
            raise TransferError(
                f"unknown session {session_id!r}; known: {sorted(self._sessions)}"
            )
        return session

    def live_sessions(self) -> list[str]:
        """Ids of sessions this coordinator currently tracks."""
        self._ensure_serving()
        with self._lock:
            return sorted(self._sessions)

    def close_session(self, session_id: str) -> None:
        """Forget a finished session and release its transfer resources:
        still-open channels are closed and their spill files deleted, so a
        completed *or* failed session leaves nothing on disk."""
        self._ensure_serving()
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            return
        # release(), not close(): teardown must never block on a flush to a
        # reader that is already gone, and it drops leftover spill files.
        for channel in list(session.channels.values()):
            channel.release()
        if self.channel_registry is not None:
            self.channel_registry.drop_session(session_id)
        if self.state_store is not None:
            self.state_store.record_status(session_id, "closed")
        # Release the admission slot *after* the channels are torn down, so
        # a promoted waiter never races the dying session for spill files.
        if self.admission is not None:
            self.admission.release(session_id)
            self._journal_admission("release", session_id, session.tenant)

    def cancel_session(self, session_id: str, reason: str = "client cancel") -> bool:
        """Cooperatively cancel one session and tear it down.

        Order matters: the budget's cancel flag flips first (waking every
        blocked wait that derives from it — admission queue, worker slots,
        governor pauses, buffer reads), then a CANCEL control frame goes out
        on each mux channel so remote receivers stop at their next frame
        boundary, then the session is marked failed with a typed
        :class:`SessionCancelled` — unless a real outcome already landed
        (a completed result wins the race; cancel never un-completes a
        session) — and finally ``close_session`` releases the admission
        slot, channels, and spill files.

        Returns True if this call was the first to cancel the session,
        False for repeats or unknown/already-closed sessions (idempotent —
        the HA retry path may re-issue the call against a new leader).
        """
        self._ensure_serving()
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            return False
        budget = session.budget
        first = budget.cancel(reason) if budget is not None else False
        # Tell remote receivers over the shared mux wire (memory channels
        # are woken by the budget callbacks instead; their cancel is a no-op).
        for channel in list(session.channels.values()):
            try:
                channel.cancel()
            except TransferError:
                pass  # a torn-down wire just means nobody is listening
        with self._lock:
            if session.error is None and session.result is None:
                session.error = SessionCancelled(
                    f"session {session_id!r} cancelled: {reason}",
                    session_id=session_id,
                )
                session.failed = True
                session.failure_reason = str(session.error)
            session.splits_ready.set()
            session.all_registered.set()
            session.result_ready.set()
        if self.state_store is not None and session.failed:
            self.state_store.record_status(session_id, "failed")
        if session.failed:
            with self._lock:
                while len(self._cancel_tombstones) >= self._TOMBSTONE_CAP:
                    self._cancel_tombstones.pop(next(iter(self._cancel_tombstones)))
                self._cancel_tombstones[session_id] = reason
        self.close_session(session_id)
        return first

    # ------------------------------------------------- step 1: registration

    def register_sql_worker(
        self,
        session_id: str,
        worker_id: int,
        ip: str,
        total_workers: int,
        command: str | None = None,
        args: dict | None = None,
        reregister_ok: bool = False,
    ) -> StreamSession:
        """A SQL worker announces itself; the last one triggers the launch.

        ``reregister_ok`` is the HA retry path: re-registration by the same
        ``(session_id, worker_id)`` converges (idempotent) instead of
        erroring, so a handshake whose response was lost in a failover can
        simply be re-issued against the new leader.
        """
        session = self.session(session_id)
        launch = False
        with self._lock:
            if session.expected_sql_workers is None:
                session.expected_sql_workers = total_workers
            elif session.expected_sql_workers != total_workers:
                raise TransferError(
                    f"inconsistent SQL worker count for {session_id!r}: "
                    f"{session.expected_sql_workers} vs {total_workers}"
                )
            if worker_id in session.sql_workers and not reregister_ok:
                raise TransferError(
                    f"SQL worker {worker_id} registered twice in {session_id!r}"
                )
            session.sql_workers[worker_id] = SqlWorkerInfo(worker_id, ip)
            if command and session.command is None:
                session.command = command
            if args:
                session.args.update(args)
            if len(session.sql_workers) == session.expected_sql_workers:
                session.all_registered.set()
                if not session.launched:
                    session.launched = True
                    launch = True
        if self.state_store is not None:
            self.state_store.record_worker(session_id, worker_id, ip, total_workers)
        if launch:
            if self.state_store is not None:
                self.state_store.record_status(session_id, "launched")
            self._launch(session)  # step 2
        return session

    def _launch(self, session: StreamSession) -> None:
        if self.launcher is None:
            raise TransferError(
                "coordinator has no ML job launcher configured; cannot run "
                f"session {session.session_id!r}"
            )
        if session.command is None:
            raise TransferError(
                f"session {session.session_id!r} has no ML command to launch"
            )

        def run() -> None:
            try:
                result, error = self.launcher(session), None
            except BaseException as exc:  # surfaced to wait_result callers
                result, error = None, exc
            # Under HA the outcome goes through the group, which records it
            # and applies it on whichever replica leads *now* — the session
            # object this thread launched from may belong to a dead leader.
            if self.ha_group is not None:
                self.ha_group.deliver_result(session.session_id, result, error)
            else:
                self._apply_result(session, result, error)

        self.clock.spawn(run, name=f"ml-job-{session.session_id}")

    # ------------------------------------------------ step 3: split planning

    def _session_wait(
        self, session: StreamSession, event: threading.Event, what: str
    ) -> bool:
        """Wait on a session handshake event under the session's budget.

        The flat ``timeout_s`` bound is clamped to the budget's remaining
        time; a cancel sets the session events (registered in
        ``create_session``), so waiters wake promptly and the post-wake
        ``budget.check`` converts the spurious set into the typed error.
        Returns the event state for the caller's seed timeout message.
        """
        budget = session.budget
        if budget is None:
            return self.clock.wait_until(event, self.timeout_s)
        budget.check(what)
        fired = self.clock.wait_until(event, budget.clamp(self.timeout_s))
        budget.check(what)
        return fired

    def plan_input_splits(self, session_id: str, requested: int | None) -> list[ChannelId]:
        """Decide the m InputSplits and create their channels.

        m is ``requested`` when the algorithm pre-specifies it, otherwise
        n·k.  The m splits are divided evenly into n groups, group i drawing
        from SQL worker i — and each split's location is that SQL worker's
        IP, the locality hint of the paper.
        """
        session = self.session(session_id)
        if not self._session_wait(
            session, session.all_registered, "SQL worker registration wait"
        ):
            raise TransferError(
                f"timed out waiting for SQL workers of {session_id!r} to register"
            )
        self._ensure_serving()  # a kill() sets the events to wake waiters
        with self._lock:
            if session.splits_ready.is_set():
                return [cid for group in session.groups.values() for cid in group]
            n = session.expected_sql_workers or 1
            k = int(session.conf_props.get("stream.k", self.default_k))
            m = requested if requested and requested > 0 else n * k
            if m < n:
                m = n  # every SQL worker needs at least one consumer
            base, extra = divmod(m, n)
            channel_ids: list[ChannelId] = []
            index = 0
            for group_position, worker_id in enumerate(sorted(session.sql_workers)):
                group_size = base + (1 if group_position < extra else 0)
                group: list[ChannelId] = []
                for _ in range(group_size):
                    cid = ChannelId(sql_worker_id=worker_id, index=index)
                    spill_path = (
                        f"{session.spill_dir}/spill-{session.session_id}-{worker_id}-{index}.bin"
                        if session.spill_dir
                        else None
                    )
                    local = self._ml_slot_is_local(session, worker_id, index)
                    session.channels[cid] = StreamChannel(
                        cid,
                        buffer_bytes=session.buffer_bytes,
                        ledger=self.cluster.ledger,
                        spill_path=spill_path,
                        local=local,
                        governor=self.spill_governor,
                        tenant=session.tenant,
                        budget=session.budget,
                        clock=self.clock,
                        injector=self.fault_injector,
                        mux=(
                            self._mux_transport_for(worker_id, session)
                            if self.transport == "socket"
                            else None
                        ),
                    )
                    group.append(cid)
                    channel_ids.append(cid)
                    index += 1
                session.groups[worker_id] = group
            session.splits_ready.set()
        if self.channel_registry is not None:
            self.channel_registry.register(session_id, session.channels)
        if self.state_store is not None:
            self.state_store.record_splits(session_id, session.groups)
        return channel_ids

    def _mux_transport_for(self, sql_worker_id: int, session: StreamSession):
        """The shared mux pair for one SQL worker (created on first use).
        Caller holds ``self._lock`` (split planning)."""
        transport = self._mux_transports.get(sql_worker_id)
        if transport is None:
            transport = MuxSocketTransport(
                buffer_bytes=session.buffer_bytes,
                receive_timeout_s=self.timeout_s,
                send_timeout_s=self.timeout_s,
                clock=self.clock,
            )
            self._mux_transports[sql_worker_id] = transport
        return transport

    def _ml_slot_is_local(
        self, session: StreamSession, sql_worker_id: int, _index: int
    ) -> bool:
        """Best-effort colocation: an ML reader spawned for a split whose
        location names a live node is considered placed on that node."""
        info = session.sql_workers.get(sql_worker_id)
        if info is None:
            return False
        return any(node.ip == info.ip for node in self.cluster.nodes)

    def split_location(self, session_id: str, channel_id: ChannelId) -> str:
        """The advertised (locality) host of one split."""
        session = self.session(session_id)
        info = session.sql_workers.get(channel_id.sql_worker_id)
        if info is None:
            raise TransferError(
                f"no SQL worker {channel_id.sql_worker_id} in {session_id!r}"
            )
        return info.ip

    def split_locations(
        self, session_id: str, channel_ids: list[ChannelId]
    ) -> dict[ChannelId, str]:
        """Locality hosts of many splits in one handshake round-trip —
        under HA every call crosses the failover proxy, so the input format
        batches its n·k location lookups instead of paying one per split."""
        return {
            cid: self.split_location(session_id, cid) for cid in channel_ids
        }

    # ------------------------------------------- steps 4-6: matchmaking

    def register_ml_worker(
        self, session_id: str, channel_id: ChannelId, reclaim_ok: bool = False
    ) -> StreamChannel:
        """An ML reader claims its split; returns its receive endpoint.

        ``reclaim_ok`` is the HA retry path: the same reader re-claiming its
        split after a failover gets the same channel back (idempotent by
        ``(session_id, channel_id)``) instead of a "claimed twice" error.
        """
        session = self.session(session_id)
        if not self._session_wait(session, session.splits_ready, "split claim wait"):
            raise TransferError(f"splits of {session_id!r} were never planned")
        self._ensure_serving()  # a kill() sets the events to wake waiters
        with self._lock:
            channel = session.channels.get(channel_id)
            if channel is None:
                raise TransferError(
                    f"no channel {channel_id} in session {session_id!r}"
                )
            if channel_id in session.ml_registrations and not reclaim_ok:
                raise TransferError(f"split {channel_id} claimed twice")
            already = channel_id in session.ml_registrations
            session.ml_registrations.add(channel_id)
        if self.state_store is not None and not already:
            self.state_store.record_ml_claim(session_id, channel_id)
        return channel

    def sql_worker_channels(self, session_id: str, worker_id: int) -> list[StreamChannel]:
        """A SQL worker collects its matched send endpoints (blocks on step 3)."""
        session = self.session(session_id)
        if not self._session_wait(
            session, session.splits_ready, "split planning wait"
        ):
            raise TransferError(
                f"timed out waiting for split planning in {session_id!r} "
                "(was the ML job launched?)"
            )
        self._ensure_serving()  # a kill() sets the events to wake waiters
        with self._lock:
            group = session.groups.get(worker_id)
            if group is None:
                if session.error is not None:
                    raise TransferError(
                        f"ML job of {session_id!r} failed before matchmaking: "
                        f"{session.failure_reason}"
                    )
                raise TransferError(
                    f"SQL worker {worker_id} has no channel group in {session_id!r}"
                )
            return [session.channels[cid] for cid in group]

    # ----------------------------------------------------- results & faults

    def wait_result(self, session_id: str, timeout: float | None = None):
        """Block until the launched ML job finishes; re-raises its error.

        ``timeout=0`` means "poll, don't wait" — only ``None`` selects the
        default (``timeout or default`` would silently turn an explicit 0
        into a multi-second block).

        With a budget armed, the wait is clamped to the session's remaining
        time, and a budget outcome set by a worker re-raises *typed*
        (:class:`DeadlineExceeded` / :class:`SessionCancelled`) rather than
        wrapped, so callers and the recovery ladder can tell the
        non-retryable outcomes apart from transient transfer failures.
        """
        session = self.session(session_id)
        budget = session.budget
        effective = timeout if timeout is not None else self.timeout_s * 4
        if budget is not None and budget.deadline_s is not None:
            effective = budget.clamp(effective)
        if not self.clock.wait_until(session.result_ready, effective):
            if budget is not None:
                budget.check("result wait")
            raise TransferError(f"ML job of session {session_id!r} never finished")
        if budget is not None and session.error is None and session.result is None:
            # Woken by the cancel callback, not a real outcome.
            budget.check("result wait")
        self._ensure_serving()  # a kill() sets the events to wake waiters
        if session.error is not None:
            if isinstance(session.error, (DeadlineExceeded, SessionCancelled)):
                raise session.error
            raise TransferError(
                f"ML job of session {session_id!r} failed: {session.error}"
            ) from session.error
        return session.result

    def notify_channel_failure(
        self, session_id: str, sql_worker_id: int, reason: str = ""
    ) -> dict:
        """§6 hook: record a *fatal* failure and return the restart plan.

        This is the no-recovery tier: the session is marked failed and the
        failed worker's channels abort so stuck readers wake with a typed
        ``ChannelAbortedError`` — not a hang, and not a clean EOF that
        would let a truncated stream ingest (and charge ``ml.ingest``) as
        if it had completed.
        When a :class:`~repro.faults.recovery.RecoveryManager` is installed
        the sender calls :meth:`plan_partial_restart` instead and only falls
        back here once the restart budget is exhausted.
        """
        session = self.session(session_id)
        with self._lock:
            session.failed = True
            session.failure_reason = reason or f"channel of SQL worker {sql_worker_id} failed"
            doomed = [
                session.channels[cid]
                for cid in session.groups.get(sql_worker_id, [])
            ]
        # Abort *outside* the lock: like close(), abort() can block on a
        # buffer/socket a backpressured sender holds, and that sender may be
        # about to call back into the coordinator — doing it under
        # self._lock deadlocks.
        reason = session.failure_reason
        for channel in doomed:
            channel.abort(reason)
        return session.restart_plan(sql_worker_id)

    def plan_partial_restart(
        self, session_id: str, sql_worker_id: int, reason: str = ""
    ) -> dict:
        """§6 executed: the *recoverable* failure path.

        Unlike :meth:`notify_channel_failure` the session stays live and the
        group's channels stay open — the restarted SQL worker will replay
        its partition over them with sequenced blocks, and its k paired ML
        readers (exactly the ``restart_plan`` set, nobody else) dedup the
        replay by block sequence number.  The failure is logged on the
        session (and journaled, so a takeover keeps the restart history).
        """
        session = self.session(session_id)
        entry = {
            "sql_worker_id": sql_worker_id,
            "reason": reason or f"SQL worker {sql_worker_id} failed",
        }
        with self._lock:
            session.recovery_log.append(entry)
            plan = session.restart_plan(sql_worker_id)
        if self.state_store is not None:
            self.state_store.record_recovery(session_id, entry)
        return plan

    def record_heartbeat(self, session_id: str, worker_id: int) -> None:
        """Liveness beat from a streaming worker (delegates to recovery).

        Beats cross the control plane — under HA they go through the
        failover proxy, which is what makes a mid-stream leader kill
        observable and survivable (the shared RecoveryManager keeps the
        heartbeat history across takeovers).
        """
        self._ensure_serving()
        if self.recovery is not None:
            self.recovery.heartbeat(session_id, worker_id)

    # ------------------------------------------------- §6 active liveness

    def start_liveness_monitor(
        self,
        interval_s: float = 0.5,
        clock=None,
        sleep=None,
    ):
        """Run a coordinator-side failure detector: a daemon thread that
        periodically sweeps heartbeat timestamps and turns stale workers
        into proactive :meth:`plan_partial_restart` calls, instead of
        waiting for a sender to notice its own death.  Returns the monitor
        (idempotent — an already-running monitor is returned as is)."""
        if self.recovery is None:
            raise TransferError("liveness monitoring needs a RecoveryManager")
        if self._monitor is None:
            from repro.faults.recovery import LivenessMonitor

            kwargs = {"clock": clock if clock is not None else self.clock}
            if sleep is not None:
                kwargs["sleep"] = sleep
            self._monitor = LivenessMonitor(
                self, self.recovery, interval_s=interval_s, **kwargs
            )
            self._monitor.start()
        return self._monitor

    def stop_liveness_monitor(self) -> None:
        if self._monitor is not None:
            self._monitor.stop()
            self._monitor = None
