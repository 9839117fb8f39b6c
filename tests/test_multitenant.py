"""Multi-tenant serving: admission, shared worker pool, mux, isolation."""

import threading
import time

import pytest

from repro import make_deployment
from repro.common.errors import AdmissionError
from repro.faults import FaultConfig, FaultInjector
from repro.transfer.admission import (
    SessionAdmission,
    SpillGovernor,
    WorkerPoolScheduler,
)
from repro.workloads.loadgen import (
    BASE_SEED,
    make_points_table,
    run_closed_loop,
    run_one_session,
    solo_weights,
    verify_against_solo,
)


def loaded_deployment(**kwargs):
    deployment = make_deployment(**kwargs)
    make_points_table(deployment.engine)
    return deployment


# --------------------------------------------------------------------------
# SessionAdmission units
# --------------------------------------------------------------------------


class TestSessionAdmission:
    def test_admits_up_to_cap_then_queues(self):
        gate = SessionAdmission(max_concurrent_sessions=2, timeout_s=5.0)
        assert gate.acquire("a") is True
        assert gate.acquire("b") is True
        assert gate.running_count() == 2

        admitted = threading.Event()

        def third():
            gate.acquire("c")
            admitted.set()

        t = threading.Thread(target=third)
        t.start()
        deadline = time.monotonic() + 2.0
        while gate.queued_count() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert gate.queued_count() == 1
        assert not admitted.is_set()

        gate.release("a")
        assert admitted.is_set() or admitted.wait(2.0)
        t.join()
        assert gate.running_count() == 2
        assert gate.queued_count() == 0

    def test_acquire_is_idempotent_by_session_id(self):
        gate = SessionAdmission(max_concurrent_sessions=1)
        assert gate.acquire("a") is True
        # The HA create_session retry: same session must not double-charge.
        assert gate.acquire("a") is False
        assert gate.running_count() == 1

    def test_over_quota_tenant_queues_without_disturbing_others(self):
        gate = SessionAdmission(
            max_concurrent_sessions=4, tenant_quotas={"noisy": 1}, timeout_s=5.0
        )
        assert gate.acquire("n1", tenant="noisy") is True

        promoted = threading.Event()
        t = threading.Thread(
            target=lambda: (gate.acquire("n2", tenant="noisy"), promoted.set())
        )
        t.start()
        deadline = time.monotonic() + 2.0
        while gate.queued_count() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        # The quiet tenant sails past the queued noisy one (fair skip).
        assert gate.acquire("q1", tenant="quiet") is True
        assert not promoted.is_set()
        assert gate.queue_state()["running"] == {"n1": "noisy", "q1": "quiet"}

        gate.release("n1")
        assert promoted.wait(2.0)
        t.join()
        assert gate.queue_state()["running"] == {"q1": "quiet", "n2": "noisy"}

    def test_full_queue_rejects_with_admission_error(self):
        gate = SessionAdmission(
            max_concurrent_sessions=1, max_queue_depth=1, timeout_s=5.0
        )
        gate.acquire("a")
        t = threading.Thread(target=lambda: gate.acquire("b"))
        t.start()
        deadline = time.monotonic() + 2.0
        while gate.queued_count() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        with pytest.raises(AdmissionError, match="queue full"):
            gate.acquire("c")
        assert gate.stats.rejected == 1
        gate.release("a")
        t.join()

    def test_wait_timeout_raises(self):
        gate = SessionAdmission(max_concurrent_sessions=1, timeout_s=0.05)
        gate.acquire("a")
        with pytest.raises(AdmissionError, match="waited"):
            gate.acquire("b")
        assert gate.stats.timeouts == 1
        # The timed-out ticket left the queue; release promotes nobody dead.
        gate.release("a")
        assert gate.acquire("c") is True


# --------------------------------------------------------------------------
# WorkerPoolScheduler units
# --------------------------------------------------------------------------


class TestWorkerPoolScheduler:
    def test_least_held_first_grant(self):
        pool = WorkerPoolScheduler(total_slots=2, timeout_s=5.0)
        pool.acquire_slot("wide")
        pool.acquire_slot("wide")

        order: list[str] = []

        def claim(session):
            pool.acquire_slot(session)
            order.append(session)

        wide = threading.Thread(target=claim, args=("wide",))
        wide.start()
        deadline = time.monotonic() + 2.0
        while pool.waits == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        narrow = threading.Thread(target=claim, args=("narrow",))
        narrow.start()
        time.sleep(0.05)

        # Free one slot: it must go to the narrow session (holds 0 slots),
        # not the wide one that queued first but already holds 2.
        pool.release_slot("wide")
        narrow.join(2.0)
        assert order == ["narrow"]
        pool.release_slot("narrow")
        wide.join(2.0)
        assert order == ["narrow", "wide"]
        assert pool.waits == 2

    def test_timeout_raises_admission_error(self):
        pool = WorkerPoolScheduler(total_slots=1, timeout_s=0.05)
        pool.acquire_slot("a")
        with pytest.raises(AdmissionError, match="worker slot"):
            pool.acquire_slot("b")
        pool.release_slot("a")


# --------------------------------------------------------------------------
# SpillGovernor units: backpressure isolation
# --------------------------------------------------------------------------


class TestSpillGovernor:
    def test_over_budget_tenant_throttles_only_itself(self):
        governor = SpillGovernor(tenant_budgets={"a": 100, "b": 100}, timeout_s=5.0)
        governor.charge("a", 150)

        # Tenant b is under budget: throttle returns immediately.
        start = time.perf_counter()
        governor.throttle("b")
        assert time.perf_counter() - start < 0.05
        assert governor.throttled == 0

        # Tenant a's sender pauses until a's own reader drains the spill.
        def drain():
            time.sleep(0.05)
            governor.credit("a", 100)

        t = threading.Thread(target=drain)
        t.start()
        governor.throttle("a")
        t.join()
        assert governor.throttled == 1
        assert governor.forced_through == 0
        assert governor.outstanding("a") == 50

    def test_throttle_bound_forces_through(self):
        governor = SpillGovernor(tenant_budgets={"a": 10}, timeout_s=0.05)
        governor.charge("a", 50)
        governor.throttle("a")  # nobody credits: bounded wait, then proceed
        assert governor.forced_through == 1

    def test_unbudgeted_tenant_never_touched(self):
        governor = SpillGovernor(tenant_budgets={"a": 10})
        governor.charge("other", 10**9)
        governor.throttle("other")
        assert governor.throttled == 0


# --------------------------------------------------------------------------
# End-to-end: interleaved sessions over one deployment
# --------------------------------------------------------------------------


class TestMultitenantServing:
    def test_interleaved_sessions_train_identically_to_solo(self):
        loaded = loaded_deployment(max_concurrent_sessions=4)
        report = run_closed_loop(loaded, num_sessions=8, num_clients=8)
        assert not report.failures

        solo = loaded_deployment(max_concurrent_sessions=4)
        baselines = solo_weights(solo, [BASE_SEED + i for i in range(8)])
        assert verify_against_solo(report, baselines)
        # Sessions genuinely interleaved: some had to wait behind the cap.
        assert loaded.cluster.ledger.get("admission.queued") > 0

    def test_over_quota_tenant_queues_while_session_runs_clean(self):
        deployment = loaded_deployment(
            max_concurrent_sessions=4, tenant_quotas={"noisy": 1}
        )
        results = {}

        def run(idx, tenant):
            results[idx] = run_one_session(
                deployment, f"s{idx}", seed=BASE_SEED + idx, tenant=tenant
            )

        threads = [
            threading.Thread(target=run, args=(i, "noisy")) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert all(o.error is None for o in results.values())
        assert deployment.cluster.ledger.get("admission.queued") >= 1
        # Quota honored throughout: never more than 1 noisy session at once.
        assert deployment.coordinator.admission.stats.peak_running <= 4

        solo = loaded_deployment(max_concurrent_sessions=4)
        baselines = solo_weights(solo, [BASE_SEED + i for i in range(3)])
        for i, outcome in results.items():
            assert baselines[BASE_SEED + i] == outcome.weights + (outcome.intercept,)

    def test_socket_sessions_multiplex_one_transport(self):
        deployment = loaded_deployment(
            transport="socket", max_concurrent_sessions=4
        )
        report = run_closed_loop(
            deployment, num_sessions=4, num_clients=4, session_prefix="mux"
        )
        assert not report.failures

        solo = loaded_deployment(transport="socket", max_concurrent_sessions=4)
        baselines = solo_weights(solo, [BASE_SEED + i for i in range(4)])
        assert verify_against_solo(report, baselines)
        # Sessions shared per-SQL-worker mux transports, one per worker.
        assert len(deployment.coordinator._mux_transports) == len(
            deployment.cluster.workers
        )

    def test_socket_mux_channels_are_mux_channels(self):
        deployment = loaded_deployment(
            transport="socket", max_concurrent_sessions=2
        )
        deployment.coordinator.create_session(
            "probe",
            command="noop",
            conf_props={"record.format": "raw"},
        )
        deployment.engine.query_rows(
            "SELECT * FROM TABLE(stream_transfer((SELECT f1, f2, label "
            "FROM points), 'probe')) AS s"
        )
        deployment.coordinator.wait_result("probe")
        session = deployment.coordinator.session("probe")
        assert session.channels
        # Every channel is a tag on its SQL worker's one shared mux pair.
        transports = deployment.coordinator._mux_transports
        for cid, channel in session.channels.items():
            assert channel.pipe.transport is transports[cid.sql_worker_id]
        deployment.coordinator.close_session("probe")

    def test_worker_kill_recovers_only_the_affected_session(self):
        injector = FaultInjector(FaultConfig(seed=0, kill_at={1: 50}))
        deployment = make_deployment(
            max_concurrent_sessions=2, fault_injector=injector
        )
        make_points_table(deployment.engine)

        results = {}

        def run(idx):
            sid = f"chaos{idx}"
            deployment.coordinator.create_session(
                sid,
                command="svm_with_sgd",
                args={"iterations": 3, "seed": BASE_SEED + idx},
                conf_props={"record.format": "labeled_csv", "label.index": -1},
            )
            deployment.engine.query_rows(
                "SELECT * FROM TABLE(stream_transfer((SELECT f1, f2, label "
                f"FROM points), '{sid}')) AS s"
            )
            result = deployment.coordinator.wait_result(sid)
            session = deployment.coordinator.session(sid)
            results[idx] = (
                tuple(float(w) for w in result.model.weights)
                + (float(result.model.intercept),),
                len(session.recovery_log),
            )
            deployment.coordinator.close_session(sid)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Both sessions completed despite the kill...
        assert len(results) == 2
        assert injector.counts["kill"] == 1
        # ...and exactly one of them carries the recovery scar.
        assert sorted(scars for _w, scars in results.values()) == [0, 1]

        # Recovery was exactly-once: both match their solo baselines.
        solo = loaded_deployment(max_concurrent_sessions=2)
        baselines = solo_weights(solo, [BASE_SEED, BASE_SEED + 1])
        for i, (weights, _scars) in results.items():
            assert baselines[BASE_SEED + i] == weights

    def test_default_deployment_keeps_ledger_bit_identical(self):
        # Seed behavior: no multi-tenant machinery, no new ledger categories.
        plain = loaded_deployment()
        assert plain.coordinator.admission is None
        assert plain.coordinator.worker_pool is None
        run_one_session(plain, "solo0", seed=BASE_SEED)
        snapshot = plain.cluster.ledger.snapshot()
        for key in snapshot:
            assert not key.startswith(("admission.", "scheduler.", "governor."))

        # Same single-session workload under an admission cap: the stream
        # byte ledgers (what Figures 3/4 report) are untouched.
        capped = loaded_deployment(max_concurrent_sessions=4)
        run_one_session(capped, "solo0", seed=BASE_SEED)
        capped_snapshot = capped.cluster.ledger.snapshot()
        for key in ("stream.sent", "stream.net", "ml.ingest"):
            assert capped_snapshot.get(key) == snapshot.get(key), key
