"""Fault-tolerant cluster runtime: injection, detection, recovery.

The executable form of the determinism-under-failure claim: a cluster
run that loses a node mid-flight must — after heartbeat detection,
fencing, event-log replay and re-execution — produce output
bit-identical to the fault-free run.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import (
    AgeExpr,
    ExecutionNode,
    FieldDef,
    KernelDef,
    NodeFailureError,
    Program,
    RuntimeStateError,
    StoreSpec,
    WorkCounter,
)
from repro.core.kernels import Run
from repro.dist import (
    Cluster,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    Heartbeat,
    Heartbeater,
    HeartbeatMonitor,
    InProcTransport,
    LIVENESS_TOPIC,
    MasterNode,
    LocalTopology,
    ProcessorSpec,
    RecoveryConfig,
)
from repro.dist.faults import _FaultBackend
from repro.media import synthetic_sequence
from repro.obs import flatten
from repro.workloads import (
    MJPEGConfig,
    build_kmeans,
    build_mjpeg,
    build_mulsum,
    expected_series,
    kmeans_baseline,
    mjpeg_baseline,
)
from tests.conftest import assert_registries_agree

FAST = RecoveryConfig(heartbeat_interval=0.01, heartbeat_timeout=0.1)


def injector(*specs: FaultSpec) -> FaultInjector:
    return FaultInjector(FaultSchedule(specs))


def run(program, nodes, transport=None, **kw):
    """``Cluster(...).run(**kw)``, then the one-table invariant."""
    cluster = Cluster(program, nodes, transport)
    res = cluster.run(**kw)
    assert_registries_agree(cluster, res)
    return res


class TestFaultSchedule:
    def test_spec_validation(self):
        with pytest.raises(RuntimeStateError):
            FaultSpec("a", "explode")
        with pytest.raises(RuntimeStateError):
            FaultSpec("a", "kill", -1)

    def test_parse(self):
        assert FaultSpec.parse("n1:kill:5") == FaultSpec("n1", "kill", 5)
        assert FaultSpec.parse("n1:drop") == FaultSpec("n1", "drop", 0)
        assert FaultSpec.parse("n1") == FaultSpec("n1", "kill", 0)

    def test_json_round_trip(self):
        sched = FaultSchedule(
            [FaultSpec("a", "kill", 3), FaultSpec("b", "drop", 1)], seed=42
        )
        back = FaultSchedule.from_json(sched.to_json())
        assert back.specs == sched.specs
        assert back.seed == 42

    def test_random_is_seed_deterministic(self):
        nodes = ["a", "b", "c"]
        s1 = FaultSchedule.random(nodes, 7, kinds=("kill", "drop"))
        s2 = FaultSchedule.random(nodes, 7, kinds=("kill", "drop"))
        assert s1.specs == s2.specs
        assert FaultSchedule.random(nodes, 8).specs != () or True


class TestHeartbeatDetection:
    def test_silence_declares_dead(self):
        t = InProcTransport()
        mon = HeartbeatMonitor(t, timeout=0.05)
        mon.watch("n1")
        assert mon.check() == []
        time.sleep(0.08)
        assert mon.check() == ["n1"]
        # one-shot: not reported twice
        assert mon.check() == []
        assert "no heartbeat" in mon.failures()["n1"]

    def test_beats_keep_node_alive(self):
        t = InProcTransport()
        mon = HeartbeatMonitor(t, timeout=0.08)
        mon.watch("n1")
        for seq in range(4):
            t.publish(LIVENESS_TOPIC, "n1",
                      Heartbeat("n1", seq, seq, 0, 0), control=True)
            time.sleep(0.03)
            assert mon.check() == []

    def test_frozen_progress_with_backlog_is_a_stall(self):
        t = InProcTransport()
        mon = HeartbeatMonitor(t, timeout=10.0, progress_timeout=0.05)
        mon.watch("n1")
        for seq in range(5):
            t.publish(LIVENESS_TOPIC, "n1",
                      Heartbeat("n1", seq, executed=3, busy=1, backlog=2),
                      control=True)
            time.sleep(0.02)
        assert mon.check() == ["n1"]
        assert "no progress" in mon.failures()["n1"]

    def test_idle_node_is_not_a_stall(self):
        t = InProcTransport()
        mon = HeartbeatMonitor(t, timeout=10.0, progress_timeout=0.05)
        mon.watch("n1")
        for seq in range(5):
            t.publish(LIVENESS_TOPIC, "n1",
                      Heartbeat("n1", seq, executed=3, busy=0, backlog=0),
                      control=True)
            time.sleep(0.02)
        assert mon.check() == []

    def test_a_worker_inside_an_unaged_claim_is_busy(self):
        """A run-once body (``init`` has no age) that hangs still holds
        its worker: the node's beat counts it busy, so the monitor
        reports a progress stall instead of an idle node."""
        started, release = threading.Event(), threading.Event()

        def init(ctx):
            started.set()
            release.wait()

        program = Program.build(
            [FieldDef("f", "int64", 1)],
            [KernelDef("init", init,
                       stores=(StoreSpec("f", AgeExpr.const(0), key="f"),))],
        )
        t = InProcTransport()
        mon = HeartbeatMonitor(t, timeout=10.0, progress_timeout=0.05)
        mon.watch("n1")
        beats = []
        t.subscribe(LIVENESS_TOPIC, "probe",
                    lambda msg: beats.append(msg.payload))
        counter = WorkCounter()
        node = ExecutionNode(program, 2, name="n1", counter=counter)
        beater = Heartbeater(node, t, interval=0.01)
        counter.inc()
        node.start()
        try:
            assert started.wait(10)
            beater.start()
            deadline = time.monotonic() + 10
            while len(beats) < 10 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [b.busy for b in beats[-3:]] == [1, 1, 1]
            assert beats[-1].backlog == 0
            assert mon.check() == ["n1"]
            assert "no progress" in mon.failures()["n1"]
        finally:
            beater.stop()
            release.set()
            node.wind_down()
            counter.dec()

    def test_unwatched_node_never_reported(self):
        t = InProcTransport()
        mon = HeartbeatMonitor(t, timeout=0.02)
        mon.watch("n1")
        mon.unwatch("n1")
        time.sleep(0.05)
        assert mon.check() == []


def rows(n):
    """A claim of ``n`` rows of one kernel at age 0."""
    k = KernelDef("k", lambda ctx: None, index_vars=("x",),
                  domain={"x": n})
    return Run(k, 0, np.arange(n, dtype=np.intp).reshape(n, 1))


class Inner:
    """The wrapped backend: records each slice it is handed, and the
    transport's dropped senders when it is."""

    name = "fake"

    def __init__(self, transport=None):
        self.calls = []
        self.transport = transport

    def execute_batch(self, batch, worker_id):
        cut = self.transport.dropped_senders() if self.transport else None
        self.calls.append((batch.rows[:, 0].tolist(), cut))


def execute(inj, n, transport=None):
    """One ``n``-row claim through a failable node ``n``'s backend;
    returns the inner backend's slices (row lists, dropped senders)."""
    inner = Inner(transport)
    _FaultBackend(inner, "n", inj).execute_batch(rows(n), 0)
    return inner.calls


class TestInjectorUnit:
    """The claim API: the injector admits a claim's rows up to the next
    due fault boundary, and the backend hands each admitted stretch to
    the inner backend as one slice."""

    def test_trigger_counts_instances(self):
        inj = injector(FaultSpec("n", "kill", 2))
        inj.release("n")  # as after teardown: frozen workers return at once
        assert execute(inj, 1) == [([0], None)]
        assert execute(inj, 3) == [([0], None)]  # fires before row 1
        assert inj.executed("n") == 2
        assert [f.at_instances for f in inj.fired] == [2]
        assert inj.is_down("n")
        assert inj.heartbeats_suppressed("n")
        assert inj.captive_count("n") == 2
        # subsequent claims are captured whole
        assert execute(inj, 5) == []
        assert inj.captive_count("n") == 7
        assert inj.executed("n") == 2

    def test_batch_of_32_stops_at_the_scheduled_instance(self):
        """A kill scheduled after the 4th instance fires there even when
        all 32 arrive as one claim: rows 0-3 run as one slice, the other
        28 are captive."""
        inj = injector(FaultSpec("n", "kill", 4))
        inj.release("n")
        assert execute(inj, 32) == [([0, 1, 2, 3], None)]
        assert inj.fired[0].at_instances == 4
        assert inj.executed("n") == 4
        assert inj.captive_count("n") == 28

    def test_stall_keeps_heartbeats(self):
        inj = injector(FaultSpec("n", "stall", 0))
        inj.release("n")
        assert execute(inj, 3) == []
        assert inj.is_down("n")
        assert not inj.heartbeats_suppressed("n")
        assert inj.captive_count("n") == 3

    def test_drop_partitions_transport(self):
        """A drop after 3 rows of 8 cuts the claim in two: the first
        slice runs connected, the partition is in force for the
        second."""
        t = InProcTransport()
        c = WorkCounter()
        inj = injector(FaultSpec("n", "drop", 3))
        inj.attach(t, c)
        assert execute(inj, 8, t) == [
            ([0, 1, 2], set()), ([3, 4, 5, 6, 7], {"n"}),
        ]
        assert inj.fired[0].at_instances == 3
        assert inj.executed("n") == 8
        assert not inj.is_down("n")
        assert c.value() == 1  # fault token held
        inj.release_token("n")
        assert c.value() == 0

    def test_two_specs_in_one_claim_fire_in_trigger_order(self):
        """Listed kill-first, the drop after 2 still fires before the
        kill after 5; each is exact per instance."""
        t = InProcTransport()
        inj = injector(FaultSpec("n", "kill", 5), FaultSpec("n", "drop", 2))
        inj.attach(t, WorkCounter())
        inj.release("n")
        assert execute(inj, 8, t) == [([0, 1], set()), ([2, 3, 4], {"n"})]
        assert [(f.spec.kind, f.at_instances) for f in inj.fired] == [
            ("drop", 2), ("kill", 5),
        ]
        assert inj.executed("n") == 5
        assert inj.captive_count("n") == 3

    def test_exact_name_match_spares_replacement(self):
        inj = injector(FaultSpec("n", "kill", 0))
        inj.release("n")
        inner = Inner()
        _FaultBackend(inner, "n~1", inj).execute_batch(rows(4), 0)
        assert inner.calls == [([0, 1, 2, 3], None)]
        assert inj.executed("n~1") == 4 and not inj.fired
        assert execute(inj, 4) == []
        assert inj.is_down("n") and not inj.is_down("n~1")


class TestKillRecovery:
    def test_mulsum_bit_identical_after_kill(self):
        program, sink = build_mulsum()
        res = run(
            program, {"a": 2, "b": 2},
            max_age=3, timeout=60,
            faults=injector(FaultSpec("a", "kill", 3)), recovery=FAST,
        )
        assert res.reason == "idle"
        assert len(res.recoveries) == 1
        rec = res.recoveries[0]
        assert rec.failed == "a"
        assert rec.replacement == "a~1"
        assert rec.replayed > 0
        expected = expected_series(4)
        for age in expected:
            assert np.array_equal(sink[age][0], expected[age][0])
            assert np.array_equal(sink[age][1], expected[age][1])

    def test_kill_fires_on_schedule_under_batching(self):
        program, sink = build_mulsum()
        inj = injector(FaultSpec("a", "kill", 3))
        res = run(
            program, {"a": 2, "b": 2},
            max_age=3, timeout=60, batch=32, faults=inj, recovery=FAST,
        )
        assert res.reason == "idle"
        assert [f.at_instances for f in inj.fired] == [3]
        assert inj.executed("a") == 3
        assert len(res.recoveries) == 1
        expected = expected_series(4)
        for age in expected:
            assert np.array_equal(sink[age][0], expected[age][0])
            assert np.array_equal(sink[age][1], expected[age][1])

    @pytest.mark.parametrize("victim", ["a", "b", "c"])
    def test_mjpeg_kill_each_node_byte_identical(self, victim):
        """One of three nodes dies mid-encode; the recovered stream must
        equal the fault-free baseline byte for byte."""
        cfg = MJPEGConfig(width=64, height=64, frames=3)
        clip = synthetic_sequence(3, 64, 64, cfg.seed)
        program, sink = build_mjpeg(clip, cfg)
        res = run(
            program, {"a": 2, "b": 1, "c": 1},
            timeout=300,
            faults=injector(FaultSpec(victim, "kill", 1)), recovery=FAST,
        )
        assert res.reason == "idle"
        assert len(res.recoveries) == 1
        assert sink.stream() == mjpeg_baseline(clip, cfg)

    def test_kmeans_centroids_identical_after_kill(self):
        program, sink = build_kmeans(n=60, k=5, iterations=3,
                                     granularity="point")
        res = run(
            program, {"a": 2, "b": 1, "c": 1},
            timeout=120,
            faults=injector(FaultSpec("b", "kill", 2)), recovery=FAST,
        )
        assert res.reason == "idle"
        base = kmeans_baseline(n=60, k=5, iterations=3)
        for age in base.history:
            assert np.allclose(sink.history[age], base.history[age])

    def test_recovery_instrumentation_counters(self):
        program, sink = build_mulsum()
        res = run(
            program, {"a": 2, "b": 2},
            max_age=3, timeout=60,
            faults=injector(FaultSpec("a", "kill", 2)), recovery=FAST,
        )
        # A recovery is recorded once: the record and the recovery.*
        # metrics (the kernel-stats collector carries no copy).
        (rec,) = res.recoveries
        assert rec.attempt == 1
        assert rec.recovery_s > 0
        assert rec.replayed > 0
        flat = flatten(res.metrics.snapshot())
        assert flat["recovery.node_failures"] == 1
        assert flat["recovery.replayed"] == rec.replayed
        assert flat["recovery.recovery_s.count"] == 1
        assert not hasattr(res.instrumentation, "node_failures")

    def test_topology_records_failure(self):
        """Without ``elastic=`` too, the one table carries the whole
        story and the assignment follows the rename."""
        program, sink = build_mulsum()
        cluster = Cluster(program, {"a": 2, "b": 2})
        res = cluster.run(
            max_age=3, timeout=60,
            faults=injector(FaultSpec("b", "kill", 2)), recovery=FAST,
        )
        table = cluster.master.topology
        assert table.failed_nodes() == ["b"]
        assert table.node_names() == ["a", "b~1"]
        assert table.state("b") == "dead"
        assert table.state("b~1") == "active"
        assert res.assignment.nodes() == ["a", "b~1"]
        assert res.membership is None  # not an elastic run
        assert cluster.transport.membership is None
        assert_registries_agree(cluster, res)


class TestOtherFaultKinds:
    def test_drop_partition_recovers(self):
        """A partitioned node's events are lost in flight but retained in
        the log; replay plus re-announcing skip-stores feeds the starved
        consumers."""
        program, sink = build_mulsum()
        res = run(
            program, {"a": 2, "b": 2},
            max_age=3, timeout=60,
            faults=injector(FaultSpec("a", "drop", 2)), recovery=FAST,
        )
        assert res.reason == "idle"
        assert len(res.recoveries) == 1
        expected = expected_series(4)
        for age in expected:
            assert np.array_equal(sink[age][0], expected[age][0])

    def test_stall_detected_by_progress_watchdog(self):
        program, sink = build_mulsum()
        cfg = RecoveryConfig(heartbeat_interval=0.01,
                             heartbeat_timeout=2.0,
                             progress_timeout=0.15)
        res = run(
            program, {"a": 2, "b": 2},
            max_age=3, timeout=60,
            faults=injector(FaultSpec("a", "stall", 2)), recovery=cfg,
        )
        assert res.reason == "idle"
        assert len(res.recoveries) == 1
        assert "no progress" in res.recoveries[0].reason
        expected = expected_series(4)
        for age in expected:
            assert np.array_equal(sink[age][0], expected[age][0])


class TestUnrecoverable:
    def test_restart_budget_exhausted(self):
        program, _ = build_mulsum()
        faults = injector(
            FaultSpec("a", "kill", 2),
            FaultSpec("a~1", "kill", 1),
            FaultSpec("a~2", "kill", 1),
        )
        cfg = RecoveryConfig(heartbeat_interval=0.01,
                             heartbeat_timeout=0.08, max_restarts=2)
        with pytest.raises(NodeFailureError) as exc_info:
            Cluster(program, {"a": 2, "b": 2}).run(
                max_age=3, timeout=60, faults=faults, recovery=cfg,
            )
        assert exc_info.value.failures == [
            ("a", 1), ("a~1", 2), ("a~2", 3)
        ]

    def test_no_surviving_node(self):
        program, _ = build_mulsum()
        with pytest.raises(NodeFailureError, match="no registered node"):
            Cluster(program, {"solo": 2}).run(
                max_age=3, timeout=60,
                faults=injector(FaultSpec("solo", "kill", 2)),
                recovery=FAST,
            )


class TestOptIn:
    def test_default_run_has_no_control_traffic(self):
        """Without faults/recovery nothing changes: no heartbeats, no
        event log, stats identical to the pre-fault-tolerance layer."""
        program, _ = build_mulsum()
        transport = InProcTransport()
        run(program, {"solo": 2}, transport, max_age=1, timeout=60)
        assert transport.stats.messages == 0
        assert transport.log_size() == 0

    def test_ft_single_node_still_zero_data_messages(self):
        """Heartbeats are control traffic: invisible in the store/resize
        accounting even with recovery armed."""
        program, sink = build_mulsum()
        transport = InProcTransport()
        res = run(
            program, {"solo": 2}, transport,
            max_age=1, timeout=60, recovery=FAST,
        )
        assert res.reason == "idle"
        assert transport.stats.messages == 0

    def test_master_host_selection(self):
        m = MasterNode()
        m.register(LocalTopology("a", (ProcessorSpec("cpu", 2),)))
        m.register(LocalTopology("b", (ProcessorSpec("cpu", 4),)))
        assert m.select_host() == "b"
        assert m.select_host(exclude=("b",)) == "a"
        m.on_failure("b")
        assert m.select_host() == "a"
        assert m.topology.failed_nodes() == ["b"]
        m.on_failure("a")
        assert m.select_host() is None
