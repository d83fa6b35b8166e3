"""Elastic membership integration: join, drain, chaos scale-out.

The load-bearing properties:

* **Byte-identity across migration** — scaling a running cluster (join
  or drain) must be invisible in every session's output: fence +
  event-log replay re-derives exactly the state the moved kernels had.
* **Clean drain is not a failure** — a planned drain never involves the
  :class:`~repro.dist.recovery.RecoveryManager` (the node table says
  ``draining``, the succession unwatches before it fences) and never
  truncates a stream.
* **Chaos scale-out** — doubling the offered fps mid-run and scaling
  2→4 nodes keeps the gold tier at zero sheds, with the migration
  travelling ``scale.plan``/``scale.commit`` and flipping the
  membership epoch.
"""

import threading
import time

import pytest

from repro.core import SchedulerError
from repro.dist import Cluster, ElasticityConfig, RecoveryConfig
from repro.stream import StreamConfig, merge_sessions
from repro.workloads import MJPEGConfig, build_mjpeg_stream, mjpeg_baseline
from tests.conftest import assert_registries_agree

FAST = RecoveryConfig(heartbeat_interval=0.01, heartbeat_timeout=0.5)


def make_session(name, *, frames=6, seed=1234, size=32, **scfg_kw):
    cfg = MJPEGConfig(width=size, height=size, frames=frames, seed=seed)
    kw = dict(fps=0, max_frames=frames, lag_window=4)
    kw.update(scfg_kw)
    program, sink, binding = build_mjpeg_stream(cfg, StreamConfig(**kw))
    from repro.stream import SessionSpec

    return SessionSpec(name, program, binding), sink, cfg


def run_elastic(cluster, scale, *, delay=0.12, **run_kw):
    """Run the cluster on this thread; fire ``scale(cluster)`` from a
    side thread once the run is in flight plus ``delay`` seconds."""
    fired = threading.Event()
    failures = []

    def trigger():
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            rt = cluster._rt
            if rt is not None and rt.running:
                break
            time.sleep(0.005)
        time.sleep(delay)
        try:
            scale(cluster)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)
        fired.set()

    t = threading.Thread(target=trigger, daemon=True)
    t.start()
    result = cluster.run(**run_kw)
    fired.wait(timeout=30)
    if failures:
        raise failures[0]
    assert_registries_agree(cluster, result)
    return result


class TestJoin:
    def test_midrun_join_is_byte_identical(self):
        """Scale 2→3 while frames are in flight: every session's output
        must match its solo baseline, and the migration must have
        actually moved kernels behind a plan/commit pair."""
        specs, sinks, cfgs = [], {}, {}
        for i in range(2):
            spec, sink, cfg = make_session(
                f"j{i}", frames=30, seed=500 + i, fps=100, lag_window=8
            )
            specs.append(spec)
            sinks[spec.name] = sink
            cfgs[spec.name] = cfg
        merged = merge_sessions(specs)
        cluster = Cluster(merged, {"n0": 2, "n1": 2})
        result = run_elastic(
            cluster, lambda c: c.add_node("n2", workers=2),
            sessions=specs, timeout=300, stall_timeout=120,
            elastic=True,
        )
        assert result.reason == "idle"
        assert len(result.migrations) == 1
        mig = result.migrations[0]
        assert mig.reason == "join:n2"
        assert mig.moved_kernels > 0
        assert mig.built  # the newcomer (at least) was built
        assert result.membership["nodes"]["n2"] == "active"
        assert result.membership["epoch"] >= 2  # joining -> active
        for name in sinks:
            r = result.stream.sessions[name]
            assert r.offered == r.completed == 30
            assert sinks[name].stream() == mjpeg_baseline(
                config=cfgs[name]
            )

    def test_membership_ops_need_elastic_run(self):
        spec, _, _ = make_session("x", frames=2)
        cluster = Cluster(merge_sessions([spec]), {"n0": 2})
        with pytest.raises(SchedulerError):
            cluster.add_node("n1")
        with pytest.raises(SchedulerError):
            cluster.drain_node("n0")
        with pytest.raises(SchedulerError):
            cluster.set_offered_rate(10.0)

    def test_non_elastic_run_unchanged(self):
        """Without ``elastic=`` the membership machinery stays cold: no
        routing gate, no epoch churn, byte-identical output."""
        spec, sink, cfg = make_session("cold", frames=5)
        cluster = Cluster(merge_sessions([spec]), {"n0": 2, "n1": 2})
        result = cluster.run(
            sessions=[spec], timeout=120, stall_timeout=60
        )
        assert cluster.transport.membership is None
        assert result.membership is None
        assert result.transport.stale_rejects == 0
        assert sink.stream() == mjpeg_baseline(config=cfg)
        assert_registries_agree(cluster, result)


class TestDrain:
    def test_clean_drain_no_recovery_no_truncation(self):
        """The regression the draining grace state exists for: a planned
        drain under a *live* recovery manager must not look like a
        failure — no RecoveryRecord, no stream truncation."""
        specs, sinks, cfgs = [], {}, {}
        for i in range(2):
            spec, sink, cfg = make_session(
                f"d{i}", frames=30, seed=700 + i, fps=100, lag_window=8
            )
            specs.append(spec)
            sinks[spec.name] = sink
            cfgs[spec.name] = cfg
        merged = merge_sessions(specs)
        cluster = Cluster(merged, {"n0": 2, "n1": 2, "n2": 2})
        result = run_elastic(
            cluster, lambda c: c.drain_node("n2"),
            sessions=specs, timeout=300, stall_timeout=120,
            recovery=FAST, elastic=True,
        )
        assert result.reason == "idle"
        assert result.recoveries == []  # drain never woke the manager
        assert len(result.migrations) == 1
        assert result.migrations[0].reason == "drain:n2"
        assert result.membership["nodes"]["n2"] == "left"
        for name in sinks:
            r = result.stream.sessions[name]
            assert r.offered == r.completed == 30  # no truncation
            assert r.shed == 0
            assert sinks[name].stream() == mjpeg_baseline(
                config=cfgs[name]
            )

    def test_drain_last_node_rejected(self):
        spec, _, _ = make_session("solo", frames=30, fps=100)
        cluster = Cluster(merge_sessions([spec]), {"n0": 2})
        caught = []

        def scale(c):
            try:
                c.drain_node("n0")
            except SchedulerError as exc:
                caught.append(exc)

        run_elastic(cluster, scale, sessions=[spec],
                    timeout=120, stall_timeout=60, elastic=True)
        assert caught


class TestChaosScaleOut:
    def test_double_fps_scale_2_to_4_gold_zero_shed(self):
        """The ISSUE's chaos proof: double the offered fps mid-run while
        scaling 2→4 nodes; the gold session must shed nothing and both
        sessions stay byte-identical to their unscaled references."""
        specs, sinks, cfgs = [], {}, {}
        tiers = {"gold0": "gold", "be0": "best-effort"}
        for i, (name, tier) in enumerate(sorted(tiers.items())):
            spec, sink, cfg = make_session(
                name, frames=40, seed=900 + i, fps=50, lag_window=8,
                deadline_ms=250.0, qos_class=tier,
            )
            specs.append(spec)
            sinks[name] = sink
            cfgs[name] = cfg
        merged = merge_sessions(specs)
        cluster = Cluster(merged, {"n0": 2, "n1": 2})

        def scale(c):
            c.set_offered_rate(100.0)  # double the offered fps
            c.add_node("n2", workers=2)
            c.add_node("n3", workers=2)

        result = run_elastic(
            cluster, scale, delay=0.2,
            sessions=specs, timeout=600, stall_timeout=240,
            recovery=FAST, elastic=True,
        )
        assert result.reason == "idle"
        assert result.recoveries == []
        assert len(result.migrations) == 2
        assert [m.reason for m in result.migrations] == [
            "join:n2", "join:n3"
        ]
        mem = result.membership
        assert mem["nodes"] == {
            "n0": "active", "n1": "active",
            "n2": "active", "n3": "active",
        }
        assert mem["epoch"] >= 4
        gold = result.stream.sessions["gold0"]
        assert gold.shed == 0  # the headline guarantee
        assert gold.offered == gold.completed == 40
        # Byte-identity vs the unscaled single-tenant reference.
        assert sinks["gold0"].stream() == mjpeg_baseline(
            config=cfgs["gold0"]
        )
        # The commit went out on the control plane under the new epoch.
        snap = result.metrics.snapshot()
        assert snap["elastic.migrations"]["value"] == 2
        assert snap["membership.epoch"]["value"] == mem["epoch"]

    def test_elasticity_driver_time_trigger_scales(self):
        """End-to-end ElasticityConfig: the driver's deterministic time
        trigger rescales 2→3 with no manual membership calls."""
        specs, sinks, cfgs = [], {}, {}
        for i in range(2):
            spec, sink, cfg = make_session(
                f"t{i}", frames=30, seed=40 + i, fps=60, lag_window=8
            )
            specs.append(spec)
            sinks[spec.name] = sink
            cfgs[spec.name] = cfg
        merged = merge_sessions(specs)
        cluster = Cluster(merged, {"n0": 2, "n1": 2})
        result = cluster.run(
            sessions=specs, timeout=300, stall_timeout=120,
            elastic=ElasticityConfig(
                interval=0.02, scale_at=0.15, target_nodes=3,
                cooldown=0.0, queue_high=1e9, queue_low=-1.0,
            ),
        )
        assert_registries_agree(cluster, result)
        assert result.reason == "idle"
        assert len(result.migrations) == 1
        assert result.migrations[0].reason == "join:node0"
        assert result.membership["nodes"]["node0"] == "active"
        for name in sinks:
            assert sinks[name].stream() == mjpeg_baseline(
                config=cfgs[name]
            )
