"""Unit tests for dynamic membership, elasticity policy and the
incremental repartitioner."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph import Digraph
from repro.dist import (
    ElasticityConfig,
    ElasticityDriver,
    HeartbeatMonitor,
    InProcTransport,
    MEMBERSHIP_TOPIC,
    MembershipTable,
    MembershipView,
    incremental_partition,
    greedy_partition,
)


def chain_graph(n=6, weight=1.0):
    g = Digraph()
    for i in range(n):
        g.add_node(f"k{i}", weight=weight)
    for i in range(n - 1):
        g.add_edge(f"k{i}", f"k{i+1}", weight=1.0)
    return g


class TestMembershipTable:
    def test_add_and_view(self):
        t = MembershipTable()
        t.add("a")
        t.add("b", "joining")
        v = t.view()
        assert v.epoch == 2
        assert v.state("a") == "active"
        assert v.state("b") == "joining"
        assert v.active() == ("a",)
        assert set(v.live()) == {"a"}

    def test_epoch_monotone_per_transition(self):
        t = MembershipTable()
        t.add("a")
        e0 = t.epoch
        t.transition("a", "draining")
        t.transition("a", "left")
        assert t.epoch == e0 + 2
        assert [s for _, _, s in t.history] == ["active", "draining", "left"]

    def test_same_state_transition_is_noop(self):
        t = MembershipTable()
        t.add("a")
        e0 = t.epoch
        t.transition("a", "active")
        assert t.epoch == e0

    def test_illegal_transitions_rejected(self):
        t = MembershipTable()
        t.add("a")
        t.transition("a", "dead")
        with pytest.raises(ValueError):
            t.transition("a", "active")
        with pytest.raises(ValueError):
            t.transition("nope", "active")
        with pytest.raises(ValueError):
            t.add("x", "zombie")

    def test_readd_of_live_member_rejected(self):
        t = MembershipTable()
        t.add("a")
        with pytest.raises(ValueError):
            t.add("a")
        # a departed name may rejoin
        t.transition("a", "draining")
        t.transition("a", "left")
        t.add("a", "joining")
        assert t.state("a") == "joining"

    def test_publish_fires_outside_lock(self):
        views = []
        t = MembershipTable()
        t.set_publish(
            # Re-entering the table from the callback deadlocks if the
            # broadcast were made under the lock.
            lambda v: views.append((v.epoch, t.epoch))
        )
        t.add("a")
        t.transition("a", "draining")
        assert views == [(1, 1), (2, 2)]

    def test_routable(self):
        t = MembershipTable()
        t.add("a")
        t.add("b", "draining")
        v = t.view()
        assert v.routable("a")
        assert v.routable("b")  # draining still sends until fenced
        assert v.routable("master")  # unknown control endpoints pass
        t.transition("a", "dead")
        assert not t.view().routable("a")

    def test_as_dict_has_history(self):
        t = MembershipTable()
        t.add("a")
        doc = t.as_dict()
        assert doc["epoch"] == 1
        assert doc["nodes"] == {"a": "active"}
        assert doc["history"][-1]["state"] == "active"


class TestTransportMembershipGate:
    def test_epoch_stamped_and_stale_rejected(self):
        t = InProcTransport()
        table = MembershipTable()
        table.add("n1")
        t.membership = table
        got = []
        t.subscribe("f", "n2", got.append)
        assert t.publish("f", "n1", "x") == 1
        assert got[0].epoch == 1  # stamped with the view's epoch
        table.transition("n1", "dead")
        assert t.publish("f", "n1", "late") == 0
        assert t.stats.stale_rejects == 1
        assert len(got) == 1  # the late delivery never arrived

    def test_left_sender_rejected_unknown_passes(self):
        t = InProcTransport()
        table = MembershipTable()
        table.add("n1", "draining")
        t.membership = table
        got = []
        t.subscribe("f", "n2", got.append)
        assert t.publish("f", "n1", "ok") == 1  # draining still routes
        table.transition("n1", "left")
        assert t.publish("f", "n1", "late") == 0
        assert t.publish("f", "stream-source", "ok") == 1
        assert t.stats.stale_rejects == 1

    def test_rejected_publish_never_logged(self):
        t = InProcTransport()
        t.enable_log()
        table = MembershipTable()
        table.add("n1")
        table.transition("n1", "dead")
        t.membership = table
        t.publish("f", "n1", "late")
        assert list(t.replay({"f"})) == []

    def test_view_broadcast_on_control_topic(self):
        t = InProcTransport()
        table = MembershipTable()
        got = []
        t.subscribe(MEMBERSHIP_TOPIC, "n1", got.append)
        table.set_publish(
            lambda v: t.publish(MEMBERSHIP_TOPIC, "master", v, control=True)
        )
        table.add("n1")
        table.add("n2", "joining")
        assert [m.payload.epoch for m in got] == [1, 2]
        assert isinstance(got[-1].payload, MembershipView)
        assert got[-1].payload.state("n2") == "joining"


class TestHeartbeatDrainingGrace:
    def test_draining_silence_is_not_failure(self):
        t = InProcTransport()
        mon = HeartbeatMonitor(t, timeout=0.03)
        mon.watch("n1")
        mon.mark_draining("n1")
        time.sleep(0.06)
        assert mon.check() == []  # planned silence: no failure report
        assert mon.failures() == {}
        assert mon.draining() == ["n1"]

    def test_resume_watch_rearms_detection(self):
        t = InProcTransport()
        mon = HeartbeatMonitor(t, timeout=0.03)
        mon.watch("n1")
        mon.mark_draining("n1")
        time.sleep(0.05)
        mon.resume_watch("n1")
        assert mon.check() == []  # clocks restarted at resume
        time.sleep(0.05)
        assert mon.check() == ["n1"]


class TestIncrementalPartition:
    def test_no_change_is_zero_moves(self):
        g = chain_graph(8)
        caps = {"n0": 1.0, "n1": 1.0}
        p0 = greedy_partition(g, caps)
        p1 = incremental_partition(g, caps, p0)
        assert p1.assign == p0.assign

    def test_join_moves_only_what_the_newcomer_takes(self):
        g = chain_graph(9)
        caps2 = {"n0": 1.0, "n1": 1.0}
        p0 = greedy_partition(g, caps2)
        caps3 = dict(caps2, n2=1.0)
        p1 = incremental_partition(g, caps3, p0)
        assert set(p1.assign) == set(g.nodes())
        moved = [k for k in g.nodes() if p1.assign[k] != p0.assign[k]]
        # every moved kernel went *to* the newcomer (sticky survivors)
        assert moved and all(p1.assign[k] == "n2" for k in moved)
        assert len(moved) < len(g.nodes())

    def test_drain_reassigns_only_orphans(self):
        g = chain_graph(9)
        caps3 = {"n0": 1.0, "n1": 1.0, "n2": 1.0}
        p0 = greedy_partition(g, caps3)
        caps2 = {"n0": 1.0, "n1": 1.0}
        # A prohibitive move penalty: survivors must stay put, only the
        # drained part's orphans may land elsewhere.
        p1 = incremental_partition(g, caps2, p0, move_penalty=100.0)
        assert set(p1.assign.values()) <= {"n0", "n1"}
        stayed = [k for k in g.nodes() if p0.assign[k] in caps2]
        for k in stayed:
            assert p1.assign[k] == p0.assign[k]

    def test_move_penalty_trades_cut_for_stability(self):
        g = chain_graph(10)
        caps = {"n0": 1.0, "n1": 1.0, "n2": 1.0}
        p0 = greedy_partition(g, {"n0": 1.0, "n1": 1.0})
        loose = incremental_partition(g, caps, p0, move_penalty=0.0)
        tight = incremental_partition(g, caps, p0, move_penalty=100.0)
        moves = lambda p: sum(  # noqa: E731
            1 for k in g.nodes()
            if k in p0.assign and p.assign[k] != p0.assign[k]
        )
        assert moves(tight) <= moves(loose)

    @given(
        n=st.integers(min_value=2, max_value=12),
        parts=st.integers(min_value=1, max_value=4),
        new_parts=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_total_cover_no_strays(self, n, parts, new_parts):
        g = chain_graph(n)
        caps0 = {f"p{i}": 1.0 for i in range(parts)}
        p0 = greedy_partition(g, caps0)
        caps1 = {f"p{i}": 1.0 for i in range(new_parts)}
        p1 = incremental_partition(g, caps1, p0)
        assert set(p1.assign) == set(g.nodes())
        assert set(p1.assign.values()) <= set(caps1)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def sample(self, **kw):
        base = {"nodes": 2, "queue_per_worker": 0.0, "burn": 0.0,
                "elapsed": self.t}
        base.update(kw)
        return base


class TestElasticityDriver:
    def _driver(self, cfg, sample_box):
        calls = []

        def scale(target):
            calls.append(target)
            sample_box["nodes"] = target
            return True

        drv = ElasticityDriver(
            cfg,
            metrics_fn=lambda: dict(sample_box),
            scale_fn=scale,
        )
        return drv, calls

    def test_time_trigger_fires_once(self):
        cfg = ElasticityConfig(scale_at=4.0, target_nodes=4, cooldown=0.0)
        # queue depth in the dead band: only the time trigger may act
        box = {"nodes": 2, "queue_per_worker": 1.0, "burn": 0.0,
               "elapsed": 1.0}
        drv, calls = self._driver(cfg, box)
        assert not drv.poll_once()  # too early
        box["elapsed"] = 4.5
        assert drv.poll_once()
        assert calls == [4]
        box["elapsed"] = 9.0
        assert not drv.poll_once()  # one-shot
        assert drv.actions[0][3].startswith("time-trigger")

    def test_queue_pressure_scales_out(self):
        cfg = ElasticityConfig(queue_high=4.0, cooldown=0.0, max_nodes=3)
        box = {"nodes": 2, "queue_per_worker": 9.0, "burn": 0.0,
               "elapsed": 1.0}
        drv, calls = self._driver(cfg, box)
        assert drv.poll_once()
        assert calls == [3]
        assert drv.poll_once() is False  # capped at max_nodes

    def test_slo_burn_scales_out(self):
        cfg = ElasticityConfig(cooldown=0.0)
        box = {"nodes": 2, "queue_per_worker": 0.0, "burn": 2.5,
               "elapsed": 1.0}
        drv, calls = self._driver(cfg, box)
        assert drv.poll_once()
        assert calls == [3]

    def test_idle_scales_in_but_not_below_min(self):
        cfg = ElasticityConfig(queue_low=0.25, cooldown=0.0, min_nodes=2)
        box = {"nodes": 3, "queue_per_worker": 0.0, "burn": 0.0,
               "elapsed": 1.0}
        drv, calls = self._driver(cfg, box)
        assert drv.poll_once()
        assert calls == [2]
        assert not drv.poll_once()  # at min_nodes: hold

    def test_cooldown_suppresses_thrash(self):
        cfg = ElasticityConfig(queue_high=1.0, cooldown=10.0)
        box = {"nodes": 2, "queue_per_worker": 5.0, "burn": 0.0,
               "elapsed": 1.0}
        drv, calls = self._driver(cfg, box)
        assert drv.poll_once()
        box["elapsed"] = 2.0
        assert not drv.poll_once()  # within cooldown
        box["elapsed"] = 12.0
        assert drv.poll_once()
        assert calls == [3, 4]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ElasticityConfig(scale_at=1.0)  # target_nodes missing
        with pytest.raises(ValueError):
            ElasticityConfig(min_nodes=0)
        with pytest.raises(ValueError):
            ElasticityConfig(interval=0)


@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=3)),
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_membership_interleaving_property(ops):
    """Any interleaving of joins and drains keeps the table legal:
    epochs strictly increase per transition, live nodes are unique, and
    the history replays to the final state."""
    t = MembershipTable()
    last_epoch = 0
    for is_join, idx in ops:
        name = f"n{idx}"
        state = t.state(name)
        if is_join:
            if state in ("joining", "active", "draining"):
                continue
            t.add(name, "joining")
            t.transition(name, "active")
        else:
            if state != "active":
                continue
            t.transition(name, "draining")
            t.transition(name, "left")
        assert t.epoch > last_epoch
        last_epoch = t.epoch
    replayed = {}
    for _, node, state in t.history:
        replayed[node] = state
    assert replayed == t.view().states
