"""The node table: local reports, and :class:`GlobalTopology` — the one
versioned registry of which nodes exist, in which lifecycle state, under
which epoch — with what reads it (the transport's routing filter, the
heartbeat monitor)."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TopologyError
from repro.dist import (
    GlobalTopology,
    HeartbeatMonitor,
    InProcTransport,
    LocalTopology,
    MEMBERSHIP_TOPIC,
    MembershipView,
    ProcessorSpec,
)

LIVE = ("joining", "active", "draining")


def report(name, cores=1):
    return LocalTopology(name, (ProcessorSpec("cpu", cores),))


class TestProcessorSpec:
    def test_capacity(self):
        assert ProcessorSpec("cpu", 4, 1.5).capacity == 6.0

    def test_validation(self):
        with pytest.raises(TopologyError):
            ProcessorSpec(cores=0)
        with pytest.raises(TopologyError):
            ProcessorSpec(speed=0.0)


class TestLocalTopology:
    def test_cpu_capacity_excludes_accelerators(self):
        t = LocalTopology("n", (
            ProcessorSpec("cpu", 4, 1.0),
            ProcessorSpec("gpu", 100, 0.1),
        ))
        assert t.cpu_capacity == 4.0
        assert t.total_capacity == 14.0
        assert t.cores == 104
        assert t.has("gpu") and not t.has("dsp")

    def test_needs_processors(self):
        with pytest.raises(TopologyError):
            LocalTopology("n", ())


class TestGlobalTopology:
    def _topo(self):
        return GlobalTopology([report("a", 4), report("b", 2)])

    def test_merge_and_query(self):
        g = self._topo()
        assert len(g) == 2
        assert "a" in g and "c" not in g
        assert g.node_names() == ["a", "b"]
        assert g.capacities() == {"a": 4.0, "b": 2.0}
        assert g.total_capacity() == 6.0

    def test_dynamic_add_remove(self):
        g = self._topo()
        e0 = g.epoch
        g.add(report("c", 8))
        assert g.epoch > e0
        assert g.total_capacity() == 14.0
        removed = g.remove("a")
        assert removed.node == "a"
        assert g.node_names() == ["b", "c"]
        assert g.state("a") == "left"

    def test_duplicate_rejected(self):
        g = self._topo()
        with pytest.raises(TopologyError):
            g.add(LocalTopology("a", (ProcessorSpec(),)))

    def test_remove_unknown(self):
        with pytest.raises(TopologyError):
            self._topo().remove("ghost")

    def test_update_replaces(self):
        g = self._topo()
        g.update(report("a", 16))
        assert g.capacities()["a"] == 16.0
        with pytest.raises(TopologyError):
            g.update(LocalTopology("ghost", (ProcessorSpec(),)))

    def test_as_graph(self):
        g = self._topo().as_graph()
        assert "master" in g
        assert g.has_edge("master", "a")
        assert any("cpu" in str(n) for n in g.nodes())

    def test_failed_nodes_in_transition_order(self):
        g = GlobalTopology([report("a"), report("b"), report("c")])
        assert g.mark_failed("b").node == "b"
        g.mark_failed("a")
        assert g.failed_nodes() == ["b", "a"]
        assert g.node_names() == ["c"]
        assert g.report("b").node == "b"  # the report outlives the node


class TestLifecycle:
    def test_add_and_view(self):
        t = GlobalTopology()
        t.add(report("a"))
        t.add(report("b"), "joining")
        v = t.view()
        assert v.epoch == 2
        assert v.state("a") == "active"
        assert v.state("b") == "joining"
        assert v.active() == ("a",)
        assert set(v.live()) == {"a"}

    def test_epoch_monotone_per_transition(self):
        t = GlobalTopology()
        t.add(report("a"))
        e0 = t.epoch
        t.transition("a", "draining")
        t.transition("a", "left")
        assert t.epoch == e0 + 2
        assert [s for _, _, s in t.history] == ["active", "draining", "left"]

    def test_same_state_transition_is_noop(self):
        t = GlobalTopology()
        t.add(report("a"))
        e0 = t.epoch
        t.transition("a", "active")
        assert t.epoch == e0

    def test_illegal_transitions_rejected(self):
        t = GlobalTopology()
        t.add(report("a"))
        t.transition("a", "dead")
        with pytest.raises(TopologyError):
            t.transition("a", "active")
        with pytest.raises(TopologyError):
            t.transition("nope", "active")
        with pytest.raises(TopologyError):
            t.add(report("x"), "zombie")

    def test_readd_of_live_member_rejected(self):
        t = GlobalTopology()
        t.add(report("a"))
        with pytest.raises(TopologyError):
            t.add(report("a"))
        # a departed name may rejoin
        t.transition("a", "draining")
        t.transition("a", "left")
        t.add(report("a"), "joining")
        assert t.state("a") == "joining"

    def test_capacities_are_joining_and_active(self):
        t = GlobalTopology()
        for name, state in zip("abcde", ("joining", "active", "draining",
                                         "dead", "left")):
            t.add(report(name), state)
        assert t.node_names() == ["a", "b"]
        assert set(t.capacities()) == {"a", "b"}
        assert len(t) == 2 and "c" not in t

    def test_publish_fires_outside_lock(self):
        views = []
        t = GlobalTopology()
        t.set_publish(
            # Re-entering the table from the callback deadlocks if the
            # broadcast were made under the lock.
            lambda v: views.append((v.epoch, t.epoch, len(t)))
        )
        t.add(report("a"))
        t.transition("a", "draining")
        assert views == [(1, 1, 1), (2, 2, 0)]

    def test_routable(self):
        t = GlobalTopology()
        t.add(report("a"))
        t.add(report("b"), "draining")
        v = t.view()
        assert v.routable("a")
        assert v.routable("b")  # draining still sends until fenced
        assert v.routable("master")  # unknown control endpoints pass
        t.transition("a", "dead")
        assert not t.view().routable("a")

    def test_as_dict_has_history(self):
        t = GlobalTopology()
        t.add(report("a"))
        doc = t.as_dict()
        assert doc["epoch"] == 1
        assert doc["nodes"] == {"a": "active"}
        assert doc["history"][-1]["state"] == "active"

    def test_one_immutable_view_per_epoch(self):
        t = GlobalTopology([report("a"), report("b")])
        v = t.view()
        assert t.view() is v  # handed out, not rebuilt, between mutations
        t.transition("a", "draining")
        assert t.view() is not v
        assert t.view() is t.view()
        # A view already handed out never changes ...
        assert v.epoch == 2 and dict(v.states) == {"a": "active",
                                                    "b": "active"}
        # ... and cannot be changed.
        with pytest.raises(TypeError):
            v.states["a"] = "dead"
        t.update(report("b", 4))  # a report change is a mutation too
        assert t.view().epoch == 4


class TestTransportMembershipGate:
    def test_epoch_stamped_and_stale_rejected(self):
        t = InProcTransport()
        table = GlobalTopology([report("n1")])
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
        table = GlobalTopology()
        table.add(report("n1"), "draining")
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
        table = GlobalTopology([report("n1")])
        table.transition("n1", "dead")
        t.membership = table
        t.publish("f", "n1", "late")
        assert list(t.replay({"f"})) == []

    def test_view_broadcast_on_control_topic(self):
        t = InProcTransport()
        table = GlobalTopology()
        got = []
        t.subscribe(MEMBERSHIP_TOPIC, "n1", got.append)
        table.set_publish(
            lambda v: t.publish(MEMBERSHIP_TOPIC, "master", v, control=True)
        )
        table.add(report("n1"))
        table.add(report("n2"), "joining")
        assert [m.payload.epoch for m in got] == [1, 2]
        assert isinstance(got[-1].payload, MembershipView)
        assert got[-1].payload.state("n2") == "joining"


class TestHeartbeatDrainingGrace:
    def test_draining_silence_is_not_failure(self):
        """The monitor keeps no draining flag of its own: it skips a
        node the table (wired into the transport) says is leaving."""
        t = InProcTransport()
        table = t.membership = GlobalTopology([report("n1"), report("n2")])
        mon = HeartbeatMonitor(t, timeout=0.03)
        mon.watch("n1")
        mon.watch("n2")
        table.transition("n1", "draining")
        time.sleep(0.06)
        assert mon.check() == ["n2"]  # planned silence: not reported
        assert mon.failures() == {"n2": mon.failures()["n2"]}
        assert mon.watched() == ["n1"]


def replay(history):
    states = {}
    for _, node, state in history:
        states[node] = state
    return states


@pytest.mark.parametrize("seed", range(20))
def test_random_walk_keeps_the_table_legal(seed):
    """Seeded walk over ``add`` / ``transition`` / ``remove`` /
    ``mark_failed``, legal and illegal alike: epochs strictly increase,
    an illegal move raises and changes nothing, ``capacities()`` is
    exactly ``joining | active``, replaying ``history`` reproduces
    ``view()``."""
    rng = random.Random(seed)
    t = GlobalTopology()
    states = ("joining", "active", "draining", "dead", "left", "zombie")
    for _ in range(120):
        name = f"n{rng.randrange(5)}"
        before, e0, h0 = t.view(), t.epoch, len(t.history)
        op = rng.choice(("add", "transition", "transition", "remove",
                         "mark_failed"))
        try:
            if op == "add":
                t.add(report(name), rng.choice(states))
            elif op == "transition":
                t.transition(name, rng.choice(states))
            else:
                getattr(t, op)(name)
        except TopologyError:
            assert t.view() is before and t.epoch == e0
            assert len(t.history) == h0
        else:
            # a same-state transition is the one legal no-op
            assert t.epoch > e0 or t.view() is before
        assert [e for e, _, _ in t.history] == list(
            range(1, len(t.history) + 1)
        )
        view = t.view()
        assert view.epoch == t.epoch == len(t.history)
        assert replay(t.history) == view.states
        placeable = sorted(
            n for n, s in view.states.items() if s in ("joining", "active")
        )
        assert list(t.capacities()) == t.node_names() == placeable
        assert len(t) == len(placeable)
        assert t.failed_nodes() == [n for _, n, s in t.history if s == "dead"]


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
    t = GlobalTopology()
    last_epoch = 0
    for is_join, idx in ops:
        name = f"n{idx}"
        state = t.state(name)
        if is_join:
            if state in LIVE:
                continue
            t.add(report(name), "joining")
            t.transition(name, "active")
        else:
            if state != "active":
                continue
            t.transition(name, "draining")
            t.transition(name, "left")
        assert t.epoch > last_epoch
        last_epoch = t.epoch
    assert replay(t.history) == t.view().states
