"""Unit tests for the elasticity policy and the incremental
repartitioner (the node table itself: ``test_topology.py``)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph import Digraph
from repro.dist import (
    ElasticityConfig,
    ElasticityDriver,
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
