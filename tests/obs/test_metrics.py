"""Unit tests for the metrics registry and its snapshot algebra."""

import json
import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    delta,
    flatten,
    merge,
    render,
)


class TestPrimitives:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.snapshot() == {"type": "counter", "value": 5}

    def test_gauge_set_and_set_max(self):
        g = Gauge()
        g.set(3.0)
        g.set_max(2.0)  # lower: ignored
        assert g.value == 3.0
        g.set_max(7.0)
        assert g.value == 7.0
        g.set(1.0)  # plain set always wins
        assert g.value == 1.0

    def test_histogram_summary(self):
        h = Histogram()
        assert h.snapshot()["count"] == 0
        for v in (1.0, 5.0, 3.0):
            h.observe(v)
        s = h.snapshot()
        assert s["count"] == 3
        assert s["sum"] == pytest.approx(9.0)
        assert s["min"] == 1.0 and s["max"] == 5.0
        assert s["mean"] == pytest.approx(3.0)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_computed_gauge_evaluated_at_snapshot(self):
        # A holder is read when the snapshot is taken, never copied.
        reg = MetricsRegistry()
        state = {"v": 10.0}
        reg.add_holder(lambda: {"live": {"type": "gauge",
                                         "value": state["v"]}})
        assert reg.snapshot()["live"]["value"] == 10.0
        state["v"] = 20.0
        assert reg.snapshot()["live"]["value"] == 20.0

    def test_raising_holder_contributes_nothing(self):
        reg = MetricsRegistry()
        reg.counter("ok").inc()
        reg.add_holder(lambda: 1 / 0)
        reg.add_holder(lambda: {"held": {"type": "counter", "value": 2}})
        assert reg.snapshot() == {
            "held": {"type": "counter", "value": 2},
            "ok": {"type": "counter", "value": 1},
        }

    def test_holders_merge_with_the_registry(self):
        # Nodes sharing a registry: counters sum, gauges take the max,
        # histograms widen — the ``merge`` algebra, in one place.
        reg = MetricsRegistry()
        reg.counter("n").inc(1)
        for v in (2, 5):
            reg.add_holder(lambda v=v: {
                "n": {"type": "counter", "value": v},
                "g": {"type": "gauge", "value": v},
            })
        snap = reg.snapshot()
        assert snap["n"]["value"] == 8
        assert snap["g"]["value"] == 5

    def test_an_idle_holders_empty_histogram_sets_no_bound(self):
        # A node that dispatched nothing reports count 0 with zeros; the
        # merged summary keeps the other nodes' min, not that 0.
        reg = MetricsRegistry()
        for v in (3.0, 5.0):
            reg.histogram("h").observe(v)
        reg.add_holder(lambda: {"h": Histogram().snapshot()})
        h = reg.snapshot()["h"]
        assert (h["count"], h["min"], h["max"]) == (2, 3.0, 5.0)

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(1.5)
        doc = json.loads(reg.to_json())
        assert doc["c"]["value"] == 2
        assert doc["h"]["count"] == 1

    def test_concurrent_increments_lose_nothing(self):
        reg = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                reg.counter("hits").inc()
                reg.histogram("h").observe(1.0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        assert snap["hits"]["value"] == 4000
        assert snap["h"]["count"] == 4000


class TestSnapshotAlgebra:
    def test_delta_subtracts_counters_and_histograms(self):
        old = {
            "c": {"type": "counter", "value": 10},
            "g": {"type": "gauge", "value": 5.0},
            "h": {"type": "histogram", "count": 2, "sum": 4.0,
                  "min": 1.0, "max": 3.0, "mean": 2.0},
        }
        new = {
            "c": {"type": "counter", "value": 15},
            "g": {"type": "gauge", "value": 7.0},
            "h": {"type": "histogram", "count": 5, "sum": 13.0,
                  "min": 1.0, "max": 4.0, "mean": 2.6},
        }
        d = delta(new, old)
        assert d["c"]["value"] == 5
        assert d["g"]["value"] == 7.0  # gauges keep the new value
        assert d["h"]["count"] == 3
        assert d["h"]["sum"] == pytest.approx(9.0)
        assert d["h"]["mean"] == pytest.approx(3.0)

    def test_delta_passes_new_names_through(self):
        d = delta({"x": {"type": "counter", "value": 3}}, {})
        assert d["x"]["value"] == 3

    def test_merge_adds_counters_maxes_gauges_widens_histograms(self):
        a = {
            "c": {"type": "counter", "value": 2},
            "g": {"type": "gauge", "value": 9.0},
            "h": {"type": "histogram", "count": 1, "sum": 2.0,
                  "min": 2.0, "max": 2.0, "mean": 2.0},
        }
        b = {
            "c": {"type": "counter", "value": 3},
            "g": {"type": "gauge", "value": 4.0},
            "h": {"type": "histogram", "count": 2, "sum": 10.0,
                  "min": 1.0, "max": 9.0, "mean": 5.0},
        }
        m = merge(a, b)
        assert m["c"]["value"] == 5
        assert m["g"]["value"] == 9.0
        assert m["h"]["count"] == 3
        assert m["h"]["min"] == 1.0 and m["h"]["max"] == 9.0
        assert m["h"]["mean"] == pytest.approx(4.0)

    def test_merge_does_not_mutate_inputs(self):
        a = {"c": {"type": "counter", "value": 1}}
        merge(a, {"c": {"type": "counter", "value": 2}})
        assert a["c"]["value"] == 1

    def test_flatten_expands_histograms(self):
        flat = flatten({
            "c": {"type": "counter", "value": 2},
            "h": {"type": "histogram", "count": 1, "sum": 2.0,
                  "min": 2.0, "max": 2.0, "mean": 2.0},
        })
        assert flat["c"] == 2
        assert flat["h.count"] == 1
        assert flat["h.mean"] == 2.0

    def test_render_is_tabular(self):
        reg = MetricsRegistry()
        reg.counter("requests").inc(3)
        text = render(reg.snapshot(), title="stats")
        assert text.startswith("stats")
        assert "requests" in text and "3" in text


class TestRuntimeIntegration:
    """run_program wires the registry into queues, fields and timers."""

    def test_run_populates_core_metrics(self):
        from repro.core import run_program
        from repro.workloads import build_mulsum

        program, _sink = build_mulsum()
        reg = MetricsRegistry()
        result = run_program(program, workers=2, max_age=3, metrics=reg)
        assert result.metrics is reg
        flat = flatten(reg.snapshot())
        executed = flat["instances.executed"]
        assert executed > 0
        assert flat["ready.pushes"] >= executed
        assert flat["ready.pops"] == executed
        assert flat["ready.wait_s.count"] == executed
        assert flat["fields.stores"] > 0
        assert flat["fields.fetches"] > 0
        assert flat["fields.bytes_live"] > 0
        assert flat["ready.depth.max"] >= 1
