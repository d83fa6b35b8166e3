"""Unit tests for SLO burn tracking and the live telemetry exporter."""

import json
import urllib.request

import pytest

from repro.obs import (
    MetricsRegistry,
    SloTracker,
    Telemetry,
    TelemetryConfig,
    TelemetryExporter,
    render_prometheus,
    validate_prometheus_text,
)


class TestSloTracker:
    def _tracker(self, **kw):
        kw.setdefault("window_s", 10.0)
        kw.setdefault("burn_alert", 2.0)
        kw.setdefault("min_frames", 5)
        kw.setdefault("cooldown_s", 100.0)
        kw.setdefault("default_target", 0.1)
        return SloTracker(**kw)

    def test_miss_inferred_from_deadline(self):
        slo = self._tracker()
        slo.configure("s0", deadline_ms=50.0)
        slo.observe("s0", 10.0, t=0.0)
        slo.observe("s0", 80.0, t=0.1)
        d = slo.session_dict("s0")
        assert d["frames"] == 2 and d["misses"] == 1

    def test_unknown_session_ignored(self):
        slo = self._tracker()
        assert slo.observe("ghost", 1000.0) is None
        assert slo.burn_rate("ghost") == 0.0
        assert slo.session_dict("ghost") is None

    def test_alert_fires_at_burn_threshold(self):
        slo = self._tracker()
        slo.configure("s0", deadline_ms=10.0, tier="gold")
        alert = None
        # 5 frames, 1 miss: miss fraction 0.2 / target 0.1 = burn 2.0.
        for i in range(4):
            assert slo.observe("s0", 1.0, t=i * 0.1) is None
        alert = slo.observe("s0", 99.0, t=0.5)
        assert alert is not None
        assert alert.session == "s0" and alert.tier == "gold"
        assert alert.burn_rate == pytest.approx(2.0)
        assert alert.window_misses == 1 and alert.window_frames == 5
        assert slo.alerts("s0") == [alert]

    def test_min_frames_suppresses_early_alerts(self):
        slo = self._tracker(min_frames=50)
        slo.configure("s0", deadline_ms=10.0)
        for i in range(20):
            assert slo.observe("s0", 99.0, t=i * 0.01) is None

    def test_cooldown_rate_limits(self):
        slo = self._tracker(cooldown_s=5.0)
        slo.configure("s0", deadline_ms=10.0)
        fired = []
        slo.on_alert(fired.append)
        for i in range(20):
            slo.observe("s0", 99.0, t=i * 0.1)  # 2 seconds of misses
        assert len(fired) == 1  # one alert, then cooldown
        slo.observe("s0", 99.0, t=10.0)  # past the cooldown
        assert len(fired) == 2

    def test_shed_counts_as_miss(self):
        slo = self._tracker()
        slo.configure("s0", deadline_ms=10.0)
        for i in range(5):
            slo.observe_shed("s0", t=i * 0.1)
        d = slo.session_dict("s0")
        assert d["misses"] == 5
        assert slo.burn_rate("s0") == pytest.approx(10.0)  # 1.0 / 0.1

    def test_window_prunes_old_evidence(self):
        slo = self._tracker(window_s=1.0)
        slo.configure("s0", deadline_ms=10.0)
        for i in range(5):
            slo.observe("s0", 99.0, t=float(i) * 0.1)
        assert slo.burn_rate("s0") == pytest.approx(10.0)
        # 100 hits much later: the old misses age out of the window.
        for i in range(100):
            slo.observe("s0", 1.0, t=100.0 + i * 0.001)
        assert slo.burn_rate("s0") == 0.0

    def test_callback_exception_does_not_propagate(self):
        slo = self._tracker()
        slo.configure("s0", deadline_ms=10.0)

        def boom(alert):
            raise RuntimeError("alert handler crashed")

        slo.on_alert(boom)
        for i in range(10):
            slo.observe("s0", 99.0, t=i * 0.1)  # must not raise

    def test_as_dict_shape(self):
        slo = self._tracker()
        slo.configure("gold0", deadline_ms=40.0, tier="gold",
                      target=0.01)
        slo.observe("gold0", 10.0, t=0.0)
        doc = slo.as_dict()
        entry = doc["sessions"]["gold0"]
        assert entry["tier"] == "gold"
        assert entry["deadline_ms"] == 40.0
        assert entry["target"] == 0.01
        assert "burn_rate" in entry
        assert doc["alerts"] == []


class TestPrometheus:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("frames.completed").inc(7)
        reg.gauge("gate.in_flight").set(3.5)
        h = reg.histogram("stream.latency_ms")
        for v in (1.0, 2.0, 30.0):
            h.observe(v)
        return reg.snapshot()

    def test_render_validates_and_counts(self):
        text = render_prometheus(self._snapshot())
        n = validate_prometheus_text(text)
        assert n >= 3
        assert "p2g_frames_completed 7\n" in text
        assert "# TYPE p2g_stream_latency_ms summary" in text
        assert 'quantile="0.5"' in text
        assert "p2g_stream_latency_ms_count 3" in text

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_prometheus_text("this is not prometheus\n")

    def test_validator_rejects_undeclared_family(self):
        with pytest.raises(ValueError, match="no TYPE"):
            validate_prometheus_text("p2g_orphan 1\n")

    def test_empty_snapshot_renders_empty(self):
        assert validate_prometheus_text(render_prometheus({})) == 0


class TestTelemetryExporter:
    def test_sample_merges_sources(self):
        # Two holders of one registry (two nodes of a run): counters sum.
        reg = MetricsRegistry()
        reg.add_holder(lambda: {"frames": {"type": "counter", "value": 2}})
        reg.add_holder(lambda: {"frames": {"type": "counter", "value": 3}})
        exp = TelemetryExporter()
        assert exp.sample() == {}  # no registry bound yet
        exp.registry = reg
        snap = exp.sample()
        assert snap["frames"]["value"] == 5  # counters sum on merge
        assert exp.latest() == snap
        assert exp.ticks == 2

    def test_failing_source_is_isolated(self):
        reg = MetricsRegistry()
        reg.counter("ok").inc()
        reg.add_holder(lambda: 1 / 0)
        exp = TelemetryExporter()
        exp.registry = reg
        snap = exp.sample()
        assert snap["ok"]["value"] == 1

    def test_ring_is_bounded(self):
        exp = TelemetryExporter(ring=4)
        exp.registry = MetricsRegistry()
        for _ in range(10):
            exp.sample()
        assert len(exp.snapshots()) == 4

    def test_jsonl_lines(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("frames").inc(4)
        path = tmp_path / "tel.jsonl"
        exp = TelemetryExporter(interval_s=10.0, jsonl_path=path)
        exp.registry = reg
        exp.start()
        exp.sample()
        exp.stop()  # takes one final sample
        lines = [json.loads(x) for x in
                 path.read_text().strip().splitlines()]
        assert len(lines) >= 2
        assert all("t" in ln and ln["metrics"]["frames"] == 4
                   for ln in lines)

    def test_http_scrape_endpoints(self):
        reg = MetricsRegistry()
        reg.counter("frames").inc(9)
        exp = TelemetryExporter(interval_s=10.0, port=0)
        exp.registry = reg
        exp.page("slo", lambda: {"sessions": {}})
        exp.start()
        try:
            port = exp.http_port
            assert port is not None and port > 0
            base = f"http://127.0.0.1:{port}"
            text = urllib.request.urlopen(f"{base}/metrics").read().decode()
            assert validate_prometheus_text(text) >= 1
            assert "p2g_frames 9" in text
            snap = json.loads(
                urllib.request.urlopen(f"{base}/snapshot.json").read()
            )
            assert snap["frames"]["value"] == 9
            slo = json.loads(
                urllib.request.urlopen(f"{base}/slo.json").read()
            )
            assert slo == {"sessions": {}}
            with pytest.raises(Exception):
                urllib.request.urlopen(f"{base}/nope")
        finally:
            exp.stop()


class TestTelemetryFacade:
    def test_config_threads_through(self):
        tel = Telemetry(TelemetryConfig(
            slo_min_frames=3, slo_burn_alert=1.5, slo_cooldown_s=0.0,
            interval_s=0.25,
        ))
        assert tel.slo.min_frames == 3
        assert tel.slo.burn_alert == 1.5
        assert tel.exporter.interval_s == 0.25

    def test_pages_registered(self):
        tel = Telemetry()
        assert "slo.json" in tel.exporter._pages
        assert "stages.json" in tel.exporter._pages

    def test_default_alert_dumps_session_flight(self, tmp_path,
                                                monkeypatch, capsys):
        from repro.obs import Tracer

        monkeypatch.setenv("P2G_FLIGHT_DIR", str(tmp_path))
        tel = Telemetry(TelemetryConfig(
            slo_min_frames=3, slo_cooldown_s=0.0,
        ))
        tracer = Tracer(mode="ring")
        tracer.instant("warm", "test", "p", "t")  # non-empty ring
        tel.attach_tracer(tracer)
        tel.slo.configure("s1", deadline_ms=10.0, tier="gold")
        for i in range(5):
            tel.slo.observe("s1", 99.0, t=i * 0.1)
        assert tel.flight_paths, "breach must dump a flight recording"
        doc = json.loads(tel.flight_paths[0].read_text())
        assert doc["flight"]["reason"] == "slo-breach"
        assert doc["flight"]["context"]["session"] == "s1"
        assert doc["flight"]["context"]["tier"] == "gold"
        assert "[slo] s1 (gold)" in capsys.readouterr().err

    def test_start_stop_idempotent(self):
        tel = Telemetry(TelemetryConfig(interval_s=10.0))
        tel.start()
        tel.start()
        tel.stop()
        tel.stop()
        assert tel.exporter.ticks >= 1  # the final flush sample


class TestStreamIntegration:
    """End-to-end acceptance property: a live run's per-stage bucket
    sums reconcile with its end-to-end latency histogram."""

    def test_stage_breakdown_reconciles_with_e2e_latency(self):
        from repro.core import run_program
        from repro.workloads import MJPEGConfig, build_mjpeg_stream
        from repro.stream import StreamConfig

        cfg = MJPEGConfig(width=32, height=32, frames=12)
        scfg = StreamConfig(fps=0, max_frames=12, lag_window=4,
                            deadline_ms=5000.0)
        program, _sink, binding = build_mjpeg_stream(cfg, scfg)
        tel = Telemetry(TelemetryConfig(interval_s=10.0))
        result = run_program(program, workers=2, batch=4,
                             stream=binding, telemetry=tel)
        rep = result.stream
        assert rep.completed == 12
        # Every completed frame was attributed.
        assert tel.timeline.frames("") == 12
        # Critical-path attribution partitions the window exactly, so
        # the bucket means sum to the e2e mean (both sides are means
        # over the same frames).
        bucket_sum = sum(s["mean"] for s in rep.stages.values())
        assert bucket_sum == pytest.approx(
            rep.latency_ms["mean"], rel=0.05
        )
        # SLO summary rides on the report; nothing breached.
        assert rep.slo["frames"] == 12
        assert rep.slo["deadline_ms"] == 5000.0
        assert rep.slo["misses"] == 0
        # The report survives JSON round-tripping (CLI --stream-json).
        doc = json.loads(json.dumps(rep.as_dict()))
        assert set(doc["stages"]) == set(rep.stages)
        assert doc["slo"]["frames"] == 12
