"""Unit tests for the span tracer and the Chrome trace-event schema."""

import json
import threading
import time

import pytest

from repro.obs import (
    NULL_TRACER,
    TraceSchemaError,
    Tracer,
    validate_chrome_trace,
    with_frames,
)


class TestTracerModes:
    def test_null_tracer_is_disabled_and_records_nothing(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.complete("k", "kernel", "n0", "w0", 0.0, 1.0)
        NULL_TRACER.instant("i", "scheduler", "n0", "w0")
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.event_count() == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Tracer(mode="verbose")

    def test_full_mode_retains_everything(self):
        tr = Tracer(mode="full")
        for i in range(10):
            tr.instant(f"e{i}", "test", "p", "t")
        assert tr.event_count() == 10

    def test_ring_mode_bounds_memory_and_counts_drops(self):
        tr = Tracer(mode="ring", ring=4)
        for i in range(10):
            tr.instant(f"e{i}", "test", "p", "t")
        assert tr.event_count() == 4
        assert tr.ring_dropped == 6
        names = [e["name"] for e in tr.ring_events() if e["ph"] != "M"]
        assert names == ["e6", "e7", "e8", "e9"]  # most recent window

    def test_full_mode_keeps_the_ring_too(self):
        tr = Tracer(mode="full", ring=2)
        for i in range(5):
            tr.instant(f"e{i}", "test", "p", "t")
        assert tr.event_count() == 5
        ring = [e["name"] for e in tr.ring_events() if e["ph"] != "M"]
        assert ring == ["e3", "e4"]


class TestLanesAndEvents:
    def test_lane_allocates_stable_ids_and_metadata(self):
        tr = Tracer()
        a = tr.lane("node0", "worker0")
        b = tr.lane("node0", "worker1")
        c = tr.lane("node1", "worker0")
        assert tr.lane("node0", "worker0") == a  # stable on re-ask
        assert a[0] == b[0] != c[0]  # same process, different processes
        assert a[1] != b[1]
        meta = [e for e in tr.events() if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "node0") in names
        assert ("thread_name", "worker1") in names

    def test_complete_event_timestamps(self):
        # One clock: span times are perf_counter readings, shown as
        # microseconds since the tracer was created.
        before = time.perf_counter()
        tr = Tracer()
        after = time.perf_counter()
        t0 = after + 0.001
        tr.complete("work", "kernel", "n", "w", t0, t0 + 0.003,
                    args={"age": 2})
        (ev,) = [e for e in tr.events() if e["ph"] == "X"]
        assert (t0 - after) * 1e6 <= ev["ts"] <= (t0 - before) * 1e6
        assert ev["dur"] == pytest.approx(3000.0)
        assert ev["args"] == {"age": 2}

    def test_instant_event_defaults_to_now(self):
        before = time.perf_counter()
        tr = Tracer()
        after = time.perf_counter()
        time.sleep(0.002)
        lo = time.perf_counter()
        tr.instant("tick", "test", "p", "t", scope="g")
        hi = time.perf_counter()
        (ev,) = [e for e in tr.events() if e["ph"] == "i"]
        assert (lo - after) * 1e6 <= ev["ts"] <= (hi - before) * 1e6
        assert ev["s"] == "g"

    def test_concurrent_recording_loses_nothing(self):
        tr = Tracer()

        def record(worker):
            for i in range(200):
                tr.complete(f"k{i}", "kernel", "n", f"w{worker}",
                            tr.now(), tr.now())

        threads = [threading.Thread(target=record, args=(w,))
                   for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tr.event_count() == 800


class TestFrameSink:
    """The frame timeline is a sink of the stream, not a collector
    beside it."""

    class _Sink:
        def __init__(self):
            self.spans = []

        def span(self, name, key, t0, t1):
            self.spans.append((name, key, t0, t1))

    def test_keyed_spans_reach_the_frame_sink_once(self):
        tr, sink = Tracer(mode="full"), self._Sink()
        tr.attach(sink)
        tr.attach(sink)  # a second node sharing the stream: still one
        tr.complete("queue", "phase", "n", "w0", 1.0, 2.0, key=("", 3))
        tr.complete("mul2", "kernel", "n", "w0", 2.0, 3.0)  # no key
        assert sink.spans == [("queue", ("", 3), 1.0, 2.0)]
        assert tr.event_count() == 2

    def test_sink_only_stream_builds_no_chrome_event(self, monkeypatch):
        sink = self._Sink()
        tr = with_frames(None, sink)
        assert tr is not NULL_TRACER and tr.mode == "off" and tr.enabled

        def no_lane(*_a):
            raise AssertionError("a sink-only stream allocated a lane")

        monkeypatch.setattr(Tracer, "lane", no_lane)
        tr.complete("gate", "stream", "n", "stream", 0.0, 1.0,
                    args={"age": 0}, key=("", 0))
        tr.instant("shed", "stream", "n", "stream")
        assert len(sink.spans) == 1 and tr.events() == []
        assert NULL_TRACER.frames is None and not NULL_TRACER.enabled

    def test_null_tracer_never_gains_a_sink(self):
        with pytest.raises(ValueError):
            NULL_TRACER.attach(self._Sink())
        assert with_frames(None, None) is NULL_TRACER
        assert NULL_TRACER.frames is None and not NULL_TRACER.enabled


class TestExport:
    def test_write_produces_schema_valid_json(self, tmp_path):
        tr = Tracer()
        tr.complete("k", "kernel", "n0", "w0", tr.now(), tr.now())
        tr.instant("dispatch", "scheduler", "n0", "analyzer")
        path = tmp_path / "trace.json"
        n = tr.write(str(path))
        assert n == 2
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == 2
        assert doc["displayTimeUnit"] == "ms"


class TestSchemaValidation:
    def _doc(self, *events):
        return {"traceEvents": list(events)}

    def test_rejects_non_object_document(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace([])

    def test_rejects_missing_envelope(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace({"events": []})

    def test_rejects_missing_phase(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace(
                self._doc({"name": "x", "pid": 1, "tid": 1, "ts": 0.0})
            )

    def test_rejects_negative_duration(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace(self._doc(
                {"name": "x", "ph": "X", "pid": 1, "tid": 1,
                 "ts": 0.0, "dur": -1.0}
            ))

    def test_rejects_bad_instant_scope(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace(self._doc(
                {"name": "x", "ph": "i", "pid": 1, "tid": 1,
                 "ts": 0.0, "s": "z"}
            ))

    def test_rejects_unknown_metadata(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace(self._doc(
                {"name": "mystery", "ph": "M", "pid": 1, "tid": 0,
                 "args": {}}
            ))

    def test_accepts_empty_trace(self):
        assert validate_chrome_trace(self._doc()) == 0


class TestRuntimeIntegration:
    """A traced run emits the per-instance lifecycle spans."""

    def test_run_program_spans(self):
        from repro.core import run_program
        from repro.workloads import build_mulsum

        program, _sink = build_mulsum()
        tr = Tracer()
        result = run_program(program, workers=2, max_age=3, tracer=tr)
        assert result.reason == "idle"
        assert result.tracer is tr
        events = tr.events()
        assert validate_chrome_trace({"traceEvents": events}) > 0
        by_cat = {}
        for ev in events:
            if ev["ph"] != "M":
                by_cat.setdefault(ev.get("cat"), []).append(ev)
        # kernel spans with their lifecycle-phase children
        assert "kernel" in by_cat
        phase_names = {e["name"] for e in by_cat.get("phase", [])}
        assert {"fetch", "native", "store"} <= phase_names
        # the analyzer and scheduler lanes are populated too
        assert "analyzer" in by_cat
        assert "scheduler" in by_cat
        kernel_names = {e["name"] for e in by_cat["kernel"]}
        assert {"init", "mul2", "plus5"} <= kernel_names
        # every kernel span carries its age; each claim's ready-queue
        # wait is a ``queue`` span in the same worker lane, one per
        # kernel span, ending where the kernel span starts
        assert all("age" in e["args"] for e in by_cat["kernel"])
        queue = [e for e in by_cat["phase"] if e["name"] == "queue"]
        assert len(queue) == len(by_cat["kernel"])
        lanes = {(e["pid"], e["tid"]) for e in by_cat["kernel"]}
        assert {(e["pid"], e["tid"]) for e in queue} <= lanes
        assert all(e["dur"] >= 0 for e in queue)

    def test_untraced_run_attaches_no_tracer(self):
        from repro.core import run_program
        from repro.workloads import build_mulsum

        program, _sink = build_mulsum()
        result = run_program(program, workers=2, max_age=3)
        assert result.tracer is None
