"""Multi-tenant stream serving: N sessions, one runtime.

The load-bearing properties:

* **Byte-identity per tenant** — every co-resident session's output is
  byte-for-byte the output of the same spec run solo (threads,
  processes, cluster).  Namespacing, fair dispatch and per-session
  retirement must be invisible in the data.
* **Isolation** — arbitrary interleavings of session start/stop never
  cross-contaminate field data or credits (Hypothesis property), and
  one session ending mid-flight never closes another's gate or frees
  another's ages.
* **Tier-aware overload** — under starvation, gold keeps every frame
  while best-effort sessions shed; the shed/degrade split is a pure
  function of ``(shed_seed, age)``.
* **Chaos** — a node killed under four live sessions recovers via the
  fence/replay path with no cross-session replay leakage; failures
  archive a seeded repro JSON like the other chaos suites.
"""

import threading
import time

import pytest

from repro.core import run_program
from repro.core.errors import KernelBodyError
from repro.core.kernels import KernelDef
from repro.core.runtime import KernelInstance, ReadyQueue
from repro.stream import (
    AdmissionError,
    SessionManager,
    SessionSpec,
    StreamConfig,
    merge_sessions,
    shed_fraction,
)
from repro.workloads import MJPEGConfig, build_mjpeg_stream, mjpeg_baseline


def make_session(name, *, frames=6, seed=1234, size=32, **scfg_kw):
    """One tenant spec plus its sink and config (for the solo
    baseline)."""
    cfg = MJPEGConfig(width=size, height=size, frames=frames, seed=seed)
    kw = dict(fps=0, max_frames=frames, lag_window=4)
    kw.update(scfg_kw)
    program, sink, binding = build_mjpeg_stream(cfg, StreamConfig(**kw))
    return SessionSpec(name, program, binding), sink, cfg


class TestFairQueue:
    """The ready queue's "fair" policy: deficit round-robin across
    session bins, age priority within a bin."""

    def _inst(self, session, age, i=0):
        k = KernelDef(name=f"{session}.k", body=lambda ctx: None,
                      has_age=True, index_vars=("x",), domain={"x": 64})
        return KernelInstance(k, age=age, index=(i,))

    def test_round_robin_across_sessions(self):
        q = ReadyQueue(scheduling="fair")
        for age in range(3):
            q.push(self._inst("a", age))
            q.push(self._inst("b", age))
        sessions = []
        for _ in range(6):
            inst, _ = q.pop_timed()
            sessions.append(inst.kernel.name.split(".")[0])
        # Alternates — neither session gets two turns in a row.
        assert sessions in (["a", "b"] * 3, ["b", "a"] * 3)

    def test_weights_bias_dispatch(self):
        q = ReadyQueue(scheduling="fair", session_weights={"g": 2})
        for age in range(4):
            q.push(self._inst("g", age))
            q.push(self._inst("e", age))
        order = []
        for _ in range(6):
            inst, _ = q.pop_timed()
            order.append(inst.kernel.name.split(".")[0])
        # Quantum 2 vs 1: gold draws two dispatch slots per round.
        assert order in (["g", "g", "e"] * 2, ["e", "g", "g"] * 2)

    def test_age_priority_within_session(self):
        q = ReadyQueue(scheduling="fair")
        for age in (5, 1, 3):
            q.push(self._inst("a", age))
        ages = [q.pop_timed()[0].age for _ in range(3)]
        assert ages == [1, 3, 5]

    def test_min_age_scoped_per_session(self):
        q = ReadyQueue(scheduling="fair")
        q.push(self._inst("a", 7))
        q.push(self._inst("b", 2))
        assert q.min_age("a") == 7
        assert q.min_age("b") == 2
        assert q.min_age() == 2
        assert q.min_age("c") is None

    def test_batches_never_span_sessions(self):
        q = ReadyQueue(scheduling="fair")
        ka = KernelDef(name="a.k", body=lambda ctx: None, has_age=True,
                       index_vars=("x",), domain={"x": 64})
        kb = KernelDef(name="b.k", body=lambda ctx: None, has_age=True,
                       index_vars=("x",), domain={"x": 64})
        for i in range(3):
            q.push(KernelInstance(ka, age=0, index=(i,)))
            q.push(KernelInstance(kb, age=0, index=(i,)))
        batch, _ = q.pop_batch(16)
        names = {inst.kernel.name for inst in batch}
        assert len(names) == 1  # one session's run only
        assert len(batch) == 3


class TestByteIdentity:
    """Every session byte-identical to its solo batch run."""

    def test_threads_three_sessions(self):
        specs, sinks, cfgs = [], {}, {}
        for i in range(3):
            spec, sink, cfg = make_session(f"s{i}", seed=100 + i)
            specs.append(spec)
            sinks[spec.name] = sink
            cfgs[spec.name] = cfg
        mgr = SessionManager(specs, workers=4)
        result = mgr.run(timeout=120)
        assert result.reason == "idle"
        rep = result.stream
        assert set(rep.sessions) == {"s0", "s1", "s2"}
        for name, r in rep.sessions.items():
            assert r.session == name
            assert r.offered == r.completed == 6
            assert r.shed == 0 and r.degraded == 0
            assert sinks[name].stream() == mjpeg_baseline(
                config=cfgs[name]
            )

    def test_processes_backend_with_batching(self):
        specs, sinks, cfgs = [], {}, {}
        for i in range(2):
            spec, sink, cfg = make_session(f"p{i}", frames=5,
                                           seed=500 + i)
            specs.append(spec)
            sinks[spec.name] = sink
            cfgs[spec.name] = cfg
        mgr = SessionManager(specs, workers=2, backend="processes",
                             batch=8)
        result = mgr.run(timeout=300)
        assert result.reason == "idle"
        for name in sinks:
            r = result.stream.sessions[name]
            assert r.completed == 5
            # Session-scoped retirement ran (shared-memory segments of
            # drained ages were actually freed).
            assert r.freed_bytes > 0
            assert sinks[name].stream() == mjpeg_baseline(
                config=cfgs[name]
            )

    def test_cluster_sessions(self):
        from repro.dist import Cluster
        from repro.stream import MultitenantReport

        specs, sinks, cfgs = [], {}, {}
        for i in range(3):
            spec, sink, cfg = make_session(f"c{i}", seed=300 + i)
            specs.append(spec)
            sinks[spec.name] = sink
            cfgs[spec.name] = cfg
        merged = merge_sessions(specs)
        result = Cluster(merged, {"n0": 2, "n1": 2}).run(
            sessions=specs, timeout=120, stall_timeout=60
        )
        assert isinstance(result.stream, MultitenantReport)
        assert result.cross_node_messages() > 0
        for name in sinks:
            r = result.stream.sessions[name]
            assert r.offered == r.completed == 6
            assert sinks[name].stream() == mjpeg_baseline(
                config=cfgs[name]
            )

    def test_single_session_matches_solo_stream_run(self):
        """A one-tenant manager is just a namespaced PR 5 run."""
        spec, sink, cfg = make_session("only", frames=8)
        mgr = SessionManager([spec], workers=2)
        result = mgr.run(timeout=120)
        assert result.reason == "idle"
        assert sink.stream() == mjpeg_baseline(config=cfg)
        # Per-session metrics landed under the namespaced prefix.
        snap = mgr.node.metrics.snapshot()
        assert snap["stream.only.frames.completed"]["value"] == 8


class TestAdmission:
    def test_reject_past_capacity(self):
        specs = [make_session(f"r{i}")[0] for i in range(3)]
        mgr = SessionManager(specs[:2], max_sessions=2)
        with pytest.raises(AdmissionError):
            mgr.add_session(specs[2])

    def test_capacity_defaults_scale_with_workers(self):
        mgr = SessionManager(workers=3)
        assert mgr.capacity == 12

    def test_queue_admits_when_slot_frees(self):
        specs, sinks, cfgs = [], {}, {}
        for i in range(3):
            spec, sink, cfg = make_session(f"q{i}", frames=4,
                                           seed=700 + i)
            specs.append(spec)
            sinks[spec.name] = sink
            cfgs[spec.name] = cfg
        mgr = SessionManager(specs, workers=2, max_sessions=1,
                             admission="queue")
        assert mgr.sessions == ["q0", "q1", "q2"]
        result = mgr.run(timeout=120)
        assert result.reason == "idle"
        # Every queued session eventually streamed to completion,
        # byte-identically.
        for name in sinks:
            assert result.stream.sessions[name].completed == 4
            assert sinks[name].stream() == mjpeg_baseline(
                config=cfgs[name]
            )


    def test_failed_join_stops_the_queue_watcher(self):
        """A kernel error with a session still queued: ``join`` raises,
        the watcher is gone when it does, and the queued tenant was not
        started on the wound-down node."""
        from dataclasses import replace as dc_replace

        spec0, _, _ = make_session("e0", frames=50)
        spec1, _, _ = make_session("e1", frames=4)

        def boom(ctx):
            raise RuntimeError("boom")

        kernels = spec0.program.kernels
        kernels["ydct"] = dc_replace(
            kernels["ydct"], body=boom, batch_body=None
        )
        mgr = SessionManager([spec0, spec1], workers=2, max_sessions=1,
                             admission="queue")
        mgr.start()
        with pytest.raises(KernelBodyError, match="boom"):
            mgr.join(timeout=60)
        assert not mgr._watcher.is_alive()
        assert mgr._active == {"e0"}
        assert mgr.drivers["e1"]._thread is None


def _run_threads():
    """Live threads a finished run must not leave behind."""
    return sorted(
        t.name for t in threading.enumerate()
        if t.name.startswith(
            ("stream-driver", "session-watcher", "telemetry")
        )
    )


def _door_run_program(spec, tel, tracer=None):
    result = run_program(
        spec.program, 2, stream=spec.binding, telemetry=tel, timeout=120,
        tracer=tracer,
    )
    return result.stream, result


def _door_manager(spec, tel, tracer=None):
    result = SessionManager(
        [spec], workers=2, telemetry=tel, tracer=tracer
    ).run(timeout=120)
    return result.stream.sessions[spec.name], result


def _door_cluster_stream(spec, tel, tracer=None):
    from repro.dist import Cluster

    result = Cluster(spec.program, {"n0": 2}).run(
        stream=spec.binding, telemetry=tel, timeout=120, tracer=tracer
    )
    return result.stream, result


def _door_cluster_sessions(spec, tel, tracer=None):
    from repro.dist import Cluster

    result = Cluster(merge_sessions([spec]), {"n0": 1, "n1": 1}).run(
        sessions=[spec], telemetry=tel, timeout=120, tracer=tracer
    )
    return result.stream.sessions[spec.name], result


class TestOneLifecycle:
    """The four ways to run a live clip share one bring-up / wind-down
    routine: same bytes, same counts, nothing left running."""

    @pytest.mark.parametrize("door", [
        _door_run_program, _door_manager,
        _door_cluster_stream, _door_cluster_sessions,
    ])
    def test_same_bytes_and_no_thread_left(self, door):
        from repro.obs import Telemetry, TelemetryConfig

        spec, sink, cfg = make_session("s0")
        tel = Telemetry(TelemetryConfig(port=0))
        rep, _result = door(spec, tel)
        assert rep.offered == rep.completed == 6
        assert sink.stream() == mjpeg_baseline(config=cfg)
        assert tel.exporter.ticks >= 1  # it ran, and stop() sampled
        assert _run_threads() == []

    def test_sessions_share_one_stream_clock(self):
        """Frame ``a`` of every session started together is due at the
        same instant: the drivers' clocks are reset to one reading, not
        each when its thread happened to start."""
        specs = [make_session(f"c{i}", frames=3, fps=50.0)[0]
                 for i in range(4)]
        mgr = SessionManager(specs, workers=2)
        mgr.start()
        marks = {d.timer._mark for d in mgr.drivers.values()}
        mgr.join(timeout=120)
        assert len(marks) == 1


_DOORS = [
    _door_run_program, _door_manager,
    _door_cluster_stream, _door_cluster_sessions,
]

#: The ``(cat, name)`` pairs a traced run without telemetry recorded
#: before the frame timeline became a sink of the tracer (mulsum
#: ``max_age=3`` on threads, a 32x32 two-frame MJPEG encode on the
#: processes backend, mulsum on a two-node cluster).
_MULSUM_PAIRS = {
    ("analyzer", "ResizeEvent"), ("analyzer", "StoreEvent"),
    ("kernel", "init"), ("kernel", "mul2"), ("kernel", "plus5"),
    ("kernel", "print"), ("phase", "fetch"), ("phase", "native"),
    ("phase", "store"), ("scheduler", "dispatch"),
}
_MJPEG_PROCESSES_PAIRS = {
    ("analyzer", "InstanceDoneEvent"), ("analyzer", "StoreEvent"),
    ("kernel", "read"), ("kernel", "udct"), ("kernel", "vdct"),
    ("kernel", "vlc"), ("kernel", "ydct"), ("phase", "ipc"),
    ("scheduler", "dispatch"),
}


def _pairs(tracer):
    return {(e["cat"], e["name"]) for e in tracer.events() if e["ph"] != "M"}


class TestOneSpanStream:
    """Each timed event is recorded once, into the run's tracer; the
    Chrome trace, the flight ring and the frame timeline are its sinks
    (DESIGN.md section 9)."""

    @pytest.mark.parametrize("door", _DOORS)
    def test_every_frame_span_reaches_the_sink_once(self, door,
                                                    monkeypatch):
        from collections import Counter

        from repro.obs import SPAN_BUCKETS, Telemetry, Tracer

        attached = []
        attach = Tracer.attach

        def counting_attach(self, frames):
            attached.append(frames)
            attach(self, frames)

        monkeypatch.setattr(Tracer, "attach", counting_attach)
        spec, sink, cfg = make_session("s0")
        tel, tr = Telemetry(), Tracer(mode="full")
        received = []
        recorder_span = tel.timeline.span

        def span(name, key, t0, t1):
            received.append((name, t0, t1))
            recorder_span(name, key, t0, t1)

        tel.timeline.span = span
        rep, result = door(spec, tel, tracer=tr)
        assert sink.stream() == mjpeg_baseline(config=cfg)
        # The recorder is attached once, to the one stream every node
        # (two of them on the sessions cluster) and the transport share.
        assert attached == [tel.timeline]
        assert tr.frames is tel.timeline and result.tracer is tr
        events = [e for e in tr.events() if e["ph"] == "X"]
        # Every instance of the stream program is aged, so every span
        # of a bucketed name in the Chrome trace is frame-keyed.
        assert all(e["args"]["age"] is not None
                   for e in events if e["cat"] == "kernel")
        chrome = Counter(
            (e["name"], e["ts"], e["dur"])
            for e in events if e["name"] in SPAN_BUCKETS
        )
        at_sink = Counter(
            (name, tr._ts_us(t0), max(0.0, tr._ts_us(t1) - tr._ts_us(t0)))
            for name, t0, t1 in received
        )
        assert at_sink == chrome
        assert {name for name, _ts, _dur in chrome} >= {
            "gate", "admit", "queue", "fetch", "native", "store"
        }
        stage_sum = sum(s["mean"] for s in rep.stages.values())
        e2e = rep.latency_ms["mean"]
        assert abs(stage_sum - e2e) <= 0.05 * e2e, (stage_sum, e2e)

    @pytest.mark.parametrize("door", _DOORS)
    def test_telemetry_only_builds_no_chrome_event(self, door, monkeypatch,
                                                   tmp_path):
        from repro.obs import BUCKETS, NULL_TRACER, Telemetry, Tracer

        def no_lane(*_a):
            raise AssertionError("a telemetry-only run allocated a lane")

        monkeypatch.setattr(Tracer, "lane", no_lane)
        monkeypatch.setenv("P2G_FLIGHT_DIR", str(tmp_path))
        spec, sink, cfg = make_session("s0")
        tel = Telemetry()
        rep, result = door(spec, tel)
        assert rep.completed == 6
        assert sink.stream() == mjpeg_baseline(config=cfg)
        assert set(rep.stages) == set(BUCKETS)
        assert result.tracer is None
        assert list(tmp_path.iterdir()) == []
        assert NULL_TRACER.frames is None and not NULL_TRACER.enabled

    def test_traced_run_keeps_the_trace_content(self):
        """A traced run without telemetry records what it did before,
        plus each claim's ``queue`` span and, on the processes backend,
        the ``native`` / ``store`` children carved from the round trip;
        a cluster's delivered store events are ``transport`` spans."""
        from repro.dist import Cluster
        from repro.obs import Tracer
        from repro.workloads import MJPEGConfig, build_mjpeg, build_mulsum

        queue = {("phase", "queue")}
        tr = Tracer()
        program, _ = build_mulsum()
        run_program(program, workers=2, max_age=3, tracer=tr)
        assert _pairs(tr) == _MULSUM_PAIRS | queue

        tr = Tracer()
        program, _ = build_mjpeg(config=MJPEGConfig(width=32, height=32,
                                                    frames=2))
        run_program(program, workers=2, backend="processes", tracer=tr)
        assert _pairs(tr) == _MJPEG_PROCESSES_PAIRS | queue | {
            ("phase", "native"), ("phase", "store"),
        }

        tr = Tracer()
        program, _ = build_mulsum()
        result = Cluster(program, {"n0": 1, "n1": 1}).run(
            max_age=3, tracer=tr, timeout=60
        )
        assert result.cross_node_messages() > 0
        assert _pairs(tr) == _MULSUM_PAIRS | queue | {
            ("transport", "transport"),
        }


class TestTierFairness:
    """Starvation: offered rate beyond capacity.  Gold never sheds;
    best-effort absorbs the overload."""

    def _overloaded_specs(self, *, seed=0, degrade_ratio=0.0):
        specs, sinks = [], {}
        tiers = {"gold0": "gold", "be0": "best-effort",
                 "be1": "best-effort"}
        for name, tier in tiers.items():
            spec, sink, _ = make_session(
                name, frames=30, size=64, seed=42,
                fps=400.0, lag_window=2, deadline_ms=8.0,
                shed_seed=seed, degrade_ratio=degrade_ratio,
                qos_class=tier,
            )
            specs.append(spec)
            sinks[name] = sink
        return specs, sinks

    def test_gold_zero_shed_while_best_effort_sheds(self):
        specs, _ = self._overloaded_specs()
        mgr = SessionManager(specs, workers=1)
        result = mgr.run(timeout=300)
        rep = result.stream
        gold = rep.sessions["gold0"]
        assert gold.qos_class == "gold"
        assert gold.shed == 0 and gold.degraded == 0
        assert gold.completed == gold.offered == 30
        be_shed = sum(
            rep.sessions[n].shed for n in ("be0", "be1")
        )
        assert be_shed > 0
        by_class = rep.by_class()
        assert by_class["gold"]["shed"] == 0
        assert by_class["best-effort"]["shed"] == be_shed

    def test_shed_split_is_pure_function_of_seed_and_age(self):
        specs, _ = self._overloaded_specs(seed=77, degrade_ratio=0.4)
        mgr = SessionManager(specs, workers=1)
        rep = mgr.run(timeout=300).stream
        checked = 0
        for name in ("be0", "be1"):
            r = rep.sessions[name]
            assert r.shed_seed == 77
            # Which ages were *late* depends on timing, but given a
            # late age the shed-vs-degrade verdict is the deterministic
            # hash split — reproducible from the report alone.
            for age in r.shed_ages:
                assert shed_fraction(77, age) >= 0.4
                checked += 1
            for age in r.degraded_ages:
                assert shed_fraction(77, age) < 0.4
                checked += 1
        assert checked > 0  # starvation actually occurred


class TestTeardownIsolation:
    """One session ending mid-flight: its gate closes and its ages
    free, the co-tenants notice nothing (the satellite fix for the
    formerly driver-global gate/retirer)."""

    def test_stop_one_session_others_complete(self):
        specs, sinks, cfgs = [], {}, {}
        for i in range(3):
            spec, sink, cfg = make_session(
                f"t{i}", frames=20, seed=900 + i, fps=100.0,
                max_frames=20,
            )
            specs.append(spec)
            sinks[spec.name] = sink
            cfgs[spec.name] = cfg
        mgr = SessionManager(specs, workers=2)
        mgr.start()
        time.sleep(0.06)  # a few frames into every stream
        mgr.stop_session("t1")
        result = mgr.join(timeout=120)
        assert result.reason == "idle"  # no stuck credits or tokens
        rep = result.stream
        # The stopped session drained a strict prefix...
        t1 = rep.sessions["t1"]
        assert t1.completed < 20
        assert t1.completed == sinks["t1"].frame_count()
        solo = mjpeg_baseline(config=cfgs["t1"])
        assert solo.startswith(sinks["t1"].stream())
        # ...its gate is closed (no further admissions)...
        assert mgr.drivers["t1"].gate.admit(t1.completed + 100) is False
        # ...and the survivors saw their full stream, byte-identical.
        for name in ("t0", "t2"):
            assert rep.sessions[name].completed == 20
            assert sinks[name].stream() == mjpeg_baseline(
                config=cfgs[name]
            )

    def test_finished_session_frees_its_fields_only(self):
        """A short session ends while a long one is mid-flight: the
        short tenant's ages retire without disturbing the long one."""
        short, short_sink, short_cfg = make_session(
            "short", frames=3, seed=21
        )
        long_, long_sink, long_cfg = make_session(
            "long", frames=30, seed=22
        )
        mgr = SessionManager([short, long_], workers=2)
        result = mgr.run(timeout=120)
        assert result.reason == "idle"
        rep = result.stream
        assert rep.sessions["short"].completed == 3
        assert rep.sessions["long"].completed == 30
        assert rep.sessions["long"].freed_bytes > 0
        assert short_sink.stream() == mjpeg_baseline(config=short_cfg)
        assert long_sink.stream() == mjpeg_baseline(config=long_cfg)


    def test_analyzer_bookkeeping_is_bounded_per_session(self):
        """Each session's retirer drops only its own kernels' dispatch
        bookkeeping: after 300 frames per tenant the shared analyzer
        tracks a window's worth of instances per session."""
        specs = [
            make_session(f"s{i}", frames=300, seed=30 + i, lag_window=8)[0]
            for i in range(2)
        ]
        mgr = SessionManager(specs, workers=2, batch=32)
        result = mgr.run(timeout=300)
        assert result.reason == "idle"
        for name in ("s0", "s1"):
            assert result.stream.sessions[name].completed == 300
        per_frame = 16 + 4 + 4 + 1  # y/u/v dct blocks + vlc at 32x32
        analyzer = mgr.node.analyzer
        assert analyzer.dispatched_count() == 2 * 300 * per_frame
        keep = specs[0].binding.config.keep_ages
        assert analyzer.tracked_instances() <= 2 * (8 + keep + 1) * per_frame


class TestStartStopInterleavings:
    """Hypothesis property: arbitrary admission orders, capacities and
    stop schedules never cross-contaminate sessions — every sink holds
    a frame-aligned byte prefix of its solo baseline, and credits never
    leak across gates."""

    def _run_schedule(self, order, capacity, stop_after_ms):
        n = len(order)
        specs, sinks, cfgs = {}, {}, {}
        for i in range(n):
            spec, sink, cfg = make_session(
                f"h{i}", frames=4, size=16, seed=40 + i,
                fps=200.0, max_frames=4,
            )
            specs[spec.name] = spec
            sinks[spec.name] = sink
            cfgs[spec.name] = cfg
        ordered = [specs[f"h{i}"] for i in order]
        mgr = SessionManager(ordered, workers=2,
                             max_sessions=capacity,
                             admission="queue")
        mgr.start()
        stops = sorted(
            (ms, f"h{i}") for i, ms in enumerate(stop_after_ms)
            if ms is not None
        )
        t0 = time.perf_counter()
        for ms, name in stops:
            delay = ms / 1000.0 - (time.perf_counter() - t0)
            if delay > 0:
                time.sleep(delay)
            mgr.stop_session(name)
        result = mgr.join(timeout=120)
        assert result.reason == "idle"
        for i in range(n):
            name = f"h{i}"
            sink, drv = sinks[name], mgr.drivers[name]
            # Credits never crossed sessions: this gate saw exactly as
            # many completions as this sink saw frames.
            assert drv.completed_count() == sink.frame_count()
            assert drv.report().completed <= drv.report().offered
            # Field data never crossed sessions: the output is a
            # byte-prefix of this session's solo run.
            solo = mjpeg_baseline(config=cfgs[name])
            assert solo.startswith(sink.stream())
            if stop_after_ms[i] is None and capacity >= n:
                assert sink.stream() == solo

    def test_property_interleavings(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        @st.composite
        def schedules(draw):
            n = draw(st.integers(min_value=2, max_value=3))
            order = draw(st.permutations(list(range(n))))
            capacity = draw(st.integers(min_value=1, max_value=n))
            stops = draw(st.lists(
                st.one_of(
                    st.none(),
                    st.integers(min_value=0, max_value=30),
                ),
                min_size=n, max_size=n,
            ))
            return order, capacity, stops

        @settings(
            max_examples=8, deadline=None,
            suppress_health_check=[
                HealthCheck.too_slow,
                HealthCheck.data_too_large,
            ],
        )
        @given(schedules())
        def prop(schedule):
            order, capacity, stops = schedule
            self._run_schedule(order, capacity, stops)

        prop()


class TestChaosMultitenant:
    """Node kill under four live sessions: the fence/replay recovery
    must restore every surviving session byte-identically, with no
    cross-session replay leakage.  Failures archive the fault schedule
    as a seeded repro JSON (CI uploads it)."""

    NODES = {"n0": 2, "n1": 2, "n2": 1}

    def _dump_repro(self, schedule, seed):
        import json
        import os
        import pathlib

        out_dir = pathlib.Path(os.environ.get("CHAOS_REPRO_DIR", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"chaos-repro-multitenant-seed{seed}.json"
        path.write_text(json.dumps(schedule.to_json(), indent=2) + "\n")
        return path

    @pytest.mark.parametrize("seed", [11, 23])
    def test_node_kill_four_sessions_byte_identical(self, seed):
        from repro.dist import Cluster, FaultInjector, FaultSchedule
        from repro.dist.recovery import RecoveryConfig

        specs, sinks, cfgs = [], {}, {}
        for i in range(4):
            spec, sink, cfg = make_session(
                f"k{i}", frames=5, seed=60 + i
            )
            specs.append(spec)
            sinks[spec.name] = sink
            cfgs[spec.name] = cfg
        schedule = FaultSchedule.random(
            sorted(self.NODES), seed, kinds=("kill",), n_faults=1
        )
        merged = merge_sessions(specs)
        try:
            result = Cluster(merged, dict(self.NODES)).run(
                sessions=specs, timeout=300, stall_timeout=120,
                faults=FaultInjector(schedule),
                recovery=RecoveryConfig(
                    heartbeat_interval=0.01, heartbeat_timeout=0.1
                ),
            )
            assert result.reason == "idle"
            rep = result.stream
            for name in sinks:
                r = rep.sessions[name]
                # No replay leakage: completions are counted once per
                # session (a cross-session duplicate would overshoot).
                assert r.completed == r.offered == 5
                assert sinks[name].stream() == mjpeg_baseline(
                    config=cfgs[name]
                )
        except BaseException:
            path = self._dump_repro(schedule, seed)
            print(f"chaos repro schedule written to {path}")
            raise


class TestNamespacing:
    """The program rewrite itself."""

    def test_names_are_prefixed_and_bodies_untouched(self):
        from repro.stream import namespace_program, session_of_name

        spec, _, _ = make_session("ns")
        sub = namespace_program(spec.program, "ns")
        assert all(f.startswith("ns.") for f in sub.fields)
        assert all(k.startswith("ns.") for k in sub.kernels)
        for k in sub.kernels.values():
            orig = spec.program.kernels[k.name.removeprefix("ns.")]
            assert k.body is orig.body
            for s, os_ in zip(k.stores, orig.stores):
                # Bodies emit un-namespaced keys; the store spec's key
                # stays pinned to the original emit key.
                assert s.key == os_.emit_key
                assert s.field == "ns." + os_.field
        assert session_of_name("ns.ydct") == "ns"
        assert session_of_name("ydct") == ""

    def test_invalid_session_names_rejected(self):
        spec, _, _ = make_session("ok")
        for bad in ("", "a.b", "a/b"):
            with pytest.raises(ValueError):
                SessionSpec(bad, spec.program, spec.binding)

    def test_duplicate_sessions_rejected(self):
        spec, _, _ = make_session("dup")
        with pytest.raises(ValueError):
            merge_sessions([spec, spec])
        mgr = SessionManager([spec])
        with pytest.raises(ValueError):
            mgr.add_session(spec)

    def test_solo_program_unaffected_by_namespacing(self):
        """Namespacing copies; the original spec still runs solo."""
        spec, sink, cfg = make_session("copy", frames=4)
        from repro.stream import namespace_program

        namespace_program(spec.program, "copy")
        result = run_program(spec.program, workers=2,
                             stream=spec.binding)
        assert result.stream.completed == 4
        assert sink.stream() == mjpeg_baseline(config=cfg)
