"""One holder per fact: the metrics registry reads each layer's holder
when it takes a snapshot instead of being written beside it (DESIGN.md
section 9).

* **Metrics are live** — a snapshot taken while a run is in flight
  already shows the ready queue's totals, and on a cluster the
  transport's.
* **Same names, same numbers** — every ``(name, type)`` pair the
  registry reported when facts were copied into it is still reported,
  and the dispatch counters are the instrumentation's.
* **Nothing is written per dispatch** — a batch run calls no counter,
  gauge or histogram write at all.
"""

import sys
from dataclasses import replace

import pytest

from repro.core import Program, run_program
from repro.dist import (
    Cluster,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    RecoveryConfig,
)
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
    TelemetryConfig,
    flatten,
)
from repro.stream import SessionManager, SessionSpec, StreamConfig
from repro.workloads import (
    MJPEGConfig,
    build_kmeans,
    build_mjpeg_stream,
    build_mulsum,
)
from tests.conftest import assert_registries_agree

FAST = RecoveryConfig(heartbeat_interval=0.01, heartbeat_timeout=0.1)


def _shaped(program):
    """``build_mulsum`` with declared extents, as the processes backend
    needs them (shared-memory fields cannot resize)."""
    out = Program.build(
        [replace(f, shape=(5,)) for f in program.fields.values()],
        program.kernels.values(), program.timers, name=program.name,
    )
    out.set_output_handler(program.output_handler)
    return out


def _mulsum(backend, batch, **kw):
    program, _ = build_mulsum(**kw.pop("build", {}))
    if backend == "processes":
        program = _shaped(program)
    return run_program(program, workers=2, max_age=3, backend=backend,
                       batch=batch, timeout=60, **kw)


def _kmeans(backend, batch, **kw):
    program, _ = build_kmeans(n=60, k=5, iterations=3)  # pair granularity
    return run_program(program, workers=2, backend=backend, batch=batch,
                       timeout=60, **kw)


def _sessions():
    specs = []
    for i, name in enumerate(("s0", "s1")):
        cfg = MJPEGConfig(width=32, height=32, frames=4, seed=1234 + i)
        program, _sink, binding = build_mjpeg_stream(
            cfg, StreamConfig(fps=0, max_frames=4, lag_window=4)
        )
        specs.append(SessionSpec(name, program, binding))
    return SessionManager(specs, workers=2).run(timeout=120)


def _cluster():
    program, _ = build_mulsum()
    return Cluster(program, {"n0": 1, "n1": 1, "n2": 1}).run(
        max_age=3, timeout=60
    )


BATCH_RUNS = {
    f"{name}-{backend}-{batch}": (run, backend, batch)
    for name, run in (("mulsum", _mulsum), ("kmeans", _kmeans))
    for backend in ("threads", "processes")
    for batch in (1, 32)
}

# ``RunResult.metrics.snapshot()`` of these runs, recorded when the
# registry was written beside each layer (per-dispatch counter writes,
# join-time copies).
_NODE = frozenset({
    ("exec.vectorize_fallbacks", "counter"),
    ("exec.vectorized_instances", "counter"),
    ("fields.bytes_live", "gauge"),
    ("fields.fetches", "counter"),
    ("fields.gc_bytes", "counter"),
    ("fields.live_bytes", "gauge"),
    ("fields.stores", "counter"),
    ("instances.abandoned", "counter"),
    ("instances.executed", "counter"),
    ("process.peak_rss_bytes", "gauge"),
    ("ready.depth.max", "gauge"),
    ("ready.pops", "counter"),
    ("ready.pushes", "counter"),
    ("ready.wait_s", "histogram"),
})
_CLAIMS = frozenset({
    ("exec.claim_size", "histogram"),
    ("exec.claims", "counter"),
})
RECORDED_NAMES = {
    **{run: _NODE | _CLAIMS if run.endswith("-32") else _NODE
       for run in BATCH_RUNS},
    "sessions": _NODE | {
        (f"stream.{s}.{name}", kind)
        for s in ("s0", "s1")
        for name, kind in (
            ("frames.admitted", "counter"),
            ("frames.completed", "counter"),
            ("frames.degraded", "counter"),
            ("frames.offered", "counter"),
            ("frames.shed", "counter"),
            ("latency_ms", "histogram"),
            ("live_bytes.peak", "gauge"),
            ("retired_bytes", "counter"),
        )
    },
    "cluster": _NODE | {
        ("transport.bytes", "gauge"),
        ("transport.delivery_errors", "gauge"),
        ("transport.drops", "gauge"),
        ("transport.messages", "gauge"),
        ("transport.stale_rejects", "gauge"),
    },
}


def _run(name):
    if name in BATCH_RUNS:
        run, backend, batch = BATCH_RUNS[name]
        return run(backend, batch)
    return {"sessions": _sessions, "cluster": _cluster}[name]()


def _value(snap, name):
    return snap.get(name, {}).get("value", 0)


class TestMetricsAreLive:
    """Taken mid-run, a snapshot already holds what only ``join()``
    used to copy in."""

    def _assert_queue_live(self, snaps):
        assert snaps, "no snapshot was taken in flight"
        assert all(_value(s, "ready.pops") > 0 for s in snaps)
        assert all(_value(s, "ready.depth.max") > 0 for s in snaps)

    def test_mulsum_from_a_kernel_body(self):
        reg = MetricsRegistry()
        snaps = []
        # ``echo`` is called from the ``print`` kernel's body.
        _mulsum("threads", 1, metrics=reg,
                build={"echo": lambda _line: snaps.append(reg.snapshot())})
        self._assert_queue_live(snaps)

    def test_kmeans_from_the_output_handler(self):
        reg = MetricsRegistry()
        snaps = []
        program, sink = build_kmeans(n=60, k=5, iterations=3)
        deliver = program.output_handler

        def handler(*args):
            deliver(*args)
            snaps.append(reg.snapshot())

        program.set_output_handler(handler)
        run_program(program, workers=2, metrics=reg, timeout=60)
        assert len(sink.history) == 4
        self._assert_queue_live(snaps)

    def test_stream_exporter_tick(self):
        tel = Telemetry(TelemetryConfig(interval_s=10.0))
        cfg = MJPEGConfig(width=32, height=32, frames=6)
        program, _sink, binding = build_mjpeg_stream(
            cfg, StreamConfig(fps=0, max_frames=6, lag_window=4)
        )
        ticks = []
        deliver = program.output_handler

        def handler(*args):
            deliver(*args)
            ticks.append(tel.exporter.sample())

        program.set_output_handler(handler)
        result = run_program(program, workers=2, stream=binding,
                             telemetry=tel, timeout=120)
        assert result.stream.completed == 6
        self._assert_queue_live(ticks)
        assert _value(ticks[-1], "stream.frames.offered") > 0

    def test_two_node_transport(self):
        reg = MetricsRegistry()
        snaps = []
        program, _ = build_mulsum(
            echo=lambda _line: snaps.append(reg.snapshot())
        )
        Cluster(program, {"n0": 1, "n1": 1}).run(
            max_age=3, timeout=60, metrics=reg
        )
        self._assert_queue_live(snaps)
        assert all(_value(s, "transport.messages") > 0 for s in snaps)


class TestSameNamesSameNumbers:
    @pytest.mark.parametrize("name", sorted(RECORDED_NAMES))
    def test_every_name_keeps_its_type(self, name):
        snap = _run(name).metrics.snapshot()
        got = {metric: s["type"] for metric, s in snap.items()}
        missing = {
            (metric, kind) for metric, kind in RECORDED_NAMES[name]
            if got.get(metric) != kind
        }
        assert not missing
        # At batch=1 the claim counters are new, and one per instance.
        assert _CLAIMS <= set(got.items())

    @pytest.mark.parametrize("name", sorted(BATCH_RUNS))
    def test_dispatch_counters_are_the_instrumentation(self, name):
        result = _run(name)
        flat = flatten(result.metrics.snapshot())
        stats = result.instrumentation.stats().values()
        total = {
            field: sum(getattr(s, field) for s in stats)
            for field in ("instances", "claims", "fetches", "stores",
                          "vectorized", "fallbacks")
        }
        assert total["instances"] > 0
        assert flat["instances.executed"] == total["instances"]
        assert flat["exec.claims"] == total["claims"]
        assert flat["fields.fetches"] == total["fetches"]
        assert flat["fields.stores"] == total["stores"]
        assert flat["exec.vectorized_instances"] == total["vectorized"]
        assert flat["exec.vectorize_fallbacks"] == total["fallbacks"]
        assert flat["exec.claim_size.count"] == total["claims"]
        assert flat["exec.claim_size.sum"] == total["instances"]
        # Every popped instance ran; one wait observation per claim.
        assert flat["ready.pops"] == total["instances"]
        assert flat["ready.wait_s.count"] == total["claims"]
        if name.endswith("-1"):
            assert total["claims"] == total["instances"]
            assert flat["exec.claim_size.max"] == 1

    def test_recovered_cluster_counts_the_successor(self):
        program, _ = build_mulsum()
        cluster = Cluster(program, {"n0": 1, "n1": 1, "n2": 1})
        result = cluster.run(
            max_age=3, timeout=60, recovery=FAST,
            faults=FaultInjector(FaultSchedule([FaultSpec("n1", "kill", 0)])),
        )
        assert_registries_agree(cluster, result)
        assert [(r.failed, r.replacement) for r in result.recoveries] == [
            ("n1", "n1~1")
        ]
        snap = result.metrics.snapshot()
        assert snap["instances.executed"]["value"] == (
            result.instrumentation.total_instances()
        )


class TestNothingWrittenPerDispatch:
    """A batch run's facts all have holders other than the registry:
    not one counter, gauge or histogram write happens."""

    @pytest.mark.parametrize("name", sorted(BATCH_RUNS))
    def test_batch_run_writes_no_metric(self, name, monkeypatch):
        calls = []
        for cls, method in ((Counter, "inc"), (Gauge, "set"),
                            (Gauge, "set_max"), (Histogram, "observe")):
            real = getattr(cls, method)

            def counted(self, *args, _real=real, _name=method, **kw):
                calls.append((type(self).__name__, _name))
                return _real(self, *args, **kw)

            monkeypatch.setattr(cls, method, counted)
        result = _run(name)
        assert result.instrumentation.total_instances() > 0
        assert calls == []


class TestHoldersUnderContention:
    def test_counts_exact_with_more_workers_than_cores(self):
        """Four workers on a host with fewer cores, switching threads
        every microsecond: every claim's counters land in its holder's
        one critical section, so none is lost."""
        program, _ = build_kmeans(n=60, k=5, iterations=3)
        expected = run_program(program, workers=1, timeout=60)
        want = expected.instrumentation.total_instances()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            program, _ = build_kmeans(n=60, k=5, iterations=3)
            result = run_program(program, workers=4, timeout=60)
        finally:
            sys.setswitchinterval(interval)
        flat = flatten(result.metrics.snapshot())
        assert flat["instances.executed"] == want
        assert flat["exec.claims"] == want  # batch=1: one per instance
        assert flat["ready.pops"] == flat["ready.pushes"] == want
        assert flat["ready.wait_s.count"] == want
