"""The five ledger workloads and the one routine that measures them.

Every workload is driven through the public API only: ``build_*`` from
``repro.workloads``, :class:`ExecutionNode` / :class:`StreamDriver` /
:class:`SessionManager`, and each program's own output handler (wrapped
here so the harness, not the system, stamps every result's emit time).
Inputs and the sequential reference are produced from ``--seed`` before
any clock starts; the harness adds no thread of its own — the only
generator threads are the ``StreamDriver`` pacing threads, which are
part of the system under test.

A run is ``warmup_s`` of the workload (excluded) followed by ``seconds``
of measured window.  Live workloads stream for exactly that long and
then drain; batch workloads repeat one fixed-size job back to back and
stop at the job boundary nearest the end of the window.

The process is pinned to one CPU (:func:`pin_to_one_cpu`) and every
time is also kept in *nominal* time, i.e. scaled by the speed of the
shared host as :class:`HostClock` reads it on that CPU; README.md says
why, with the measurements.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import ExecutionNode
from repro.media.yuv import synthetic_sequence
from repro.obs import Telemetry
from repro.stream import (
    FrameSource,
    SessionManager,
    SessionSpec,
    StreamConfig,
    StreamDriver,
)
from repro.workloads import (
    MJPEGConfig,
    TranscodeConfig,
    build_kmeans,
    build_mjpeg_stream,
    build_transcode,
    kmeans_baseline,
    make_input_jpegs,
    mjpeg_baseline,
    transcode_baseline,
)

WORKERS = 2       #: the sandbox has two cores
CLIP = 16         #: distinct pre-rendered frames per stream, cycled
LAG_WINDOW = 8    #: credits of every live stream
DEADLINE_MS = 1000.0   #: arms QosPolicy on ``sessions_paced``
JOIN_TIMEOUT_S = 120.0

#: Frozen workload constants.  ``full`` is what ``BENCHMARK.json``
#: measures; ``smoke`` is ~1/20 of it for anyone editing the harness.
SIZES = {
    "full": {
        "warmup_s": 2.0,
        "setup_repeats": 40,
        "cif": (352, 288),
        "session_frame": (128, 96),
        "paced_fps": 3.0,
        "session_fps": 4.0,
        "kmeans": {"n": 40, "k": 8, "iterations": 10},
        "transcode_frames": 2,
    },
    "smoke": {
        "warmup_s": 0.3,
        "setup_repeats": 2,
        "cif": (64, 64),
        "session_frame": (64, 64),
        "paced_fps": 10.0,
        "session_fps": 4.0,
        "kmeans": {"n": 60, "k": 4, "iterations": 4},
        "transcode_frames": 4,
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str        #: "stream" | "sessions" | "kmeans" | "transcode"
    backend: str
    batch: int
    primary: str     #: the metric ``obs.trace_overhead_pct`` compares
    unit: str        #: what one unit of ``fps`` / ``cpu_ms_per_unit`` is
    why: str
    paced: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "mjpeg_live_sat", "stream", "processes", 32, "fps", "frame",
            "closed-loop CIF MJPEG encode at the fastest shipped "
            "configuration: kernel bodies, shm and IPC dominate, "
            "dispatch is amortised 32:1",
        ),
        Workload(
            "mjpeg_live_paced", "stream", "processes", 32,
            "latency_p50_ms", "frame",
            "the same program open-loop at a fixed rate below capacity: "
            "deeper queues or bigger batches that raise fps show here "
            "as latency",
            paced=True,
        ),
        Workload(
            "sessions_paced", "sessions", "threads", 32,
            "latency_p50_ms", "frame",
            "4 paced 128x96 tenants on one node: namespaced programs, "
            "per-session gates and retirers, fair DRR dispatch, the "
            "GIL-bound thread backend",
            paced=True,
        ),
        Workload(
            "kmeans_batch", "kmeans", "threads", 1, "fps", "age",
            "dispatch-bound by construction (pair granularity, batch=1): "
            "analyzer, ReadyQueue and fields do nearly all the work, "
            "media, IPC and vectorize none",
        ),
        Workload(
            "ops_transcode", "transcode", "threads", 32, "fps", "frame",
            "the only repro.ops-compiled program: 12 kernels, each stage "
            "a store/analyze/dispatch round trip per age, so operator "
            "fusion shows here and nowhere else",
        ),
    )
}


@dataclass
class Outcome:
    """What one measured run of a workload produced."""

    attempted: int = 0            #: units offered inside the window
    failed: int = 0               #: shed, degraded, missing or wrong bytes
    fps: float = 0.0              #: verified units per second
    latencies_ms: list = field(default_factory=list)
    #: ``(seconds into the window at which the result appeared,
    #: latency ms)`` for every verified unit of the window.
    samples: list = field(default_factory=list)
    #: Live runs: latency of every verified frame, warm-up included (the
    #: population the system's own stage attribution averages over).
    all_ms: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    wall_s: float = 0.0           #: start() -> join() returns
    cpu_s: float = 0.0            #: user+sys, self + reaped workers
    cpu_units: int = 0            #: units that CPU time was spent on
    teardown_s: float = 0.0       #: last emit -> join() returns
    ref_s_per_unit: float = 0.0   #: the sequential reference, per unit
    results: list = field(default_factory=list)    #: RunResult per run
    reports: dict = field(default_factory=dict)    #: session -> StreamReport
    by_session_ms: dict = field(default_factory=dict)
    due: dict = field(default_factory=dict)        #: (session, age) -> due time
    constants: dict = field(default_factory=dict)
    # The same, in nominal time (see HostClock): what run.py reports.
    nominal_fps: float = 0.0
    nominal_samples: list = field(default_factory=list)
    nominal_setup_s: list = field(default_factory=list)
    nominal_cpu_s: float = 0.0
    host_speed: float = 0.0       #: mean over the window, 1.0 = nominal

    def primary(self, name: str) -> float:
        if name == "fps":
            return self.nominal_fps
        return statistics.median(ms for _t, ms in self.nominal_samples)


def pin_to_one_cpu() -> int:
    """Confine this process, and every worker it spawns, to one CPU.

    The sandbox gives the benchmark two vCPUs of a shared host.  The
    thread backend hands the GIL between its threads at every dispatch,
    and spread over two vCPUs each hand-off becomes a cross-CPU wake-up
    (the K-means job runs 3-4x slower that way, in moods that last
    seconds); three processes on two vCPUs time the scheduler's
    placement.  On one CPU the run's length is the CPU work the system
    does per unit - what a change to any layer moves - and the
    :class:`HostClock` probe measures the speed of that same CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostClock:
    """A clock that runs at the speed of the host.

    The shared host's speed moves by up to 2x in regimes lasting
    seconds to minutes (a fixed pure-Python loop on a pinned, otherwise
    idle CPU took 270-555 ms), which puts a 15-30 % run-to-run spread on
    every raw time.  :meth:`probe` times a fixed piece of work in thread
    CPU time, on the CPU the workload is pinned to, from the harness's
    main thread (between jobs, or ten times a second while a stream
    runs);
    ``NOMINAL_S`` / measured is the host's speed then.  :meth:`span`
    integrates that speed over an interval: the interval's length in
    *nominal* seconds, i.e. what it would have been on a host on which
    the probe takes exactly ``NOMINAL_S``.  Every time-based end-to-end
    metric is reported in nominal time; the raw times stay in the rows.
    """

    #: One probe: an interpreter loop and a run of small NumPy
    #: operations on 8x8 blocks, about 2 ms and 1 ms - the two kinds of
    #: work the runtime and the kernel bodies do.  Over 25 minutes of
    #: probes beside K-means and MJPEG jobs the pair tracked both
    #: (medians of 15 s stretches within 2.2 % and 2.5 %, s.d.) a little
    #: better than the loop alone (2.3 %, 2.9 %) and far better than
    #: memory walks, allocation churn or larger arrays (4-9 %).
    #: Each operand has under 500 elements: NumPy keeps the GIL for
    #: those, so a probe takes the GIL once, not once per operation.
    LOOPS = 70_000
    BLOCK_OPS = 300
    BLOCKS = np.random.default_rng(0).random((64, 6, 8, 8))
    NOMINAL_S = 0.003     #: the probe on this host, on a good day
    EVERY_S = 0.1         #: mean probe period while a stream runs

    def __init__(self) -> None:
        self._t: list[float] = []
        self._speed: list[float] = []
        self._cum = None

    def probe(self, times: int = 1) -> None:
        """One reading from ``times`` probes (a batch workload can
        afford a longer, steadier reading between jobs than a stream
        can while it runs)."""
        blocks = self.BLOCKS
        c0 = time.thread_time()
        x = 0
        for i in range(times * self.LOOPS):
            x += i
        for i in range(times * self.BLOCK_OPS):
            (blocks[i & 63] * 1.5 + 2.0).sum()
        spent = time.thread_time() - c0
        self._t.append(time.perf_counter())
        self._speed.append(times * self.NOMINAL_S / spent)
        self._cum = None

    def probe_for(self, seconds: float) -> None:
        """Sleep-and-probe for ``seconds`` (the main thread's share of
        a live run; it holds the GIL for one probe in every period)."""
        end = time.perf_counter() + seconds
        # Jittered: a fixed period would keep one phase against a paced
        # stream for a whole run (a probe inside every burst of frames,
        # or inside none), and runs would differ by that.
        jitter = random.Random(0)
        while time.perf_counter() < end:
            time.sleep(self.EVERY_S * (0.5 + jitter.random()))
            self.probe()

    def span(self, t0: float, t1: float) -> float:
        """Nominal seconds between two ``perf_counter`` readings that
        lie between the first and the last probe."""
        if self._cum is None:
            t, v = np.asarray(self._t), np.asarray(self._speed)
            self._cum = np.concatenate(
                ([0.0], np.cumsum(np.diff(t) * (v[1:] + v[:-1]) / 2.0))
            )
        a, b = np.interp([t0, t1], self._t, self._cum)
        return float(b - a)

    def speed(self, t0: float, t1: float) -> float:
        """Mean host speed over the interval (1.0 = nominal)."""
        return self.span(t0, t1) / (t1 - t0)


def p90(samples: list) -> float:
    """90th percentile of the latencies in ``(t, ms)`` samples, pooled
    over the window (linear interpolation)."""
    return float(np.percentile([ms for _t, ms in samples], 90))


def cpu_seconds() -> float:
    """User+system CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, MiB."""
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def stamp_outputs(program, emits: dict, key: str, session: str, rec) -> None:
    """Route the program's out-of-band results through a harness
    handler that stamps ``emits[(session, age)]`` after the program's
    own sink has taken the value (traced runs also record the sink
    call as a span)."""
    sink = program.output_handler
    if rec is not None:
        sink = rec.wrapped(
            sink, "sink.emit", lambda _k, age, *_a: (session, age)
        )

    def handler(kernel, age, index, k, value) -> None:
        sink(kernel, age, index, k, value)
        if k == key:
            emits[(session, age)] = time.perf_counter()

    program.set_output_handler(handler)


# ----------------------------------------------------------------------
# Live workloads
# ----------------------------------------------------------------------
class StampedClip(FrameSource):
    """The load generator's camera: cycles the pre-rendered clip forever
    and stamps the moment the driver takes each frame."""

    def __init__(self, frames) -> None:
        self._frames = list(frames)
        self.taken: list[float] = []

    def frames(self):
        while True:
            for f in self._frames:
                self.taken.append(time.perf_counter())
                yield f


class NoFrames(FrameSource):
    """The camera of a set-up-only spare: its stream ends at once, so
    the spare stops at once too."""

    def frames(self):
        return iter(())


@dataclass
class _Session:
    name: str
    config: MJPEGConfig
    frames: list
    reference: list      #: expected bytes of clip frame i
    qos_class: str


def _live_inputs(w: Workload, c: dict, seed: int):
    """Render every session's clip and its sequential encode."""
    if w.kind == "sessions":
        plan = [
            (f"s{i}", c["session_frame"], seed + i,
             "gold" if i < 2 else "best-effort")
            for i in range(4)
        ]
    else:
        plan = [("", c["cif"], seed, "best-effort")]
    sessions = []
    ref_s = 0.0
    for name, (width, height), s, qos in plan:
        cfg = MJPEGConfig(width=width, height=height, frames=CLIP, seed=s)
        frames = synthetic_sequence(CLIP, width, height, s)
        t0 = time.perf_counter()
        reference = [mjpeg_baseline([f], cfg) for f in frames]
        ref_s += time.perf_counter() - t0
        sessions.append(_Session(name, cfg, frames, reference, qos))
    return sessions, ref_s / (CLIP * len(sessions))


class _LiveRun:
    """One built-and-started live runtime (setup is what the
    constructor does; :meth:`stream` runs it to completion)."""

    def __init__(self, w, sessions, fps, duration, telemetry, rec,
                 clock, spare=False) -> None:
        self.clock = clock
        self.duration = duration
        self.emits: dict = {}
        self.sinks: dict = {}
        self.sources: dict = {}
        self.tel = Telemetry() if telemetry else None
        clock.probe()
        t0, c0 = time.perf_counter(), time.thread_time()
        built = []
        for s in sessions:
            source = NoFrames() if spare else StampedClip(s.frames)
            program, sink, binding = build_mjpeg_stream(
                s.config,
                StreamConfig(
                    fps=fps, duration=duration, lag_window=LAG_WINDOW,
                    deadline_ms=(
                        DEADLINE_MS if w.kind == "sessions" else None
                    ),
                    qos_class=s.qos_class,
                ),
                source=source,
            )
            stamp_outputs(program, self.emits, "frame", s.name, rec)
            if rec is not None:
                binding.store_frame = rec.wrapped(
                    binding.store_frame, "stream.driver.store_frame",
                    lambda _f, age, _fr, _n=s.name: (_n, age),
                )
            self.sinks[s.name] = sink
            self.sources[s.name] = source
            built.append((s.name, program, binding))
        self.cpu0 = cpu_seconds()
        if w.kind == "sessions":
            self.mgr = SessionManager(
                [SessionSpec(*b) for b in built],
                workers=WORKERS, backend=w.backend, batch=w.batch,
                telemetry=self.tel,
            )
            self.mgr.start()   # also starts every session's stream
            self.drivers = self.mgr.drivers
        else:
            # What run_program(stream=binding) does, unrolled so that
            # start() and join() can be timed apart.
            _name, program, binding = built[0]
            self.mgr = None
            self.node = ExecutionNode(
                program, WORKERS, backend=w.backend, batch=w.batch,
                timeline=self.tel.timeline if self.tel else None,
            )
            driver = StreamDriver(
                binding, node=self.node, telemetry=self.tel
            )
            self.node.add_teardown_hook(driver.stop)
            if self.tel is not None:
                self.tel.attach_tracer(self.node.tracer)
                self.tel.start()
            self.node.start()
            self.drivers = {"": driver}
        self.setup_s = time.thread_time() - c0
        t1 = time.perf_counter()
        clock.probe()
        self.nominal_setup_s = self.setup_s * clock.speed(t0, t1)
        if rec is not None:
            for name, drv in self.drivers.items():
                rec.labels[id(drv.gate)] = name
                rec.labels[id(drv.retirer)] = name

    def abandon(self) -> None:
        """Tear a set-up-only instance down again."""
        if self.mgr is not None:
            self.mgr.stop()
            self.mgr.join(timeout=JOIN_TIMEOUT_S)
        else:
            self.drivers[""].stop()
            self._join_node()

    def _join_node(self):
        try:
            return self.node.join(timeout=JOIN_TIMEOUT_S)
        finally:
            if self.tel is not None:
                self.tel.stop()

    def stream(self):
        """Run the stream(s) to the end; returns ``(result, epochs,
        reports, t_start, t_joined)``."""
        t_start = time.perf_counter()
        if self.mgr is None:
            self.drivers[""].start()
        # Each driver's stream clock restarts in its start(); frame a of
        # a paced stream is due at epoch + a / fps.
        epochs = {
            name: time.perf_counter() - drv.timer.elapsed_ms() / 1000.0
            for name, drv in self.drivers.items()
        }
        # The main thread has nothing to do until the streams end; it
        # samples the host's speed meanwhile.
        self.clock.probe_for(self.duration)
        if self.mgr is not None:
            result = self.mgr.join(timeout=JOIN_TIMEOUT_S)
        else:
            result = self._join_node()
        t_joined = time.perf_counter()
        self.clock.probe()
        reports = {n: d.report() for n, d in self.drivers.items()}
        return result, epochs, reports, t_start, t_joined


def _measure_live(w, c, seed, seconds, telemetry, rec) -> Outcome:
    sessions, ref_s = _live_inputs(w, c, seed)
    fps = 0.0 if not w.paced else (
        c["session_fps"] if w.kind == "sessions" else c["paced_fps"]
    )
    warm = c["warmup_s"]
    out = Outcome(ref_s_per_unit=ref_s)
    out.constants = {
        "frame": [sessions[0].config.width, sessions[0].config.height],
        "sessions": len(sessions), "offered_fps": fps, "clip": CLIP,
        "lag_window": LAG_WINDOW, "workers": WORKERS,
        "backend": w.backend, "batch": w.batch, "warmup_s": warm,
    }
    # Set-up is timed several times a run, on spare instances that are
    # stopped at once (the median is reported).
    clock = HostClock()
    for _ in range(0 if telemetry else c["setup_repeats"]):
        spare = _LiveRun(
            w, sessions, fps, warm + seconds, False, rec, clock, spare=True
        )
        out.setup_s.append(spare.setup_s)
        out.nominal_setup_s.append(spare.nominal_setup_s)
        spare.abandon()
    run = _LiveRun(w, sessions, fps, warm + seconds, telemetry, rec, clock)
    result, epochs, reports, t_start, t_joined = run.stream()
    out.wall_s = t_joined - t_start
    out.cpu_s = cpu_seconds() - run.cpu0
    out.host_speed = clock.speed(t_start, t_joined)
    out.results = [result]
    out.reports = reports

    warm_emits, emits = [], []
    for s in sessions:
        rep = reports[s.name]
        sink = run.sinks[s.name]
        taken = run.sources[s.name].taken
        lat = out.by_session_ms.setdefault(s.name, [])
        for age in range(rep.offered):
            begin = (
                epochs[s.name] + age / fps if fps else taken[age]
            )
            out.due[(s.name, age)] = begin
            t_emit = run.emits.get((s.name, age))
            good = (
                t_emit is not None
                and sink.frames.get(age) == s.reference[age % CLIP]
            )
            if good:
                out.cpu_units += 1
                out.all_ms.append((t_emit - begin) * 1000.0)
            if begin < epochs[s.name] + warm:
                if good:
                    warm_emits.append(t_emit)
                continue
            out.attempted += 1
            if good:
                emits.append(t_emit)
                lat.append((t_emit - begin) * 1000.0)
                t_in = t_emit - epochs[s.name] - warm
                out.samples.append((t_in, lat[-1]))
                out.nominal_samples.append(
                    (t_in, clock.span(begin, t_emit) * 1000.0)
                )
            else:
                out.failed += 1
    out.samples.sort()
    out.nominal_samples.sort()
    out.latencies_ms = [ms for _t, ms in out.samples]
    if emits:
        t_ref = max(warm_emits) if warm_emits else min(epochs.values())
        out.fps = len(emits) / (max(emits) - t_ref)
        # An open loop emits at the offered rate whatever the host's
        # speed, a closed loop at the speed of the host.
        out.nominal_fps = (
            out.fps if w.paced else len(emits) / clock.span(t_ref, max(emits))
        )
        out.teardown_s = t_joined - max(emits)
        # CPU is spent while frames are in flight: weigh the host's
        # speed by that, not by the idle time between paced frames.
        out.nominal_cpu_s = (
            out.cpu_s * sum(ms for _t, ms in out.nominal_samples)
            / sum(out.latencies_ms)
        )
    return out


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
class _KMeansJob:
    key = "centroids"

    def __init__(self, c, seed) -> None:
        self.args = dict(c["kmeans"], seed=seed)
        self.units = self.args["iterations"] + 1   # centroid snapshots
        t0 = time.perf_counter()
        self.ref = kmeans_baseline(**self.args).history
        self.ref_s_per_unit = (time.perf_counter() - t0) / self.units
        self.constants = dict(self.args, granularity="pair")

    def build(self, _j):
        program, result = build_kmeans(granularity="pair", **self.args)

        def wrong() -> int:
            return sum(
                1 for age, want in self.ref.items()
                if not np.array_equal(result.history.get(age), want)
            )

        return program, wrong


class _TranscodeJob:
    key = "frame"

    def __init__(self, c, seed) -> None:
        width, height = c["cif"]
        self.units = c["transcode_frames"]
        clip_cfg = TranscodeConfig(width, height, frames=CLIP, seed=seed)
        self.cfg = TranscodeConfig(
            width, height, frames=self.units, seed=seed
        )
        self.jpegs = make_input_jpegs(clip_cfg)
        t0 = time.perf_counter()
        self.ref = transcode_baseline(clip_cfg, self.jpegs)
        self.ref_s_per_unit = (time.perf_counter() - t0) / CLIP
        self.constants = {
            "frame": [width, height], "frames_per_job": self.units,
            "clip": CLIP, "factor": self.cfg.factor,
        }

    def build(self, j):
        picks = [(j * self.units + i) % CLIP for i in range(self.units)]
        pipeline = build_transcode(
            self.cfg, [self.jpegs[i] for i in picks]
        )
        got = pipeline.collector().results

        def wrong() -> int:
            return sum(
                1 for age, i in enumerate(picks)
                if got.get(age) != self.ref[i]
            )

        return pipeline.program, wrong


def _measure_batch(w, c, seed, seconds, rec) -> Outcome:
    job = (_KMeansJob if w.kind == "kmeans" else _TranscodeJob)(c, seed)
    out = Outcome(ref_s_per_unit=job.ref_s_per_unit)
    out.constants = dict(
        job.constants, workers=WORKERS, backend=w.backend, batch=w.batch,
        warmup_s=c["warmup_s"],
    )
    walls, teardowns, nominal_walls = [], [], []
    clock = HostClock()

    def start_job(j: int):
        """Set-up: build the program, construct the node, start it."""
        emits: dict = {}
        # The last job's program is a cycle of closures; freeing it
        # here, not whenever the collector next runs, keeps peak RSS
        # from depending on that.
        gc.collect()
        clock.probe(3)
        t0, c0 = time.perf_counter(), time.thread_time()
        program, wrong = job.build(j)
        stamp_outputs(program, emits, job.key, "", rec)
        node = ExecutionNode(
            program, WORKERS, backend=w.backend, batch=w.batch
        )
        node.start()
        setup_s = time.thread_time() - c0
        return node, emits, wrong, (t0, time.perf_counter(), setup_s)

    def run_job(j: int, measured: bool) -> None:
        cpu0 = cpu_seconds()
        node, emits, wrong, (t0, t1, _setup_s) = start_job(j)
        result = node.join(timeout=JOIN_TIMEOUT_S)
        t2 = time.perf_counter()
        clock.probe(3)
        if not measured:
            return
        out.attempted += job.units
        out.failed += wrong()
        cpu_s = cpu_seconds() - cpu0
        out.cpu_s += cpu_s
        out.nominal_cpu_s += cpu_s * clock.speed(t0, t2)
        if traced:
            # Only the traced run reads them, and a RunResult holds its
            # job's fields: kept, they would grow peak RSS job by job.
            out.results.append(result)
        walls.append(t2 - t1)
        nominal_walls.append(clock.span(t1, t2))
        t_in = t2 - t_begin
        out.samples.append((t_in, walls[-1] * 1000.0))
        out.nominal_samples.append((t_in, nominal_walls[-1] * 1000.0))
        teardowns.append(t2 - max(emits.values(), default=t2))

    # Set-up is timed several times a run, on spares that are stopped
    # as soon as they have started.  A traced run follows an untraced
    # one in the same process, so it starts warm; skipping its spares
    # and warm-up keeps every recorded span inside the jobs the layer
    # metrics are computed over.
    traced = rec is not None
    warm = 0.0 if traced else c["warmup_s"]
    for _ in range(0 if traced else c["setup_repeats"]):
        node, _emits, _wrong, (t0, t1, setup_s) = start_job(0)
        node.stop()
        node.join(timeout=JOIN_TIMEOUT_S)
        clock.probe(3)
        out.setup_s.append(setup_s)
        out.nominal_setup_s.append(setup_s * clock.speed(t0, t1))
    j = 0
    t_warm = time.perf_counter()
    while time.perf_counter() - t_warm < warm:
        run_job(j, False)
        j += 1
    t_begin = time.perf_counter()
    while True:
        run_job(j, True)
        j += 1
        # Stop at the job boundary nearest the end of the window.
        spent = time.perf_counter() - t_begin
        if spent + statistics.median(walls) / 2 >= seconds:
            break
    out.wall_s = statistics.median(walls)
    out.latencies_ms = [x * 1000.0 for x in walls]
    out.cpu_units = out.attempted - out.failed
    out.fps = out.cpu_units / sum(walls)
    # One job's units over the median job: a job that met a stall of
    # the host does not move it.
    out.nominal_fps = (
        out.cpu_units / len(walls) / statistics.median(nominal_walls)
    )
    out.host_speed = sum(nominal_walls) / sum(walls)
    out.teardown_s = statistics.median(teardowns)
    out.constants["jobs"] = len(walls)
    return out


def measure(w: Workload, seed: int, seconds: float, size: str,
            telemetry: bool = False, rec=None) -> Outcome:
    """One run of ``w``.  The end-to-end run passes neither option;
    ``telemetry`` turns the system's own frame timeline on (live
    workloads), ``rec`` is the :class:`spans.Recorder` whose wrappers
    the caller has installed (the traced run passes both)."""
    c = SIZES[size]
    if w.kind in ("stream", "sessions"):
        return _measure_live(w, c, seed, seconds, telemetry, rec)
    return _measure_batch(w, c, seed, seconds, rec)
