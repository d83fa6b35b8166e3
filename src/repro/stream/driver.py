"""The stream driver: pacing, admission, injection, completion, QoS.

One background thread per live run.  It draws frames from the binding's
source, paces them against the stream timer (``fps``), asks the QoS
policy whether a frame is worth running, waits for backpressure credit,
stores the frame's payload into the node's fields and injects the
resulting store events into the running node — exactly the path a
transport delivery takes in a cluster, so the analyzer needs no new
machinery.  Completions come back through the program's output handler
(the binding names the output key that marks an age done); each one
records end-to-end latency, grants the next credit, and lets the
retirer free everything the pipeline can no longer reach.

Quiescence: a live program has no self-advancing source kernel, so the
node would look idle the moment it starts.  The driver holds one
outstanding-work token from construction (before ``node.start()``)
until it has offered its last frame (every inject happens under it);
in-flight ages carry their own instance units, so the run drains
naturally after the stream ends.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable

from ..core.deadlines import Timer
from ..core.events import WorkToken
from .gate import CreditGate
from .qos import QOS_CLASSES, QosPolicy
from .retire import Retirer
from .sources import FrameSource

__all__ = [
    "StreamBinding",
    "StreamConfig",
    "StreamDriver",
    "StreamReport",
]


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of a live run.

    Parameters
    ----------
    fps:
        Source pacing rate; ``0`` means unpaced (offer frames as fast
        as admission allows — useful for memory-boundedness tests).
    duration:
        Stream seconds to offer frames for (``None`` = until the source
        or ``max_frames`` ends the stream).
    max_frames:
        Hard bound on offered frames.
    lag_window:
        Credit window: age ``a`` is admitted only once age
        ``a − lag_window`` has fully drained.
    deadline_ms:
        Per-frame end-to-end budget; ``None`` disables QoS shedding.
    shed_seed:
        Seed of the deterministic shed-vs-degrade split.
    degrade_ratio:
        Fraction of late frames frozen (previous frame repeated)
        instead of dropped.
    keep_ages:
        Extra drained ages to retain behind the retirement floor.
    qos_class:
        Service tier of this stream (see
        :data:`~repro.stream.qos.QOS_CLASSES`): ``"best-effort"``
        (default) sheds late frames, ``"gold"`` never does.  Only
        meaningful with a deadline; a multi-tenant runtime mixes tiers
        so overload lands on the best-effort sessions first.
    """

    fps: float = 25.0
    duration: float | None = None
    max_frames: int | None = None
    lag_window: int = 8
    deadline_ms: float | None = None
    shed_seed: int = 0
    degrade_ratio: float = 0.0
    keep_ages: int = 1
    qos_class: str = "best-effort"

    def __post_init__(self) -> None:
        if self.fps < 0:
            raise ValueError(f"fps must be >= 0, got {self.fps}")
        if self.lag_window < 1:
            raise ValueError(
                f"lag_window must be >= 1, got {self.lag_window}"
            )
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if self.qos_class not in QOS_CLASSES:
            raise ValueError(
                f"unknown qos_class {self.qos_class!r}; "
                f"expected one of {QOS_CLASSES}"
            )


@dataclass
class StreamBinding:
    """Workload glue between a live source and a program.

    ``store_frame(fields, age, frame)`` writes one frame's payload into
    the input fields and returns the
    :class:`~repro.core.events.StoreEvent` list to inject;
    ``completion_key`` is the ``ctx.output`` key whose delivery marks an
    age fully encoded; ``on_degrade`` (optional) tells the sink an age
    was frozen rather than encoded.
    """

    source: FrameSource
    store_frame: Callable[[Any, int, Any], list]
    completion_key: str
    config: StreamConfig = dc_field(default_factory=StreamConfig)
    on_degrade: Callable[[int], None] | None = None


@dataclass
class StreamReport:
    """Outcome of a live run (attached to ``RunResult.stream``)."""

    offered: int
    admitted: int
    completed: int
    shed: int
    degraded: int
    deadline_misses: int
    duration_s: float
    blocked_s: float  #: seconds the source spent waiting for credit
    peak_live_bytes: int
    freed_bytes: int
    fps: float
    lag_window: int
    deadline_ms: float | None
    shed_seed: int
    latency_ms: dict  #: histogram snapshot: count/min/max/mean/p50/p99
    shed_ages: list[int] = dc_field(default_factory=list)
    degraded_ages: list[int] = dc_field(default_factory=list)
    #: Multi-tenant identity: the session name and QoS tier this report
    #: belongs to (``None`` for single-tenant runs — the PR 5 shape).
    session: str | None = None
    qos_class: str | None = None
    #: Per-stage latency attribution (telemetry runs): bucket ->
    #: histogram snapshot in ms; the buckets partition each frame's
    #: end-to-end window, so their means sum to ``latency_ms`` mean.
    stages: dict = dc_field(default_factory=dict)
    #: SLO summary for this session (telemetry runs with a deadline).
    slo: dict | None = None

    def as_dict(self) -> dict:
        """JSON-ready view (CI uploads this as the run artifact)."""
        return {
            "session": self.session,
            "qos_class": self.qos_class,
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": self.shed,
            "degraded": self.degraded,
            "deadline_misses": self.deadline_misses,
            "duration_s": self.duration_s,
            "blocked_s": self.blocked_s,
            "peak_live_bytes": self.peak_live_bytes,
            "freed_bytes": self.freed_bytes,
            "fps": self.fps,
            "lag_window": self.lag_window,
            "deadline_ms": self.deadline_ms,
            "shed_seed": self.shed_seed,
            "latency_ms": dict(self.latency_ms),
            "shed_ages": list(self.shed_ages),
            "degraded_ages": list(self.degraded_ages),
            "stages": {b: dict(s) for b, s in self.stages.items()},
            "slo": dict(self.slo) if self.slo is not None else None,
        }


class StreamDriver:
    """Drives one live run against a started node (or cluster).

    Parameters
    ----------
    binding:
        The workload's :class:`StreamBinding` (source + store glue +
        completion key + config).
    node:
        Single-node convenience: program and injection default to this
        node's.
    nodes:
        The execution nodes processing the stream (cluster runs pass
        all of them; retirement probes each node's live ages and
        notifies each backend).  Fields, work counter, metrics registry
        and tracer are ``nodes[0]``'s — a cluster's nodes share them.
    program:
        The program whose output handler observes completions; defaults
        to ``nodes[0]``'s (a cluster passes the full program).
    inject:
        ``inject(event)`` delivering one store event to the consuming
        node(s).  Defaults to ``nodes[0].inject``; a cluster passes a
        transport broadcast instead.
    on_grant:
        When set, a drained age's credit is routed through
        ``on_grant(age)`` *instead of* being applied to the gate
        directly; the receiving side must feed :meth:`CreditGate.grant`.
        The cluster uses this to carry grants over the ``stream.credit``
        control topic, so backpressure credits traverse the same
        transport as data (and are subject to its partitions).
    clock:
        Injectable stream clock (tests).
    session:
        Multi-tenant session name.  Namespaces the driver's metrics
        (``stream.<session>.frames.*``, :meth:`snapshot`), scopes the
        retirer's probe of queued work to this session, and stamps the
        report.  ``None`` (default) is a single-tenant stream.
    scope:
        The session's namespaced sub-program inside a merged one
        (:func:`~repro.stream.namespace_program`).  The completion key
        marks an age done only when one of *its* kernels emitted it —
        every tenant's encoder emits the same ``completion_key``, and
        unscoped each delivery would credit every session's gate — and
        its field / kernel names bound what the retirer may free and
        probe.
    """

    def __init__(
        self,
        binding: StreamBinding,
        *,
        node=None,
        nodes=None,
        program=None,
        inject: Callable[[Any], None] | None = None,
        on_grant: Callable[[int], None] | None = None,
        clock=None,
        session: str | None = None,
        scope=None,
        telemetry=None,
    ) -> None:
        if not isinstance(binding, StreamBinding):
            raise TypeError(
                f"a stream is a repro.stream.StreamBinding, got "
                f"{type(binding).__name__}"
            )
        if node is not None:
            nodes = [node]
        if not nodes:
            raise ValueError("StreamDriver needs node= or nodes=")
        self.binding = binding
        self.cfg = binding.config
        self.session = session
        self._nodes = list(nodes)
        self._fields = nodes[0].fields
        self._counter = nodes[0]._counter
        self._tracer = nodes[0].tracer
        self._program = (
            program if program is not None else nodes[0].program
        )
        self._inject = (
            inject if inject is not None else nodes[0].inject
        )
        self._on_grant = on_grant
        self._lane = nodes[0].name

        #: The stream timer's name and the driver's metrics prefix.
        self._prefix = "stream" if session is None else f"stream.{session}"
        self.timer = Timer(self._prefix, clock)
        self.gate = CreditGate(self.cfg.lag_window)
        self.retirer = Retirer(
            self._nodes,
            max_back=max(n._max_back for n in self._nodes),
            keep_ages=self.cfg.keep_ages,
            field_names=None if scope is None else scope.fields,
            kernel_names=None if scope is None else scope.kernels,
            session=session,
        )
        self.qos: QosPolicy | None = None
        if self.cfg.deadline_ms is not None:
            self.qos = QosPolicy(
                self.cfg.deadline_ms,
                self.cfg.fps,
                seed=self.cfg.shed_seed,
                degrade_ratio=self.cfg.degrade_ratio,
                timer=self.timer,
                qos_class=self.cfg.qos_class,
            )

        # Telemetry (optional): the frame timeline keyed by this
        # session, and the SLO tracker fed from the completion path.
        # Both references are bound once (None when off), so the frame
        # paths pay a single ``is not None`` test each.
        self._tl = telemetry.timeline if telemetry is not None else None
        self._slo = telemetry.slo if telemetry is not None else None
        self._tl_session = session or ""
        if self._slo is not None and self.cfg.deadline_ms is not None:
            self._slo.configure(
                self._tl_session,
                deadline_ms=self.cfg.deadline_ms,
                tier=self.cfg.qos_class,
            )

        # End-to-end latency has no holder but the registry; the frame
        # totals below are held here and read by :meth:`snapshot`.
        self._lat = nodes[0].metrics.histogram(f"{self._prefix}.latency_ms")

        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._arrivals: dict[int, float] = {}
        self._completed: set[int] = set()
        self._never_run: set[int] = set()  # shed + degraded ages
        self.shed_ages: list[int] = []
        self.degraded_ages: list[int] = []
        self.offered = 0
        self.admitted = 0
        self.peak_live_bytes = 0
        self._ended_ms: float | None = None

        # Quiescence token: held from before node.start() until the last
        # frame has been offered, so an initially instance-less live
        # program cannot be declared idle under the stream.
        self._token = WorkToken(
            self._counter,
            label=f"stream:{session or 'default'}",
        )

        # Pacing state: ``_rate`` starts at the configured fps and may
        # be changed mid-run (:meth:`set_rate`); the next frame's
        # scheduled arrival accumulates per-frame periods so a rate
        # change only affects frames not yet offered.
        self._rate = self.cfg.fps
        self._next_ms = 0.0

        # Completion detection: wrap the program's output handler so the
        # binding's completion key marks ages done on both backends (the
        # runtime always delivers outputs in the parent process).
        orig = self._program.output_handler
        key = binding.completion_key
        ours = None if scope is None else scope.kernels

        def wrapped(kernel, age, index, k, value) -> None:
            if orig is not None:
                orig(kernel, age, index, k, value)
            if (
                k == key
                and age is not None
                and (ours is None or kernel in ours)
            ):
                self._on_complete(age)

        self._program.set_output_handler(wrapped)
        nodes[0].metrics.add_holder(self.snapshot)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, epoch: float | None = None) -> None:
        """Reset the stream clock — to ``epoch``, an earlier
        ``timer.now()`` reading, when given — and start the driver
        thread (call after ``node.start()``)."""
        self.timer.reset(epoch)
        name = (
            "stream-driver" if self.session is None
            else f"stream-driver-{self.session}"
        )
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=name
        )
        self._thread.start()

    def stop(self) -> None:
        """End the stream: no further frames are offered, blocked
        admissions unblock, and the quiescence token is released.
        Idempotent; safe from teardown hooks and signal paths."""
        self._stop.set()
        self.gate.close()
        if self._thread is None:
            self._token.release()

    def set_rate(self, fps: float) -> None:
        """Change the offered frame rate mid-run.

        Only frames not yet offered are affected: the next scheduled
        arrival accumulates one period per frame, so doubling the rate
        halves the spacing from the next frame on without rewriting
        past arrivals (the elasticity chaos test doubles offered load
        mid-run this way).  ``fps`` must be positive; an unpaced stream
        (``fps == 0``) cannot become paced.
        """
        if fps <= 0:
            raise ValueError(f"fps must be > 0, got {fps}")
        with self._lock:
            self._rate = float(fps)

    def set_nodes(self, nodes) -> None:
        """Re-resolve the node set after a membership change.

        An elastic migration replaces execution nodes mid-run; the
        retirer's live-age probes must follow the membership epoch or
        they would either free ages a newcomer still needs (probing a
        wound-down node reports nothing live) or pin memory forever
        (probing a departed node's frozen queues).  Credits need no
        re-resolution — they travel a control topic keyed by session,
        not by node.
        """
        nodes = list(nodes)
        if not nodes:
            raise ValueError("StreamDriver needs at least one node")
        self._nodes = nodes
        self.retirer.set_nodes(
            nodes, max_back=max(n._max_back for n in nodes)
        )

    # ------------------------------------------------------------------
    # Producer loop (driver thread)
    # ------------------------------------------------------------------
    def _pace(self, target_ms: float) -> bool:
        """Sleep until the stream clock reaches ``target_ms``; ``False``
        when stopped while waiting."""
        while not self._stop.is_set():
            delta_ms = target_ms - self.timer.elapsed_ms()
            if delta_ms <= 0:
                return True
            self._stop.wait(delta_ms / 1000.0)
        return False

    def _run(self) -> None:
        cfg = self.cfg
        try:
            for age, frame in enumerate(self.binding.source.frames()):
                if self._stop.is_set():
                    break
                if cfg.max_frames is not None and age >= cfg.max_frames:
                    break
                with self._lock:
                    rate = self._rate
                    if rate > 0:
                        target_ms = self._next_ms
                        self._next_ms += 1000.0 / rate
                    else:
                        target_ms = None
                if cfg.duration is not None:
                    at_ms = (
                        target_ms if target_ms is not None
                        else self.timer.elapsed_ms()
                    )
                    if at_ms >= cfg.duration * 1000.0:
                        break
                if target_ms is not None and not self._pace(target_ms):
                    break
                self.offered += 1
                arrival_ms = (
                    target_ms if target_ms is not None
                    else self.timer.elapsed_ms()
                )
                if self.qos is not None:
                    decision = self.qos.decide(age, arrival_ms)
                    if decision.action != "run":
                        self._shed(age, decision)
                        continue
                if not self.gate.admit(age):
                    break
                t0 = time.perf_counter()
                if self._tl is not None:
                    # The frame's end-to-end window opens at its
                    # *scheduled* arrival, which is in the stream-timer
                    # domain; back-date the perf-counter start by the
                    # observed lateness so the timeline window matches
                    # the latency the completion path will report.
                    # Everything before admission — pacing slip plus
                    # the credit-gate block — is gate wait.
                    late_s = max(
                        0.0, self.timer.elapsed_ms() - arrival_ms
                    ) / 1000.0
                    self._tl.begin(self._tl_session, age, t0 - late_s)
                    self._tl.span(
                        self._tl_session, age, "gate", t0 - late_s, t0
                    )
                with self._lock:
                    self._arrivals[age] = arrival_ms
                events = self.binding.store_frame(
                    self._fields, age, frame
                )
                for ev in events:
                    self._inject(ev)
                t1 = time.perf_counter()
                if self._tl is not None:
                    # Source capture + input-field commit + injection.
                    self._tl.span(self._tl_session, age, "store", t0, t1)
                self.admitted += 1
                self._sample_live_bytes()
                tr = self._tracer
                if tr.enabled:
                    tr.complete(
                        "admit", "stream", self._lane, "stream",
                        t0, t1,
                        args={"age": age,
                              "arrival_ms": round(arrival_ms, 3)},
                    )
        finally:
            self._ended_ms = self.timer.elapsed_ms()
            self._token.release()

    def _shed(self, age: int, decision) -> None:
        """Apply a non-run QoS verdict: account it, tell the sink (for
        degrades), and drain the age immediately — a frame that never
        runs frees its credit on the spot."""
        degraded = decision.action == "degrade"
        if degraded and self.binding.on_degrade is not None:
            self.binding.on_degrade(age)
        with self._lock:
            self._never_run.add(age)
        if degraded:
            self.degraded_ages.append(age)
        else:
            self.shed_ages.append(age)
        tr = self._tracer
        if tr.enabled:
            tr.instant(
                decision.action, "stream", self._lane, "stream",
                args={"age": age,
                      "lateness_ms": round(decision.lateness_ms, 3)},
            )
        if self._slo is not None:
            # A frame the policy dropped still failed this tenant's SLO.
            self._slo.observe_shed(self._tl_session)
        self._finish_age(age)

    # ------------------------------------------------------------------
    # Consumer side (worker / pump threads)
    # ------------------------------------------------------------------
    def _on_complete(self, age: int) -> None:
        """The completion output for ``age`` was delivered: record its
        end-to-end latency, grant the next credit, retire what drained."""
        with self._lock:
            if age in self._completed or age in self._never_run:
                return
            self._completed.add(age)
            arrival = self._arrivals.pop(age, None)
        latency = self.timer.elapsed_ms() - (
            arrival if arrival is not None else 0.0
        )
        self._lat.observe(latency)
        if self._tl is not None:
            # Sink emit closes the frame's window; the recorder sweeps
            # the collected spans into the per-stage attribution.
            self._tl.finish(self._tl_session, age, time.perf_counter())
        if self._slo is not None:
            self._slo.observe(self._tl_session, latency)
        self._finish_age(age)
        self._sample_live_bytes()

    def _finish_age(self, age: int) -> None:
        """Shared drain bookkeeping for completed and shed ages."""
        if self._on_grant is not None:
            self._on_grant(age)  # external path feeds gate.grant back
        else:
            self.gate.grant(age)
        self.retirer.note_complete(age)
        freed = self.retirer.sweep()
        if freed:
            tr = self._tracer
            if tr.enabled:
                tr.instant(
                    "retire", "stream", self._lane, "stream",
                    args={"below_age": self.retirer.retired_through,
                          "freed_bytes": freed},
                )

    def _sample_live_bytes(self) -> None:
        lv = self._fields.live_bytes()
        with self._lock:
            if lv > self.peak_live_bytes:
                self.peak_live_bytes = lv

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def completed_count(self) -> int:
        """Ages whose completion output has been delivered."""
        with self._lock:
            return len(self._completed)

    def snapshot(self) -> dict[str, dict]:
        """The stream's frame totals — and the retirer's freed bytes —
        as a typed metrics snapshot, named ``stream[.<session>].*``;
        the run's registry reads it (DESIGN.md §9)."""
        with self._lock:
            completed = len(self._completed)
            peak = self.peak_live_bytes
        pre = self._prefix
        out = {
            f"{pre}.{name}": {"type": "counter", "value": value}
            for name, value in (
                ("frames.offered", self.offered),
                ("frames.admitted", self.admitted),
                ("frames.completed", completed),
                ("frames.shed", len(self.shed_ages)),
                ("frames.degraded", len(self.degraded_ages)),
                ("retired_bytes", self.retirer.freed_bytes),
            )
        }
        out[f"{pre}.live_bytes.peak"] = {"type": "gauge", "value": peak}
        return out

    def report(self) -> StreamReport:
        """Summarize the run (stable once the node has joined)."""
        snap = self._lat.snapshot()
        snap.pop("type", None)
        ended = (
            self._ended_ms if self._ended_ms is not None
            else self.timer.elapsed_ms()
        )
        return StreamReport(
            offered=self.offered,
            admitted=self.admitted,
            completed=self.completed_count(),
            shed=len(self.shed_ages),
            degraded=len(self.degraded_ages),
            deadline_misses=self.timer.misses,
            duration_s=ended / 1000.0,
            blocked_s=self.gate.blocked_s,
            peak_live_bytes=self.peak_live_bytes,
            freed_bytes=self.retirer.freed_bytes,
            fps=self.cfg.fps,
            lag_window=self.cfg.lag_window,
            deadline_ms=self.cfg.deadline_ms,
            shed_seed=self.cfg.shed_seed,
            latency_ms=snap,
            shed_ages=list(self.shed_ages),
            degraded_ages=list(self.degraded_ages),
            session=self.session,
            qos_class=self.cfg.qos_class,
            stages=(
                self._tl.stages(self._tl_session)
                if self._tl is not None else {}
            ),
            slo=self._slo_summary(),
        )

    def _slo_summary(self) -> dict | None:
        if self._slo is None:
            return None
        out = self._slo.session_dict(self._tl_session)
        if out is not None:
            out["burn_rate"] = round(
                self._slo.burn_rate(self._tl_session), 3
            )
        return out
