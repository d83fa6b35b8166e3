"""Per-frame stage timelines and critical-path latency attribution.

PR 7's multi-tenant runtime can say *that* a frame took 179 ms
end-to-end; this module says *where* those milliseconds went.  A
:class:`TimelineRecorder` collects, per ``(session, age)`` frame,
wall-clock spans stamped at the existing hook points — credit-gate
admission in the stream driver, ready-queue wait in the worker loops,
kernel bodies and store commits in the execution paths, IPC round
trips in the process backend, and transport hops in the cluster bus —
and, when the sink reports the frame complete, sweeps them into an
exact partition of the frame's end-to-end window:

``gate | queue | compute | ipc | transport | store | other``

The sweep is a *critical-path* attribution, not a duration sum: spans
from parallel kernel instances overlap, so adding raw durations would
over-count.  Instead every instant of ``[frame start, sink emit]`` is
charged to exactly one bucket — the highest-priority span covering it
(compute beats store beats IPC beats transport beats gate beats
queue), with uncovered time falling into ``other``.  By construction
the bucket sums equal the end-to-end window exactly, so the per-stage
report reconciles with the driver's ``latency_ms`` histogram.

Telemetry off is no recorder: a run without a
:class:`~repro.obs.telemetry.Telemetry` bundle hands its nodes
``timeline=None``, and every hot-path call site is guarded by a single
``is not None`` test — no allocations and no calls per instance.  With
a recorder, :meth:`TimelineRecorder.span` drops spans for frames no
driver has :meth:`~TimelineRecorder.begin`-ed, so batch (non-stream)
runs cannot grow it.
"""

from __future__ import annotations

import threading
from typing import Mapping

from .metrics import Histogram

__all__ = [
    "BUCKETS",
    "TimelineRecorder",
    "attribute_spans",
    "stage_summary",
]

#: Attribution buckets, highest critical-path priority first.  When
#: spans overlap, an instant belongs to the earliest bucket here that
#: covers it: actual kernel compute dominates, store commits beat the
#: IPC round trip that contains them, transport hops beat the gate
#: wait they overlap, and queue wait is charged only when nothing else
#: explains the time.  ``other`` is the uncovered remainder.
BUCKETS: tuple[str, ...] = (
    "compute", "store", "ipc", "transport", "gate", "queue", "other",
)

_PRIORITY = {name: i for i, name in enumerate(BUCKETS)}


def attribute_spans(
    spans: list[tuple[str, float, float]],
    t_start: float,
    t_end: float,
) -> dict[str, float]:
    """Partition ``[t_start, t_end]`` (seconds) across buckets.

    ``spans`` is a list of ``(bucket, t0, t1)`` wall-clock intervals;
    they may overlap and extend past the window (they are clipped).
    Returns ``{bucket: seconds}`` over all :data:`BUCKETS`; the values
    sum to ``t_end - t_start`` exactly (uncovered time -> ``other``).
    """
    out = dict.fromkeys(BUCKETS, 0.0)
    if t_end <= t_start:
        return out
    clipped = []
    points = {t_start, t_end}
    for bucket, s, e in spans:
        s, e = max(s, t_start), min(e, t_end)
        if e <= s:
            continue
        clipped.append((_PRIORITY.get(bucket, len(BUCKETS)), s, e))
        points.add(s)
        points.add(e)
    edges = sorted(points)
    for lo, hi in zip(edges, edges[1:]):
        mid = (lo + hi) / 2.0
        best = None
        for prio, s, e in clipped:
            if s <= mid < e and (best is None or prio < best):
                best = prio
        # Unknown bucket names rank below every known one and have no
        # accumulator of their own: their time lands in "other".
        bucket = (
            BUCKETS[best]
            if best is not None and best < len(BUCKETS) else "other"
        )
        out[bucket] += hi - lo
    return out


class _Frame:
    __slots__ = ("t_start", "spans")

    def __init__(self, t_start: float) -> None:
        self.t_start = t_start
        self.spans: list[tuple[str, float, float]] = []


class TimelineRecorder:
    """Collects per-frame stage spans and rolls up per-session,
    per-bucket latency histograms.

    Keys are ``(session, age)``; the single-stream runtime uses
    ``session == ""``.  Drivers call :meth:`begin` when a frame is
    offered, instrumented layers call :meth:`span` as work happens,
    and the driver calls :meth:`finish` (sink emit) or :meth:`discard`
    (shed / retired without completing).  All methods are thread-safe
    and cheap: span append is one lock + dict probe + list append.
    """

    #: Defensive bound on concurrently tracked frames: a driver that
    #: never finishes frames (or a hook begun outside a stream run)
    #: must not grow memory without bound.  Oldest frames are dropped.
    MAX_IN_FLIGHT = 4096

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._frames: dict[tuple[str, int], _Frame] = {}
        #: session -> bucket -> Histogram of milliseconds.
        self._stages: dict[str, dict[str, Histogram]] = {}
        #: session -> frames attributed.
        self._counts: dict[str, int] = {}

    # -- recording hooks ------------------------------------------------
    def begin(self, session: str, age: int, t_start: float) -> None:
        """Start tracking frame ``(session, age)`` with its end-to-end
        window opening at wall-clock ``t_start`` (perf-counter
        seconds)."""
        with self._lock:
            if len(self._frames) >= self.MAX_IN_FLIGHT:
                self._frames.pop(next(iter(self._frames)), None)
            self._frames[(session, age)] = _Frame(t_start)

    def span(self, session: str, age: int, bucket: str,
             t0: float, t1: float) -> None:
        """Record that ``bucket`` work for the frame covered
        ``[t0, t1]``.  Silently ignored for frames not begun — this is
        what keeps non-stream runs and already-finished frames free."""
        if t1 <= t0:
            return
        with self._lock:
            frame = self._frames.get((session, age))
            if frame is not None:
                frame.spans.append((bucket, t0, t1))

    def discard(self, session: str, age: int) -> None:
        """Drop a frame that will never complete (shed or retired)."""
        with self._lock:
            self._frames.pop((session, age), None)

    def finish(self, session: str, age: int,
               t_end: float) -> dict[str, float] | None:
        """Close the frame at sink-emit time ``t_end``, attribute its
        window and fold the result into the session's rollups.
        Returns the per-bucket breakdown in **milliseconds** (``None``
        if the frame was never begun)."""
        with self._lock:
            frame = self._frames.pop((session, age), None)
        if frame is None:
            return None
        parts = attribute_spans(frame.spans, frame.t_start, t_end)
        breakdown = {b: v * 1000.0 for b, v in parts.items()}
        with self._lock:
            stages = self._stages.setdefault(session, {})
            for bucket, ms in breakdown.items():
                hist = stages.get(bucket)
                if hist is None:
                    hist = stages[bucket] = Histogram()
                hist.observe(ms)
            self._counts[session] = self._counts.get(session, 0) + 1
        return breakdown

    # -- reporting ------------------------------------------------------
    def in_flight(self) -> int:
        with self._lock:
            return len(self._frames)

    def frames(self, session: str = "") -> int:
        """Frames attributed for ``session`` so far."""
        with self._lock:
            return self._counts.get(session, 0)

    def sessions(self) -> list[str]:
        with self._lock:
            return sorted(self._stages)

    def stages(self, session: str = "") -> dict[str, dict]:
        """Per-bucket latency summaries for one session:
        ``{bucket: {count, mean, p50, p90, p99, p999, ...}}`` in
        milliseconds (histogram snapshots minus the ``type`` tag)."""
        with self._lock:
            stages = dict(self._stages.get(session, {}))
        out: dict[str, dict] = {}
        for bucket in BUCKETS:
            hist = stages.get(bucket)
            if hist is None:
                continue
            snap = hist.snapshot()
            snap.pop("type", None)
            out[bucket] = snap
        return out

    def as_dict(self) -> dict:
        """All sessions' stage summaries (JSON-ready)."""
        return {
            "frames": dict(sorted(self._counts.items())),
            "stages": {s: self.stages(s) for s in self.sessions()},
        }


def stage_summary(stages: Mapping[str, Mapping[str, float]]) -> str:
    """One human line per bucket: ``compute p50 3.1ms p99 7.9ms``."""
    lines = []
    for bucket in BUCKETS:
        snap = stages.get(bucket)
        # finish() folds a (possibly zero) observation into every
        # bucket so means reconcile; render only buckets that ever
        # accumulated time.
        if not snap or not snap.get("count") or not snap.get("sum"):
            continue
        lines.append(
            f"{bucket:<9} p50 {snap.get('p50', 0.0):8.2f}ms"
            f"  p99 {snap.get('p99', 0.0):8.2f}ms"
            f"  mean {snap.get('mean', 0.0):8.2f}ms"
        )
    return "\n".join(lines)
