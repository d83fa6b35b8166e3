"""Per-frame stage timelines and critical-path latency attribution.

A live run can say *that* a frame took 179 ms end-to-end; this module
says *where* those milliseconds went.  A :class:`TimelineRecorder` is
the frame sink of the run's span stream
(:meth:`~repro.obs.tracing.Tracer.attach`): it receives every span that
carries a ``(session, age)`` key, charges it to a bucket through
:data:`SPAN_BUCKETS` — the one place that knows buckets — and, when the
sink reports the frame complete, sweeps the frame's spans into an exact
partition of its end-to-end window:

``gate | queue | compute | ipc | transport | store | other``

The sweep is a *critical-path* attribution, not a duration sum: spans
from parallel kernel instances overlap, so adding raw durations would
over-count.  Instead every instant of ``[frame start, sink emit]`` is
charged to exactly one bucket — the highest-priority span covering it
(compute beats store beats IPC beats transport beats gate beats
queue), with uncovered time falling into ``other``.  By construction
the bucket sums equal the end-to-end window exactly, so the per-stage
report reconciles with the driver's ``latency_ms`` histogram.

A frame's window opens with its ``gate`` span (scheduled arrival to
admission) and closes at :meth:`TimelineRecorder.finish` (sink emit);
spans of frames not open — every span of a batch (non-stream) run —
are dropped, so such runs cannot grow the recorder.
"""

from __future__ import annotations

import threading
from typing import Mapping

from .metrics import Histogram

__all__ = [
    "BUCKETS",
    "SPAN_BUCKETS",
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

#: The bucket each span name is charged to; spans of any other name
#: are not attributed.  No recording site names a bucket.
SPAN_BUCKETS: dict[str, str] = {
    "fetch": "store", "store": "store", "admit": "store",
    "native": "compute",
    "ipc": "ipc",
    "transport": "transport",
    "gate": "gate",
    "queue": "queue",
}

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

    One sweep over the sorted span endpoints, O(n log n): a span covers
    ``[t0, t1)``, and an active count per priority names the bucket
    that owns each interval between consecutive endpoints.  Unknown
    bucket names rank below every known one and have no accumulator of
    their own: their time lands in ``other``.
    """
    out = dict.fromkeys(BUCKETS, 0.0)
    if t_end <= t_start:
        return out
    n = len(BUCKETS)
    marks = []
    for bucket, s, e in spans:
        s, e = max(s, t_start), min(e, t_end)
        if e > s:
            prio = _PRIORITY.get(bucket, n)
            marks += ((s, prio, 1), (e, prio, -1))
    marks.sort()
    marks.append((t_end, n, 0))
    active = [0] * (n + 1)
    lo = t_start
    for t, prio, delta in marks:
        if t > lo:
            for owner in range(n):  # ends on "other" when none is active
                if active[owner]:
                    break
            out[BUCKETS[owner]] += t - lo
            lo = t
        active[prio] += delta
    return out


class TimelineRecorder:
    """The frame sink: collects per-frame stage spans and rolls up
    per-session, per-bucket latency histograms.

    Keys are ``(session, age)``; the single-stream runtime uses
    ``session == ""``.  The run's tracer hands it every keyed span
    (:meth:`span`) — a ``gate`` span opens its frame — and the stream
    driver closes the frame at sink emit (:meth:`finish`).  All methods
    are thread-safe and cheap: a span is one table probe, one lock, one
    dict probe and one list append.
    """

    #: Defensive bound on concurrently tracked frames: a driver that
    #: never finishes frames must not grow memory without bound.
    #: Oldest frames are dropped.
    MAX_IN_FLIGHT = 4096

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (session, age) -> (window start, [(bucket, t0, t1), ...]).
        self._frames: dict[tuple[str, int], tuple[float, list]] = {}
        #: session -> bucket -> Histogram of milliseconds.
        self._stages: dict[str, dict[str, Histogram]] = {}
        #: session -> frames attributed.
        self._counts: dict[str, int] = {}

    # -- the sink -------------------------------------------------------
    def span(self, name: str, key: tuple[str, int],
             t0: float, t1: float) -> None:
        """A span named ``name`` of frame ``key`` covered ``[t0, t1]``
        (perf-counter seconds).  A ``gate`` span opens the frame's
        window at ``t0``; a span of a frame not open, or of a name
        :data:`SPAN_BUCKETS` does not list, is dropped."""
        bucket = SPAN_BUCKETS.get(name)
        if bucket is None:
            return
        with self._lock:
            if name == "gate":
                if len(self._frames) >= self.MAX_IN_FLIGHT:
                    self._frames.pop(next(iter(self._frames)), None)
                frame = self._frames[key] = (t0, [])
            else:
                frame = self._frames.get(key)
            if frame is not None and t1 > t0:
                frame[1].append((bucket, t0, t1))

    def finish(self, key: tuple[str, int],
               t_end: float) -> dict[str, float] | None:
        """Close frame ``key`` at sink-emit time ``t_end``, attribute
        its window and fold the result into the session's rollups.
        Returns the per-bucket breakdown in **milliseconds** (``None``
        if the frame was never opened)."""
        with self._lock:
            frame = self._frames.pop(key, None)
        if frame is None:
            return None
        t_start, spans = frame
        parts = attribute_spans(spans, t_start, t_end)
        breakdown = {b: v * 1000.0 for b, v in parts.items()}
        session = key[0]
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
            return self._stages_locked(session)

    def _stages_locked(self, session: str) -> dict[str, dict]:
        stages = self._stages.get(session, {})
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
        """All sessions' stage summaries (JSON-ready), read in one
        critical section: a frame finishing meanwhile is in both the
        counts and the stages, or in neither."""
        with self._lock:
            return {
                "frames": dict(sorted(self._counts.items())),
                "stages": {
                    s: self._stages_locked(s) for s in sorted(self._stages)
                },
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
