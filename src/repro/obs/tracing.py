"""The run's span stream, and its Chrome trace-event sink.

The paper's evaluation is built on *when things happened*: dispatch
versus kernel time per instance (tables II–III), scaling knees where the
serial analyzer saturates (figures 9–10), the detection→replacement
window of a fault-tolerant cluster.  A :class:`Tracer` is a run's one
recording path: every timed event — kernel-instance lifecycle phases,
analyzer, scheduler, transport, stream, heartbeat and recovery activity
— is recorded once, as a span (name, category, lane, ``t0`` / ``t1``
from :func:`time.perf_counter`, args) or an instant, and reaches its
sinks:

* the **Chrome trace** (``{"traceEvents": [...]}``, loadable in
  Perfetto or ``chrome://tracing``): one *process* row per execution
  node (plus ``master``), one *thread* row per worker / analyzer /
  heartbeat / recovery actor.  ``mode`` picks retention: ``off``,
  ``ring`` (the last ``ring`` events — the **flight recorder**, cheap
  enough to arm on every fault-tolerant run) or ``full`` (everything,
  plus the ring);
* the **frame sink** (:meth:`Tracer.attach`, a
  :class:`~repro.obs.timeline.TimelineRecorder`): every span carrying a
  ``(session, age)`` key.

Every site tests one guard, :attr:`Tracer.enabled` ("some sink
listens"), before it builds a span.  :data:`NULL_TRACER` has no sink
and never gains one; a telemetry-only run records into a ``mode="off"``
tracer with a frame sink, which builds no Chrome event and no lane.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any

__all__ = [
    "NULL_TRACER",
    "TraceSchemaError",
    "Tracer",
    "validate_chrome_trace",
    "with_frames",
]

#: Instant-event scopes accepted by the trace-event format.
_INSTANT_SCOPES = ("t", "p", "g")


class TraceSchemaError(ValueError):
    """A trace document violated the Chrome trace-event schema."""


class Tracer:
    """A run's thread-safe span stream: the Chrome trace with named
    lanes, plus an optional frame sink.

    ``mode`` is the Chrome retention (``"off"``, ``"ring"`` or
    ``"full"``), ``ring`` the flight recorder's horizon in events.
    Times are ``time.perf_counter()`` seconds, the one clock of every
    recording site; the Chrome trace shows microseconds since the
    tracer was created.
    """

    MODES = ("off", "ring", "full")

    def __init__(self, mode: str = "full", ring: int = 4096) -> None:
        if mode not in self.MODES:
            raise ValueError(
                f"unknown tracer mode {mode!r}; expected one of {self.MODES}"
            )
        self.mode = mode
        #: The one guard of every recording site: some sink listens.
        self.enabled = mode != "off"
        #: The frame sink (:meth:`attach`), ``None`` until one is.
        self.frames = None
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._events: list[dict] | None = [] if mode == "full" else None
        self._ring: deque | None = (
            deque(maxlen=max(1, ring)) if self.enabled else None
        )
        self.ring_dropped = 0  #: events that fell off the ring buffer
        self._meta: list[dict] = []  #: process/thread-name metadata events
        self._pids: dict[str, int] = {}
        self._lanes: dict[tuple[str, str], tuple[int, int]] = {}

    def attach(self, frames) -> None:
        """Make ``frames`` the frame sink: every span recorded with a
        ``key`` reaches ``frames.span(name, key, t0, t1)``.  One slot,
        so nodes sharing a tracer attach a recorder once however often
        they ask; :data:`NULL_TRACER` takes none."""
        if self is NULL_TRACER:
            raise ValueError("NULL_TRACER takes no sink; see with_frames()")
        self.frames = frames
        self.enabled = True

    def now(self) -> float:
        """The clock of every ``t0`` / ``t1``: ``time.perf_counter()``."""
        return time.perf_counter()

    def _ts_us(self, t: float) -> float:
        return (t - self._origin) * 1e6

    def lane(self, process: str, thread: str) -> tuple[int, int]:
        """The (pid, tid) pair for a named lane, allocating it (and its
        viewer metadata events) on first use."""
        key = (process, thread)
        with self._lock:
            ids = self._lanes.get(key)
            if ids is not None:
                return ids
            pid = self._pids.get(process)
            if pid is None:
                pid = self._pids[process] = len(self._pids) + 1
                self._meta.append(_meta("process_name", pid, 0, process))
            tid = 1 + sum(1 for p, _t in self._lanes if p == process)
            self._lanes[key] = (pid, tid)
            self._meta.append(_meta("thread_name", pid, tid, thread))
            return (pid, tid)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(self, process: str, thread: str, ev: dict, args) -> None:
        ev["pid"], ev["tid"] = self.lane(process, thread)
        if args:
            ev["args"] = args
        with self._lock:
            if self._events is not None:
                self._events.append(ev)
            ring = self._ring
            if len(ring) == ring.maxlen:
                self.ring_dropped += 1
            ring.append(ev)

    def complete(
        self,
        name: str,
        cat: str,
        process: str,
        thread: str,
        t0: float,
        t1: float,
        args: dict | None = None,
        key: "tuple[str, int] | None" = None,
    ) -> None:
        """Record a span from ``t0`` to ``t1`` in the (process, thread)
        lane — a complete ("X") event when the Chrome trace retains any.
        ``key``, a ``(session, age)`` pair, marks a span of that frame:
        it also reaches the frame sink."""
        frames = self.frames
        if key is not None and frames is not None:
            frames.span(name, key, t0, t1)
        if self._ring is None:
            return
        ts = self._ts_us(t0)
        ev = {"name": name, "cat": cat, "ph": "X", "ts": ts,
              "dur": max(0.0, self._ts_us(t1) - ts)}
        self._record(process, thread, ev, args)

    def instant(
        self,
        name: str,
        cat: str,
        process: str,
        thread: str,
        args: dict | None = None,
        ts: float | None = None,
        scope: str = "t",
    ) -> None:
        """Record an instant ("i") event in the Chrome trace; ``ts``
        defaults to now."""
        if self._ring is None:
            return
        t = time.perf_counter() if ts is None else ts
        ev = {"name": name, "cat": cat, "ph": "i", "ts": self._ts_us(t),
              "s": scope}
        self._record(process, thread, ev, args)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def events(self) -> list[dict]:
        """Snapshot of every retained event (metadata first).  In
        ``ring`` mode this is the ring's current window."""
        with self._lock:
            body = self._events if self._events is not None else self._ring
            return self._meta + list(body or ())

    def ring_events(self) -> list[dict]:
        """Snapshot of the flight-recorder ring (metadata first)."""
        with self._lock:
            return self._meta + list(self._ring or ())

    def event_count(self) -> int:
        """Number of retained non-metadata events."""
        with self._lock:
            body = self._events if self._events is not None else self._ring
            return len(body or ())

    def chrome(self) -> dict:
        """The Chrome trace-event JSON document (a dict)."""
        return {"traceEvents": self.events(), "displayTimeUnit": "ms"}

    def write(self, path: str) -> int:
        """Write the trace-event JSON to ``path``; returns the number of
        events written (excluding lane metadata)."""
        doc = self.chrome()
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        return sum(1 for e in doc["traceEvents"] if e.get("ph") != "M")


def _meta(kind: str, pid: int, tid: int, name: str) -> dict:
    """A lane's viewer metadata event (``process_name`` /
    ``thread_name``)."""
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}}


#: The disabled tracer every component defaults to: one shared no-op,
#: without a sink, ever.
NULL_TRACER = Tracer(mode="off")


def with_frames(tracer: "Tracer | None", frames) -> Tracer:
    """The stream a run records into: ``tracer`` (default
    :data:`NULL_TRACER`) with ``frames`` attached as its frame sink —
    on a new ``mode="off"`` stream when ``tracer`` is the shared null
    one.  ``frames=None`` returns the tracer as it is."""
    tracer = tracer if tracer is not None else NULL_TRACER
    if frames is None:
        return tracer
    if tracer is NULL_TRACER:
        tracer = Tracer(mode="off")
    tracer.attach(frames)
    return tracer


# ----------------------------------------------------------------------
# Schema validation (used by the tier-1 tests and the CI smoke step)
# ----------------------------------------------------------------------
def validate_chrome_trace(doc: Any) -> int:
    """Validate a parsed trace document against the trace-event schema.

    Checks the subset of the format this tracer emits (the subset
    Perfetto requires to load a file): the ``traceEvents`` envelope, and
    per event the phase-appropriate required keys and value types.
    Returns the number of non-metadata events; raises
    :class:`TraceSchemaError` on any violation.
    """
    if not isinstance(doc, dict):
        raise TraceSchemaError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise TraceSchemaError("'traceEvents' must be a list")
    n = 0
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise TraceSchemaError(f"{where}: event must be an object")
        ph = ev.get("ph")
        if not isinstance(ph, str) or not ph:
            raise TraceSchemaError(f"{where}: missing phase 'ph'")
        if not isinstance(ev.get("name"), str):
            raise TraceSchemaError(f"{where}: missing string 'name'")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                raise TraceSchemaError(f"{where}: {key!r} must be an int")
        if "args" in ev and not isinstance(ev["args"], dict):
            raise TraceSchemaError(f"{where}: 'args' must be an object")
        if ph == "M":
            if ev["name"] not in ("process_name", "thread_name",
                                  "process_labels", "process_sort_index",
                                  "thread_sort_index"):
                raise TraceSchemaError(
                    f"{where}: unknown metadata event {ev['name']!r}"
                )
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            raise TraceSchemaError(f"{where}: 'ts' must be a number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise TraceSchemaError(
                    f"{where}: complete event needs numeric 'dur' >= 0"
                )
        elif ph == "i":
            if ev.get("s", "t") not in _INSTANT_SCOPES:
                raise TraceSchemaError(
                    f"{where}: instant scope must be one of "
                    f"{_INSTANT_SCOPES}"
                )
        elif ph not in ("B", "E", "C", "b", "e", "n"):
            raise TraceSchemaError(f"{where}: unsupported phase {ph!r}")
        n += 1
    return n
