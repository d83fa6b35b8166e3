"""Span tracing in Chrome trace-event format.

The paper's evaluation is built on *when things happened*: dispatch
versus kernel time per instance (tables II–III), scaling knees where the
serial analyzer saturates (figures 9–10), and — in the fault-tolerant
cluster — the detection→replacement window.  The aggregated
:class:`~repro.core.instrumentation.KernelStats` keep the totals; this
module keeps the *timeline*.

A :class:`Tracer` records spans (complete events) and instants for every
kernel-instance lifecycle phase, plus analyzer, scheduler, transport,
heartbeat and recovery activity, and exports them as Chrome trace-event
JSON — the ``{"traceEvents": [...]}`` envelope that loads directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Lanes map
P2G concepts onto the viewer's process/thread rows: one *process* row
per execution node (plus ``master`` for the control plane), one *thread*
row per worker / analyzer / heartbeat / recovery actor.

Cost model — the hook layer must be near-zero when unused:

* ``off`` — the shared :data:`NULL_TRACER`; every method returns
  immediately after one attribute test, and hot call sites additionally
  guard with ``if tracer.enabled:`` so argument construction is skipped
  entirely;
* ``ring`` — only the last ``ring`` events are retained in a bounded
  deque: the **flight recorder** mode, cheap enough to leave armed for
  every fault-tolerant cluster run;
* ``full`` — every event is retained for ``--trace`` export (the ring
  is kept as well, so a failing traced run still dumps a flight
  recording).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Callable

__all__ = [
    "NULL_TRACER",
    "TraceSchemaError",
    "Tracer",
    "validate_chrome_trace",
]

#: Instant-event scopes accepted by the trace-event format.
_INSTANT_SCOPES = ("t", "p", "g")


class TraceSchemaError(ValueError):
    """A trace document violated the Chrome trace-event schema."""


class Tracer:
    """Thread-safe recorder of trace events with named lanes.

    Parameters
    ----------
    mode:
        ``"off"`` (no-op), ``"ring"`` (flight-recorder: bounded ring
        only) or ``"full"`` (retain everything + the ring).
    ring:
        Ring-buffer capacity — the flight recorder's horizon.
    clock:
        Injectable time source (defaults to ``time.perf_counter``); the
        tracer's origin is its value at construction, so timestamps are
        microseconds since the tracer was created.
    """

    MODES = ("off", "ring", "full")

    def __init__(
        self,
        mode: str = "full",
        ring: int = 4096,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(
                f"unknown tracer mode {mode!r}; expected one of {self.MODES}"
            )
        self.mode = mode
        self.enabled = mode != "off"
        self._clock = clock if clock is not None else time.perf_counter
        self._origin = self._clock()
        self._lock = threading.Lock()
        self._events: list[dict] | None = [] if mode == "full" else None
        self._ring: deque | None = (
            deque(maxlen=max(1, ring)) if self.enabled else None
        )
        self.ring_dropped = 0  #: events that fell off the ring buffer
        self._meta: list[dict] = []  #: process/thread-name metadata events
        self._pids: dict[str, int] = {}
        self._lanes: dict[tuple[str, str], tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Time base
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current clock value (same domain as the ``t0``/``t1`` span
        arguments)."""
        return self._clock()

    def _ts_us(self, t: float) -> float:
        return (t - self._origin) * 1e6

    # ------------------------------------------------------------------
    # Lanes
    # ------------------------------------------------------------------
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
                pid = len(self._pids) + 1
                self._pids[process] = pid
                self._meta.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": process},
                    }
                )
            tid = 1 + sum(1 for p, _t in self._lanes if p == process)
            self._lanes[key] = (pid, tid)
            self._meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread},
                }
            )
            return (pid, tid)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(self, ev: dict) -> None:
        with self._lock:
            if self._events is not None:
                self._events.append(ev)
            ring = self._ring
            if ring is not None:
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
    ) -> None:
        """Record a complete ("X") span from clock value ``t0`` to
        ``t1`` in the (process, thread) lane."""
        if not self.enabled:
            return
        pid, tid = self.lane(process, thread)
        ev = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": self._ts_us(t0),
            "dur": max(0.0, self._ts_us(t1) - self._ts_us(t0)),
            "pid": pid,
            "tid": tid,
        }
        if args:
            ev["args"] = args
        self._record(ev)

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
        """Record an instant ("i") event; ``ts`` defaults to now."""
        if not self.enabled:
            return
        pid, tid = self.lane(process, thread)
        ev = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "ts": self._ts_us(self._clock() if ts is None else ts),
            "pid": pid,
            "tid": tid,
            "s": scope,
        }
        if args:
            ev["args"] = args
        self._record(ev)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def events(self) -> list[dict]:
        """Snapshot of every retained event (metadata first).  In
        ``ring`` mode this is the ring's current window."""
        with self._lock:
            body = (
                list(self._events)
                if self._events is not None
                else list(self._ring or ())
            )
            return list(self._meta) + body

    def ring_events(self) -> list[dict]:
        """Snapshot of the flight-recorder ring (metadata first)."""
        with self._lock:
            return list(self._meta) + list(self._ring or ())

    def event_count(self) -> int:
        """Number of retained non-metadata events."""
        with self._lock:
            if self._events is not None:
                return len(self._events)
            return len(self._ring or ())

    def chrome(self) -> dict:
        """The Chrome trace-event JSON document (a dict)."""
        return {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
        }

    def write(self, path: str) -> int:
        """Write the trace-event JSON to ``path``; returns the number of
        events written (excluding lane metadata)."""
        doc = self.chrome()
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        return sum(1 for e in doc["traceEvents"] if e.get("ph") != "M")


#: The disabled tracer every component defaults to: one shared no-op.
NULL_TRACER = Tracer(mode="off")


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
