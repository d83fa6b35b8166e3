"""Failure flight recorder: dump the recent timeline next to the crash.

A fault-tolerant cluster run keeps a :class:`~repro.obs.tracing.Tracer`
in ``ring`` mode — a bounded window of the most recent spans and events
(heartbeats, failure detections, fencing, replay, re-execution) at
near-zero cost.  When the run dies with
:class:`~repro.core.errors.NodeFailureError` or
:class:`~repro.core.errors.StallError` (or a chaos test fails), the ring
is dumped as a JSON artifact alongside the existing fault-schedule
repro JSON, so one failed seed yields both the *inputs* (the schedule)
and the *timeline* (what the runtime actually did).

The dump is itself a valid Chrome trace-event document (the extra
``flight`` envelope key is ignored by viewers), so it loads straight
into Perfetto.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path

from .tracing import Tracer

__all__ = ["FLIGHT_DIR_ENV", "dump_flight", "flight_dir"]

#: Environment variable selecting the dump directory; falls back to the
#: chaos-repro artifact directory, then the current directory.
FLIGHT_DIR_ENV = "P2G_FLIGHT_DIR"

_seq = itertools.count(1)


def flight_dir() -> Path:
    """The directory flight recordings land in."""
    for env in (FLIGHT_DIR_ENV, "CHAOS_REPRO_DIR"):
        value = os.environ.get(env)
        if value:
            return Path(value)
    return Path(".")


def dump_flight(
    tracer: Tracer,
    reason: str,
    context: dict | None = None,
    directory: "Path | str | None" = None,
) -> Path | None:
    """Write the tracer's ring window as a flight-recorder artifact.

    Returns the path written, or ``None`` when the tracer keeps no
    Chrome events (``mode="off"``, a telemetry-only stream included) or
    holds none yet (nothing to record).  Never raises: a failing dump
    must not mask the error that triggered it.
    """
    events = tracer.ring_events()
    if not any(e.get("ph") != "M" for e in events):
        return None
    try:
        out_dir = Path(directory) if directory is not None else flight_dir()
        out_dir.mkdir(parents=True, exist_ok=True)
        name = f"p2g-flight-{os.getpid()}-{next(_seq)}.json"
        path = out_dir / name
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "flight": {
                "reason": reason,
                "context": context or {},
                "ring_dropped": tracer.ring_dropped,
                "unix_time": time.time(),
            },
        }
        path.write_text(json.dumps(doc) + "\n")
        return path
    except OSError:
        return None
