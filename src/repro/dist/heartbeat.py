"""Heartbeat-based failure detection over the pub-sub transport.

Every execution node runs a :class:`Heartbeater` thread publishing a
liveness beacon on the control topic :data:`LIVENESS_TOPIC` at a
configurable interval.  The master side runs a :class:`HeartbeatMonitor`
subscribed to that topic; a node is declared failed when

* no beacon arrived within ``timeout`` seconds (crash or partition:
  ``kill`` and ``drop`` faults), or
* beacons keep arriving but the node's executed-instance count has been
  frozen while it holds runnable or in-flight work for longer than
  ``progress_timeout`` seconds (a wedged node: ``stall`` faults) —
  disabled by default, since a single long-running kernel body is
  indistinguishable from a stall below that horizon.

Beacons are *control* messages: delivered, but excluded from the
transport's traffic statistics and event log, so fault tolerance does
not perturb the store/resize accounting the HLS experiments measure.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.errors import TransportError
from ..obs import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.runtime import ExecutionNode
    from .faults import FaultInjector
    from .transport import InProcTransport, Message

__all__ = ["LIVENESS_TOPIC", "Heartbeat", "Heartbeater", "HeartbeatMonitor"]

#: Control topic carrying liveness beacons.
LIVENESS_TOPIC = "__liveness__"


@dataclass(frozen=True)
class Heartbeat:
    """One liveness beacon."""

    node: str
    seq: int
    executed: int  #: kernel instances completed so far
    busy: int  #: workers currently inside (or frozen at) an instance
    backlog: int  #: ready instances not yet claimed


class Heartbeater:
    """Publishes a node's liveness beacon at a fixed interval.

    When a :class:`~repro.dist.faults.FaultInjector` is given, beacons
    stop once a ``kill`` fault fired for the node (a dead process sends
    nothing) while ``stall``-faulted nodes keep beating — that asymmetry
    is exactly what lets the monitor tell the two apart.
    """

    def __init__(
        self,
        node: "ExecutionNode",
        transport: "InProcTransport",
        interval: float,
        injector: "FaultInjector | None" = None,
    ) -> None:
        self.node = node
        self.transport = transport
        self.interval = interval
        self.injector = injector
        self._seq = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name=f"{node.name}-heartbeat"
        )

    def start(self) -> None:
        """Start beating."""
        self._thread.start()

    def stop(self) -> None:
        """Stop beating (idempotent; does not join the thread)."""
        self._stop.set()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            name = self.node.name
            if self.injector is not None and (
                self.injector.heartbeats_suppressed(name)
            ):
                continue
            self._seq += 1
            captive = (
                self.injector.captive_count(name)
                if self.injector is not None
                else 0
            )
            beat = Heartbeat(
                node=name,
                seq=self._seq,
                executed=self.node.instrumentation.total_instances(),
                busy=len(self.node._in_hand) + captive,
                backlog=self.node.backlog(),
            )
            try:
                self.transport.publish(
                    LIVENESS_TOPIC, name, beat, control=True
                )
            except TransportError:
                return  # transport closed: the run is over
            tr = self.node.tracer
            if tr.enabled:
                tr.instant(
                    "heartbeat", "heartbeat", name, "heartbeat",
                    args={
                        "seq": beat.seq,
                        "executed": beat.executed,
                        "busy": beat.busy,
                        "backlog": beat.backlog,
                    },
                )


class HeartbeatMonitor:
    """The master's failure detector.

    Passive: heartbeats update per-node health under a lock; the
    recovery manager polls :meth:`check` for newly failed nodes.  Each
    node is reported failed at most once (it is then unwatched — a
    replacement registers under a fresh name).
    """

    #: Subscriber identity on the liveness topic.
    MONITOR_NAME = "__monitor__"

    def __init__(
        self,
        transport: "InProcTransport",
        timeout: float,
        progress_timeout: float | None = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if timeout <= 0:
            raise ValueError("heartbeat timeout must be positive")
        self.timeout = timeout
        self.progress_timeout = progress_timeout
        self.tracer = tracer
        self._lock = threading.Lock()
        self._health: dict[str, _Health] = {}
        self._failed: dict[str, str] = {}  # node -> failure reason
        self._transport = transport
        self._unsubscribe = transport.subscribe(
            LIVENESS_TOPIC, self.MONITOR_NAME, self._on_beat
        )

    def watch(self, name: str) -> None:
        """Start tracking ``name``; the timeout clock starts now."""
        now = time.monotonic()
        with self._lock:
            self._health[name] = _Health(last_seen=now, last_progress=now)

    def unwatch(self, name: str) -> None:
        """Stop tracking ``name`` (it was recovered or wound down)."""
        with self._lock:
            self._health.pop(name, None)

    def watched(self) -> list[str]:
        """Currently tracked node names."""
        with self._lock:
            return sorted(self._health)

    def failures(self) -> dict[str, str]:
        """Every node ever declared failed, with the detection reason."""
        with self._lock:
            return dict(self._failed)

    def _on_beat(self, msg: "Message") -> None:
        beat: Heartbeat = msg.payload
        now = time.monotonic()
        with self._lock:
            h = self._health.get(beat.node)
            if h is None:
                return
            h.last_seen = now
            if beat.executed > h.executed or (
                beat.backlog == 0 and beat.busy == 0
            ):
                # Work retired, or genuinely idle: both are progress.
                h.last_progress = now
            h.executed = beat.executed
            h.busy = beat.busy
            h.backlog = beat.backlog

    def check(self) -> list[str]:
        """Nodes newly declared failed since the last call.

        A reported node is moved to the failed set and no longer
        watched; the caller owns its recovery.
        """
        now = time.monotonic()
        out: list[str] = []
        detected: list[tuple[str, str, str]] = []  # (event, node, reason)
        # An elastic run wires the node table into the transport; a node
        # it says is ``draining`` is leaving on purpose.
        table = self._transport.membership
        view = table.view() if table is not None else None
        with self._lock:
            for name, h in list(self._health.items()):
                if view is not None and view.state(name) == "draining":
                    continue  # expected departure: silence is planned
                if now - h.last_seen > self.timeout:
                    event = "heartbeat-silence"
                    reason = (
                        f"no heartbeat for {now - h.last_seen:.3f}s "
                        f"(timeout {self.timeout}s)"
                    )
                elif (
                    self.progress_timeout is not None
                    and (h.backlog > 0 or h.busy > 0)
                    and now - h.last_progress > self.progress_timeout
                ):
                    event = "progress-stall"
                    reason = (
                        f"no progress for {now - h.last_progress:.3f}s "
                        f"with backlog {h.backlog} and {h.busy} busy "
                        f"worker(s) (stall timeout {self.progress_timeout}s)"
                    )
                else:
                    continue
                del self._health[name]
                self._failed[name] = reason
                out.append(name)
                detected.append((event, name, reason))
        if self.tracer.enabled:
            for event, name, reason in detected:
                self.tracer.instant(
                    event, "failure", "master", "monitor",
                    args={"node": name, "reason": reason}, scope="g",
                )
        return out

    def close(self) -> None:
        """Unsubscribe from the liveness topic."""
        self._unsubscribe()


class _Health:
    """Mutable per-node liveness record."""

    __slots__ = ("last_seen", "last_progress", "executed", "busy", "backlog")

    def __init__(self, last_seen: float, last_progress: float) -> None:
        self.last_seen = last_seen
        self.last_progress = last_progress
        self.executed = 0
        self.busy = 0
        self.backlog = 0
