"""Node-failure recovery for cluster runs.

Ties the pieces together: the :class:`~repro.dist.heartbeat
.HeartbeatMonitor` detects a dead or wedged node; the
:class:`RecoveryManager` fences it (unsubscribe, wind down, reclaim its
outstanding work), updates the master's topology, and — within a bounded
per-node restart budget with exponential backoff — spawns a replacement
node that re-executes the dead node's kernels:

1. the victim's frozen in-flight instances are re-enqueued directly
   (:func:`reenqueue`);
2. the transport's event log is replayed into the replacement's
   analyzer, reconstructing the store history the victim had observed —
   including events the victim itself published (needed after a
   ``drop`` partition, where *other* nodes missed them too: recovery
   skip-stores re-announce every region);
3. write-once determinism makes re-execution safe: any region the
   victim already committed is skipped byte-identically, anything it
   never committed is produced for the first time.

Throughout the detection→replacement window the manager holds a token
on the cluster's shared work counter, so global quiescence cannot be
(falsely) observed while kernels are owned by no live node.  When the
restart budget is exhausted, or no registered node survives to host the
kernels, the run is aborted with
:class:`~repro.core.errors.NodeFailureError`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..core.errors import NodeFailureError
from ..core.events import WorkToken
from ..obs import MetricsRegistry, NULL_TRACER, Tracer
from .topology import LocalTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.runtime import ExecutionNode, WorkCounter
    from .faults import FaultInjector
    from .heartbeat import Heartbeater, HeartbeatMonitor
    from .master import MasterNode
    from .transport import InProcTransport

__all__ = [
    "RecoveryConfig",
    "RecoveryRecord",
    "RecoveryManager",
    "fence_node",
]


#: Restart attempt n sleeps ``BACKOFF_BASE * 2**(n-1)`` seconds first.
BACKOFF_BASE = 0.01
#: Failure-monitor polling period (s).
POLL_INTERVAL = 0.01


@dataclass(frozen=True)
class RecoveryConfig:
    """Tuning of failure detection and recovery."""

    heartbeat_interval: float = 0.02  #: beacon period per node (s)
    heartbeat_timeout: float = 0.25  #: silence before a node is dead (s)
    #: Stall horizon: frozen progress with pending work for this long
    #: marks a live node failed.  ``None`` disables stall detection
    #: (a long kernel body is indistinguishable below this horizon).
    progress_timeout: float | None = None
    max_restarts: int = 2  #: per-node replacement budget

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat interval/timeout must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")


@dataclass(frozen=True)
class RecoveryRecord:
    """One completed node recovery."""

    failed: str  #: name of the node that died
    replacement: str  #: name of the node that took over
    host: str  #: surviving node chosen to host the replacement
    attempt: int  #: 1-based restart attempt for the base node
    reason: str  #: what the failure detector observed
    abandoned: int  #: in-flight instances the victim never ran
    reenqueued: int  #: instances re-enqueued directly on the replacement
    replayed: int  #: transport-log events replayed into its analyzer
    recovery_s: float  #: detection-to-replacement wall seconds


def reenqueue(node: "ExecutionNode", instances) -> int:
    """Re-enqueue a failed node's in-flight kernel instances onto a
    replacement node's ready queue; returns how many were enqueued.

    ``instances`` are the units frozen or abandoned at the dead node's
    fail-stop boundary (never started, so never stored).  Instances whose
    kernel the replacement does not own are skipped.  Duplication with
    the replacement's own analyzer-driven dispatch is harmless: dispatch
    is keyed per (kernel, age, index) in the analyzer, and a recovery
    node skip-stores already-complete regions, so a doubly enqueued
    instance at worst re-runs an idempotent body.
    """
    n = 0
    for inst in instances:
        if inst.kernel.name not in node.program.kernels:
            continue
        node._inc()
        node.ready.push(inst)
        n += 1
    return n


def _base_name(name: str) -> str:
    """``node1~2`` → ``node1`` (restart attempts share one budget)."""
    return name.split("~", 1)[0]


def fence_node(
    node: "ExecutionNode",
    transport: "InProcTransport",
    *,
    heartbeater: "Heartbeater | None" = None,
    injector: "FaultInjector | None" = None,
    tracer: Tracer = NULL_TRACER,
    reason: str = "departing",
) -> int:
    """Fence a node out of the cluster and reclaim its work.

    The one mechanism behind both *unplanned* departure (the recovery
    manager fencing a node the failure detector declared dead) and
    *planned* departure (an elastic migration draining a node whose
    kernels move elsewhere): stop its heartbeat, cut every transport
    subscription it holds (no deliveries to it, and its own late
    publishes are already membership-rejected), wind it down fail-stop
    and retire its outstanding work units.  Returns the number of
    abandoned instances the successor must re-execute (via event-log
    replay — write-once determinism makes the re-execution
    byte-identical).
    """
    name = node.name
    if injector is not None:
        # Any fault token bridging fire->detection is redundant once the
        # caller holds its own quiescence token for the fence window.
        injector.release_token(name)
    if heartbeater is not None:
        heartbeater.stop()
    transport.unsubscribe_node(name)
    abandoned = node.wind_down()
    if tracer.enabled:
        tracer.instant(
            "fencing", "recovery", "master", "recovery",
            args={"node": name, "abandoned": abandoned,
                  "reason": reason}, scope="g",
        )
    return abandoned


class RecoveryManager:
    """Watches the failure detector and replaces dead nodes.

    Runs its own daemon thread; the cluster run blocks on the shared
    work counter, so detection and replacement proceed concurrently with
    the surviving nodes' execution.  On an unrecoverable failure the
    manager records the error, pokes the shared counter to unblock every
    waiter, and stops — the cluster re-raises :attr:`error`.
    """

    def __init__(
        self,
        *,
        master: "MasterNode",
        transport: "InProcTransport",
        counter: "WorkCounter",
        monitor: "HeartbeatMonitor",
        config: RecoveryConfig,
        nodes: dict[str, "ExecutionNode"],
        heartbeaters: dict[str, "Heartbeater"],
        spawn: Callable[["ExecutionNode", str], "ExecutionNode"],
        injector: "FaultInjector | None" = None,
        tracer: Tracer = NULL_TRACER,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self._master = master
        self._transport = transport
        self._counter = counter
        self._monitor = monitor
        self._config = config
        self._nodes = nodes  # live node name -> ExecutionNode
        self._heartbeaters = heartbeaters
        self._spawn = spawn
        self._injector = injector
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._attempts: dict[str, int] = {}  # base name -> restarts used
        self._history: list[tuple[str, int]] = []  # (node, attempt)
        self.records: list[RecoveryRecord] = []
        self.error: BaseException | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="recovery-manager"
        )

    def start(self) -> None:
        """Start the detection/recovery thread."""
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread and wait for it to exit."""
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(POLL_INTERVAL):
            for name in self._monitor.check():
                try:
                    self._handle_failure(name)
                except BaseException as exc:  # noqa: BLE001 - surfaced
                    self.error = exc
                    if self._injector is not None:
                        self._injector.drain_tokens()
                    self._counter.poke()
                    return

    # ------------------------------------------------------------------
    def _handle_failure(self, name: str) -> None:
        node = self._nodes.pop(name, None)
        if node is None:
            return
        t0 = time.monotonic()
        tr_t0 = self.tracer.now()  # span times must use the tracer's clock
        reason = self._monitor.failures().get(name, "unknown")
        self.metrics.counter("recovery.node_failures").inc()
        # Recovery token: keeps the shared counter nonzero for the whole
        # window in which the dead node's kernels have no owner.
        with WorkToken(self._counter, label=f"recover:{name}"):
            hb = self._heartbeaters.pop(name, None)
            # Fence the victim: no deliveries to it, no deliveries from
            # it, outstanding work reclaimed.
            abandoned = fence_node(
                node, self._transport,
                heartbeater=hb,
                injector=self._injector,
                tracer=self.tracer,
                reason=reason,
            )
            captive = (
                self._injector.captive_instances(name)
                if self._injector is not None
                else []
            )
            base = _base_name(name)
            attempt = self._attempts.get(base, 0) + 1
            self._attempts[base] = attempt
            self._history.append((name, attempt))
            topo = self._master.on_failure(name)
            if attempt > self._config.max_restarts:
                raise NodeFailureError(
                    f"node {name!r} failed ({reason}) and the restart "
                    f"budget for {base!r} is exhausted "
                    f"({self._config.max_restarts} restart(s))",
                    failures=list(self._history),
                )
            host = self._master.select_host()
            if host is None:
                raise NodeFailureError(
                    f"node {name!r} failed ({reason}) and no registered "
                    f"node survives to host its kernels",
                    failures=list(self._history),
                )
            time.sleep(BACKOFF_BASE * 2 ** (attempt - 1))
            repl_name = f"{base}~{attempt}"
            self._master.register(
                LocalTopology(repl_name, topo.processors)
            )
            repl = self._spawn(node, repl_name)
            n_re = reenqueue(repl, captive)
            topics = {
                f.field
                for k in repl.program.kernels.values()
                for f in k.fetches
            }
            replayed = 0
            for msg in self._transport.replay(topics):
                repl.inject(msg.payload)
                replayed += 1
            self._nodes[repl_name] = repl
            recovery_s = time.monotonic() - t0
            repl.instrumentation.record_failure(
                attempt, recovery_s, replayed
            )
            self.metrics.counter("recovery.reenqueued").inc(n_re)
            self.metrics.counter("recovery.replayed").inc(replayed)
            self.metrics.histogram("recovery.recovery_s").observe(recovery_s)
            if self.tracer.enabled:
                self.tracer.instant(
                    "replay", "recovery", "master", "recovery",
                    args={"replacement": repl_name, "replayed": replayed},
                )
                self.tracer.instant(
                    "re-execution", "recovery", "master", "recovery",
                    args={"failed": name, "replacement": repl_name,
                          "host": host, "attempt": attempt,
                          "reenqueued": n_re}, scope="g",
                )
                self.tracer.complete(
                    f"recover:{name}", "recovery", "master", "recovery",
                    tr_t0, self.tracer.now(),
                    args={"replacement": repl_name, "reason": reason},
                )
            self.records.append(
                RecoveryRecord(
                    failed=name,
                    replacement=repl_name,
                    host=host,
                    attempt=attempt,
                    reason=reason,
                    abandoned=abandoned,
                    reenqueued=n_re,
                    replayed=replayed,
                    recovery_s=recovery_s,
                )
            )
