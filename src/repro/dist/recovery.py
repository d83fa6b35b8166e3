"""Node-failure recovery for cluster runs: the policy.

The :class:`~repro.dist.heartbeat.HeartbeatMonitor` detects a dead or
wedged node; the :class:`RecoveryManager` decides what happens next —
within a bounded per-node restart budget with exponential backoff, a
replacement ``<base>~<attempt>`` inherits the victim's resources and its
part of the assignment — and hands the mechanics to the run's one
succession routine (:meth:`repro.dist.cluster._ClusterRun.succession`,
the path an elastic migration takes too; DESIGN.md §8), which fences the
victim (:func:`fence_node`), marks it ``dead`` in the node table, builds
the replacement and replays the transport's event log into it:

1. the replay reconstructs the store history the victim had observed —
   including events the victim itself published (needed after a ``drop``
   partition, where *other* nodes missed them too: recovery skip-stores
   re-announce every region);
2. that history is the dependence relation, so the replacement's
   analyzer re-derives from it alone every instance the victim left
   unfinished — queued, frozen mid-claim or never dispatched — and
   dispatches each once: the replay is the only re-execution path;
3. write-once determinism makes re-execution exact: any region the
   victim already committed is skipped byte-identically, anything it
   never committed is produced for the first time.

A token on the cluster's shared work counter is held throughout, so
global quiescence cannot be (falsely) observed while kernels are owned
by no live node.  When the restart budget is exhausted, or no registered
node survives to host the kernels, the run is aborted with
:class:`~repro.core.errors.NodeFailureError`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.errors import NodeFailureError
from ..core.events import WorkToken
from ..obs import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.runtime import ExecutionNode
    from .cluster import _ClusterRun
    from .faults import FaultInjector
    from .heartbeat import Heartbeater
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
    replayed: int  #: transport-log events replayed into its analyzer
    recovery_s: float  #: detection-to-replacement wall seconds


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

    The first half of a succession, for an *unplanned* departure (a
    node the failure detector declared dead) and a *planned* one (an
    elastic migration moving its kernels) alike: stop its heartbeat,
    cut every transport subscription it holds (no deliveries to it, and
    its own late publishes are already membership-rejected), wind it
    down fail-stop and retire its outstanding work units.  Returns the
    number of abandoned instances the successor must re-execute (via
    event-log replay — write-once determinism makes the re-execution
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

    The policy half of a recovery: poll the monitor, charge the restart
    budget, back off, pick the name and host of the replacement — or
    give up with :class:`~repro.core.errors.NodeFailureError`.  The
    mechanics are the run's
    :meth:`~repro.dist.cluster._ClusterRun.succession`, entered
    under the cluster's one membership lock, so a failure detected
    during a migration is handled after its commit.  Runs its own daemon
    thread; on an unrecoverable failure it records the error, pokes the
    shared counter to unblock every waiter, and stops — the cluster
    re-raises :attr:`error`.
    """

    def __init__(self, run: "_ClusterRun", config: RecoveryConfig) -> None:
        self._run = run
        self._config = config
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
        rt = self._run
        while not self._stop.wait(POLL_INTERVAL):
            for name in rt.monitor.check():
                try:
                    with rt.cluster._elastic_lock:
                        self._handle_failure(name)
                except BaseException as exc:  # noqa: BLE001 - surfaced
                    self.error = exc
                    if rt.faults is not None:
                        rt.faults.drain_tokens()
                    rt.counter.poke()
                    return

    # ------------------------------------------------------------------
    def _handle_failure(self, name: str) -> None:
        rt, master = self._run, self._run.cluster.master
        node = rt.exec_nodes.get(name)
        if node is None or name in rt.monitor.watched():
            return  # a migration fenced it (and rebuilt the name) first
        tr_t0 = rt.tracer.now()  # span times must use the tracer's clock
        t0 = time.monotonic()
        reason = rt.monitor.failures().get(name, "unknown")
        rt.metrics.counter("recovery.node_failures").inc()
        base = _base_name(name)
        attempt = self._attempts[base] = self._attempts.get(base, 0) + 1
        self._history.append((name, attempt))
        host = master.select_host(exclude=(name,))
        why = None
        if attempt > self._config.max_restarts:
            why = (f"the restart budget for {base!r} is exhausted "
                   f"({self._config.max_restarts} restart(s))")
        elif host is None:
            why = "no registered node survives to host its kernels"
        if why is not None:
            rt.succession([name], {}, reason, failed=True)
            raise NodeFailureError(
                f"node {name!r} failed ({reason}) and {why}",
                failures=list(self._history),
            )
        time.sleep(BACKOFF_BASE * 2 ** (attempt - 1))
        repl_name = f"{base}~{attempt}"
        master.replace(name, repl_name)
        # Held past the succession's own token, across the topology
        # transition: until the replacement is active, the work the
        # replay handed it may be the only work the run has left.
        with WorkToken(rt.counter, label=f"recover:{name}"):
            done = rt.succession(
                [name], {repl_name: (node.program, node.workers)}, reason,
                failed=True,
            )
            master.topology.transition(repl_name, "active")
        rt.file_succession(
            "recovery",
            RecoveryRecord(
                failed=name,
                replacement=repl_name,
                host=host,
                attempt=attempt,
                reason=reason,
                abandoned=done.abandoned,
                replayed=done.replayed,
                recovery_s=time.monotonic() - t0,
            ),
            self.records, event="re-execution", span=f"recover:{name}",
            tr_t0=tr_t0, timer="recovery_s", replayed=done.replayed,
        )
