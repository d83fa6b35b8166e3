"""A multi-node P2G cluster, in process.

Completes the paper's figure-1 architecture: a master node plans a
kernel→node assignment (HLS), then each execution node runs *its*
kernels with its own dependency analyzer and worker threads.  Nodes
share the program's write-once fields (each kernel — and therefore each
store region — lives on exactly one node, so write-once semantics hold
globally) and forward their store/resize events over the
publish–subscribe transport to every node that fetches the stored field;
quiescence is detected cluster-wide through a shared
:class:`~repro.core.WorkCounter`.

The transport's traffic statistics expose exactly what the HLS's
partitioning objective minimizes: events crossing node boundaries.
A partition that keeps a pipeline on one node moves almost nothing; a
bad partition pays per store.

Fault tolerance is opt-in: passing ``faults`` (a
:class:`~repro.dist.faults.FaultInjector`) or ``recovery`` (a
:class:`~repro.dist.recovery.RecoveryConfig`) to :meth:`Cluster.run`
enables the transport event log, per-node heartbeats, a failure monitor
and a :class:`~repro.dist.recovery.RecoveryManager` that replaces dead
nodes mid-run.  Without them, nothing changes: no control traffic, no
log, byte-for-byte the original execution path.

Elasticity is likewise opt-in (``elastic=``): the node set becomes a
versioned :class:`~repro.dist.membership.MembershipTable` instead of a
frozen list, and :meth:`Cluster.add_node` / :meth:`Cluster.drain_node`
rescale a *running* cluster.  A migration is two-phase — ``scale.plan``
announces the intent, then every node whose kernel set changes under
the incrementally repartitioned assignment is fenced (the PR 2 recovery
fence, generalized from "dead" to "departing") and a successor is built
that replays the transport event log; ``scale.commit`` flips the
membership epoch.  Write-once determinism makes the re-execution
byte-identical, and a shared-counter token pins the run across the
whole window so no node can observe a false global quiescence while
kernels are owned by nobody.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Mapping

from ..core import (
    ExecutionNode,
    Program,
    RunResult,
    WorkCounter,
)
from ..core.deadlines import TimerSet
from ..core.errors import PartitionError, SchedulerError
from ..core.events import ResizeEvent, StoreEvent, WorkToken
from ..core.fields import FieldStore
from ..core.instrumentation import Instrumentation
from ..core.runtime import _resolve_telemetry
from ..obs import MetricsRegistry, NULL_TRACER, Tracer, dump_flight
from .faults import FaultInjector
from .heartbeat import Heartbeater, HeartbeatMonitor
from .master import MasterNode, WorkloadAssignment
from .membership import (
    MEMBERSHIP_TOPIC,
    ElasticityConfig,
    ElasticityDriver,
    MembershipTable,
)
from .recovery import (
    RecoveryConfig,
    RecoveryManager,
    RecoveryRecord,
    _base_name,
    fence_node,
)
from .topology import LocalTopology, ProcessorSpec
from .transport import InProcTransport, TransportStats

__all__ = ["Cluster", "ClusterResult", "MigrationRecord"]


@dataclass(frozen=True)
class MigrationRecord:
    """One completed elastic migration (join, drain or rebalance)."""

    reason: str  #: what triggered the rescale
    epoch: int  #: membership epoch after the commit
    moved_kernels: int  #: kernels whose owner changed
    fenced: tuple[str, ...]  #: live nodes wound down
    built: tuple[str, ...]  #: successor nodes started
    replayed: int  #: event-log messages replayed into successors
    migration_s: float  #: plan-to-commit wall seconds


@dataclass
class ClusterResult:
    """Outcome of one cluster run."""

    assignment: WorkloadAssignment
    node_results: dict[str, RunResult]
    transport: TransportStats
    wall_time: float
    fields: FieldStore
    recoveries: list[RecoveryRecord] = dc_field(default_factory=list)
    metrics: "MetricsRegistry | None" = None
    tracer: "Tracer | None" = None  #: set when tracing was enabled
    #: StreamReport when the run was live (``stream=``), or a
    #: MultitenantReport when it was multi-session (``sessions=``).
    stream: Any = None
    #: :class:`~repro.obs.Telemetry` facade when the run was launched
    #: with ``telemetry=`` (frame timelines, SLO tracker, exporter).
    telemetry: Any = None
    #: Elastic runs: migrations performed, in order.
    migrations: list[MigrationRecord] = dc_field(default_factory=list)
    #: Elastic runs: final membership snapshot (``as_dict()`` form).
    membership: dict | None = None

    @property
    def instrumentation(self) -> Instrumentation:
        """All nodes' instrumentation merged into one collector."""
        merged = Instrumentation()
        for r in self.node_results.values():
            merged = merged.merged(r.instrumentation)
        return merged

    @property
    def reason(self) -> str:
        """Aggregate outcome: idle only if every node went idle."""
        reasons = {r.reason for r in self.node_results.values()}
        if reasons == {"idle"}:
            return "idle"
        return "timeout" if "timeout" in reasons else "stopped"

    def cross_node_messages(self) -> int:
        """Store/resize events that crossed node boundaries."""
        return self.transport.messages


class _OutputDedup:
    """Idempotent wrapper around a program's output handler.

    A replacement node re-executes the victim's kernels; their stores
    are skipped byte-identically (write-once), but out-of-band
    ``ctx.output`` values would reach the handler a second time.  Keyed
    by (kernel, age, index, key), only the first delivery goes through.
    """

    def __init__(self, handler) -> None:
        self._handler = handler
        self._lock = threading.Lock()
        self._seen: set = set()

    @staticmethod
    def _freeze(index: Any) -> Any:
        if isinstance(index, dict):
            return tuple(sorted(index.items()))
        return index

    def __call__(self, kernel, age, index, key, value) -> None:
        k = (kernel, age, self._freeze(index), key)
        with self._lock:
            if k in self._seen:
                return
            self._seen.add(k)
        self._handler(kernel, age, index, key, value)


class _RunState:
    """Mutable state of one :meth:`Cluster.run` invocation.

    Hoisted from ``run()``'s local variables onto the cluster instance
    so the elastic membership operations (:meth:`Cluster.add_node`,
    :meth:`Cluster.drain_node`) can fence, rebuild and rewire nodes
    while the run is in flight.
    """

    def __init__(self) -> None:
        self.running = False
        self.assignment: WorkloadAssignment | None = None
        self.exec_nodes: dict[str, ExecutionNode] = {}
        self.results: dict[str, RunResult] = {}
        self.errors: list[BaseException] = []
        self.lock = threading.Lock()
        self.heartbeaters: dict[str, Heartbeater] = {}
        self.extra_threads: list[threading.Thread] = []
        self.extra_lock = threading.Lock()
        self.monitor: HeartbeatMonitor | None = None
        self.manager: RecoveryManager | None = None
        self.session_drivers: dict[str, Any] = {}
        self.live_drivers: list = []
        self.migrations: list[MigrationRecord] = []
        self.migration_seq = 0
        self.counter: WorkCounter | None = None
        self.fields: FieldStore | None = None
        self.faults: FaultInjector | None = None
        self.recovery: RecoveryConfig | None = None
        self.ft = False
        self.elastic = False
        self.tracer: Tracer = NULL_TRACER
        self.metrics: MetricsRegistry | None = None
        self.tel = None
        self.timeout: float | None = None
        self.stall_timeout: float | None = None
        self.t0_mono = 0.0
        # Closures bound by run() (they capture per-run wiring):
        self.build: Callable[..., ExecutionNode] | None = None
        self.drive: Callable[[str, ExecutionNode, str], None] | None = None


class Cluster:
    """Runs one program across several in-process execution nodes.

    Parameters
    ----------
    program:
        The program to distribute.
    nodes:
        Node name → worker-thread count (each node also runs its own
        analyzer thread), or name → :class:`LocalTopology` for
        heterogeneous capacities.
    transport:
        Optional preconfigured transport (e.g. with a latency model).
    """

    def __init__(
        self,
        program: Program,
        nodes: Mapping[str, int | LocalTopology],
        transport: InProcTransport | None = None,
    ) -> None:
        if not nodes:
            raise PartitionError("cluster needs at least one node")
        self.program = program
        self.master = MasterNode()
        self._workers: dict[str, int] = {}
        #: Versioned membership: every construction-time node starts
        #: active.  Epochs only start moving (and broadcasting) once an
        #: elastic run wires the publish callback.
        self.membership = MembershipTable()
        for name, spec in nodes.items():
            if isinstance(spec, LocalTopology):
                topo = spec
                workers = max(
                    1, int(sum(p.cores for p in spec.processors))
                )
            else:
                workers = int(spec)
                topo = LocalTopology(
                    name, (ProcessorSpec("cpu", cores=workers),)
                )
            self.master.register(topo)
            self._workers[name] = workers
            self.membership.add(name, "active")
        self.transport = transport if transport is not None else \
            InProcTransport()
        #: Serializes membership operations (join/drain/rescale) against
        #: each other; reentrant so a driver-issued rescale can call
        #: :meth:`add_node`/:meth:`drain_node` per node.
        self._elastic_lock = threading.RLock()
        self._rt: _RunState | None = None

    # ------------------------------------------------------------------
    def _subprogram(self, assignment: WorkloadAssignment, node: str) -> Program:
        kernels = [
            self.program.kernels[k] for k in assignment.kernels_for(node)
        ]
        sub = Program.build(
            self.program.fields.values(),
            kernels,
            self.program.timers,
            name=f"{self.program.name}@{node}",
        )
        sub.output_handler = self.program.output_handler
        return sub

    def _wire(self, node: ExecutionNode) -> None:
        """Subscribe ``node`` to every field one of its kernels fetches."""
        fetched = {
            f.field
            for k in node.program.kernels.values()
            for f in k.fetches
        }
        for fname in sorted(fetched):
            self.transport.subscribe(
                fname, node.name,
                lambda msg, node=node: node.inject(msg.payload),
            )

    def _workers_for(self, name: str) -> int:
        """Worker count for a live node name (restart/migration names
        like ``node1~2`` inherit the base node's)."""
        w = self._workers.get(name)
        if w is None:
            w = self._workers[_base_name(name)]
        return w

    # ------------------------------------------------------------------
    # Elastic membership (public API; requires an elastic run in flight)
    # ------------------------------------------------------------------
    def _require_elastic_run(self) -> _RunState:
        rt = self._rt
        if rt is None or not rt.running or not rt.elastic:
            raise SchedulerError(
                "membership operations need a running elastic cluster "
                "(Cluster.run(..., elastic=True) or an ElasticityConfig)"
            )
        return rt

    def _live_name(self, rt: _RunState, assign_name: str) -> str | None:
        """The live execution node serving ``assign_name``'s kernels
        (exact match, or the unique restart ``assign_name~k``)."""
        if assign_name in rt.exec_nodes:
            return assign_name
        matches = [
            n for n in rt.exec_nodes if _base_name(n) == assign_name
        ]
        return matches[0] if len(matches) == 1 else None

    def add_node(self, name: str, workers: int | None = None) -> None:
        """Join ``name`` to a *running* elastic cluster.

        Registers its capacity with the master, admits it to the
        membership as ``joining``, incrementally repartitions the kernel
        graph over N+1 nodes (minimizing moved kernels), migrates the
        moved kernels by fence + event-log replay, and flips the
        membership epoch — the newcomer is ``active`` once the
        ``scale.commit`` is out.
        """
        with self._elastic_lock:
            rt = self._require_elastic_run()
            if workers is None:
                workers = max(self._workers.values())
            if name in self._workers and name in rt.exec_nodes:
                raise SchedulerError(f"node {name!r} already exists")
            self.master.register(
                LocalTopology(name, (ProcessorSpec("cpu", cores=workers),))
            )
            self._workers[name] = workers
            if self.membership.state(name) in (None, "dead", "left"):
                self.membership.add(name, "joining")
            self._rescale(rt, reason=f"join:{name}")
            self.membership.transition(name, "active")

    def drain_node(self, name: str) -> None:
        """Drain ``name`` out of a *running* elastic cluster.

        The inverse of :meth:`add_node`: the node is marked ``draining``
        (an *expected* departure — the heartbeat monitor grants grace,
        so the recovery manager never fires), its capacity leaves the
        master, the remaining nodes absorb its kernels via the same
        incremental fence/replay migration, and the membership epoch
        flips with the node ``left`` — after which the transport rejects
        any straggler it might still publish.
        """
        with self._elastic_lock:
            rt = self._require_elastic_run()
            live = self._live_name(rt, name)
            if live is None:
                raise SchedulerError(f"node {name!r} is not live")
            if len(rt.exec_nodes) <= 1:
                raise SchedulerError(
                    "cannot drain the last remaining node"
                )
            self.membership.transition(_member_name(self, name), "draining")
            if rt.monitor is not None:
                rt.monitor.mark_draining(live)
            self.master.unregister(
                live if live in self.master.topology.capacities()
                else name
            )
            self._workers.pop(name, None)
            self._rescale(rt, reason=f"drain:{name}")
            self.membership.transition(_member_name(self, name), "left")

    # ------------------------------------------------------------------
    def _rescale(self, rt: _RunState, reason: str) -> None:
        """Incrementally repartition and migrate (caller holds the
        elastic lock and has already adjusted master capacity).

        Two-phase: ``scale.plan`` announces the intent; every live node
        whose kernel set changes under the new assignment is fenced
        (heartbeat grace → unsubscribe → wind down, reclaiming its
        outstanding work) and a successor with the new subprogram is
        built in recovery mode, re-learning the store history from the
        transport's event log; ``scale.commit`` carries the epoch the
        new routing is valid under.  A shared-counter token pins the run
        for the whole window.
        """
        t0 = time.monotonic()
        tr_t0 = rt.tracer.now() if rt.tracer.enabled else 0.0
        self.transport.publish(
            "scale.plan", "master",
            {"reason": reason, "epoch": self.membership.epoch},
            control=True,
        )
        old = rt.assignment
        with WorkToken(rt.counter, label=f"scale:{reason}"):
            for drv in rt.live_drivers:
                drv.retirer.pause()
            try:
                new = self.master.plan_incremental(self.program)
                old_sets = {
                    n: set(old.kernels_for(n)) for n in old.nodes()
                }
                new_sets = {
                    n: set(new.kernels_for(n)) for n in new.nodes()
                }
                changed = sorted(
                    n for n in set(old_sets) | set(new_sets)
                    if old_sets.get(n, set()) != new_sets.get(n, set())
                )
                moved = sum(
                    1 for k in self.program.kernels
                    if old.partition.assign.get(k)
                    != new.partition.assign.get(k)
                )
                # Phase 1 — fence first, build after: a kernel must
                # never have two live owners (the old node would trip
                # write-once on a region its successor already stored).
                fenced: list[str] = []
                for assign_name in changed:
                    live = self._live_name(rt, assign_name)
                    if live is None:
                        continue
                    node = rt.exec_nodes.pop(live, None)
                    if node is None:
                        continue
                    if rt.monitor is not None:
                        rt.monitor.mark_draining(live)
                    hb = rt.heartbeaters.pop(live, None)
                    fence_node(
                        node, self.transport,
                        heartbeater=hb,
                        injector=rt.faults,
                        tracer=rt.tracer,
                        reason=f"migration:{reason}",
                    )
                    if rt.monitor is not None:
                        rt.monitor.unwatch(live)
                    fenced.append(live)
                # Phase 2 — build successors with the new subprograms
                # and replay the event log into them.
                built: list[str] = []
                replayed = 0
                for assign_name in changed:
                    kernels = new_sets.get(assign_name)
                    if not kernels:
                        continue  # node lost everything (drain target)
                    sub = self._subprogram(new, assign_name)
                    succ = rt.build(
                        assign_name, sub, self._workers_for(assign_name)
                    )
                    topics = {
                        f.field
                        for k in succ.program.kernels.values()
                        for f in k.fetches
                    }
                    for msg in self.transport.replay(topics):
                        succ.inject(msg.payload)
                        replayed += 1
                    built.append(assign_name)
                # Retirement and liveness probes follow the new epoch.
                nodes_now = list(rt.exec_nodes.values())
                for drv in rt.live_drivers:
                    if nodes_now:
                        drv.set_nodes(nodes_now)
            finally:
                for drv in rt.live_drivers:
                    drv.retirer.resume()
        rt.assignment = new
        epoch = self.membership.epoch
        migration_s = time.monotonic() - t0
        self.transport.publish(
            "scale.commit", "master",
            {"reason": reason, "epoch": epoch, "moved": moved},
            control=True,
        )
        m = rt.metrics
        if m is not None:
            m.counter("elastic.migrations").inc()
            m.counter("elastic.moved_kernels").inc(moved)
            m.counter("elastic.replayed").inc(replayed)
            m.histogram("elastic.migration_s").observe(migration_s)
        if rt.tracer.enabled:
            rt.tracer.instant(
                "scale.plan", "elastic", "master", "elastic",
                args={"reason": reason, "fenced": fenced,
                      "built": built}, scope="g",
            )
            rt.tracer.complete(
                f"migrate:{reason}", "elastic", "master", "elastic",
                tr_t0, rt.tracer.now(),
                args={"epoch": epoch, "moved": moved,
                      "replayed": replayed},
            )
        rt.migrations.append(
            MigrationRecord(
                reason=reason,
                epoch=epoch,
                moved_kernels=moved,
                fenced=tuple(fenced),
                built=tuple(built),
                replayed=replayed,
                migration_s=migration_s,
            )
        )

    def _elasticity_driver(
        self, rt: _RunState, cfg: ElasticityConfig,
        session_specs,
    ) -> ElasticityDriver:
        """Wire an :class:`ElasticityDriver` against this run: load and
        SLO-burn samples in, :meth:`add_node`/:meth:`drain_node` out."""

        def sample() -> dict:
            nodes = list(rt.exec_nodes.values())
            workers = sum(n.workers for n in nodes) or 1
            depth = sum(len(n.ready) for n in nodes)
            burn = 0.0
            slo = rt.tel.slo if rt.tel is not None else None
            if slo is not None and session_specs:
                for spec in session_specs:
                    try:
                        burn = max(burn, slo.burn_rate(spec.name))
                    except Exception:  # noqa: BLE001 - untracked tenant
                        continue
            return {
                "nodes": len(nodes),
                "queue_per_worker": depth / workers,
                "burn": burn,
                "elapsed": time.monotonic() - rt.t0_mono,
            }

        def rescale_to(target: int) -> bool:
            with self._elastic_lock:
                current = len(rt.exec_nodes)
                if target == current:
                    return False
                if target > current:
                    for _ in range(target - current):
                        self.add_node(self._next_node_name(rt))
                else:
                    active = sorted(rt.exec_nodes)
                    for name in active[target - current:]:
                        self.drain_node(_base_name(name))
                return True

        return ElasticityDriver(
            cfg, metrics_fn=sample, scale_fn=rescale_to
        )

    def set_offered_rate(
        self, fps: float, session: str | None = None
    ) -> None:
        """Change the offered frame rate of a *running* stream.

        Applies to every live driver, or just ``session``'s.  The load
        lever of the elasticity chaos tests and benchmarks: doubling the
        offered fps mid-run is what justifies a scale-out.
        """
        rt = self._rt
        if rt is None or not rt.running:
            raise SchedulerError("no stream run in flight")
        if session is not None:
            drv = rt.session_drivers.get(session)
            if drv is None:
                raise SchedulerError(f"no session {session!r}")
            drv.set_rate(fps)
            return
        if not rt.live_drivers:
            raise SchedulerError("run has no stream drivers")
        for drv in rt.live_drivers:
            drv.set_rate(fps)

    def _next_node_name(self, rt: _RunState) -> str:
        """First free ``node<k>`` name (CLI/driver join targets)."""
        taken = set(self._workers) | set(rt.exec_nodes) | {
            _base_name(n) for n in rt.exec_nodes
        }
        k = 0
        while f"node{k}" in taken:
            k += 1
        return f"node{k}"

    def run(
        self,
        assignment: WorkloadAssignment | None = None,
        method: str = "kl",
        instrumentation: Instrumentation | None = None,
        max_age: int | None = None,
        timeout: float | None = None,
        stall_timeout: float | None = None,
        faults: FaultInjector | None = None,
        recovery: RecoveryConfig | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        stream=None,
        sessions=None,
        batch: int = 1,
        telemetry=None,
        elastic: "ElasticityConfig | bool | None" = None,
    ) -> ClusterResult:
        """Plan (unless given an assignment) and execute the program.

        Returns after cluster-wide quiescence; raises the first node
        error if any kernel body failed.

        ``stall_timeout`` arms the work counter's stall watchdog on
        every node: a wedged run raises
        :class:`~repro.core.errors.StallError` instead of hanging.  Pick
        it larger than the longest kernel body — and, with fault
        injection, larger than the heartbeat timeout (a killed node's
        frozen window counts as global inactivity until detection).

        ``faults`` and/or ``recovery`` switch on the fault-tolerant
        path: heartbeat failure detection, the transport event log, and
        automatic node replacement with bounded retries.  Exhausting the
        restart budget (or losing every node) raises
        :class:`~repro.core.errors.NodeFailureError`.

        ``stream`` (a :class:`~repro.stream.StreamBinding` or prebuilt
        :class:`~repro.stream.StreamDriver`) runs the cluster live: the
        stream driver publishes each admitted frame's store events on the
        field topics (origin ``stream-source``), so exactly the nodes
        whose kernels fetch the input fields receive them; backpressure
        credits travel the other way on the ``stream.credit`` control
        topic (granted by ``master`` as completions are observed,
        consumed by ``stream-source``), so flow control crosses the same
        transport as data.  The resulting
        :class:`~repro.stream.StreamReport` is attached to
        ``ClusterResult.stream``.

        ``sessions`` (an iterable of
        :class:`~repro.stream.SessionSpec`) runs the cluster
        multi-tenant: the cluster must have been constructed with the
        merged program (:func:`~repro.stream.merge_sessions`), whose
        namespaced fields partition across nodes like any others — a
        session's frames travel only the field topics its subgraph
        fetches, so transport-level isolation falls out of topic
        routing.  Each session gets its own
        :class:`~repro.stream.StreamDriver` (gate, QoS tier, scoped
        retirer); credits return on ``stream.credit`` tagged with the
        session name.  Every node schedules with the ``"fair"``
        per-session deficit policy.  ``ClusterResult.stream`` becomes a
        :class:`~repro.stream.MultitenantReport`.

        ``tracer`` records a cluster-wide timeline (one viewer lane per
        node/worker plus ``master`` control-plane lanes).  Fault-tolerant
        runs arm a ring-mode tracer (the flight recorder) by default; on
        an unrecoverable failure the recent timeline — heartbeat-silence,
        fencing, re-execution — is dumped next to the chaos repro
        artifact and the path attached to the exception as
        ``flight_path``.  ``metrics`` is shared by every node (and the
        recovery manager), so counters aggregate cluster-wide.

        ``batch`` > 1 turns on batched dispatch on every node (see
        :func:`~repro.core.run_program`); results stay byte-identical.

        ``telemetry`` (``True``, a :class:`~repro.obs.TelemetryConfig`
        or a prebuilt :class:`~repro.obs.Telemetry`) arms the frame
        timeline on every node and on the transport (store-event hops
        charge the ``transport`` bucket), the per-tenant SLO tracker,
        and the live exporter sampling the shared cluster metrics
        registry.  The facade is attached to
        ``ClusterResult.telemetry``.

        ``elastic`` switches on dynamic membership: the transport's
        routing consults the epoch-stamped membership view (rejecting
        dead/departed senders), the event log is retained for migration
        replay, and :meth:`add_node`/:meth:`drain_node` may rescale the
        running cluster.  Passing an
        :class:`~repro.dist.membership.ElasticityConfig` additionally
        starts an :class:`~repro.dist.membership.ElasticityDriver`
        issuing scale decisions from live load/SLO signals (or the
        config's deterministic time trigger).  ``True`` arms the
        machinery for manual scaling only.
        """
        if stream is not None and sessions is not None:
            raise ValueError(
                "stream= and sessions= are mutually exclusive"
            )
        session_specs = list(sessions) if sessions is not None else None
        session_weights: dict[str, int] | None = None
        if session_specs is not None:
            from ..stream.multitenant import SESSION_SEP

            for spec in session_specs:
                prefix = spec.name + SESSION_SEP
                if not any(
                    k.startswith(prefix) for k in self.program.kernels
                ):
                    raise ValueError(
                        f"session {spec.name!r} has no kernels in the "
                        f"cluster program — construct the Cluster with "
                        f"merge_sessions(specs)"
                    )
            session_weights = {
                spec.name: 2 if spec.qos_class == "gold" else 1
                for spec in session_specs
            }
        if assignment is None:
            assignment = self.master.plan(
                self.program, instrumentation, method
            )
        ft = faults is not None or recovery is not None
        if ft and recovery is None:
            recovery = RecoveryConfig()
        elastic_cfg: ElasticityConfig | None = (
            elastic if isinstance(elastic, ElasticityConfig) else None
        )
        elastic_on = bool(elastic)
        if tracer is None:
            # Flight recorder armed by default on fault-tolerant runs:
            # ring mode is bounded-memory and cheap enough to always run.
            tracer = Tracer(mode="ring") if ft else NULL_TRACER
        if metrics is None:
            metrics = MetricsRegistry()
        tel = _resolve_telemetry(telemetry)
        if tel is not None:
            tel.attach_tracer(tracer)
            # One source only: the registry is shared by every node, so
            # per-node sources would double-count on merge.
            tel.exporter.add_source("cluster", metrics.snapshot)
        self.transport.tracer = tracer
        self.transport.timeline = tel.timeline if tel is not None else None
        fields = FieldStore(self.program.fields.values())
        counter = WorkCounter()
        timers = TimerSet(self.program.timers)
        dtype_size = {
            f.name: f.np_dtype.itemsize
            for f in self.program.fields.values()
        }

        rt = _RunState()
        rt.assignment = assignment
        rt.counter = counter
        rt.fields = fields
        rt.faults = faults
        rt.recovery = recovery
        rt.ft = ft
        rt.elastic = elastic_on
        rt.tracer = tracer
        rt.metrics = metrics
        rt.tel = tel
        rt.timeout = timeout
        rt.stall_timeout = stall_timeout
        self._rt = rt
        exec_nodes = rt.exec_nodes

        if elastic_on:
            # Dynamic membership: broadcast every view flip on the
            # control topic, export the epoch, retain the event log for
            # migration replay, and gate routing on the view.
            def broadcast(view) -> None:
                metrics.gauge("membership.epoch").set_max(view.epoch)
                try:
                    self.transport.publish(
                        MEMBERSHIP_TOPIC, "master", view, control=True
                    )
                except Exception:  # noqa: BLE001 - post-close flips
                    pass

            self.membership.set_publish(broadcast)
            metrics.gauge("membership.epoch").set_max(
                self.membership.epoch
            )
            self.transport.membership = self.membership
            self.transport.enable_log()
            if tel is not None:
                tel.exporter.page("membership", self.membership.as_dict)

        def tap(node: ExecutionNode, ev) -> None:
            if isinstance(ev, StoreEvent):
                self.transport.publish(
                    ev.field, node.name, ev, _payload_bytes(ev, dtype_size)
                )
            elif isinstance(ev, ResizeEvent):
                self.transport.publish(ev.field, node.name, ev, 0)

        output_handler = self.program.output_handler
        if (ft or elastic_on) and output_handler is not None:
            output_handler = _OutputDedup(output_handler)

        for name in assignment.nodes():
            sub = self._subprogram(assignment, name)
            if not sub.kernels:
                continue
            if ft or elastic_on:
                sub.output_handler = output_handler
            exec_nodes[name] = ExecutionNode(
                sub,
                self._workers[name],
                max_age=max_age,
                name=name,
                fields=fields,
                counter=counter,
                timers=timers,
                on_event=tap,
                scheduling=(
                    "fair" if session_specs is not None else "age"
                ),
                session_weights=session_weights,
                dependency_kernels=list(self.program.kernels.values()),
                tracer=tracer,
                metrics=metrics,
                batch=batch,
                timeline=tel.timeline if tel is not None else None,
            )
        if not exec_nodes:
            raise PartitionError("assignment left every node empty")

        # Wire subscriptions: a node receives events for every field one
        # of its kernels fetches.
        for node in exec_nodes.values():
            self._wire(node)

        # ---- live streaming (source -> field topics, credits back on
        # the stream.credit control topic) ----
        sdriver = None
        session_drivers = rt.session_drivers
        if stream is not None or session_specs is not None:
            from ..stream import StreamDriver

            def stream_inject(ev) -> None:
                size = (
                    _payload_bytes(ev, dtype_size)
                    if isinstance(ev, StoreEvent) else 0
                )
                self.transport.publish(ev.field, "stream-source", ev, size)

        if stream is not None:
            def grant(age: int) -> None:
                self.transport.publish(
                    "stream.credit", "master", {"age": age}, control=True
                )

            sdriver = (
                stream if isinstance(stream, StreamDriver)
                else StreamDriver(
                    stream,
                    nodes=list(exec_nodes.values()),
                    fields=fields,
                    counter=counter,
                    metrics=metrics,
                    tracer=tracer,
                    program=self.program,
                    inject=stream_inject,
                    on_grant=grant,
                    telemetry=tel,
                )
            )
            self.transport.subscribe(
                "stream.credit", "stream-source",
                lambda msg: sdriver.gate.grant(msg.payload["age"]),
            )
        elif session_specs is not None:
            from ..stream.multitenant import (
                _namespace_binding,
                namespace_program,
            )

            for spec in session_specs:
                sub = namespace_program(spec.program, spec.name)

                def grant(age: int, _name=spec.name) -> None:
                    # Session-tagged credit: flow control per tenant
                    # over the shared control topic.
                    self.transport.publish(
                        "stream.credit", "master",
                        {"session": _name, "age": age}, control=True,
                    )

                session_drivers[spec.name] = StreamDriver(
                    _namespace_binding(spec.binding, spec.name),
                    nodes=list(exec_nodes.values()),
                    fields=fields,
                    counter=counter,
                    metrics=metrics,
                    tracer=tracer,
                    program=self.program,
                    inject=stream_inject,
                    on_grant=grant,
                    telemetry=tel,
                    session=spec.name,
                    kernel_filter=lambda k, _p=spec.name + SESSION_SEP: (
                        k.startswith(_p)
                    ),
                    retire_fields=frozenset(sub.fields),
                    retire_kernels=frozenset(sub.kernels),
                )

            def route_credit(msg) -> None:
                drv = session_drivers.get(msg.payload.get("session"))
                if drv is not None:
                    drv.gate.grant(msg.payload["age"])

            self.transport.subscribe(
                "stream.credit", "stream-source", route_credit
            )

        if sdriver is not None or session_drivers:
            # The driver(s) wrapped the *full* program's output handler
            # for completion detection, but every subprogram copied the
            # handler before that wrap — re-propagate it (dedup-wrapped
            # on fault-tolerant runs) so completions are observed.  With
            # sessions the wraps chained: the final handler observes
            # every session's completion key, each guarded by its
            # kernel filter.
            handler = self.program.output_handler
            if (ft or elastic_on) and handler is not None:
                handler = _OutputDedup(handler)
            rt.live_drivers = (
                [sdriver] if sdriver is not None
                else list(session_drivers.values())
            )
            for node in exec_nodes.values():
                node.program.set_output_handler(handler)
                if not ft and not elastic_on:
                    # Driver stop on node teardown unwedges a failing
                    # non-recoverable run.  Under fault tolerance or
                    # elasticity the hook would be wrong: wind_down() on
                    # a *recoverably* killed or migration-fenced node
                    # runs teardown hooks, and stopping a driver there
                    # closes its credit gate and truncates the stream
                    # the replacement is about to resume.  Terminal
                    # failures already poke the shared counter
                    # (unblocking every join), and run() stops all live
                    # drivers after the join loop.
                    for drv in rt.live_drivers:
                        node.add_teardown_hook(drv.stop)
        live_drivers = rt.live_drivers
        live_handler = (
            None if not (sdriver is not None or session_drivers)
            else exec_nodes[next(iter(exec_nodes))].program.output_handler
        )

        # Startup token keeps the shared counter nonzero until every node
        # has dispatched its initial instances, so no node can observe a
        # false global quiescence during startup.
        startup = WorkToken(counter, label="cluster-startup")
        results = rt.results
        errors = rt.errors
        lock = rt.lock

        def drive(name: str, node: ExecutionNode, key: str | None = None) -> None:
            try:
                r = node.join(timeout=timeout, stall_timeout=stall_timeout)
                with lock:
                    results[key if key is not None else name] = r
            except BaseException as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)
                counter.poke()

        rt.drive = drive
        monitor: HeartbeatMonitor | None = None
        manager: RecoveryManager | None = None
        heartbeaters = rt.heartbeaters
        extra_threads = rt.extra_threads
        extra_lock = rt.extra_lock

        def build(
            name: str,
            program: Program,
            workers: int,
            *,
            scheduling: str | None = None,
            node_batch: int | None = None,
        ) -> ExecutionNode:
            """Build, wire and start a successor node (recovery
            replacement or migration target) and its drive thread."""
            if live_handler is not None:
                program.set_output_handler(live_handler)
            repl = ExecutionNode(
                program,
                workers,
                max_age=max_age,
                name=name,
                fields=fields,
                counter=counter,
                timers=timers,
                on_event=tap,
                recover=True,
                scheduling=(
                    scheduling if scheduling is not None
                    else ("fair" if session_specs is not None else "age")
                ),
                session_weights=session_weights,
                dependency_kernels=list(self.program.kernels.values()),
                tracer=tracer,
                metrics=metrics,
                batch=node_batch if node_batch is not None else batch,
                timeline=tel.timeline if tel is not None else None,
            )
            if faults is not None:
                faults.wrap(repl)
            self._wire(repl)
            if monitor is not None:
                monitor.watch(name)
            repl.start()
            if ft:
                hb = Heartbeater(
                    repl, self.transport,
                    recovery.heartbeat_interval, faults,
                )
                heartbeaters[name] = hb
                hb.start()
            rt.migration_seq += 1
            t = threading.Thread(
                target=drive,
                args=(name, repl, f"{name}#{rt.migration_seq}"),
                daemon=True,
                name=f"cluster-{name}",
            )
            with extra_lock:
                extra_threads.append(t)
            t.start()
            exec_nodes[name] = repl
            return repl

        rt.build = build

        def spawn(dead: ExecutionNode, repl_name: str) -> ExecutionNode:
            """Build, wire and start a recovery replacement for ``dead``
            (called from the recovery manager's thread)."""
            if elastic_on:
                state = self.membership.state(dead.name)
                if state in ("joining", "active", "draining"):
                    self.membership.transition(dead.name, "dead")
                self.membership.add(repl_name, "joining")
            repl = build(
                repl_name, dead.program, dead.workers,
                scheduling=dead.ready.scheduling,
                node_batch=dead.batch,
            )
            if elastic_on:
                self.membership.transition(repl_name, "active")
            return repl

        if ft:
            self.transport.enable_log()
            if faults is not None:
                faults.attach(self.transport, counter)
                for node in exec_nodes.values():
                    faults.wrap(node)
            monitor = HeartbeatMonitor(
                self.transport,
                recovery.heartbeat_timeout,
                recovery.progress_timeout,
                tracer=tracer,
            )
            rt.monitor = monitor
            manager = RecoveryManager(
                master=self.master,
                transport=self.transport,
                counter=counter,
                monitor=monitor,
                config=recovery,
                nodes=exec_nodes,
                heartbeaters=heartbeaters,
                spawn=spawn,
                injector=faults,
                tracer=tracer,
                metrics=metrics,
            )
            rt.manager = manager

        edriver: ElasticityDriver | None = None
        if elastic_cfg is not None:
            edriver = self._elasticity_driver(rt, elastic_cfg, session_specs)

        if tel is not None:
            tel.start()
        t0 = time.perf_counter()
        rt.t0_mono = time.monotonic()
        for node in list(exec_nodes.values()):
            node.start()
        if ft:
            for name, node in list(exec_nodes.items()):
                monitor.watch(name)
                hb = Heartbeater(
                    node, self.transport, recovery.heartbeat_interval,
                    faults,
                )
                heartbeaters[name] = hb
                hb.start()
            manager.start()
        for drv in live_drivers:
            drv.start()
        rt.running = True
        if edriver is not None:
            edriver.start()
        threads = [
            threading.Thread(target=drive, args=(n, en), daemon=True,
                             name=f"cluster-{n}")
            for n, en in exec_nodes.items()
        ]
        for t in threads:
            t.start()
        startup.release()  # every node started: release the startup token
        for t in threads:
            t.join()
        if edriver is not None:
            edriver.stop()
        rt.running = False
        for drv in live_drivers:
            drv.stop()
        if ft or elastic_on:
            if manager is not None:
                manager.stop()
            with extra_lock:
                pending = list(extra_threads)
            for t in pending:
                t.join()
            for hb in list(heartbeaters.values()):
                hb.stop()
            if faults is not None:
                faults.release_all()
            if monitor is not None:
                monitor.close()
        wall = time.perf_counter() - t0
        if tel is not None:
            tel.stop()  # final sample lands before reports are built
        stats = self.transport.stats
        metrics.gauge("transport.messages").set_max(stats.messages)
        metrics.gauge("transport.bytes").set_max(stats.bytes)
        metrics.gauge("transport.delivery_errors").set_max(
            stats.delivery_errors
        )
        metrics.gauge("transport.drops").set_max(stats.drops)
        metrics.gauge("transport.stale_rejects").set_max(
            stats.stale_rejects
        )
        stream_report = None
        if sdriver is not None:
            stream_report = sdriver.report()
        elif session_drivers:
            from ..stream import MultitenantReport

            stream_report = MultitenantReport(
                sessions={
                    name: drv.report()
                    for name, drv in session_drivers.items()
                },
                workers=sum(self._workers.values()),
                backend="threads",
                capacity=len(session_drivers),
                duration_s=wall,
            )
        err = manager.error if manager is not None else None
        if err is None and errors:
            err = errors[0]
        if err is not None:
            path = dump_flight(
                tracer,
                reason=f"{type(err).__name__}: {err}",
                context={"cluster": self.program.name,
                         "nodes": sorted(self._workers)},
            )
            if path is not None:
                err.flight_path = path  # type: ignore[attr-defined]
            raise err
        return ClusterResult(
            assignment=rt.assignment,
            node_results=results,
            transport=stats,
            wall_time=wall,
            fields=fields,
            recoveries=list(manager.records) if manager is not None else [],
            metrics=metrics,
            tracer=tracer if tracer.enabled else None,
            stream=stream_report,
            telemetry=tel,
            migrations=list(rt.migrations),
            membership=(
                self.membership.as_dict() if elastic_on else None
            ),
        )


def _payload_bytes(ev: StoreEvent, dtype_size: Mapping[str, int]) -> int:
    """Payload size of a store event on the transport: every region of
    its group (a group crosses nodes as one publish, bytes exact)."""
    return ev.elements * dtype_size.get(ev.field, 8)


def _member_name(cluster: Cluster, name: str) -> str:
    """The membership entry for a drain target: the base name the node
    was admitted under (recovery replacements are admitted under their
    own ``~k`` names, so an exact match wins)."""
    if cluster.membership.state(name) is not None:
        return name
    return _base_name(name)
