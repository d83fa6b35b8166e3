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

A node's life — admitted, active, drained or dead, replaced — is one
table (:class:`~repro.dist.topology.GlobalTopology`, ``master.topology``)
and one routine (:meth:`_ClusterRun.succession`, under
``Cluster._elastic_lock``); DESIGN.md §8.  What a run adds to that is
opt-in.  ``faults`` (a :class:`~repro.dist.faults.FaultInjector`) or
``recovery`` (a :class:`~repro.dist.recovery.RecoveryConfig`) switch on
the transport event log, per-node heartbeats, a failure monitor and the
:class:`~repro.dist.recovery.RecoveryManager` that replaces dead nodes
mid-run.  ``elastic=`` lets :meth:`Cluster.add_node` /
:meth:`Cluster.drain_node` rescale a *running* cluster
(:meth:`Cluster._rescale`), broadcasts every view of the table and gates
routing on it.  Without them, nothing changes: no control traffic, no
log, byte-for-byte the original execution path.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field as dc_field
from functools import partial
from typing import Any, Mapping

from ..core import (
    ExecutionNode,
    Program,
    RunResult,
    WorkCounter,
)
from ..core.deadlines import TimerSet
from ..core.errors import PartitionError, SchedulerError
from ..core.events import StoreEvent, WorkToken
from ..core.fields import FieldStore
from ..core.instrumentation import Instrumentation
from ..core.naming import NAME_SEP
from ..core.runtime import _Lifecycle
from ..obs import MetricsRegistry, Tracer, dump_flight, with_frames
from ..stream import MultitenantReport, StreamDriver
from ..stream.multitenant import session_driver, tier_weights
from .faults import FaultInjector
from .heartbeat import Heartbeater, HeartbeatMonitor
from .master import MasterNode, WorkloadAssignment
from .membership import MEMBERSHIP_TOPIC, ElasticityConfig, ElasticityDriver
from .recovery import (
    RecoveryConfig,
    RecoveryManager,
    RecoveryRecord,
    fence_node,
)
from .topology import LocalTopology, ProcessorSpec
from .transport import InProcTransport, TransportStats

__all__ = ["Cluster", "ClusterResult", "MigrationRecord"]


@dataclass(frozen=True)
class MigrationRecord:
    """One completed elastic migration (join, drain or rebalance)."""

    reason: str  #: what triggered the rescale
    epoch: int  #: topology epoch the commit went out under
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
    #: Elastic runs: the topology's final ``as_dict()`` snapshot.
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


@dataclass(frozen=True)
class _Succession:
    """What :meth:`_ClusterRun.succession` did, for the caller's record."""

    fenced: tuple[str, ...]
    built: tuple[str, ...]
    replayed: int
    abandoned: int


class _ClusterRun:
    """One :meth:`Cluster.run` in flight.

    Holds what the run's nodes share (field store, work counter, timers,
    tracer, metrics, telemetry) and is the one place a node, a heartbeat
    or a stream driver of the run is constructed — at start-up and,
    through :meth:`succession`, when a recovery or an elastic migration
    replaces a node mid-run, which is why :meth:`Cluster.add_node` /
    :meth:`Cluster.drain_node` reach it as ``cluster._rt``.  Bring-up
    and wind-down order is the shared
    :class:`~repro.core.runtime._Lifecycle` (DESIGN.md §17).
    """

    def __init__(
        self, cluster: "Cluster", assignment: WorkloadAssignment, *,
        max_age, timeout, stall_timeout, faults, recovery, tracer, metrics,
        stream, sessions, batch, telemetry, elastic,
    ) -> None:
        if stream is not None and sessions is not None:
            raise ValueError("stream= and sessions= are mutually exclusive")
        program = self.program = cluster.program
        self.transport = cluster.transport
        self.sessions = list(sessions) if sessions is not None else None
        self.session_weights = tier_weights(self.sessions or ())
        for spec in self.sessions or ():
            if not any(
                k.startswith(spec.name + NAME_SEP) for k in program.kernels
            ):
                raise ValueError(
                    f"session {spec.name!r} has no kernels in the "
                    f"cluster program — construct the Cluster with "
                    f"merge_sessions(specs)"
                )
        self.cluster = cluster
        cluster.master.last_assignment = assignment
        self.max_age = max_age
        self.timeout = timeout
        self.stall_timeout = stall_timeout
        self.batch = batch
        self.faults = faults
        self.ft = faults is not None or recovery is not None
        self.recovery = recovery if recovery is not None else RecoveryConfig()
        self.elastic = bool(elastic)
        self.life = _Lifecycle(telemetry)
        if tracer is None and self.ft:
            # Flight recorder armed by default on fault-tolerant runs:
            # ring mode is bounded-memory and cheap enough to always run.
            tracer = Tracer(mode="ring")
        #: One span stream for every node, successor and the transport;
        #: the telemetry's frame timeline is its sink, attached once.
        self.tracer = with_frames(
            tracer, telemetry.timeline if telemetry is not None else None
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.add_holder(self.transport.stats.snapshot)
        self.transport.tracer = self.tracer
        self.fields = FieldStore(program.fields.values())
        self.counter = WorkCounter()
        self.timers = TimerSet(program.timers)
        self.dtype_size = {
            f.name: f.np_dtype.itemsize for f in program.fields.values()
        }
        self.exec_nodes: dict[str, ExecutionNode] = {}
        self.results: dict[str, RunResult] = {}
        self.errors: list[BaseException] = []
        self.lock = threading.Lock()
        #: One drive thread per node ever started, successors included.
        self.threads: list[threading.Thread] = []
        self.heartbeaters: dict[str, Heartbeater] = {}
        self.monitor: HeartbeatMonitor | None = None
        self.manager: RecoveryManager | None = None
        #: Session name → stream driver; ``stream=`` is the anonymous
        #: session ``None``.
        self.drivers: dict = {}
        self.output_handler = None
        self.migrations: list[MigrationRecord] = []
        self.running = False
        self.t0 = self.t0_mono = self.wall = 0.0
        if self.elastic:
            self._arm_membership()
        if self.ft:
            self._arm_recovery()
        cores = {t.node: t.cores for t in cluster.master.topology.nodes()}
        for name in assignment.nodes():
            sub = cluster._subprogram(assignment, name)
            if sub.kernels:
                self.build_node(name, sub, cores[name])
        if not self.exec_nodes:
            raise PartitionError("assignment left every node empty")
        if stream is not None:
            self.live_driver(stream)
        for spec in self.sessions or ():
            self.live_driver(spec.binding, spec)
        if self.drivers:
            self.transport.subscribe(
                "stream.credit", "stream-source", self.route_credit
            )
        self._share_output_handler()
        self.edriver = (
            ElasticityDriver(
                elastic, metrics_fn=self.sample, scale_fn=self.rescale_to
            )
            if isinstance(elastic, ElasticityConfig) else None
        )

    # -- construction ---------------------------------------------------
    @property
    def assignment(self) -> WorkloadAssignment:
        """The plan in force: the master's, whose parts with kernels are
        the live nodes' names at every commit."""
        return self.cluster.master.last_assignment

    def _arm_membership(self) -> None:
        """Elastic run: broadcast every view of the node table on the
        control topic, let the registry read its epoch, retain the event
        log for migration replay, and gate routing on the view."""
        table, transport = self.cluster.master.topology, self.transport
        table.set_publish(self.broadcast)
        self.metrics.add_holder(
            lambda: {"membership.epoch": {"type": "gauge",
                                          "value": table.epoch}}
        )
        transport.membership = table
        transport.enable_log()
        tel = self.life.telemetry
        if tel is not None:
            tel.exporter.page("membership", table.as_dict)

    def broadcast(self, view) -> None:
        try:
            self.transport.publish(
                MEMBERSHIP_TOPIC, "master", view, control=True
            )
        except Exception:  # noqa: BLE001 - post-close flips
            pass

    def _arm_recovery(self) -> None:
        """Fault tolerance: the transport event log, the failure
        detector and the manager that replaces dead nodes."""
        transport = self.transport
        transport.enable_log()
        if self.faults is not None:
            self.faults.attach(transport, self.counter)
        self.monitor = HeartbeatMonitor(
            transport,
            self.recovery.heartbeat_timeout,
            self.recovery.progress_timeout,
            tracer=self.tracer,
        )
        self.manager = RecoveryManager(self, self.recovery)

    def build_node(
        self, name: str, program: Program, workers: int,
        recover: bool = False,
    ) -> ExecutionNode:
        """Construct, fault-wrap and subscribe one execution node.
        ``recover`` marks a successor (recovery replacement or migration
        target), which re-executes over fields its predecessor wrote."""
        if self.output_handler is not None:
            program.set_output_handler(self.output_handler)
        node = ExecutionNode(
            program,
            workers,
            max_age=self.max_age,
            name=name,
            fields=self.fields,
            counter=self.counter,
            timers=self.timers,
            on_event=self.tap,
            scheduling="fair" if self.sessions is not None else "age",
            session_weights=self.session_weights,
            recover=recover,
            dependency_kernels=list(self.program.kernels.values()),
            tracer=self.tracer,
            metrics=self.metrics,
            batch=self.batch,
        )
        if self.faults is not None:
            self.faults.wrap(node)
        self.cluster._wire(node)
        self.exec_nodes[name] = node
        return node

    def publish(self, origin: str, ev) -> None:
        """Put a store / resize event on its field's topic."""
        size = (
            _payload_bytes(ev, self.dtype_size)
            if isinstance(ev, StoreEvent) else 0
        )
        self.transport.publish(ev.field, origin, ev, size)

    def tap(self, node: ExecutionNode, ev) -> None:
        """A node's ``on_event``: forward what it stored or resized."""
        self.publish(node.name, ev)

    def live_driver(self, binding, spec=None) -> None:
        """Build one session's stream driver (``stream=`` is the
        anonymous session): its frames go out on the field topics as
        ``stream-source``, so exactly the nodes fetching the input
        fields receive them; credits come back on ``stream.credit``."""
        session = None if spec is None else spec.name
        wiring = dict(
            nodes=list(self.exec_nodes.values()),
            program=self.program,
            inject=partial(self.publish, "stream-source"),
            on_grant=partial(self.grant, session),
            telemetry=self.life.telemetry,
        )
        self.drivers[session] = (
            StreamDriver(binding, **wiring) if spec is None
            else session_driver(spec, **wiring)
        )

    def grant(self, session, age: int) -> None:
        """Session-tagged credit: flow control per tenant over the
        shared control topic, the same transport the data crosses."""
        self.transport.publish(
            "stream.credit", "master",
            {"session": session, "age": age}, control=True,
        )

    def route_credit(self, msg) -> None:
        drv = self.drivers.get(msg.payload["session"])
        if drv is not None:
            drv.gate.grant(msg.payload["age"])

    def _share_output_handler(self) -> None:
        """Give every node — and, through :meth:`build_node`, every
        successor — the full program's output handler as it stands now:
        each stream driver wrapped it for completion detection after the
        subprograms copied it (with sessions the wraps chained, each
        guarded by its scope), and a fault-tolerant or elastic run
        de-duplicates re-executed outputs."""
        handler = self.program.output_handler
        if (self.ft or self.elastic) and handler is not None:
            handler = _OutputDedup(handler)
        self.output_handler = handler
        for node in self.exec_nodes.values():
            node.program.set_output_handler(handler)
            if not self.ft and not self.elastic:
                # Driver stop on node teardown unwedges a failing
                # non-recoverable run.  Under fault tolerance or
                # elasticity the hook would be wrong: wind_down() on
                # a *recoverably* killed or migration-fenced node
                # runs teardown hooks, and stopping a driver there
                # closes its credit gate and truncates the stream
                # the replacement is about to resume.  Terminal
                # failures already poke the shared counter
                # (unblocking every join), and the lifecycle stops all
                # drivers after the join.
                for drv in self.drivers.values():
                    node.add_teardown_hook(drv.stop)

    # -- nodes at run time ------------------------------------------------
    def drive(self, node: ExecutionNode, key: str) -> None:
        """Body of a node's drive thread: join it, file the outcome."""
        try:
            r = node.join(
                timeout=self.timeout, stall_timeout=self.stall_timeout
            )
            with self.lock:
                self.results[key] = r
        except BaseException as exc:  # noqa: BLE001
            with self.lock:
                self.errors.append(exc)
            self.counter.poke()

    def follow(self, node: ExecutionNode, successor: bool = False) -> None:
        """Put a drive thread on a started node.  A successor may reuse
        its predecessor's name, so its result is filed under a fresh
        key."""
        with self.lock:
            key = node.name
            if successor:
                key += f"#{len(self.threads)}"
            t = threading.Thread(
                target=self.drive, args=(node, key), daemon=True,
                name=f"cluster-{node.name}",
            )
            self.threads.append(t)
        t.start()

    def beat(self, name: str, node: ExecutionNode) -> None:
        """Put a started node under failure detection."""
        self.monitor.watch(name)
        hb = self.heartbeaters[name] = Heartbeater(
            node, self.transport, self.recovery.heartbeat_interval,
            self.faults,
        )
        hb.start()

    def succession(
        self,
        fence: "list[str]",
        build: "Mapping[str, tuple[Program, int]]",
        reason: str,
        failed: bool = False,
    ) -> _Succession:
        """Replace nodes mid-run — the one path a recovery and a
        migration both take (caller holds ``Cluster._elastic_lock``).

        Fences the live nodes named in ``fence`` (unwatch → stop the
        heartbeat → unsubscribe → wind down, reclaiming outstanding
        work; ``failed`` marks each ``dead`` in the node table), then
        builds ``build``'s ``{name: (subprogram, workers)}`` in recovery
        mode, starts them and replays the event log into each, and
        re-points the stream drivers.  Fence strictly precedes build: a
        kernel must never have two live owners.  A token on the shared
        counter pins the run for the window in which kernels are owned
        by no live node.
        """
        abandoned = replayed = 0
        with WorkToken(self.counter, label=f"succession:{reason}"):
            for name in fence:
                node = self.exec_nodes.pop(name)
                if self.monitor is not None:
                    self.monitor.unwatch(name)
                abandoned += fence_node(
                    node, self.transport,
                    heartbeater=self.heartbeaters.pop(name, None),
                    injector=self.faults,
                    tracer=self.tracer,
                    reason=reason,
                )
                if failed:
                    self.cluster.master.on_failure(name)
            for name, (program, workers) in build.items():
                succ = self.build_node(name, program, workers, recover=True)
                succ.start()
                if self.ft:
                    self.beat(name, succ)
                self.follow(succ, successor=True)
                for msg in self.transport.replay(_fetched_fields(program)):
                    succ.inject(msg.payload)
                    replayed += 1
            # Retirement and liveness probes follow the new node set.
            nodes_now = list(self.exec_nodes.values())
            if nodes_now:
                for drv in self.drivers.values():
                    drv.set_nodes(nodes_now)
        return _Succession(tuple(fence), tuple(build), replayed, abandoned)

    def file_succession(
        self, lane: str, record, records: list, *,
        event: str, span: str, tr_t0: float, timer: str, **counts: int,
    ) -> None:
        """Record one finished succession, once: the ``lane``
        (``recovery`` / ``elastic``) counters, its duration (the
        record's ``timer`` field) histogram, the trace event and span,
        and the record on its list."""
        for key, n in counts.items():
            self.metrics.counter(f"{lane}.{key}").inc(n)
        args = asdict(record)
        self.metrics.histogram(f"{lane}.{timer}").observe(args[timer])
        tr = self.tracer
        if tr.enabled:
            tr.instant(event, lane, "master", lane, args=args, scope="g")
            tr.complete(
                span, lane, "master", lane, tr_t0, tr.now(), args=args
            )
        records.append(record)

    def next_node_name(self) -> str:
        """First ``node<k>`` the table never held (driver join
        targets)."""
        taken = self.cluster.master.topology.view().states
        k = 0
        while f"node{k}" in taken:
            k += 1
        return f"node{k}"

    # -- the elasticity driver's two ends ---------------------------------
    def sample(self) -> dict:
        """Load and SLO-burn signals in."""
        nodes = list(self.exec_nodes.values())
        workers = sum(n.workers for n in nodes) or 1
        depth = sum(len(n.ready) for n in nodes)
        burn = 0.0
        tel = self.life.telemetry
        slo = tel.slo if tel is not None else None
        if slo is not None:
            for spec in self.sessions or ():
                try:
                    burn = max(burn, slo.burn_rate(spec.name))
                except Exception:  # noqa: BLE001 - untracked tenant
                    continue
        return {
            "nodes": len(nodes),
            "queue_per_worker": depth / workers,
            "burn": burn,
            "elapsed": time.monotonic() - self.t0_mono,
        }

    def rescale_to(self, target: int) -> bool:
        """:meth:`Cluster.add_node` / :meth:`Cluster.drain_node` out."""
        cluster = self.cluster
        with cluster._elastic_lock:
            current = len(self.exec_nodes)
            if target == current:
                return False
            if target > current:
                for _ in range(target - current):
                    cluster.add_node(self.next_node_name())
            else:
                for name in sorted(self.exec_nodes)[target - current:]:
                    cluster.drain_node(name)
            return True

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Bring the run up and put a drive thread on every node."""
        nodes = list(self.exec_nodes.values())
        # Startup token keeps the shared counter nonzero until every node
        # has dispatched its initial instances, so no node can observe a
        # false global quiescence during startup.
        with WorkToken(self.counter, label="cluster-startup"):
            self.t0 = time.perf_counter()
            self.t0_mono = time.monotonic()
            self.life.start(
                nodes, list(self.drivers.values()), (self.watch, self.unwatch)
            )
            if self.edriver is not None:
                # After the stream drivers; it runs on no stream clock.
                self.life.up(self.edriver.start, self.edriver.stop)
            self.running = True
            for node in nodes:
                self.follow(node)

    def watch(self) -> None:
        """The run's services, up once the nodes run and before frames
        flow: a heartbeat per node, then the recovery manager."""
        if self.ft:
            for name, node in list(self.exec_nodes.items()):
                self.beat(name, node)
            self.manager.start()

    def unwatch(self) -> None:
        """… and down after the drivers stopped: the manager first (no
        replacement may start once the run is over), then every drive
        thread a recovery or migration added, then the heartbeats."""
        if self.ft:
            self.manager.stop()
        self.join_threads()
        for hb in list(self.heartbeaters.values()):
            hb.stop()
        if self.faults is not None:
            self.faults.release_all()
        if self.monitor is not None:
            self.monitor.close()
        # Before telemetry stops: its final sample is not run time.
        self.wall = time.perf_counter() - self.t0

    def join_threads(self) -> None:
        for t in self.threads:  # sees threads appended meanwhile
            t.join()

    def join(self) -> None:
        """Wait for cluster-wide quiescence, wind the run down, and
        raise the first node (or recovery) error if there was one."""
        try:
            self.life.join(self.join_threads)
        finally:
            self.running = False
        err = self.manager.error if self.manager is not None else None
        if err is None and self.errors:
            err = self.errors[0]
        if err is not None:
            path = dump_flight(
                self.tracer,
                reason=f"{type(err).__name__}: {err}",
                context={"cluster": self.program.name,
                         "nodes": self.cluster.master.topology.node_names()},
            )
            if path is not None:
                err.flight_path = path  # type: ignore[attr-defined]
            raise err

    def report(self) -> ClusterResult:
        cluster = self.cluster
        stream = None
        if None in self.drivers:
            stream = self.drivers[None].report()
        elif self.drivers:
            stream = MultitenantReport(
                sessions={
                    name: drv.report()
                    for name, drv in self.drivers.items()
                },
                workers=sum(t.cores for t in cluster.master.topology.nodes()),
                backend="threads",
                capacity=len(self.drivers),
                duration_s=self.wall,
            )
        manager = self.manager
        return ClusterResult(
            assignment=self.assignment,
            node_results=self.results,
            transport=self.transport.stats,
            wall_time=self.wall,
            fields=self.fields,
            recoveries=list(manager.records) if manager is not None else [],
            metrics=self.metrics,
            tracer=self.tracer if self.tracer.mode != "off" else None,
            stream=stream,
            telemetry=self.life.telemetry,
            migrations=list(self.migrations),
            membership=(
                cluster.master.topology.as_dict() if self.elastic else None
            ),
        )


class Cluster:
    """Runs one program across several in-process execution nodes.

    Parameters
    ----------
    program:
        The program to distribute.
    nodes:
        Node name → worker-thread count (a node's only threads; each
        node analyses its events serially under its own lock), or
        name → :class:`LocalTopology` for heterogeneous capacities.
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
        #: ``master.topology`` is the one node table: every node given
        #: here starts ``active``; recovery, join and drain are its
        #: transitions, in elastic runs and otherwise.
        self.master = MasterNode()
        for name, spec in nodes.items():
            self.master.register(
                spec if isinstance(spec, LocalTopology) else
                LocalTopology(name, (ProcessorSpec("cpu", cores=int(spec)),))
            )
        self.transport = transport if transport is not None else \
            InProcTransport()
        #: The one lock of the node set: joins, drains, rescales and
        #: recoveries run under it, one at a time; reentrant so a
        #: driver-issued rescale can call :meth:`add_node` /
        #: :meth:`drain_node` per node.
        self._elastic_lock = threading.RLock()
        self._rt: _ClusterRun | None = None

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
        for fname in sorted(_fetched_fields(node.program)):
            self.transport.subscribe(
                fname, node.name,
                lambda msg, node=node: node.inject(msg.payload),
            )

    # ------------------------------------------------------------------
    # Elastic membership (public API; requires an elastic run in flight)
    # ------------------------------------------------------------------
    def _require_elastic_run(self) -> _ClusterRun:
        rt = self._rt
        if rt is None or not rt.running or not rt.elastic:
            raise SchedulerError(
                "membership operations need a running elastic cluster "
                "(Cluster.run(..., elastic=True) or an ElasticityConfig)"
            )
        return rt

    def add_node(self, name: str, workers: int | None = None) -> None:
        """Join ``name`` to a *running* elastic cluster.

        Admits it to the node table as ``joining`` (``workers`` cores;
        default: as many as the largest live node), incrementally
        repartitions the kernel graph over N+1 nodes (minimizing moved
        kernels) and migrates the moved kernels by fence + event-log
        replay — the newcomer is ``active`` once the ``scale.commit`` is
        out.
        """
        with self._elastic_lock:
            rt = self._require_elastic_run()
            table = self.master.topology
            if name in table:
                raise SchedulerError(f"node {name!r} already exists")
            if workers is None:
                workers = max(t.cores for t in table.nodes())
            table.add(
                LocalTopology(name, (ProcessorSpec("cpu", cores=workers),)),
                "joining",
            )
            self._rescale(rt, reason=f"join:{name}")
            table.transition(name, "active")

    def drain_node(self, name: str) -> None:
        """Drain ``name`` — a live node's exact name — out of a
        *running* elastic cluster.

        The inverse of :meth:`add_node`: the node is marked ``draining``
        (an *expected* departure — it leaves the HLS's capacities and
        the heartbeat monitor's watch), the remaining nodes absorb its
        kernels via the same incremental fence/replay migration, and it
        has ``left`` once the ``scale.commit`` is out — after which the
        transport rejects any straggler it might still publish.
        """
        with self._elastic_lock:
            rt = self._require_elastic_run()
            table = self.master.topology
            if name not in table:
                raise SchedulerError(
                    f"node {name!r} is not live "
                    f"(live nodes: {table.node_names()})"
                )
            if len(table) <= 1:
                raise SchedulerError(
                    "cannot drain the last remaining node"
                )
            table.transition(name, "draining")
            self._rescale(rt, reason=f"drain:{name}")
            table.transition(name, "left")

    # ------------------------------------------------------------------
    def _rescale(self, rt: _ClusterRun, reason: str) -> None:
        """Incrementally repartition and migrate (caller holds the
        elastic lock and has already admitted / marked the node).

        Two-phase: ``scale.plan`` announces the intent; every live node
        whose kernel set changes under the new assignment is replaced —
        under its own name, with its new subprogram — by
        :meth:`_ClusterRun.succession`; ``scale.commit`` carries the
        epoch the new routing is valid under.
        """
        t0 = time.monotonic()
        tr_t0 = rt.tracer.now() if rt.tracer.enabled else 0.0
        table = self.master.topology
        self.transport.publish(
            "scale.plan", "master",
            {"reason": reason, "epoch": table.epoch},
            control=True,
        )
        old = rt.assignment
        drivers = list(rt.drivers.values())
        for drv in drivers:
            drv.retirer.pause()  # no ages freed mid-copy
        try:
            new = self.master.plan_incremental(self.program)
            changed = sorted(
                n for n in set(old.nodes()) | set(new.nodes())
                if old.kernels_for(n) != new.kernels_for(n)
            )
            moved = sum(
                1 for k in self.program.kernels
                if old.partition.assign.get(k) != new.partition.assign.get(k)
            )
            cores = {t.node: t.cores for t in table.nodes()}
            done = rt.succession(
                [n for n in changed if n in rt.exec_nodes],
                {
                    n: (self._subprogram(new, n), cores[n])
                    for n in changed if new.kernels_for(n)
                },
                f"migration:{reason}",
            )
        finally:
            for drv in drivers:
                drv.retirer.resume()
        epoch = table.epoch
        self.transport.publish(
            "scale.commit", "master",
            {"reason": reason, "epoch": epoch, "moved": moved},
            control=True,
        )
        rt.file_succession(
            "elastic",
            MigrationRecord(
                reason=reason,
                epoch=epoch,
                moved_kernels=moved,
                fenced=done.fenced,
                built=done.built,
                replayed=done.replayed,
                migration_s=time.monotonic() - t0,
            ),
            rt.migrations, event="scale.commit", span=f"migrate:{reason}",
            tr_t0=tr_t0, timer="migration_s", migrations=1,
            moved_kernels=moved, replayed=done.replayed,
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
            drv = rt.drivers.get(session)
            if drv is None:
                raise SchedulerError(f"no session {session!r}")
            drv.set_rate(fps)
            return
        if not rt.drivers:
            raise SchedulerError("run has no stream drivers")
        for drv in rt.drivers.values():
            drv.set_rate(fps)

    def run(
        self,
        assignment: WorkloadAssignment | None = None,
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
        """Plan (unless given an ``assignment``, e.g. from
        ``cluster.master.plan(program, instrumentation, method)``) and
        execute the program.  Returns after cluster-wide quiescence;
        raises the first node error if any kernel body failed.  Start-up
        order, wind-down and what a failed start leaves behind (nothing)
        are DESIGN.md §17.

        ``max_age`` / ``timeout`` / ``batch``: every node's, as in
        :func:`~repro.core.run_program`.
        ``stall_timeout``: raise :class:`~repro.core.errors.StallError`
        after that long without progress.  Pick it larger than the
        longest kernel body and, under fault injection, than the
        heartbeat timeout (a killed node's frozen window counts as
        inactivity until detection).
        ``faults`` / ``recovery``: a :class:`FaultInjector` and/or a
        :class:`RecoveryConfig` switch on heartbeats, the event log and
        node replacement (§8); an exhausted restart budget raises
        :class:`~repro.core.errors.NodeFailureError`.
        ``stream``: a :class:`~repro.stream.StreamBinding` — run live;
        ``ClusterResult.stream`` is the ``StreamReport`` (§11).
        ``sessions``: the :class:`~repro.stream.SessionSpec` list whose
        ``merge_sessions`` program the cluster was built with — run
        multi-tenant, reporting a ``MultitenantReport`` (§11).
        ``tracer`` / ``metrics``: shared by every node.  Fault-tolerant
        runs arm a ring tracer by default and dump it on an
        unrecoverable failure (``exc.flight_path``, §9).
        ``telemetry``: a :class:`~repro.obs.Telemetry` — frame timeline
        as a sink of the run's span stream, SLO tracker, live exporter
        (§9).
        ``elastic``: ``True`` lets :meth:`add_node` / :meth:`drain_node`
        rescale the running cluster; an :class:`ElasticityConfig` also
        starts the driver deciding from load / SLO signals (§15).
        """
        if assignment is None:
            assignment = self.master.plan(self.program)
        rt = self._rt = _ClusterRun(
            self, assignment, max_age=max_age, timeout=timeout,
            stall_timeout=stall_timeout, faults=faults, recovery=recovery,
            tracer=tracer, metrics=metrics, stream=stream,
            sessions=sessions, batch=batch, telemetry=telemetry,
            elastic=elastic,
        )
        rt.start()
        rt.join()
        return rt.report()


def _fetched_fields(program: Program) -> set[str]:
    """Fields some kernel of ``program`` fetches: the topics its node
    subscribes to and a successor replays."""
    return {f.field for k in program.kernels.values() for f in k.fetches}


def _payload_bytes(ev: StoreEvent, dtype_size: Mapping[str, int]) -> int:
    """Payload size of a store event on the transport: every region of
    its group (a group crosses nodes as one publish, bytes exact)."""
    return ev.elements * dtype_size.get(ev.field, 8)
