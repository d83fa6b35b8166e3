"""Discrete-event simulation of P2G execution nodes.

The one model of figure 1's architecture: one or more execution nodes,
each with the prototype's exact thread structure — ``W`` **workers**
executing kernel instances from an age-ordered ready queue, and one
**dependency analyzer** thread, a serial server that must spend each
instance's dispatch cost before the instance reaches the ready queue
(section VI-B).  Synchronization with the workers adds a contention
term that grows with the number of provisioned workers — the mechanism
behind K-means' post-knee slowdown.

A node's ``W + 1`` threads time-share its machine's cores under the
processor-sharing capacity model of
:class:`~repro.sim.machine.MachineProfile`: with more runnable threads
than cores (or SMT siblings), every thread slows down — which is why
the 8th worker (sharing with the analyzer) bends the MJPEG curve in
figure 9.

A kernel's instances run on the node the assignment maps it to; when a
stage completes and its successor lives on another node, the store
events cross a shared serial link first.  A single node is a cluster of
one: :func:`sweep_workers` — figures 9 and 10 — assigns every stage to
one node and the link is never used.

Instances are simulated in *chunks* (batches of identical instances) to
keep the event count tractable at table-III scale (2 million assign
instances); chunking preserves aggregate service demands and barrier
structure.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

from .desim import EventLoop
from .machine import MachineProfile
from .workload import StageSpec, WorkloadModel

__all__ = [
    "NetworkModel",
    "SimCluster",
    "SimClusterNode",
    "SimResult",
    "SimStageStats",
    "sweep_workers",
]


@dataclass(frozen=True)
class NetworkModel:
    """A shared serial link between nodes.

    ``latency_s`` per transfer; ``bytes_per_s`` throughput; each stage
    instance's store traffic is ``event_bytes`` (coarse, but enough to
    rank partitions by the traffic they induce).
    """

    latency_s: float = 100e-6
    bytes_per_s: float = 1e9  # ~ gigabit-class
    event_bytes: float = 256.0

    def transfer_time(self, instances: int) -> float:
        """Seconds one stage's store traffic occupies the link."""
        return self.latency_s + instances * self.event_bytes / self.bytes_per_s


@dataclass(frozen=True)
class SimClusterNode:
    """One simulated execution node."""

    name: str
    machine: MachineProfile
    workers: int


@dataclass
class SimStageStats:
    """Aggregate per-stage accounting of one simulated run."""

    instances: int = 0
    kernel_seconds: float = 0.0  # service demand executed (reference units)
    dispatch_seconds: float = 0.0


@dataclass
class SimResult:
    """Outcome of one simulated run, on any number of nodes."""

    makespan: float  #: simulated wall-clock seconds
    nodes: tuple[SimClusterNode, ...]
    stages: dict[str, SimStageStats]
    node_busy: dict[str, float]  #: summed worker busy seconds, per node
    node_analyzer_busy: dict[str, float]  #: analyzer busy seconds, per node
    events: int
    network_busy: float
    cross_node_transfers: int
    assignment: dict[str, str]

    @property
    def workers(self) -> int:
        """Worker threads across all nodes."""
        return sum(n.workers for n in self.nodes)

    @property
    def analyzer_utilization(self) -> float:
        """Busy fraction of the busiest analyzer thread — the analyzer
        that saturates is the one that caps the run."""
        if not self.makespan:
            return 0.0
        return max(self.node_analyzer_busy.values()) / self.makespan

    @property
    def worker_utilization(self) -> float:
        """Mean busy fraction across all worker threads."""
        if not self.makespan:
            return 0.0
        return sum(self.node_busy.values()) / (self.makespan * self.workers)


class _NodeState:
    """One node's ``(age, seq, stage, count)`` heaps and thread occupancy."""

    def __init__(self, spec: SimClusterNode) -> None:
        self.spec = spec
        self.analyzer_q: list[tuple[int, int, StageSpec, int]] = []
        self.ready_q: list[tuple[int, int, StageSpec, int]] = []
        self.analyzer_busy = False
        self.busy_workers = 0
        self.worker_busy_time = 0.0
        self.analyzer_busy_time = 0.0

    def thread_speed(self) -> float:
        """Per-thread speed under the node's current load."""
        active = self.busy_workers + (1 if self.analyzer_busy else 0)
        return self.spec.machine.per_thread_speed(max(1, active))


class SimCluster:
    """Simulates ``model`` across ``nodes`` under ``assignment``.

    Parameters
    ----------
    model / nodes / assignment:
        What to run, on what, and which node runs each stage
        (``assignment`` maps every stage name to a node name).
    network:
        The serial link dependency completions cross between nodes.
    contention:
        Fractional analyzer slowdown per provisioned worker beyond the
        first (lock and cache-line traffic on the shared event/ready
        queues — present whether a worker is busy or starved, since
        starved workers poll).  0.04 reproduces the paper's post-knee
        degradation in figure 10; set 0 to ablate.
    analyzer_share:
        Fraction of a kernel's measured dispatch time spent *in the
        analyzer thread*; the remainder (fetch slicing, field
        allocation/reallocation — "the dispatch time includes allocation
        or reallocation of fields", section VIII-A) is paid by the
        worker executing the instance.  0.5 places K-means' knee at 4
        workers as in figure 10.
    chunks_per_stage:
        Target number of chunks a stage-age's instances are split into
        (more = finer interleaving, more events).
    """

    def __init__(
        self,
        model: WorkloadModel,
        nodes: Sequence[SimClusterNode],
        assignment: Mapping[str, str],
        network: NetworkModel = NetworkModel(),
        *,
        contention: float = 0.04,
        analyzer_share: float = 0.5,
        chunks_per_stage: int = 64,
    ) -> None:
        if not nodes:
            raise ValueError("nodes is empty: need at least one node")
        for n in nodes:
            if n.workers < 1:
                raise ValueError(
                    f"node {n.name!r}: need at least one worker, "
                    f"got workers={n.workers}"
                )
        if not 0.0 <= analyzer_share <= 1.0:
            raise ValueError(
                f"analyzer_share must be in [0, 1], got {analyzer_share}"
            )
        if contention < 0:
            raise ValueError(f"contention must be >= 0, got {contention}")
        self.model = model
        self.nodes = {n.name: _NodeState(n) for n in nodes}
        missing = [s.name for s in model.stages if s.name not in assignment]
        if missing:
            raise ValueError(f"stages without a node: {missing}")
        unknown = {v for v in assignment.values() if v not in self.nodes}
        if unknown:
            raise ValueError(f"assignment references unknown nodes {unknown}")
        self.assignment = dict(assignment)
        self.network = network
        self.contention = contention
        self.analyzer_share = analyzer_share
        self.chunks_per_stage = max(1, chunks_per_stage)
        self.loop = EventLoop()
        self._seq = itertools.count()
        # (stage, age) -> instances not yet completed
        self._remaining: dict[tuple[str, int], int] = {}
        # (stage, age) -> unmet dependency count
        self._waiting: dict[tuple[str, int], int] = {}
        # reverse deps: (stage, age) -> [(stage, age) it unblocks]
        self._unblocks: dict[tuple[str, int], list[tuple[str, int]]] = {}
        self._stats = {s.name: SimStageStats() for s in model.stages}
        self._net_busy_until = 0.0
        self.network_busy_time = 0.0
        self.cross_node_transfers = 0
        ages = {s.name: model.stage_ages(s) for s in model.stages}
        for s in model.stages:
            for age in range(ages[s.name]):
                key = (s.name, age)
                self._remaining[key] = s.instances_per_age
                unmet = 0
                for dep, offset in s.deps:
                    if 0 <= age + offset < ages.get(dep, 0):
                        unmet += 1
                        self._unblocks.setdefault(
                            (dep, age + offset), []
                        ).append(key)
                self._waiting[key] = unmet

    # -- Analyzer server
    def _enqueue_analysis(self, stage: StageSpec, age: int) -> None:
        node = self.nodes[self.assignment[stage.name]]
        count = stage.instances_per_age
        if count == 0:
            self._stage_age_completed(stage, age)
            return
        chunk = max(1, math.ceil(count / self.chunks_per_stage))
        while count > 0:
            c = min(chunk, count)
            heapq.heappush(node.analyzer_q, (age, next(self._seq), stage, c))
            count -= c
        self._kick_analyzer(node)

    def _kick_analyzer(self, node: _NodeState) -> None:
        if node.analyzer_busy or not node.analyzer_q:
            return
        age, _seq, stage, count = heapq.heappop(node.analyzer_q)
        node.analyzer_busy = True
        factor = 1.0 + self.contention * (node.spec.workers - 1)
        speed = node.thread_speed()
        analyzer_us = stage.dispatch_time_us * self.analyzer_share
        duration = count * analyzer_us * 1e-6 * factor / speed
        node.analyzer_busy_time += duration
        self._stats[stage.name].dispatch_seconds += (
            count * stage.dispatch_time_us * 1e-6
        )

        def done() -> None:
            node.analyzer_busy = False
            heapq.heappush(node.ready_q, (age, next(self._seq), stage, count))
            self._kick_workers(node)
            self._kick_analyzer(node)

        self.loop.after(duration, done)

    # -- Worker pool
    def _kick_workers(self, node: _NodeState) -> None:
        while node.busy_workers < node.spec.workers and node.ready_q:
            age, _seq, stage, count = heapq.heappop(node.ready_q)
            node.busy_workers += 1
            speed = node.thread_speed()
            worker_us = (
                stage.kernel_time_us
                + stage.dispatch_time_us * (1.0 - self.analyzer_share)
            )
            demand = count * worker_us * 1e-6
            duration = demand / speed
            node.worker_busy_time += duration
            self._stats[stage.name].kernel_seconds += demand
            self._stats[stage.name].instances += count

            def done(stage=stage, age=age, count=count) -> None:
                node.busy_workers -= 1
                key = (stage.name, age)
                self._remaining[key] -= count
                if self._remaining[key] == 0:
                    self._stage_age_completed(stage, age)
                self._kick_workers(node)

            self.loop.after(duration, done)

    # -- Dependency bookkeeping
    def _stage_age_completed(self, stage: StageSpec, age: int) -> None:
        src_node = self.assignment[stage.name]
        for succ_name, succ_age in self._unblocks.get((stage.name, age), ()):
            self._waiting[(succ_name, succ_age)] -= 1
            if self._waiting[(succ_name, succ_age)]:
                continue
            succ = self.model.stage(succ_name)
            if self.assignment[succ_name] == src_node:
                self._enqueue_analysis(succ, succ_age)
                continue
            # cross-node hand-off: the producing stage's store traffic
            # crosses the shared serial link first
            self.cross_node_transfers += 1
            transfer = self.network.transfer_time(stage.instances_per_age)
            start = max(self.loop.now, self._net_busy_until)
            self._net_busy_until = start + transfer
            self.network_busy_time += transfer
            self.loop.at(
                self._net_busy_until,
                partial(self._enqueue_analysis, succ, succ_age),
            )

    def run(self) -> SimResult:
        """Simulate to completion and return the result."""
        for s in self.model.stages:
            for age in range(self.model.stage_ages(s)):
                if self._waiting[(s.name, age)] == 0:
                    self._enqueue_analysis(s, age)
        makespan = self.loop.run()
        # a dependency cycle leaves its stages (all of them, when no
        # stage was free to start) waiting when the loop drains
        incomplete = [k for k, v in self._remaining.items() if v > 0]
        if incomplete:
            raise ValueError(
                f"simulation of {self.model.name!r} deadlocked; incomplete "
                f"stage/ages: {incomplete[:5]}"
                f"{'...' if len(incomplete) > 5 else ''}"
            )
        nodes = self.nodes.items()
        return SimResult(
            makespan=makespan,
            nodes=tuple(st.spec for _, st in nodes),
            stages=self._stats,
            node_busy={n: st.worker_busy_time for n, st in nodes},
            node_analyzer_busy={n: st.analyzer_busy_time for n, st in nodes},
            events=self.loop.events_processed,
            network_busy=self.network_busy_time,
            cross_node_transfers=self.cross_node_transfers,
            assignment=dict(self.assignment),
        )


def sweep_workers(
    model: WorkloadModel,
    machine: MachineProfile,
    worker_counts=range(1, 9),
    **kwargs,
) -> list[SimResult]:
    """Run the figure-9/10 sweep: per worker count, one simulation of a
    single ``machine`` node that every stage is assigned to."""
    assignment = {s.name: machine.name for s in model.stages}
    return [
        SimCluster(
            model, [SimClusterNode(machine.name, machine, w)], assignment,
            **kwargs,
        ).run()
        for w in worker_counts
    ]
