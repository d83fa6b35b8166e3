"""Discrete-event simulation of a multi-node P2G deployment.

Extends the single-node simulator to the figure-1 architecture: several
execution nodes — each with its own machine profile, worker pool and
serial dependency analyzer — connected by a network.  A kernel's
instances run on the node the assignment maps it to; when a stage
completes and its successor lives on another node, the store events
cross the network first (latency + per-byte transfer on a shared
serial link, the in-process transport's simulated twin).

This is the tool the HLS needs for offline *partition* evaluation:
:func:`evaluate_assignment` returns the predicted makespan and network
load of any kernel→node mapping, and :func:`best_assignment` ranks the
candidate partitions the `repro.dist` partitioners produce — "input to
a simulator to best determine how to initially configure a workload,
given various global topology configurations" (section V-A).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

from .desim import EventLoop
from .machine import MachineProfile
from .workload import StageSpec, WorkloadModel

__all__ = [
    "NetworkModel",
    "SimClusterNode",
    "SimClusterResult",
    "SimCluster",
    "evaluate_assignment",
    "best_assignment",
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
        return self.latency_s + (
            instances * self.event_bytes / self.bytes_per_s
        )


@dataclass(frozen=True)
class SimClusterNode:
    """One simulated execution node."""

    name: str
    machine: MachineProfile
    workers: int


@dataclass
class SimClusterResult:
    """Outcome of a simulated cluster run."""

    makespan: float
    node_busy: dict[str, float]
    node_analyzer_busy: dict[str, float]
    network_busy: float
    cross_node_transfers: int
    assignment: dict[str, str]


class _NodeState:
    """Per-node queues and threads (mirrors SimExecutionNode)."""

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

    ``assignment`` maps every stage name to a node name.  Dependency
    completions crossing nodes pass through the (serial) network link.
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
        chunks_per_stage: int = 32,
    ) -> None:
        self.model = model
        self.nodes = {n.name: _NodeState(n) for n in nodes}
        missing = [s.name for s in model.stages if s.name not in assignment]
        if missing:
            raise ValueError(f"stages without a node: {missing}")
        unknown = {
            v for v in assignment.values() if v not in self.nodes
        }
        if unknown:
            raise ValueError(f"assignment references unknown nodes {unknown}")
        self.assignment = dict(assignment)
        self.network = network
        self.contention = contention
        self.analyzer_share = analyzer_share
        self.chunks_per_stage = max(1, chunks_per_stage)
        self.loop = EventLoop()
        self._seq = itertools.count()
        self._remaining: dict[tuple[str, int], int] = {}
        self._waiting: dict[tuple[str, int], int] = {}
        self._unblocks: dict[tuple[str, int], list[tuple[str, int]]] = {}
        self._net_busy_until = 0.0
        self.network_busy_time = 0.0
        self.cross_node_transfers = 0
        self._build_tables()

    # ------------------------------------------------------------------
    def _exists(self, stage: str, age: int) -> bool:
        try:
            s = self.model.stage(stage)
        except KeyError:
            return False
        return 0 <= age < self.model.stage_ages(s)

    def _build_tables(self) -> None:
        for s in self.model.stages:
            for age in range(self.model.stage_ages(s)):
                key = (s.name, age)
                self._remaining[key] = s.instances_per_age
                unmet = 0
                for dep, off in s.deps:
                    if self._exists(dep, age + off):
                        unmet += 1
                        self._unblocks.setdefault(
                            (dep, age + off), []
                        ).append(key)
                self._waiting[key] = unmet

    # ------------------------------------------------------------------
    def _enqueue_analysis(self, stage: StageSpec, age: int) -> None:
        node = self.nodes[self.assignment[stage.name]]
        count = stage.instances_per_age
        if count == 0:
            self._completed(stage, age)
            return
        chunk = max(1, math.ceil(count / self.chunks_per_stage))
        while count > 0:
            c = min(chunk, count)
            heapq.heappush(
                node.analyzer_q, (age, next(self._seq), stage, c)
            )
            count -= c
        self._kick_analyzer(node)

    def _kick_analyzer(self, node: _NodeState) -> None:
        if node.analyzer_busy or not node.analyzer_q:
            return
        age, _seq, stage, count = heapq.heappop(node.analyzer_q)
        node.analyzer_busy = True
        factor = 1.0 + self.contention * max(0, node.spec.workers - 1)
        duration = (
            count * stage.dispatch_time_us * self.analyzer_share * 1e-6
            * factor / node.thread_speed()
        )
        node.analyzer_busy_time += duration

        def done() -> None:
            node.analyzer_busy = False
            heapq.heappush(
                node.ready_q, (age, next(self._seq), stage, count)
            )
            self._kick_workers(node)
            self._kick_analyzer(node)

        self.loop.after(duration, done)

    def _kick_workers(self, node: _NodeState) -> None:
        while node.busy_workers < node.spec.workers and node.ready_q:
            age, _seq, stage, count = heapq.heappop(node.ready_q)
            node.busy_workers += 1
            worker_us = (
                stage.kernel_time_us
                + stage.dispatch_time_us * (1.0 - self.analyzer_share)
            )
            duration = count * worker_us * 1e-6 / node.thread_speed()
            node.worker_busy_time += duration

            def done(stage=stage, age=age, count=count,
                     node=node) -> None:
                node.busy_workers -= 1
                key = (stage.name, age)
                self._remaining[key] -= count
                if self._remaining[key] == 0:
                    self._completed(stage, age)
                self._kick_workers(node)

            self.loop.after(duration, done)

    # ------------------------------------------------------------------
    def _completed(self, stage: StageSpec, age: int) -> None:
        src_node = self.assignment[stage.name]
        for succ_name, succ_age in self._unblocks.get(
            (stage.name, age), ()
        ):
            self._waiting[(succ_name, succ_age)] -= 1
            if self._waiting[(succ_name, succ_age)]:
                continue
            succ = self.model.stage(succ_name)
            dst_node = self.assignment[succ_name]
            if dst_node == src_node:
                self._enqueue_analysis(succ, succ_age)
                continue
            # cross-node hand-off: the producing stage's store traffic
            # crosses the shared serial link first
            self.cross_node_transfers += 1
            transfer = self.network.transfer_time(stage.instances_per_age)
            start = max(self.loop.now, self._net_busy_until)
            self._net_busy_until = start + transfer
            self.network_busy_time += transfer

            def arrive(succ=succ, succ_age=succ_age) -> None:
                self._enqueue_analysis(succ, succ_age)

            self.loop.at(self._net_busy_until, arrive)

    # ------------------------------------------------------------------
    def run(self) -> SimClusterResult:
        """Simulate to completion; returns the cluster-wide result."""
        started = False
        for s in self.model.stages:
            for age in range(self.model.stage_ages(s)):
                if self._waiting[(s.name, age)] == 0:
                    self._enqueue_analysis(s, age)
                    started = True
        if not started:
            raise ValueError("no dependency-free stage to start from")
        makespan = self.loop.run()
        incomplete = [k for k, v in self._remaining.items() if v > 0]
        if incomplete:
            raise ValueError(
                f"cluster simulation deadlocked: {incomplete[:5]}"
            )
        return SimClusterResult(
            makespan=makespan,
            node_busy={
                n: st.worker_busy_time for n, st in self.nodes.items()
            },
            node_analyzer_busy={
                n: st.analyzer_busy_time for n, st in self.nodes.items()
            },
            network_busy=self.network_busy_time,
            cross_node_transfers=self.cross_node_transfers,
            assignment=dict(self.assignment),
        )


def evaluate_assignment(
    model: WorkloadModel,
    nodes: Sequence[SimClusterNode],
    assignment: Mapping[str, str],
    network: NetworkModel = NetworkModel(),
    **kwargs,
) -> SimClusterResult:
    """Predicted outcome of one kernel→node mapping."""
    return SimCluster(model, nodes, assignment, network, **kwargs).run()


def best_assignment(
    model: WorkloadModel,
    nodes: Sequence[SimClusterNode],
    candidates: Sequence[Mapping[str, str]],
    network: NetworkModel = NetworkModel(),
    **kwargs,
) -> tuple[dict[str, str], SimClusterResult, list[SimClusterResult]]:
    """Rank candidate assignments by simulated makespan; returns
    (winner, its result, all results in candidate order)."""
    if not candidates:
        raise ValueError("no candidate assignments")
    results = [
        evaluate_assignment(model, nodes, c, network, **kwargs)
        for c in candidates
    ]
    best = min(results, key=lambda r: r.makespan)
    return dict(best.assignment), best, results
