"""The master node and its high-level scheduler (paper, section IV).

The master holds the global topology, derives the program's final
implicit static dependency graph, optionally weights it with
instrumentation data collected from the execution nodes, and partitions
it across the registered nodes — repartitioning "with the intent of
improving the throughput in the system, or accommodate for changes in
the global load".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import TopologyError
from ..core.graph import final_graph, weighted_final_graph
from ..core.instrumentation import Instrumentation
from ..core.program import Program
from .partition import Partition, incremental_partition, partition_graph
from .topology import GlobalTopology, LocalTopology

__all__ = ["WorkloadAssignment", "MasterNode"]


@dataclass
class WorkloadAssignment:
    """The HLS's output: which kernel runs on which node."""

    partition: Partition
    method: str
    epoch: int  #: topology epoch the plan was computed against

    def node_of(self, kernel: str) -> str:
        """The node a kernel is assigned to."""
        return self.partition.assign[kernel]

    def kernels_for(self, node: str) -> list[str]:
        """Kernels assigned to ``node``, sorted."""
        return self.partition.members(node)

    def nodes(self) -> list[str]:
        """All part (node) names."""
        return self.partition.parts()

    def describe(self) -> str:
        """Human-readable per-node kernel listing."""
        lines = [f"assignment ({self.method}):"]
        for node in self.nodes():
            ks = ", ".join(str(k) for k in self.kernels_for(node))
            lines.append(f"  {node}: {ks}")
        return "\n".join(lines)


class MasterNode:
    """Registry + HLS.  Execution nodes register their local topologies;
    :meth:`plan` produces a :class:`WorkloadAssignment`."""

    def __init__(self, topology: GlobalTopology | None = None) -> None:
        self.topology = topology if topology is not None else GlobalTopology()
        self.last_assignment: WorkloadAssignment | None = None

    # -- node lifecycle -------------------------------------------------
    def register(self, topo: LocalTopology) -> None:
        """An execution node joins the global topology."""
        self.topology.add(topo)

    def unregister(self, node: str) -> None:
        """An execution node leaves the global topology."""
        self.topology.remove(node)

    def on_failure(self, node: str) -> LocalTopology:
        """The failure detector declared ``node`` dead.  Returns its
        topology report so a replacement can inherit the capacity."""
        return self.topology.mark_failed(node)

    def replace(self, node: str, successor: str) -> None:
        """``successor`` joins with ``node``'s resources to take over its
        part, which is renamed in the same step: the assignment's parts
        stay the topology's names."""
        report = self.topology.report(node)
        self.topology.add(LocalTopology(successor, report.processors),
                          "joining")
        prev = self.last_assignment
        self.last_assignment = WorkloadAssignment(
            prev.partition.renamed(node, successor),
            prev.method, self.topology.epoch,
        )

    def select_host(self, exclude: tuple[str, ...] = ()) -> str | None:
        """Surviving node with the highest CPU capacity (deterministic:
        capacity, then name, breaks ties) — where the recovery manager
        places a dead node's kernels.  ``None`` when nobody survives."""
        caps = {
            n: c
            for n, c in self.topology.capacities().items()
            if n not in exclude
        }
        if not caps:
            return None
        return max(caps.items(), key=lambda kv: (kv[1], kv[0]))[0]

    # -- HLS --------------------------------------------------------------
    def plan(
        self,
        program: Program,
        instrumentation: Instrumentation | None = None,
        method: str = "kl",
        **kwargs,
    ) -> WorkloadAssignment:
        """Partition the program's final graph over the registered nodes.

        With ``instrumentation`` the graph is weighted by measured kernel
        times and instance counts; without, kernels weigh their
        ``cost_hint``.
        """
        if len(self.topology) == 0:
            raise TopologyError("no execution nodes registered")
        graph = self._weighted_graph(program, instrumentation)
        capacities = self.topology.capacities()
        partition = partition_graph(graph, capacities, method, **kwargs)
        assignment = WorkloadAssignment(
            partition, method, self.topology.epoch
        )
        self.last_assignment = assignment
        return assignment

    def _weighted_graph(
        self,
        program: Program,
        instrumentation: Instrumentation | None,
    ):
        if instrumentation is not None:
            return weighted_final_graph(program, instrumentation)
        graph = final_graph(program)
        for name in graph.nodes():
            graph.node(name)["weight"] = program.kernels[name].cost_hint
        return graph

    def plan_incremental(
        self,
        program: Program,
        instrumentation: Instrumentation | None = None,
        move_penalty: float = 0.5,
    ) -> WorkloadAssignment:
        """Repartition over the *current* topology after a membership
        change, seeding from the last assignment and penalizing moved
        kernels (see :func:`~repro.dist.partition
        .incremental_partition`).  Falls back to a full :meth:`plan`
        when there is no previous assignment to be incremental against.
        """
        if len(self.topology) == 0:
            raise TopologyError("no execution nodes registered")
        prev = self.last_assignment
        if prev is None:
            return self.plan(program, instrumentation)
        graph = self._weighted_graph(program, instrumentation)
        capacities = self.topology.capacities()
        partition = incremental_partition(
            graph, capacities, prev.partition, move_penalty=move_penalty
        )
        assignment = WorkloadAssignment(
            partition, "incremental", self.topology.epoch
        )
        self.last_assignment = assignment
        return assignment

    def repartition(
        self,
        program: Program,
        instrumentation: Instrumentation,
        method: str = "kl",
        **kwargs,
    ) -> tuple[WorkloadAssignment, bool]:
        """Profile-driven repartitioning: returns (assignment, changed).

        ``changed`` compares against the previous assignment so callers
        can skip migration when the plan is stable.
        """
        prev = self.last_assignment
        new = self.plan(program, instrumentation, method, **kwargs)
        changed = prev is None or prev.partition.assign != new.partition.assign
        return new, changed

    def stale(self) -> bool:
        """Whether the topology changed since the last plan."""
        return (
            self.last_assignment is None
            or self.last_assignment.epoch != self.topology.epoch
        )
