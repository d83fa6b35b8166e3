"""Topology descriptions (paper, section IV and figure 1).

"Each execution node reports its local topology (a graph of multi-core
and single-core CPUs and GPUs, connected by various kinds of buses and
other networks) to the master node, which combines this information into
a global topology of available resources.  As such, the global topology
can change during runtime as execution nodes are dynamically added and
removed."

:class:`GlobalTopology` is that registry and the only one: an entry is
a node's :class:`LocalTopology` report plus its lifecycle state

    ``joining -> active -> draining -> left``  (planned scale-out / -in)
    ``joining | active | draining -> dead``    (failure detector)

and every mutation bumps the one **epoch**, appends to :attr:`history`
and builds the immutable :class:`~repro.dist.membership.MembershipView`
the table hands out (and, once an elastic run wired the callback,
broadcasts) until the next mutation.  The HLS places kernels on
``joining | active`` nodes; the node's whole life is DESIGN.md §8.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable

from ..core.errors import TopologyError
from ..core.graph import Digraph
from .membership import MembershipView

__all__ = ["NODE_STATES", "ProcessorSpec", "LocalTopology", "GlobalTopology"]

#: Legal node lifecycle states, in rough lifecycle order.
NODE_STATES = ("joining", "active", "draining", "dead", "left")

#: Allowed state transitions (from -> to); ``add`` enters from nothing.
_TRANSITIONS = {
    "joining": ("active", "dead", "left"),
    "active": ("draining", "dead"),
    "draining": ("left", "dead"),
    "dead": (),
    "left": (),
}

#: States the HLS may place kernels on.
_PLACEABLE = ("joining", "active")


@dataclass(frozen=True)
class ProcessorSpec:
    """One processing resource of a node.

    ``kind`` is free-form ("cpu", "gpu", "dsp"); ``cores`` counts
    hardware execution units; ``speed`` is relative per-core throughput
    (reference core = 1.0).
    """

    kind: str = "cpu"
    cores: int = 1
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise TopologyError(f"processor must have >= 1 core: {self}")
        if self.speed <= 0:
            raise TopologyError(f"processor speed must be positive: {self}")

    @property
    def capacity(self) -> float:
        """cores x speed, in reference-core units."""
        return self.cores * self.speed


@dataclass(frozen=True)
class LocalTopology:
    """What one execution node reports to the master."""

    node: str
    processors: tuple[ProcessorSpec, ...] = (ProcessorSpec(),)

    def __post_init__(self) -> None:
        if not self.processors:
            raise TopologyError(f"node {self.node!r} reports no processors")

    @property
    def cpu_capacity(self) -> float:
        """Total general-purpose capacity (what the HLS balances on)."""
        return sum(p.capacity for p in self.processors if p.kind == "cpu")

    @property
    def total_capacity(self) -> float:
        """Capacity across all processors, accelerators included."""
        return sum(p.capacity for p in self.processors)

    @property
    def cores(self) -> int:
        """Execution units across all processors: the worker count a
        cluster runs the node with."""
        return sum(p.cores for p in self.processors)

    def has(self, kind: str) -> bool:
        """Whether the node has a processor of ``kind``."""
        return any(p.kind == kind for p in self.processors)


class GlobalTopology:
    """The master's versioned node registry; thread-safe."""

    def __init__(self, nodes: Iterable[LocalTopology] = ()) -> None:
        self._lock = threading.Lock()
        self._reports: dict[str, LocalTopology] = {}
        self._epoch = 0
        self._view = MembershipView(0, MappingProxyType({}))
        self._publish: "Callable[[MembershipView], None] | None" = None
        #: (epoch, node, state) per mutation, in order.
        self.history: list[tuple[int, str, str]] = []
        for n in nodes:
            self.add(n)

    def set_publish(
        self, publish: "Callable[[MembershipView], None] | None"
    ) -> None:
        """Wire (or unwire) the view broadcast: an elastic run attaches
        it, after which every mutation publishes its fresh view."""
        self._publish = publish

    # -- mutation ------------------------------------------------------
    def add(self, topo: LocalTopology, state: str = "active") -> None:
        """Admit a node (a ``dead`` / ``left`` name may rejoin)."""
        if state not in NODE_STATES:
            raise TopologyError(f"unknown node state {state!r}")
        with self._lock:
            if self._view.states.get(topo.node) in ("joining", "active",
                                                    "draining"):
                raise TopologyError(f"node {topo.node!r} already registered")
            self._reports[topo.node] = topo
            view = self._set_locked(topo.node, state)
        self._notify(view)

    def transition(self, node: str, state: str) -> LocalTopology:
        """Move ``node`` to ``state``, enforcing the lifecycle order (a
        same-state call changes nothing); returns its report."""
        with self._lock:
            topo, current = self._entry_locked(node)
            if state == current:
                return topo
            if state not in _TRANSITIONS[current]:
                raise TopologyError(
                    f"illegal transition for {node!r}: {current} -> {state}"
                )
            view = self._set_locked(node, state)
        self._notify(view)
        return topo

    def remove(self, node: str) -> LocalTopology:
        """A node leaves gracefully (``draining`` first if it was
        ``active``); returns its report."""
        if self.state(node) == "active":
            self.transition(node, "draining")
        return self.transition(node, "left")

    def mark_failed(self, node: str) -> LocalTopology:
        """A node died; returns its last report (a replacement
        inherits it)."""
        return self.transition(node, "dead")

    def update(self, topo: LocalTopology) -> None:
        """Replace a node's report (its resources changed)."""
        with self._lock:
            _, state = self._entry_locked(topo.node)
            self._reports[topo.node] = topo
            view = self._set_locked(topo.node, state)
        self._notify(view)

    def _entry_locked(self, node: str) -> tuple[LocalTopology, str]:
        try:
            return self._reports[node], self._view.states[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def _set_locked(self, node: str, state: str) -> MembershipView:
        self._epoch += 1
        self.history.append((self._epoch, node, state))
        self._view = MembershipView(
            self._epoch, MappingProxyType({**self._view.states, node: state})
        )
        return self._view

    def _notify(self, view: MembershipView) -> None:
        # Outside the lock: the callback walks the transport, whose
        # routing filter reads :meth:`view` back.
        publish = self._publish
        if publish is not None:
            publish(view)

    # -- queries -------------------------------------------------------
    def view(self) -> MembershipView:
        """The current snapshot — the same object until the next
        mutation."""
        return self._view

    @property
    def epoch(self) -> int:
        """Bumped on every mutation; the HLS replans on epoch drift."""
        return self._view.epoch

    def state(self, node: str) -> str | None:
        """Lifecycle state of ``node`` (``None`` if never admitted)."""
        return self._view.states.get(node)

    def report(self, node: str) -> LocalTopology:
        """``node``'s last topology report, whatever its state."""
        with self._lock:
            return self._entry_locked(node)[0]

    def failed_nodes(self) -> list[str]:
        """Names of every node that died, in order."""
        with self._lock:
            return [n for _, n, s in self.history if s == "dead"]

    def nodes(self) -> list[LocalTopology]:
        """Reports of the placeable (``joining | active``) nodes, by
        name."""
        with self._lock:
            return [
                self._reports[n] for n, s in sorted(self._view.states.items())
                if s in _PLACEABLE
            ]

    def node_names(self) -> list[str]:
        """Sorted placeable node names."""
        return [t.node for t in self.nodes()]

    def capacities(self) -> dict[str, float]:
        """Per-node CPU capacity — the HLS's balancing weights."""
        return {t.node: t.cpu_capacity for t in self.nodes()}

    def total_capacity(self) -> float:
        """Summed CPU capacity of every placeable node."""
        return sum(self.capacities().values())

    def __len__(self) -> int:
        return len(self.nodes())

    def __contains__(self, node: str) -> bool:
        return self.state(node) in _PLACEABLE

    def as_dict(self) -> dict:
        """JSON-ready snapshot with the transition history tail."""
        with self._lock:
            doc = self._view.as_dict()
            doc["history"] = [
                {"epoch": e, "node": n, "state": s}
                for e, n, s in self.history[-100:]
            ]
            return doc

    def as_graph(self) -> Digraph:
        """Figure-1-style rendering: master connected to every node,
        nodes to their processors."""
        g = Digraph()
        g.add_node("master", kind="kernel", label="master node")
        for t in self.nodes():
            g.add_node(t.node, kind="kernel", label=t.node)
            g.add_edge("master", t.node)
            for i, p in enumerate(t.processors):
                pid = f"{t.node}/{p.kind}{i}"
                g.add_node(
                    pid, kind="field",
                    label=f"{p.kind} x{p.cores} @{p.speed:g}",
                )
                g.add_edge(t.node, pid)
        return g
