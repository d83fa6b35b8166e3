"""HLS graph partitioning (paper, section IV).

"The HLS can then use a graph partitioning [17] or search based [14]
algorithm to partition the workload into a suitable number of components
that can be distributed to, and run, on the resources available in the
topology."

Three partitioners over the weighted final static dependency graph:

* :func:`greedy_partition` — capacity-aware seeding (heaviest kernels
  first, placed to balance load and keep neighbours together);
* :func:`kernighan_lin` — Kernighan–Lin/Fiduccia–Mattheyses-style move
  refinement (the classic graph-partitioning route, ref [17]);
* :func:`tabu_search` — the search-based route (ref [14], Glover's tabu
  search): single-node moves with a tabu list, accepting uphill moves to
  escape local minima.

All three balance *weighted* kernel load against heterogeneous node
capacities and minimize the weight of cut edges (inter-node field
traffic).  :func:`partition_graph` runs greedy seeding + KL refinement,
which is the master's default.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Hashable, Mapping, Sequence

from ..core.errors import PartitionError
from ..core.graph import Digraph

__all__ = [
    "Partition",
    "greedy_partition",
    "kernighan_lin",
    "tabu_search",
    "partition_graph",
    "incremental_partition",
]


def _node_weight(graph: Digraph, node: Hashable) -> float:
    w = graph.node(node).get("weight")
    return 1.0 if w is None or w <= 0 else float(w)


def _edge_weight(attrs: Mapping) -> float:
    w = attrs.get("weight")
    return 1.0 if w is None or w <= 0 else float(w)


@dataclass
class Partition:
    """An assignment of graph nodes to named parts."""

    assign: dict[Hashable, str]
    capacities: dict[str, float]

    def parts(self) -> list[str]:
        """Sorted part names."""
        return sorted(self.capacities)

    def members(self, part: str) -> list[Hashable]:
        """Nodes assigned to ``part``, sorted."""
        return sorted(
            (n for n, p in self.assign.items() if p == part), key=repr
        )

    def loads(self, graph: Digraph) -> dict[str, float]:
        """Summed node weight per part."""
        loads = {p: 0.0 for p in self.capacities}
        for n, p in self.assign.items():
            loads[p] += _node_weight(graph, n)
        return loads

    def edge_cut(self, graph: Digraph) -> float:
        """Total weight of edges whose endpoints live on different parts
        (≈ inter-node field traffic)."""
        return sum(
            _edge_weight(attrs)
            for u, v, attrs in graph.edges()
            if self.assign[u] != self.assign[v]
        )

    def imbalance(self, graph: Digraph) -> float:
        """Max relative deviation of load/capacity from the ideal (0 =
        perfectly proportional)."""
        loads = self.loads(graph)
        total_load = sum(loads.values())
        total_cap = sum(self.capacities.values())
        if total_load == 0 or total_cap == 0:
            return 0.0
        worst = 0.0
        for p, cap in self.capacities.items():
            ideal = total_load * cap / total_cap
            if ideal > 0:
                worst = max(worst, abs(loads[p] - ideal) / ideal)
        return worst

    def cost(self, graph: Digraph, balance_penalty: float = 1.0) -> float:
        """Scalar objective the refiners minimize."""
        total_edges = sum(_edge_weight(a) for _u, _v, a in graph.edges())
        scale = total_edges if total_edges > 0 else 1.0
        return self.edge_cut(graph) + balance_penalty * scale * \
            self.imbalance(graph)

    def validate(self, graph: Digraph) -> None:
        """Raise PartitionError unless every graph node is validly assigned."""
        missing = [n for n in graph.nodes() if n not in self.assign]
        if missing:
            raise PartitionError(f"unassigned nodes: {missing[:5]}")
        bad = [
            n for n, p in self.assign.items() if p not in self.capacities
        ]
        if bad:
            raise PartitionError(f"nodes assigned to unknown parts: {bad[:5]}")

    def renamed(self, old: str, new: str) -> "Partition":
        """This partition with part ``old`` called ``new``."""
        return Partition(
            {n: new if p == old else p for n, p in self.assign.items()},
            {new if p == old else p: c for p, c in self.capacities.items()},
        )

    def copy(self) -> "Partition":
        """Deep-enough copy for move-based refinement."""
        return Partition(dict(self.assign), dict(self.capacities))


# ----------------------------------------------------------------------
def greedy_partition(
    graph: Digraph, capacities: Mapping[str, float]
) -> Partition:
    """Capacity-proportional greedy seeding.

    Nodes are placed heaviest-first onto the part minimizing projected
    relative load, with a bonus for parts already holding neighbours
    (keeps pipelines together).
    """
    if not capacities:
        raise PartitionError("no parts to partition onto")
    caps = {p: float(c) for p, c in capacities.items()}
    if any(c <= 0 for c in caps.values()):
        raise PartitionError("part capacities must be positive")
    assign: dict[Hashable, str] = {}
    loads = {p: 0.0 for p in caps}
    order = sorted(
        graph.nodes(), key=lambda n: (-_node_weight(graph, n), repr(n))
    )
    # Normalizers keep the two objectives in comparable, unit-free terms:
    # the load term is relative to a perfectly proportional placement,
    # the affinity term is the fraction of total edge weight kept local.
    total_w = sum(_node_weight(graph, x) for x in graph.nodes())
    total_cap = sum(caps.values())
    ideal_density = max(total_w / total_cap, 1e-12)
    total_e = max(
        sum(_edge_weight(a) for _u, _v, a in graph.edges()), 1e-12
    )
    affinity_bias = 0.3  # balance dominates; affinity breaks ties
    for n in order:
        w = _node_weight(graph, n)
        neighbours = set(graph.successors(n)) | set(graph.predecessors(n))
        best_part, best_score = None, None
        for p in sorted(caps):
            affinity = sum(
                _edge_weight(graph.edge(n, m) if graph.has_edge(n, m)
                             else graph.edge(m, n))
                for m in neighbours
                if assign.get(m) == p
            )
            score = (
                (loads[p] + w) / caps[p] / ideal_density
                - affinity_bias * affinity / total_e
            )
            if best_score is None or score < best_score:
                best_part, best_score = p, score
        assign[n] = best_part
        loads[best_part] += w
    part = Partition(assign, caps)
    part.validate(graph)
    return part


# ----------------------------------------------------------------------
def _move_gain(
    graph: Digraph,
    part: Partition,
    node: Hashable,
    target: str,
    balance_penalty: float,
) -> float:
    """Cost reduction from moving ``node`` to ``target`` (positive =
    better)."""
    before = part.cost(graph, balance_penalty)
    original = part.assign[node]
    part.assign[node] = target
    after = part.cost(graph, balance_penalty)
    part.assign[node] = original
    return before - after


def kernighan_lin(
    graph: Digraph,
    capacities: Mapping[str, float],
    start: Partition | None = None,
    max_passes: int = 8,
    balance_penalty: float = 1.0,
) -> Partition:
    """KL/FM-style refinement: passes of locked best-gain single-node
    moves, keeping the best prefix of each pass."""
    part = (start.copy() if start is not None
            else greedy_partition(graph, capacities))
    parts = part.parts()
    for _ in range(max_passes):
        locked: set[Hashable] = set()
        trail: list[tuple[Hashable, str, str]] = []
        gains: list[float] = []
        working = part.copy()
        while len(locked) < len(graph):
            best = None
            for n in graph.nodes():
                if n in locked:
                    continue
                for p in parts:
                    if p == working.assign[n]:
                        continue
                    g = _move_gain(graph, working, n, p, balance_penalty)
                    if best is None or g > best[0]:
                        best = (g, n, p)
            if best is None:
                break
            g, n, p = best
            trail.append((n, working.assign[n], p))
            gains.append(g)
            working.assign[n] = p
            locked.add(n)
            if len(trail) > 2 * len(graph):
                break
        # Keep the best prefix of the move trail.
        best_prefix, best_sum, run = 0, 0.0, 0.0
        for i, g in enumerate(gains):
            run += g
            if run > best_sum:
                best_sum, best_prefix = run, i + 1
        if best_prefix == 0 or best_sum <= 1e-12:
            break
        for n, _src, dst in trail[:best_prefix]:
            part.assign[n] = dst
    part.validate(graph)
    return part


# ----------------------------------------------------------------------
def tabu_search(
    graph: Digraph,
    capacities: Mapping[str, float],
    start: Partition | None = None,
    iterations: int = 200,
    tabu_tenure: int = 7,
    balance_penalty: float = 1.0,
    seed: int = 0,
) -> Partition:
    """Tabu search over single-node moves (the paper's ref [14]).

    Each iteration applies the best non-tabu move (even uphill); a move
    of node ``n`` makes (n, source_part) tabu for ``tabu_tenure``
    iterations; the best partition ever seen is returned.
    """
    rng = random.Random(seed)
    part = (start.copy() if start is not None
            else greedy_partition(graph, capacities))
    parts = part.parts()
    best = part.copy()
    best_cost = best.cost(graph, balance_penalty)
    tabu: dict[tuple[Hashable, str], int] = {}
    nodes = sorted(graph.nodes(), key=repr)
    for it in range(iterations):
        candidates = []
        for n in nodes:
            src = part.assign[n]
            for p in parts:
                if p == src:
                    continue
                if tabu.get((n, p), -1) >= it:
                    continue
                g = _move_gain(graph, part, n, p, balance_penalty)
                candidates.append((g, rng.random(), n, src, p))
        if not candidates:
            break
        candidates.sort(reverse=True)
        g, _r, n, src, dst = candidates[0]
        part.assign[n] = dst
        tabu[(n, src)] = it + tabu_tenure
        cost = part.cost(graph, balance_penalty)
        if cost < best_cost - 1e-12:
            best, best_cost = part.copy(), cost
    best.validate(graph)
    return best


# ----------------------------------------------------------------------
def incremental_partition(
    graph: Digraph,
    capacities: Mapping[str, float],
    previous: Partition,
    move_penalty: float = 0.5,
    balance_penalty: float = 1.0,
    max_moves: int | None = None,
) -> Partition:
    """Repartition after a membership change, minimizing *moved* nodes.

    A scale-out/scale-in migration pays per kernel that changes owner
    (fence, state replay, warm caches lost), so the objective is not
    just cut weight + balance but also migration volume.  The seed keeps
    every node on its previous part when that part survived; orphans of
    removed parts and brand-new graph nodes are placed greedily against
    the surviving loads.  Refinement then applies best-gain single-node
    moves where each move away from a node's *previous* placement is
    charged ``move_penalty`` (scaled to total edge weight, like the
    balance term) — a kernel moves only when the traffic/balance gain
    exceeds its migration cost.
    """
    if not capacities:
        raise PartitionError("no parts to partition onto")
    caps = {p: float(c) for p, c in capacities.items()}
    if any(c <= 0 for c in caps.values()):
        raise PartitionError("part capacities must be positive")
    origin = {
        n: p for n, p in previous.assign.items() if p in caps
    }
    total_w = max(
        sum(_node_weight(graph, n) for n in graph.nodes()), 1e-12
    )
    total_e = max(
        sum(_edge_weight(a) for _u, _v, a in graph.edges()), 1e-12
    )

    # Seed: sticky placement, greedy fill for the unplaced.
    assign: dict[Hashable, str] = {}
    loads = {p: 0.0 for p in caps}
    unplaced = []
    for n in sorted(graph.nodes(), key=repr):
        prev_part = origin.get(n)
        if prev_part is not None:
            assign[n] = prev_part
            loads[prev_part] += _node_weight(graph, n)
        else:
            unplaced.append(n)
    unplaced.sort(key=lambda n: (-_node_weight(graph, n), repr(n)))
    total_cap = sum(caps.values())
    ideal_density = max(total_w / total_cap, 1e-12)
    for n in unplaced:
        w = _node_weight(graph, n)
        neighbours = set(graph.successors(n)) | set(graph.predecessors(n))
        best_part, best_score = None, None
        for p in sorted(caps):
            affinity = sum(
                _edge_weight(graph.edge(n, m) if graph.has_edge(n, m)
                             else graph.edge(m, n))
                for m in neighbours
                if assign.get(m) == p
            )
            score = (
                (loads[p] + w) / caps[p] / ideal_density
                - 0.3 * affinity / total_e
            )
            if best_score is None or score < best_score:
                best_part, best_score = p, score
        assign[n] = best_part
        loads[best_part] += w

    part = Partition(assign, caps)
    part.validate(graph)

    def migration_cost(p: Partition) -> float:
        moved_w = sum(
            _node_weight(graph, n)
            for n, dst in p.assign.items()
            if n in origin and dst != origin[n]
        )
        return move_penalty * total_e * moved_w / total_w

    def objective(p: Partition) -> float:
        return p.cost(graph, balance_penalty) + migration_cost(p)

    # Best-gain hill climb under the migration-aware objective.
    budget = max_moves if max_moves is not None else 4 * len(graph)
    current = objective(part)
    parts = part.parts()
    nodes = sorted(graph.nodes(), key=repr)
    for _ in range(budget):
        best = None
        for n in nodes:
            src = part.assign[n]
            for p in parts:
                if p == src:
                    continue
                part.assign[n] = p
                cand = objective(part)
                part.assign[n] = src
                gain = current - cand
                if gain > 1e-12 and (best is None or gain > best[0]):
                    best = (gain, n, p)
        if best is None:
            break
        _g, n, p = best
        part.assign[n] = p
        current = objective(part)
    part.validate(graph)
    return part


def partition_graph(
    graph: Digraph,
    capacities: Mapping[str, float],
    method: str = "kl",
    **kwargs,
) -> Partition:
    """The master's entry point: greedy seed + chosen refiner."""
    if method == "greedy":
        return greedy_partition(graph, capacities)
    if method == "kl":
        return kernighan_lin(graph, capacities, **kwargs)
    if method == "tabu":
        return tabu_search(graph, capacities, **kwargs)
    raise PartitionError(f"unknown partition method {method!r}")
