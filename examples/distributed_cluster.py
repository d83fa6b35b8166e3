#!/usr/bin/env python3
"""Master node, topology and HLS partitioning (figure 1 / section IV).

Builds a heterogeneous three-node cluster, lets the master's high-level
scheduler partition the K-means dependency graph over it (greedy / KL /
tabu), runs the program across the nodes — store events crossing node
boundaries travel over the publish-subscribe transport — and then
demonstrates elastic repartitioning after a node joins.

Run:  python examples/distributed_cluster.py [n] [k] [iterations]
"""

import sys

import numpy as np

from repro.core.graph import weighted_final_graph
from repro.dist import (
    Cluster,
    LocalTopology,
    MasterNode,
    ProcessorSpec,
    partition_graph,
)
from repro.workloads import build_kmeans, kmeans_baseline


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    iterations = int(sys.argv[3]) if len(sys.argv) > 3 else 5

    program, sink = build_kmeans(
        n=n, k=k, iterations=iterations, granularity="point"
    )

    nodes = {
        "bignode": LocalTopology(
            "bignode",
            (ProcessorSpec("cpu", cores=4, speed=1.0),
             ProcessorSpec("gpu", cores=128, speed=0.1)),
        ),
        "smallnode": LocalTopology(
            "smallnode", (ProcessorSpec("cpu", cores=2, speed=1.0),)
        ),
        "slownode": LocalTopology(
            "slownode", (ProcessorSpec("cpu", cores=2, speed=0.5),)
        ),
    }
    cluster = Cluster(program, nodes)
    print("global topology:",
          {t.node: t.cpu_capacity for t in cluster.master.topology.nodes()})

    result = cluster.run(timeout=300)
    print("\nHLS assignment:")
    print(result.assignment.describe())
    print(f"\nrun: {result.reason}, wall {result.wall_time:.2f}s")
    print(f"cross-node store events: {result.transport.messages} "
          f"({result.transport.bytes} bytes)")
    top = sorted(result.transport.per_link.items(),
                 key=lambda kv: -kv[1])[:3]
    for (src, dst), cnt in top:
        print(f"  {src} -> {dst}: {cnt} messages")

    baseline = kmeans_baseline(n=n, k=k, iterations=iterations)
    ok = all(np.allclose(sink.history[a], baseline.history[a])
             for a in baseline.history)
    print(f"distributed result == sequential Lloyd's: {ok}")

    # ---- elastic repartitioning: a node joins, the plan changes -------
    print("\n--- node 'newnode' joins; instrumentation-weighted replan ---")
    master: MasterNode = cluster.master
    master.register(LocalTopology(
        "newnode", (ProcessorSpec("cpu", cores=8, speed=1.2),)
    ))
    instr = result.instrumentation
    new_plan, changed = master.repartition(program, instr, method="kl")
    print(f"topology stale before replan: True, plan changed: {changed}")
    print(new_plan.describe())

    # ---- partitioner comparison on the weighted graph ------------------
    graph = weighted_final_graph(program, instr)
    caps = master.topology.capacities()
    print("\npartitioner comparison (edge cut / imbalance, "
          "balance-weighted objective):")
    for method in ("greedy", "kl", "tabu"):
        kwargs = {} if method == "greedy" else {"balance_penalty": 4.0}
        p = partition_graph(graph, caps, method, **kwargs)
        print(f"  {method:>6}: cut={p.edge_cut(graph):8.1f}  "
              f"imbalance={p.imbalance(graph):.2f}")


if __name__ == "__main__":
    main()
