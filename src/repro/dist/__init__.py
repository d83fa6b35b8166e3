"""The distributed layer: master node, topology, HLS, transport.

Implements the architecture of the paper's section IV (figure 1): an
arbitrary number of *execution nodes* report their local topology to a
*master node*, which merges them into a global topology; the master's
**high-level scheduler (HLS)** partitions the program's final implicit
static dependency graph — optionally weighted with instrumentation data
— across the nodes, and can *repartition* as profiles or the topology
change.  Inter-node communication is "an event-based, distributed
publish-subscribe model", provided here by
:class:`~repro.dist.transport.InProcTransport`.

The paper evaluates a single execution node and leaves multi-machine
deployment as future work; this package completes the design in-process:
:class:`~repro.dist.cluster.Cluster` runs one program across several
:class:`~repro.core.ExecutionNode` instances (each with its own analyzer
and workers) that share write-once fields and forward store events over
the transport, with per-edge traffic accounting the HLS minimizes.
"""

from .cluster import Cluster, ClusterResult
from .faults import FaultInjector, FaultSchedule, FaultSpec
from .heartbeat import (
    LIVENESS_TOPIC,
    Heartbeat,
    Heartbeater,
    HeartbeatMonitor,
)
from .master import MasterNode, WorkloadAssignment
from .membership import (
    MEMBERSHIP_TOPIC,
    ElasticityConfig,
    ElasticityDriver,
    MembershipView,
)
from .partition import (
    Partition,
    greedy_partition,
    incremental_partition,
    kernighan_lin,
    partition_graph,
    tabu_search,
)
from .recovery import (
    RecoveryConfig,
    RecoveryManager,
    RecoveryRecord,
    fence_node,
)
from .topology import GlobalTopology, LocalTopology, ProcessorSpec
from .transport import InProcTransport, Message, TransportStats

__all__ = [
    "Cluster",
    "ClusterResult",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "GlobalTopology",
    "Heartbeat",
    "Heartbeater",
    "HeartbeatMonitor",
    "InProcTransport",
    "LIVENESS_TOPIC",
    "LocalTopology",
    "MEMBERSHIP_TOPIC",
    "ElasticityConfig",
    "ElasticityDriver",
    "MasterNode",
    "MembershipView",
    "Message",
    "Partition",
    "ProcessorSpec",
    "RecoveryConfig",
    "RecoveryManager",
    "RecoveryRecord",
    "TransportStats",
    "WorkloadAssignment",
    "fence_node",
    "greedy_partition",
    "incremental_partition",
    "kernighan_lin",
    "partition_graph",
    "tabu_search",
]
