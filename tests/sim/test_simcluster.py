"""Tests for `SimCluster` on more than one node, its argument checks,
and the figure 9/10 goldens that pin the model to the bit.  Single-node
mechanics and the figure shape classes are in `test_simnode.py`."""

import pytest

from repro.bench import fig9_mjpeg_scaling, fig10_kmeans_scaling
from repro.sim import (
    CORE_I7_860,
    NetworkModel,
    OPTERON_8218,
    SimCluster,
    SimClusterNode,
    StageSpec,
    WorkloadModel,
    paper_mjpeg_model,
)


def two_nodes(workers=4):
    return [
        SimClusterNode("a", OPTERON_8218, workers),
        SimClusterNode("b", OPTERON_8218, workers),
    ]


def pipeline_model(instances=64, stages=3, kernel_us=100.0):
    specs = [StageSpec("s0", 1, 10.0, 5.0, ages=1)]
    for i in range(1, stages + 1):
        specs.append(
            StageSpec(
                f"s{i}", instances, kernel_us, 1.0,
                deps=((f"s{i-1}", 0),),
                ages=1,
            )
        )
    return WorkloadModel("pipeline", 1, tuple(specs))


def all_on(node: str, model: WorkloadModel) -> dict[str, str]:
    return {s.name: node for s in model.stages}


def simulate(model, nodes, assignment, network=NetworkModel(), **kwargs):
    return SimCluster(model, nodes, assignment, network, **kwargs).run()


#: (workers, seconds) at 1, 4 and 8 workers, recorded at d4f0a32 from the
#: single-node model this one replaced.
FIG9_GOLDEN = {
    CORE_I7_860.name: [(1, 16.68958212815168), (4, 4.968831767719182),
                       (8, 3.833498850429986)],
    OPTERON_8218.name: [(1, 26.325286807150516), (4, 6.605707912388282),
                        (8, 3.3672429646870783)],
}
FIG10_GOLDEN = {
    CORE_I7_860.name: [(1, 14.801192807375665), (4, 5.2948106362566545),
                       (8, 5.813788184769172)],
    OPTERON_8218.name: [(1, 23.170083333333515), (4, 6.224901723371549),
                        (8, 7.042410646360205)],
}


class TestMechanics:
    def test_single_node_matches_simnode(self):
        """A one-node cluster returns the floats the deleted single-node
        model returned, to the last bit."""
        for figure, golden in ((fig9_mjpeg_scaling, FIG9_GOLDEN),
                               (fig10_kmeans_scaling, FIG10_GOLDEN)):
            assert {
                name: [pt for pt in pts if pt[0] in (1, 4, 8)]
                for name, pts in figure().series.items()
            } == golden

    def test_single_node_never_touches_the_network(self):
        model = paper_mjpeg_model(5)
        result = simulate(
            model, [SimClusterNode("only", OPTERON_8218, 4)],
            all_on("only", model),
        )
        assert result.cross_node_transfers == 0
        assert result.network_busy == 0.0

    def test_validates_assignment(self):
        model = pipeline_model()
        with pytest.raises(ValueError, match="without a node"):
            SimCluster(model, two_nodes(), {"s0": "a"})
        with pytest.raises(ValueError, match="unknown nodes"):
            SimCluster(model, two_nodes(),
                       all_on("ghost", model))

    @pytest.mark.parametrize(
        "nodes",
        [[SimClusterNode("a", OPTERON_8218, 4)], two_nodes()],
        ids=["one-node", "two-nodes"],
    )
    def test_validates_model_constants(self, nodes):
        model = paper_mjpeg_model(2)
        assignment = all_on("a", model)
        idle = nodes[:-1] + [SimClusterNode("z", OPTERON_8218, 0)]
        with pytest.raises(ValueError, match="node 'z'.*workers=0"):
            SimCluster(model, idle, all_on("z", model))
        with pytest.raises(ValueError, match=r"analyzer_share.*\[0, 1\]"):
            SimCluster(model, nodes, assignment, analyzer_share=2.0)
        with pytest.raises(ValueError, match="analyzer_share"):
            SimCluster(model, nodes, assignment, analyzer_share=-0.1)
        with pytest.raises(ValueError, match="contention"):
            SimCluster(model, nodes, assignment, contention=-0.01)

    def test_needs_a_node(self):
        with pytest.raises(ValueError, match="nodes is empty"):
            SimCluster(pipeline_model(), [], {})

    def test_cross_node_traffic_counted(self):
        model = pipeline_model(stages=2)
        assignment = {"s0": "a", "s1": "a", "s2": "b"}
        result = simulate(model, two_nodes(), assignment)
        assert result.cross_node_transfers >= 1
        assert result.network_busy > 0

    def test_two_node_split_conserves_instances(self):
        """Every instance runs exactly once, wherever its stage lives;
        the aggregates are defined over both nodes."""
        model = pipeline_model()
        result = simulate(
            model, two_nodes(3),
            {"s0": "a", "s1": "a", "s2": "b", "s3": "b"},
        )
        assert (sum(s.instances for s in result.stages.values())
                == model.total_instances())
        assert result.workers == 6
        assert all(busy > 0 for busy in result.node_busy.values())
        assert 0 < result.worker_utilization <= 1.0
        assert result.analyzer_utilization == (
            max(result.node_analyzer_busy.values()) / result.makespan
        )

    def test_network_cost_slows_split_pipelines(self):
        """With a slow network, splitting a tight pipeline across nodes
        must be worse than colocating it."""
        model = pipeline_model(stages=3, instances=32)
        slow_net = NetworkModel(latency_s=5e-3, bytes_per_s=1e6,
                                event_bytes=4096)
        together = simulate(
            model, two_nodes(), all_on("a", model), slow_net
        )
        split = simulate(
            model, two_nodes(),
            {"s0": "a", "s1": "a", "s2": "b", "s3": "a"}, slow_net
        )
        assert split.makespan > together.makespan

    def test_two_nodes_beat_one_for_parallel_stages(self):
        """Independent heavy stages benefit from a second machine."""
        model = WorkloadModel(
            "fanout", 1,
            (
                StageSpec("src", 1, 10.0, 5.0, ages=1),
                StageSpec("left", 64, 500.0, 1.0, deps=(("src", 0),),
                          ages=1),
                StageSpec("right", 64, 500.0, 1.0, deps=(("src", 0),),
                          ages=1),
            ),
        )
        nodes = two_nodes(2)
        one = simulate(model, nodes, all_on("a", model))
        spread = simulate(
            model, nodes, {"src": "a", "left": "a", "right": "b"}
        )
        assert spread.makespan < one.makespan

    def test_deterministic(self):
        model = pipeline_model()
        assignment = {"s0": "a", "s1": "a", "s2": "b", "s3": "b"}
        a = simulate(model, two_nodes(), assignment)
        b = simulate(model, two_nodes(), assignment)
        assert a.makespan == b.makespan


class TestBestAssignment:
    def test_heterogeneous_nodes(self):
        """A faster machine should attract the heavy stage."""
        model = pipeline_model(stages=1, instances=128, kernel_us=200.0)
        nodes = [
            SimClusterNode("fast", CORE_I7_860, 4),
            SimClusterNode("slow", OPTERON_8218, 1),
        ]
        on_fast = simulate(model, nodes, {"s0": "fast", "s1": "fast"})
        on_slow = simulate(model, nodes, {"s0": "fast", "s1": "slow"})
        assert on_fast.makespan < on_slow.makespan
