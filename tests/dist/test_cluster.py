"""Integration tests for multi-node cluster execution."""

import numpy as np
import pytest

from repro.core import PartitionError
from repro.dist import Cluster, InProcTransport, LocalTopology, ProcessorSpec
from repro.media import synthetic_sequence
from repro.workloads import (
    MJPEGConfig,
    build_kmeans,
    build_mjpeg,
    build_mulsum,
    expected_series,
    kmeans_baseline,
    mjpeg_baseline,
)


class TestCorrectness:
    def test_mulsum_across_two_nodes(self):
        program, sink = build_mulsum()
        result = Cluster(program, {"a": 2, "b": 2}).run(
            max_age=3, timeout=60
        )
        assert result.reason == "idle"
        expected = expected_series(4)
        for age in expected:
            assert np.array_equal(sink[age][0], expected[age][0])
            assert np.array_equal(sink[age][1], expected[age][1])

    def test_kmeans_across_three_nodes(self):
        program, sink = build_kmeans(n=60, k=5, iterations=3,
                                     granularity="point")
        result = Cluster(program, {"a": 2, "b": 1, "c": 1}).run(timeout=120)
        base = kmeans_baseline(n=60, k=5, iterations=3)
        for age in base.history:
            assert np.allclose(sink.history[age], base.history[age])

    def test_mjpeg_across_nodes_byte_identical(self):
        cfg = MJPEGConfig(width=64, height=64, frames=2)
        clip = synthetic_sequence(2, 64, 64, cfg.seed)
        program, sink = build_mjpeg(clip, cfg)
        Cluster(program, {"a": 2, "b": 2}).run(timeout=300)
        assert sink.stream() == mjpeg_baseline(clip, cfg)

    def test_wavefront_intra_across_nodes(self):
        """The intra wavefront's same-age stencil dependencies must
        propagate over the transport when `read` and `intra` land on
        different nodes — still bit-identical to the raster baseline."""
        from repro.dist.master import WorkloadAssignment
        from repro.dist.partition import Partition
        from repro.workloads import IntraConfig, build_intra, intra_baseline

        cfg = IntraConfig(width=64, height=48, frames=1)
        program, sink = build_intra(config=cfg)
        cluster = Cluster(program, {"a": 2, "b": 2})
        assignment = WorkloadAssignment(
            Partition(
                {"read": "a", "intra": "b", "quality": "a"},
                {"a": 2.0, "b": 2.0},
            ),
            "manual", 0,
        )
        result = cluster.run(assignment=assignment, timeout=120)
        assert result.reason == "idle"
        baseline = intra_baseline(config=cfg)
        assert np.array_equal(sink.recon[0], baseline[0])
        assert result.transport.messages > 0

    def test_single_node_cluster(self):
        program, sink = build_mulsum()
        result = Cluster(program, {"solo": 2}).run(max_age=1, timeout=60)
        assert result.reason == "idle"
        assert result.transport.messages == 0  # nothing crosses nodes

    def test_heterogeneous_topologies(self):
        program, sink = build_mulsum()
        nodes = {
            "big": LocalTopology("big", (ProcessorSpec("cpu", 4),)),
            "small": LocalTopology("small", (ProcessorSpec("cpu", 1),)),
        }
        result = Cluster(program, nodes).run(max_age=2, timeout=60)
        assert result.reason == "idle"
        expected = expected_series(3)
        assert np.array_equal(sink[2][0], expected[2][0])


class TestTrafficAccounting:
    def test_cross_node_events_counted(self):
        program, _ = build_mulsum()
        transport = InProcTransport()
        cluster = Cluster(program, {"a": 1, "b": 1}, transport)
        result = cluster.run(max_age=2, timeout=60)
        # kernels are spread over two nodes: some stores must cross
        if len({result.assignment.node_of(k)
                for k in program.kernels}) > 1:
            assert result.transport.messages > 0
            assert result.transport.bytes > 0

    def test_grouped_store_event_counts_every_region(self):
        from repro.core.events import StoreEvent
        from repro.dist.cluster import _payload_bytes

        block = (slice(0, 8), slice(8, 16))
        tail = (slice(8, 12), slice(0, 8))
        sizes = {"y": 2}
        assert _payload_bytes(StoreEvent("y", 0, block), sizes) == 128
        group = StoreEvent.group("y", 0, [block, block, tail])
        assert _payload_bytes(group, sizes) == (64 + 64 + 32) * 2
        assert _payload_bytes(group, {}) == (64 + 64 + 32) * 8

    def test_batching_moves_the_same_bytes_in_fewer_messages(self):
        """A dispatch's stores cross nodes as one publish per (field,
        age) group; the payload bytes accounted stay exact."""
        def run_with(batch):
            program, sink = build_mjpeg(config=MJPEGConfig(32, 32, 2))
            result = Cluster(program, {"a": 1, "b": 1}).run(
                batch=batch, timeout=120
            )
            assert sink.stream() == mjpeg_baseline(
                config=MJPEGConfig(32, 32, 2))
            return result.transport

        single, batched = run_with(1), run_with(32)
        assert batched.bytes == single.bytes > 0
        assert batched.messages < single.messages

    def test_colocated_pipeline_moves_less(self):
        """An explicit assignment keeping the mul2/plus5 loop on one node
        produces less cross-node traffic than splitting it (the HLS's
        partitioning objective made observable).  The global ``print``
        consumer is dropped so the loop's fields have single consumers."""
        from repro.dist.master import WorkloadAssignment
        from repro.dist.partition import Partition

        def run_with(assign_map):
            program, _ = build_mulsum()
            program = program.without_kernels("print")
            cluster = Cluster(program, {"a": 2, "b": 2})
            assignment = WorkloadAssignment(
                Partition(dict(assign_map), {"a": 2.0, "b": 2.0}),
                "manual", 0,
            )
            result = cluster.run(assignment=assignment, max_age=3,
                                 timeout=60)
            return result.transport.messages

        together = run_with({"init": "b", "mul2": "a", "plus5": "a"})
        split = run_with({"init": "b", "mul2": "a", "plus5": "b"})
        assert together < split


class TestErrors:
    def test_no_nodes_rejected(self):
        program, _ = build_mulsum()
        with pytest.raises(PartitionError):
            Cluster(program, {})

    def test_kernel_error_propagates(self):
        from repro.core import (
            AgeExpr,
            FieldDef,
            KernelBodyError,
            KernelDef,
            Program,
            StoreSpec,
        )

        def bad(ctx):
            raise RuntimeError("node down")

        prog = Program.build(
            [FieldDef("f")],
            [KernelDef("bad", bad,
                       stores=(StoreSpec("f", AgeExpr.const(0)),))],
        )
        with pytest.raises(KernelBodyError):
            Cluster(prog, {"a": 1, "b": 1}).run(timeout=60)

    def test_failed_start_leaves_nothing_running(self, monkeypatch):
        """The second node cannot start: the error propagates and the
        exporter (thread and port), the first node's threads, the
        heartbeats and the stream driver are all gone."""
        import socket
        import threading

        from repro.core import ExecutionNode
        from repro.dist.recovery import RecoveryConfig
        from repro.obs import Telemetry, TelemetryConfig
        from repro.stream import StreamConfig
        from repro.workloads import build_mjpeg_stream

        start = ExecutionNode.start

        def failing_start(node):
            if node.name == "n1":
                raise OSError("cannot spawn workers")
            start(node)

        monkeypatch.setattr(ExecutionNode, "start", failing_start)
        cfg = MJPEGConfig(width=32, height=32, frames=4)
        program, _sink, binding = build_mjpeg_stream(
            cfg, StreamConfig(fps=0, max_frames=4)
        )
        tel = Telemetry(TelemetryConfig(port=0))
        before = set(threading.enumerate())
        with pytest.raises(OSError, match="cannot spawn"):
            Cluster(program, {"n0": 1, "n1": 1}).run(
                stream=binding, telemetry=tel, recovery=RecoveryConfig(),
                timeout=60,
            )
        assert tel.exporter.http_port is not None  # it had come up
        with pytest.raises(OSError):
            socket.create_connection(
                ("127.0.0.1", tel.exporter.http_port), timeout=1
            ).close()
        left = [
            t.name for t in set(threading.enumerate()) - before
            if t.is_alive()
        ]
        assert left == []

    def test_merged_instrumentation(self):
        program, _ = build_mulsum()
        result = Cluster(program, {"a": 2, "b": 2}).run(max_age=2,
                                                        timeout=60)
        instr = result.instrumentation
        assert instr["mul2"].instances == 3 * 5
        assert instr["print"].instances == 3
