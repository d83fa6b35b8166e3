"""The run entry points' and workload builders' keyword surface, the
export lists of ``repro.core`` and ``repro.sim`` and the CLI's
subcommand set, pinned.

Every keyword here is re-threaded by hand through ``cli.py`` and the
benchmark harness, and every export is public API; adding one is a
design decision, so it has to show up as a diff of this file.
"""

import inspect

import pytest

import repro.core
import repro.sim
from repro.cli import build_parser
from repro.core import ExecutionNode, run_program
from repro.dist import Cluster, RecoveryManager
from repro.ops import compile_ops
from repro.stream import SessionManager, StreamConfig, StreamDriver
from repro.workloads import (
    MJPEGConfig,
    build_kmeans,
    build_mjpeg,
    build_mjpeg_stream,
    build_mulsum,
)

RUN = {"max_age", "timeout", "stall_timeout", "tracer", "metrics",
       "batch", "telemetry"}

SURFACE = {
    compile_ops: {"sinks", "name", "mode", "stream"},
    # The builders take no switch for the stacked forms their kernels
    # carry: ``tests/conftest.py::scalar_only`` strips them.
    build_kmeans: {"n", "k", "dims", "iterations", "seed", "granularity"},
    build_mjpeg: {"frames", "config"},
    build_mjpeg_stream: {"config", "stream", "source"},
    build_mulsum: {"values", "sink", "echo", "modulo"},
    run_program: RUN | {
        "program", "workers", "gc_fields", "keep_ages", "backend", "stream",
    },
    ExecutionNode.__init__: {
        "self", "program", "workers", "max_age", "gc_fields", "keep_ages",
        "name", "clock", "backend", "fields", "counter", "timers",
        "on_event", "scheduling", "session_weights", "recover",
        "dependency_kernels", "tracer", "metrics", "batch", "timeline",
    },
    SessionManager.__init__: {
        "self", "specs", "workers", "backend", "batch", "max_age",
        "max_sessions", "admission", "session_weights", "metrics",
        "tracer", "telemetry",
    },
    StreamDriver.__init__: {
        "self", "binding", "node", "nodes", "program", "inject",
        "on_grant", "clock", "session", "scope", "telemetry",
    },
    Cluster.__init__: {"self", "program", "nodes", "transport"},
    Cluster.run: RUN | {
        "self", "assignment", "faults", "recovery", "stream", "sessions",
        "elastic",
    },
    # Membership operations name a node by its one (live) name.
    Cluster.add_node: {"self", "name", "workers"},
    Cluster.drain_node: {"self", "name"},
    Cluster.set_offered_rate: {"self", "fps", "session"},
    # The policy half of a recovery: the run it watches and its config,
    # no alias of the run's registries.
    RecoveryManager.__init__: {"self", "run", "config"},
}


@pytest.mark.parametrize(
    "fn", SURFACE, ids=lambda fn: fn.__qualname__
)
def test_parameter_names_are_pinned(fn):
    assert set(inspect.signature(fn).parameters) == SURFACE[fn]


CORE_EXPORTS = [
    "AgeError", "AgeExpr", "BACKENDS", "BatchKernelContext",
    "CollectedAgeError", "DTYPES", "DefinitionError", "DependencyAnalyzer",
    "Digraph", "Dim", "Event", "ExecutionBackend",
    "ExecutionNode", "ExtentError", "FetchSpec", "Field", "FieldDef",
    "FieldError", "FieldStore", "InstanceDoneEvent", "Instrumentation",
    "KernelBodyError", "KernelContext", "KernelDef", "KernelError",
    "KernelInstance", "KernelStats", "LanguageError", "LexError",
    "LocalField", "NAME_SEP", "NodeFailureError", "P2GError", "ParseError",
    "PartitionError", "ProcessBackend", "Program", "ReadyQueue",
    "RegionGroup", "ResizeEvent", "RunResult",
    "RuntimeStateError", "SchedulerError", "SemanticError", "SharedField",
    "SharedFieldStore", "StallError", "StoreEvent", "StoreSpec",
    "ThreadBackend", "Timer", "TimerSet", "TopologyError", "TransportError",
    "VectorizeFallback", "WorkCounter", "WorkToken", "WorkerProcessError",
    "WriteOnceViolation", "ascii_graph", "coerce_store_value", "dc_dag",
    "final_graph", "fusable_pairs", "fuse", "intermediate_graph",
    "make_kernel", "normalize_index", "resolve_backend", "run_program",
    "segment_name", "validate_component", "validate_field_name",
    "weighted_final_graph",
]


def test_core_exports_are_pinned():
    assert sorted(repro.core.__all__) == CORE_EXPORTS


SIM_EXPORTS = [
    "CORE_I7_860", "EventLoop", "MACHINES", "MachineProfile",
    "NetworkModel", "OPTERON_8218", "SimCluster", "SimClusterNode",
    "SimResult", "StageSpec", "WorkloadModel", "machine_table",
    "model_from_instrumentation", "paper_kmeans_model",
    "paper_mjpeg_model", "sweep_workers",
]


def test_sim_exports_are_pinned():
    assert sorted(repro.sim.__all__) == SIM_EXPORTS


def test_cli_subcommands_are_pinned():
    (sub,) = (a for a in build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == [
        "run", "graph", "mjpeg", "ops", "kmeans", "cluster", "simulate",
        "tables",
    ]


def _live():
    cfg = MJPEGConfig(width=32, height=32, frames=2)
    return build_mjpeg_stream(cfg, StreamConfig(fps=0, max_frames=2))


def test_telemetry_must_be_a_telemetry():
    program, _sink, binding = _live()
    with pytest.raises(TypeError, match="repro.obs.Telemetry"):
        run_program(program, 1, stream=binding, telemetry=True)


def test_stream_must_be_a_binding():
    program, _sink, binding = _live()
    driver = StreamDriver(binding, node=ExecutionNode(program, 1))
    driver.stop()
    with pytest.raises(TypeError, match="StreamBinding"):
        run_program(program, 1, stream=driver)
