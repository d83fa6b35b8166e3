"""The run entry points' keyword surface, pinned.

Every name here is re-threaded by hand through ``cli.py`` and the
benchmark harness; adding one is a design decision, so it has to show
up as a diff of this file.
"""

import inspect

import pytest

from repro.core import ExecutionNode, run_program
from repro.dist import Cluster
from repro.ops import compile_ops
from repro.stream import SessionManager, StreamConfig, StreamDriver
from repro.workloads import MJPEGConfig, build_mjpeg_stream

RUN = {"max_age", "timeout", "stall_timeout", "tracer", "metrics",
       "batch", "telemetry"}

SURFACE = {
    compile_ops: {"sinks", "name", "mode", "stream", "vectorize"},
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
    Cluster.run: RUN | {
        "self", "assignment", "faults", "recovery", "stream", "sessions",
        "elastic",
    },
}


@pytest.mark.parametrize(
    "fn", SURFACE, ids=lambda fn: fn.__qualname__
)
def test_parameter_names_are_pinned(fn):
    assert set(inspect.signature(fn).parameters) == SURFACE[fn]


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
