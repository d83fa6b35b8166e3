"""repro — a full Python reproduction of *P2G: A Framework for
Distributed Real-Time Processing of Multimedia Data* (ICPP 2011).

Public API layout:

* :mod:`repro.core` — fields, kernels, dependency analysis, the
  execution-node runtime and the low-level scheduler (the paper's
  contribution).
* :mod:`repro.lang` — the P2G kernel language compiler.
* :mod:`repro.dist` — master node, topology, HLS graph partitioning and
  the publish–subscribe transport.
* :mod:`repro.sim` — discrete-event simulator of execution nodes with
  calibrated machine profiles (reproduces figures 9 and 10).
* :mod:`repro.media` — YUV/DCT/JPEG substrate for the MJPEG workload.
* :mod:`repro.workloads` — the paper's workloads (mul2/plus5, K-means,
  Motion JPEG) and their baselines.
* :mod:`repro.bench` — the experiment harness regenerating every table
  and figure.
* :mod:`repro.obs` — observability: span tracing (Chrome trace-event
  JSON for Perfetto), the metrics registry, and the failure flight
  recorder.

Quickstart::

    from repro.workloads import build_mulsum
    from repro.core import run_program

    program, sink = build_mulsum()
    result = run_program(program, workers=4, max_age=3)
    print(sink[0])   # (array([10..14]), array([20, 22, 24, 26, 28]))
"""

from .core import (
    AgeExpr,
    Dim,
    ExecutionNode,
    FetchSpec,
    FieldDef,
    KernelContext,
    KernelDef,
    P2GError,
    Program,
    RunResult,
    StoreSpec,
    make_kernel,
    run_program,
)
from .obs import MetricsRegistry, Tracer

__version__ = "1.0.0"

__all__ = [
    "AgeExpr",
    "Dim",
    "ExecutionNode",
    "FetchSpec",
    "FieldDef",
    "KernelContext",
    "KernelDef",
    "MetricsRegistry",
    "P2GError",
    "Program",
    "RunResult",
    "StoreSpec",
    "Tracer",
    "__version__",
    "make_kernel",
    "run_program",
]
