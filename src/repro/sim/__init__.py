"""Discrete-event simulation of P2G execution nodes.

One model (:mod:`repro.sim.simcluster`): a single node is a cluster of
one.  Why this exists: the paper's scaling curves (figures 9 and 10) were
measured on a 4-way Core i7 860 and an 8-way Opteron 8218 running a C++
runtime whose worker threads execute truly in parallel.  CPython's GIL
makes an honest 1–8-thread sweep of Python kernel code meaningless, so —
per the reproduction's substitution rule — this package simulates the
*mechanism* those curves exercise:

* ``W`` worker threads draining an age-ordered ready queue;
* one dedicated, serial dependency-analyzer thread that must spend a
  per-instance dispatch cost before an instance becomes ready (its
  saturation is what caps K-means at 4 threads in figure 10);
* machine profiles from table I — core counts, SMT, the Core i7's
  single-core turbo (the paper's explanation for the i7 suffering less
  under the serial bottleneck) — with all threads time-sharing the
  cores;
* per-kernel costs from tables II and III (or measured from the real
  Python runtime via :func:`~repro.sim.workload.model_from_instrumentation`).

The simulator is shape-only and is documented as such: it reproduces
curve *shapes* (who wins, where the knees fall).  ``contention`` and
``analyzer_share`` are two constants fitted to figures 9 and 10, so
absolute seconds and provisioning advice are not outputs to rely on.
"""

from .desim import EventLoop
from .machine import CORE_I7_860, MACHINES, MachineProfile, OPTERON_8218
from .machine import machine_table
from .simcluster import (
    NetworkModel,
    SimCluster,
    SimClusterNode,
    SimResult,
    sweep_workers,
)
from .workload import (
    StageSpec,
    WorkloadModel,
    model_from_instrumentation,
    paper_kmeans_model,
    paper_mjpeg_model,
)

__all__ = [
    "CORE_I7_860",
    "EventLoop",
    "MACHINES",
    "MachineProfile",
    "NetworkModel",
    "OPTERON_8218",
    "SimCluster",
    "SimClusterNode",
    "SimResult",
    "StageSpec",
    "WorkloadModel",
    "machine_table",
    "sweep_workers",
    "model_from_instrumentation",
    "paper_kmeans_model",
    "paper_mjpeg_model",
]
