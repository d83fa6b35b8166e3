"""Ablation — LLS data-granularity (figure 4, Age 1 → Age 2).

The paper's remedy for the K-means analyzer bottleneck: "decreasing the
granularity of data-parallelism, in effect leading to each kernel
instance of assign working on larger slices of data ... would increase
the ratio of time spent in kernel code compared to dispatch time and
reduce the workload of the dependency analyzer."

Measured on the real Python runtime, on the dial it has: the pair
decomposition dispatched one instance at a time (``batch=1``, fine),
the same program with a worker claiming its share of each (kernel, age)
run (``batch=32``, claimed), and the coarse-by-construction point
decomposition of the same K-means run.
"""

import numpy as np
import pytest
from conftest import dispatches, emit, write_variants_json

from repro.core import run_program
from repro.workloads import build_kmeans, kmeans_baseline

N, K, ITERS = 150, 10, 4
BASE = kmeans_baseline(n=N, k=K, iterations=ITERS)
VARIANTS = ["fine", "claimed", "point"]
_RESULTS: dict[str, dict] = {}


def _check(sink):
    for age in BASE.history:
        assert np.allclose(sink.history[age], BASE.history[age])


@pytest.mark.parametrize("variant", VARIANTS)
def test_granularity(benchmark, variant):
    batch = 32 if variant == "claimed" else 1

    def run():
        program, sink = build_kmeans(
            n=N, k=K, iterations=ITERS,
            granularity="point" if variant == "point" else "pair",
        )
        result = run_program(program, workers=4, timeout=600, batch=batch)
        return result, sink

    result, sink = benchmark.pedantic(run, rounds=1, iterations=1)
    _check(sink)
    assign = result.stats["assign"]
    claims = dispatches(result)  # of any kernel
    benchmark.extra_info["assign_instances"] = assign.instances
    benchmark.extra_info["dispatches"] = claims
    benchmark.extra_info["dispatch_ratio"] = round(assign.dispatch_ratio, 3)
    benchmark.extra_info["analyzer_s"] = round(
        result.instrumentation.analyzer_time, 3
    )
    emit(
        f"granularity ablation [{variant}]",
        f"assign instances: {assign.instances}, dispatches: {claims}, "
        f"dispatch ratio: {assign.dispatch_ratio:.2f}, analyzer time: "
        f"{result.instrumentation.analyzer_time:.3f}s, wall: "
        f"{result.wall_time:.3f}s",
    )
    _RESULTS[variant] = {
        "wall_time_s": round(result.wall_time, 4),
        "assign_instances": assign.instances,
        "dispatches": claims,
        "dispatch_ratio": round(assign.dispatch_ratio, 3),
        "analyzer_s": round(result.instrumentation.analyzer_time, 4),
    }
    if len(_RESULTS) == len(VARIANTS):
        write_variants_json(
            "ablation_granularity", _RESULTS,
            sum(v["wall_time_s"] for v in _RESULTS.values()),
            baseline="fine", workload="kmeans", n=N, k=K,
            iterations=ITERS,
        )
