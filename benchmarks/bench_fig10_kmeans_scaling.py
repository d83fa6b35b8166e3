"""Figure 10 — K-means workload execution time vs worker threads.

Simulated at the paper's full parameters (n=2000, K=100, 10 iterations
→ 2,000,000 assign instances) with table-III-calibrated costs.  Shape
assertions: scaling up to 4 workers, then the serial dependency analyzer
saturates and running time *increases*, with the Opteron suffering more
than the turbo-boosted Core i7 — exactly the paper's findings.
"""

import time

from conftest import emit, write_bench_json

from repro.bench import fig10_kmeans_scaling


def test_fig10_kmeans_scaling(benchmark):
    t0 = time.perf_counter()
    sweep = benchmark.pedantic(fig10_kmeans_scaling, rounds=1, iterations=1)
    wall = time.perf_counter() - t0
    emit("Figure 10: K-means execution time", sweep.render())
    write_bench_json("fig10", sweep, wall, workload="kmeans")
    degradations = {}
    for machine, pts in sweep.series.items():
        times = dict(pts)
        for w, t in sorted(times.items()):
            benchmark.extra_info[f"{machine[:10]}_{w}w"] = round(t, 2)
        assert times[4] < times[1] / 2  # scales to 4 workers
        assert times[8] > min(times.values())  # degrades past the knee
        degradations[machine] = times[8] / min(times.values())
    assert degradations["8-way AMD Opteron"] > degradations[
        "4-way Intel Core i7"
    ]
    benchmark.extra_info["degradation_opteron"] = round(
        degradations["8-way AMD Opteron"], 3
    )
    benchmark.extra_info["degradation_i7"] = round(
        degradations["4-way Intel Core i7"], 3
    )

