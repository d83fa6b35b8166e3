"""Table III — micro-benchmark of K-means in P2G.

Pair granularity reproduces the paper's instance arithmetic
(n·K·iterations assigns, K·iterations refines, iterations+1 prints);
scale reduced from n=2000, K=100 for Python-runtime wall-clock.
"""

from conftest import emit

from repro.bench.experiments import PAPER_TABLE3, table3_kmeans_micro

N, K, ITERS = 200, 20, 10


def test_table3_kmeans_micro(benchmark):
    result = benchmark.pedantic(
        table3_kmeans_micro,
        kwargs={"n": N, "k": K, "iterations": ITERS, "workers": 4},
        rounds=1,
        iterations=1,
    )
    emit("Table III: micro-benchmark of K-means", result.render())
    rows = {name: (n, d, k) for name, n, d, k, *_ in result.rows}
    assert rows["init"][0] == 1
    assert rows["assign"][0] == N * K * ITERS
    assert rows["refine"][0] == K * ITERS
    assert rows["print"][0] == ITERS + 1
    # the paper's defining signal: assign dispatch ~ kernel time
    _n, dispatch, kernel = rows["assign"]
    benchmark.extra_info["assign_dispatch_ratio"] = round(
        dispatch / (dispatch + kernel), 3
    )
    for name, (n, d, k) in rows.items():
        benchmark.extra_info[f"{name}_instances"] = n
    benchmark.extra_info["paper_assign_instances"] = PAPER_TABLE3["assign"][0]
