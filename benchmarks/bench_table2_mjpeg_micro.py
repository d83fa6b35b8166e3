"""Table II — micro-benchmark of MJPEG encoding in P2G.

Measured on the real Python runtime at CIF geometry (per-frame instance
counts exactly match the paper: 1584 yDCT + 396 uDCT + 396 vDCT) with a
reduced frame count; the paper's published values are printed alongside.
"""

from conftest import emit

from repro.bench.experiments import PAPER_TABLE2, table2_mjpeg_micro

FRAMES = 2


def test_table2_mjpeg_micro(benchmark):
    result = benchmark.pedantic(
        table2_mjpeg_micro,
        kwargs={"frames": FRAMES, "workers": 4},
        rounds=1,
        iterations=1,
    )
    emit("Table II: micro-benchmark of MJPEG encoding", result.render())
    rows = {name: (n, d, k) for name, n, d, k, *_ in result.rows}
    # per-frame geometry must match the paper exactly
    assert rows["ydct"][0] == 1584 * FRAMES
    assert rows["udct"][0] == 396 * FRAMES
    assert rows["vdct"][0] == 396 * FRAMES
    assert rows["read"][0] == FRAMES + 1
    assert rows["vlc"][0] == FRAMES
    for name, (n, d, k) in rows.items():
        benchmark.extra_info[f"{name}_instances"] = n
        benchmark.extra_info[f"{name}_kernel_us"] = round(k, 2)
        paper = PAPER_TABLE2.get(name)
        if paper:
            benchmark.extra_info[f"{name}_paper_kernel_us"] = paper[2]
