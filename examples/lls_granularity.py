#!/usr/bin/env python3
"""The low-level scheduler's granularity knobs (figure 4 / section V-A).

Walks the exact progression the paper draws for the mul2/plus5 program,
on the two mechanisms the runtime has — the *claim* (``batch``: how many
instances of a (kernel, age) run a worker takes as one dispatch) and
``fuse``:

* Age 1 — the program as written: one dispatch per ``mul2`` instance;
* Age 2 — *data* granularity reduced: ``batch=5``, a worker claims the
  age's five ``mul2`` instances as one dispatch (one stacked body call,
  one store event);
* Age 3 — *task* granularity reduced: ``mul2`` and ``plus5`` fused into
  one kernel (``fuse``), the intermediate store kept because ``print``
  still fetches it;
* Age 4 — both: the fused kernel claimed whole, "effectively a
  classical for-loop".

Then shows the signal the dial answers to: the fine-grained K-means
``assign`` kernel's dispatch ratio at ``batch=1``, and the same program
— untouched — at ``batch=32``, with identical centroids (DESIGN.md §10).

Run:  python examples/lls_granularity.py
"""

import numpy as np

from repro.core import fusable_pairs, fuse, run_program
from repro.workloads import build_kmeans, build_mulsum, expected_series


def run_and_report(tag: str, program, batch: int = 1, max_age: int = 2):
    result = run_program(
        program, workers=2, max_age=max_age, timeout=60, batch=batch
    )
    counts = {k: v.instances for k, v in sorted(result.stats.items())}
    dispatches = result.metrics.snapshot()["exec.claims"]["value"]
    print(f"{tag:<28} dispatches: {dispatches:>3}  instances: {counts}")
    return result


def main() -> None:
    expected = expected_series(3)

    print("=== figure 4: the four granularity configurations ===")
    program, sink = build_mulsum()
    run_and_report("Age 1 (as written)", program)
    assert np.array_equal(sink[0][1], expected[0][1])

    program2, sink2 = build_mulsum()
    run_and_report("Age 2 (coarse data)", program2, batch=5)
    assert np.array_equal(sink2[0][1], expected[0][1])

    program3, sink3 = build_mulsum()
    print(f"fusable pipelines found: {fusable_pairs(program3)}")
    run_and_report("Age 3 (fused tasks)", fuse(program3, "mul2", "plus5"))
    assert np.array_equal(sink3[0][1], expected[0][1])

    program4, sink4 = build_mulsum()
    run_and_report(
        "Age 4 (fused + coarse)", fuse(program4, "mul2", "plus5"), batch=5
    )
    assert np.array_equal(sink4[0][1], expected[0][1])

    print("\n=== the dial on fine-grained K-means ===")
    runs = {}
    for batch in (1, 32):
        program, km_sink = build_kmeans(
            n=120, k=6, iterations=4, granularity="pair"
        )
        result = run_program(program, workers=2, timeout=120, batch=batch)
        assign = result.stats["assign"]
        print(f"batch={batch:<2} assign: {assign.instances} instances, "
              f"dispatch ratio {assign.dispatch_ratio:.2f}, analyzer "
              f"{result.instrumentation.analyzer_time * 1e3:.1f} ms")
        runs[batch] = km_sink.history
    same = all(
        np.array_equal(runs[1][a], runs[32][a]) for a in runs[1]
    )
    print(f"centroid trajectories identical: {same}")


if __name__ == "__main__":
    main()
