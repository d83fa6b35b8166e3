#!/usr/bin/env python3
"""The low-level scheduler's granularity knobs (figure 4 / section V-A).

Walks the exact progression the paper draws for the mul2/plus5 program:

* Age 1 — the program as written: one ``mul2`` instance per element;
* Age 2 — *data* granularity reduced: ``mul2`` fetches the whole field
  in one instance (``coarsen``);
* Age 3 — *task* granularity reduced: ``mul2`` and ``plus5`` fused into
  one kernel (``fuse``), the intermediate store kept because ``print``
  still fetches it;
* Age 4 — both: the fused kernel over the whole field, "effectively a
  classical for-loop".

Then shows the adaptive policy doing the same from instrumentation: the
fine-grained K-means ``assign`` kernel's dispatch ratio triggers a
coarsening recommendation, and the coarsened program runs with far
fewer instances while producing identical centroids.  This is the
whole LLS recipe — profile once, recommend, rewrite, run — and it is a
*pre-run* transform: at run time the granularity dial is ``batch`` and
the claim (DESIGN.md §10).

Run:  python examples/lls_granularity.py
"""

import numpy as np

from repro.core import (
    AdaptivePolicy,
    coarsen,
    fusable_pairs,
    fuse,
    run_program,
)
from repro.workloads import build_kmeans, build_mulsum, expected_series


def run_and_report(tag: str, program, max_age: int = 2):
    result = run_program(program, workers=2, max_age=max_age, timeout=60)
    counts = {k: v.instances for k, v in sorted(result.stats.items())}
    print(f"{tag:<28} instances: {counts}")
    return result


def main() -> None:
    expected = expected_series(3)

    print("=== figure 4: the four granularity configurations ===")
    program, sink = build_mulsum()
    run_and_report("Age 1 (as written)", program)
    assert np.array_equal(sink[0][1], expected[0][1])

    program2, sink2 = build_mulsum()
    coarse = coarsen(program2, "mul2", "x", factor=5)
    run_and_report("Age 2 (coarse data)", coarse)
    assert np.array_equal(sink2[0][1], expected[0][1])

    program3, sink3 = build_mulsum()
    print(f"fusable pipelines found: {fusable_pairs(program3)}")
    fused = fuse(program3, "mul2", "plus5")
    run_and_report("Age 3 (fused tasks)", fused)
    assert np.array_equal(sink3[0][1], expected[0][1])

    program4, sink4 = build_mulsum()
    both = coarsen(fuse(program4, "mul2", "plus5"), "mul2+plus5", "x", 5)
    run_and_report("Age 4 (fused + coarse)", both)
    assert np.array_equal(sink4[0][1], expected[0][1])

    print("\n=== adaptive policy on fine-grained K-means ===")
    # vectorize=False: a kernel with a batch_body is never recommended
    # for coarsening (its dial is run_program's ``batch``).
    fine, fine_sink = build_kmeans(
        n=120, k=6, iterations=4, granularity="pair", vectorize=False
    )
    fine_run = run_program(fine, workers=2, timeout=120)
    assign = fine_run.stats["assign"]
    print(f"assign: {assign.instances} instances, dispatch ratio "
          f"{assign.dispatch_ratio:.2f}")

    policy = AdaptivePolicy(ratio_target=0.25)
    decisions = policy.recommend(fine, fine_run.instrumentation)
    print(f"policy recommends: {decisions}")

    coarse_km, coarse_sink = build_kmeans(
        n=120, k=6, iterations=4, granularity="pair", vectorize=False
    )
    adapted = policy.apply(coarse_km, decisions)
    adapted_run = run_program(adapted, workers=2, timeout=120)
    a2 = adapted_run.stats["assign"]
    print(f"after coarsening: {a2.instances} instances, dispatch ratio "
          f"{a2.dispatch_ratio:.2f}")
    same = all(
        np.allclose(fine_sink.history[a], coarse_sink.history[a])
        for a in fine_sink.history
    )
    print(f"centroid trajectories identical: {same}")


if __name__ == "__main__":
    main()
