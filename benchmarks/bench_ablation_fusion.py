"""Ablation — LLS task fusion (figure 4, Age 2 → Age 3/4).

Fusing mul2+plus5 halves the instance count; fusing *and* claiming the
age's five instances as one dispatch (``batch=5``) turns each age into
"a classical for-loop" (one stacked body call).  The intermediate-store
elision is measured by dropping the print consumer.
"""

import numpy as np
import pytest
from conftest import dispatches, emit, write_variants_json

from repro.core import fuse, run_program
from repro.workloads import build_mulsum, expected_series

AGES = 60
EXPECTED = expected_series(AGES + 1, modulo=2**40)
VARIANTS = ["baseline", "fused", "fused+coarse", "fused+elided"]
_RESULTS: dict[str, dict] = {}


def _variant(name):
    program, sink = build_mulsum(modulo=2**40)
    if name in ("fused", "fused+coarse"):
        program = fuse(program, "mul2", "plus5")
    elif name == "fused+elided":
        program = fuse(program.without_kernels("print"), "mul2", "plus5")
    return program, sink


@pytest.mark.parametrize("variant", VARIANTS)
def test_fusion(benchmark, variant):
    batch = 5 if variant == "fused+coarse" else 1

    def run():
        program, sink = _variant(variant)
        result = run_program(
            program, workers=4, max_age=AGES, timeout=600, batch=batch
        )
        return result, sink

    result, sink = benchmark.pedantic(run, rounds=1, iterations=1)
    if variant != "fused+elided":
        for age in (0, AGES // 2, AGES):
            assert np.array_equal(sink[age][0], EXPECTED[age][0])
    else:
        m = result.fields["m_data"].fetch(AGES)
        assert np.array_equal(m, EXPECTED[AGES][0])
    total = result.instrumentation.total_instances()
    n_dispatches = dispatches(result)
    benchmark.extra_info["total_instances"] = total
    benchmark.extra_info["dispatches"] = n_dispatches
    benchmark.extra_info["analyzer_s"] = round(
        result.instrumentation.analyzer_time, 4
    )
    emit(
        f"fusion ablation [{variant}]",
        f"total instances: {total}, dispatches: {n_dispatches}, "
        f"wall: {result.wall_time:.3f}s, "
        f"analyzer: {result.instrumentation.analyzer_time:.4f}s",
    )
    _RESULTS[variant] = {
        "wall_time_s": round(result.wall_time, 4),
        "total_instances": total,
        "dispatches": n_dispatches,
        "analyzer_s": round(result.instrumentation.analyzer_time, 4),
    }
    if len(_RESULTS) == len(VARIANTS):
        write_variants_json(
            "ablation_fusion", _RESULTS,
            sum(v["wall_time_s"] for v in _RESULTS.values()),
            baseline="baseline", workload="mulsum", ages=AGES,
        )
