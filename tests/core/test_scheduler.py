"""Unit tests for the LLS's task-granularity rewrite: ``fuse`` and
``fusable_pairs`` (:mod:`repro.core.fusion`)."""

import numpy as np
import pytest

from repro.core import SchedulerError, fusable_pairs, fuse, run_program
from repro.workloads import build_mulsum, expected_series
from tests.conftest import scalar_only


def run_sink(program, max_age=2, workers=2):
    return run_program(program, workers=workers, max_age=max_age, timeout=60)


class TestFuse:
    def test_fuse_preserves_values(self):
        program, sink = build_mulsum()
        fused = fuse(program, "mul2", "plus5")
        assert "mul2+plus5" in fused.kernels
        assert "mul2" not in fused.kernels
        run_sink(fused)
        expected = expected_series(3)
        for age in expected:
            assert np.array_equal(sink[age][0], expected[age][0])
            assert np.array_equal(sink[age][1], expected[age][1])

    def test_no_elide_with_other_consumer(self):
        """print fetches p_data, so the intermediate store must remain."""
        program, _ = build_mulsum()
        fused = fuse(program, "mul2", "plus5")
        k = fused.kernels["mul2+plus5"]
        assert "p_data" in k.stored_fields()

    def test_forced_elide_rejected_with_consumers(self):
        program, _ = build_mulsum()
        with pytest.raises(SchedulerError):
            fuse(program, "mul2", "plus5", elide=True)

    def test_elide_drops_field(self):
        program, _ = build_mulsum()
        trimmed = program.without_kernels("print")
        fused = fuse(trimmed, "mul2", "plus5")
        k = fused.kernels["mul2+plus5"]
        assert "p_data" not in k.stored_fields()
        assert "p_data" not in fused.fields

    def test_elided_pipeline_still_correct(self):
        program, _ = build_mulsum()
        trimmed = program.without_kernels("print")
        fused = fuse(trimmed, "mul2", "plus5")
        result = run_program(fused, workers=2, max_age=3, timeout=60)
        m = result.fields["m_data"].fetch(3)
        assert m.tolist() == expected_series(4)[3][0].tolist()

    def test_fuse_then_claim(self):
        """Figure 4's Age 4: both knobs — the fused kernel's five
        instances of an age run as one claim."""
        program, sink = build_mulsum()
        fused = fuse(program, "mul2", "plus5")
        result = run_program(fused, workers=1, max_age=2, batch=5,
                             timeout=60)
        assert result.stats["mul2+plus5"].instances == 15
        # init, then per age one claim of the fused kernel and one print
        assert result.metrics.snapshot()["exec.claims"]["value"] == 7
        expected = expected_series(3)
        for age in expected:
            assert np.array_equal(sink[age][0], expected[age][0])

    def test_non_pipeline_rejected(self):
        program, _ = build_mulsum()
        with pytest.raises(SchedulerError):
            fuse(program, "init", "print")

    @pytest.mark.parametrize("elide", [False, True])
    def test_fused_kernel_keeps_a_stacked_body(self, elide):
        """Both kernels are defined with a ``stack=`` function, so the fused
        kernel's batch_body is their composition (the kept p_data store
        included) and a batched run never drops to the scalar loop."""
        from repro.obs import MetricsRegistry, flatten

        sink = {}
        program, _ = build_mulsum(sink=sink, modulo=1 << 20)
        if elide:
            program = program.without_kernels("print")
        fused = fuse(program, "mul2", "plus5")
        k = fused.kernels["mul2+plus5"]
        assert k.batch_body is not None
        assert ("p_data" in k.stored_fields()) == (not elide)
        reg = MetricsRegistry()
        result = run_program(fused, workers=1, max_age=3, timeout=60,
                             batch=32, metrics=reg)
        flat = flatten(reg.snapshot())
        assert flat["exec.vectorize_fallbacks"] == 0
        assert flat["exec.vectorized_instances"] > 0
        expected = expected_series(5, modulo=1 << 20)
        assert result.fields["m_data"].fetch(3).tolist() == \
            expected[3][0].tolist()
        if not elide:
            assert np.array_equal(sink[2][1], expected[2][1])

    def test_one_unvectorized_kernel_means_no_stacked_body(self):
        program, _ = build_mulsum()
        program.kernels["plus5"].batch_body = None
        fused = fuse(program, "mul2", "plus5")
        assert fused.kernels["mul2+plus5"].batch_body is None
        fused = fuse(scalar_only(build_mulsum()[0]), "mul2", "plus5")
        assert fused.kernels["mul2+plus5"].batch_body is None

    @pytest.mark.parametrize("batch", [1, 8])
    def test_elided_pipe_still_casts_to_the_field_dtype(self, batch):
        """What crosses an elided store is what the consumer would have
        fetched: int64 sums handed through a uint8 field wrap."""
        from repro.core import (
            Dim, FetchSpec, FieldDef, KernelDef, Program, StoreSpec,
        )

        def build():
            dims = (Dim.of("x", 2),)

            def src(ctx):
                if ctx.age == 0:
                    ctx.emit("raw", np.arange(8, dtype=np.int64) * 40)

            def widen(ctx):
                ctx.emit("mid", ctx["v"] * 3 + 7)

            def halve(ctx):
                ctx.emit("out", ctx["m"] // 2)

            return Program.build(
                [
                    FieldDef("raw", "int64", 1, aging=True, shape=(8,)),
                    FieldDef("mid", "uint8", 1, aging=True, shape=(8,)),
                    FieldDef("out", "int64", 1, aging=True, shape=(8,)),
                ],
                [
                    KernelDef("src", src, has_age=True,
                              stores=(StoreSpec("raw"),)),
                    KernelDef(
                        "widen", widen, has_age=True, index_vars=("x",),
                        fetches=(FetchSpec("v", "raw", dims=dims),),
                        stores=(StoreSpec("mid", dims=dims),),
                    ),
                    KernelDef(
                        "halve", halve, has_age=True, index_vars=("x",),
                        fetches=(FetchSpec("m", "mid", dims=dims),),
                        stores=(StoreSpec("out", dims=dims),),
                    ),
                ],
            )

        plain = run_program(build(), workers=1, timeout=60, batch=batch)
        fused = fuse(build(), "widen", "halve")
        assert "mid" not in fused.fields
        got = run_program(fused, workers=1, timeout=60, batch=batch)
        want = ((np.arange(8) * 120 + 7) % 256) // 2
        assert plain.fields["out"].fetch(0).tolist() == want.tolist()
        assert got.fields["out"].fetch(0).tolist() == want.tolist()

    def test_fusable_pairs(self):
        program, _ = build_mulsum()
        pairs = fusable_pairs(program)
        assert ("mul2", "plus5") in pairs
        # plus5 -> mul2 crosses an age (a+1): not a same-age pipeline
        assert ("plus5", "mul2") not in pairs
