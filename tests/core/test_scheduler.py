"""Unit tests for the LLS transformations (coarsen / fuse / adaptive)."""

import numpy as np
import pytest

from repro.core import (
    AdaptivePolicy,
    FusionDecision,
    GranularityDecision,
    Instrumentation,
    SchedulerError,
    coarsen,
    coarsenable_vars,
    fusable_pairs,
    fuse,
    run_program,
)
from repro.workloads import build_kmeans, build_mulsum, expected_series


def run_sink(program, max_age=2, workers=2):
    return run_program(program, workers=workers, max_age=max_age, timeout=60)


class TestCoarsen:
    def test_reduces_instances_preserves_values(self):
        program, sink = build_mulsum()
        coarse = coarsen(program, "mul2", "x", 5)
        result = run_sink(coarse)
        assert result.stats["mul2"].instances == 3  # one per age
        expected = expected_series(3)
        for age in expected:
            assert np.array_equal(sink[age][1], expected[age][1])

    def test_partial_factor(self):
        program, sink = build_mulsum()
        coarse = coarsen(program, "mul2", "x", 2)  # blocks of 2 over 5
        result = run_sink(coarse, max_age=1)
        assert result.stats["mul2"].instances == 2 * 3  # ceil(5/2) per age
        expected = expected_series(2)
        for age in expected:
            assert np.array_equal(sink[age][1], expected[age][1])

    def test_factor_one_is_identity(self):
        program, _ = build_mulsum()
        assert coarsen(program, "mul2", "x", 1) is program

    def test_unknown_kernel(self):
        program, _ = build_mulsum()
        with pytest.raises(SchedulerError):
            coarsen(program, "nope", "x", 2)

    def test_unknown_var(self):
        program, _ = build_mulsum()
        with pytest.raises(SchedulerError):
            coarsen(program, "mul2", "y", 2)

    def test_invalid_factor(self):
        program, _ = build_mulsum()
        with pytest.raises(SchedulerError):
            coarsen(program, "mul2", "x", 0)

    def test_coarsen_2d_kernel(self):
        """K-means' pair assign has two index vars; coarsening x batches
        points while c stays per-centroid."""
        program, sink = build_kmeans(
            n=40, k=4, iterations=2, granularity="pair"
        )
        coarse = coarsen(program, "assign", "x", 8)
        result = run_program(coarse, workers=2, timeout=60)
        # ceil(40/8)=5 x-blocks * 4 centroids * 2 iterations
        assert result.stats["assign"].instances == 5 * 4 * 2
        from repro.workloads import kmeans_baseline

        base = kmeans_baseline(n=40, k=4, iterations=2)
        for age in base.history:
            assert np.allclose(sink.history[age], base.history[age])


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

    def test_fuse_then_coarsen(self):
        """Figure 4's Age 4: both knobs — one instance per age."""
        program, sink = build_mulsum()
        both = coarsen(fuse(program, "mul2", "plus5"), "mul2+plus5", "x", 5)
        result = run_sink(both)
        assert result.stats["mul2+plus5"].instances == 3
        expected = expected_series(3)
        for age in expected:
            assert np.array_equal(sink[age][0], expected[age][0])

    def test_non_pipeline_rejected(self):
        program, _ = build_mulsum()
        with pytest.raises(SchedulerError):
            fuse(program, "init", "print")

    @pytest.mark.parametrize("elide", [False, True])
    def test_fused_kernel_keeps_a_stacked_body(self, elide):
        """Both kernels are ``affine_int`` stack maps, so the fused
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
        program, _ = build_mulsum(vectorize=False)
        fused = fuse(program, "mul2", "plus5")
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


class TestAdaptivePolicy:
    def _instr(self, kernel="assign", instances=1000, dispatch_us=40.0,
               kernel_us=10.0):
        instr = Instrumentation()
        for _ in range(instances):
            instr.record(kernel, dispatch_us * 1e-6, kernel_us * 1e-6)
        return instr

    def test_recommends_for_high_ratio(self):
        program, _ = build_kmeans(n=40, k=4, iterations=2,
                                  granularity="pair", vectorize=False)
        policy = AdaptivePolicy(ratio_target=0.25)
        decisions = policy.recommend(program, self._instr())
        assert len(decisions) == 1
        d = decisions[0]
        assert d.kernel == "assign" and d.factor > 1

    def test_never_coarsens_a_vectorized_kernel(self):
        """coarsen() rebuilds a kernel without its batch_body, so the
        same hot profile yields no decision once ``assign`` has one:
        its dial is ``batch`` (8 of the 10 K-means-point pairs of the
        LLS dial audit lost to exactly this rewrite)."""
        program, _ = build_kmeans(n=40, k=4, iterations=2,
                                  granularity="pair")
        assert program.kernels["assign"].batch_body is not None
        policy = AdaptivePolicy(ratio_target=0.25)
        assert policy.recommend(program, self._instr()) == []

    def test_no_recommendation_below_target(self):
        program, _ = build_kmeans(n=40, k=4, iterations=2,
                                  granularity="pair")
        policy = AdaptivePolicy(ratio_target=0.25)
        instr = self._instr(dispatch_us=1.0, kernel_us=99.0)
        assert policy.recommend(program, instr) == []

    def test_min_instances_guard(self):
        program, _ = build_kmeans(n=40, k=4, iterations=2,
                                  granularity="pair")
        policy = AdaptivePolicy(min_instances=10_000)
        assert policy.recommend(program, self._instr(instances=100)) == []

    def test_apply_produces_runnable_program(self):
        program, sink = build_kmeans(n=40, k=4, iterations=2,
                                     granularity="pair")
        policy = AdaptivePolicy()
        adapted = policy.apply(
            program, [GranularityDecision("assign", "x", 8)]
        )
        run_program(adapted, workers=2, timeout=60)
        from repro.workloads import kmeans_baseline

        base = kmeans_baseline(n=40, k=4, iterations=2)
        assert np.allclose(sink.history[2], base.history[2])

    def test_invalid_target(self):
        with pytest.raises(SchedulerError):
            AdaptivePolicy(ratio_target=0.0)

    def test_accepts_plain_stats_mapping(self):
        """recommend takes either an Instrumentation or its stats dict
        (the adaptation driver feeds per-interval deltas as a dict)."""
        program, _ = build_kmeans(n=40, k=4, iterations=2,
                                  granularity="pair", vectorize=False)
        policy = AdaptivePolicy(ratio_target=0.25)
        stats = self._instr().stats()
        decisions = policy.recommend(program, stats)
        assert len(decisions) == 1 and decisions[0].kernel == "assign"

    def test_age_only_kernel_never_coarsened(self):
        """mulsum's print kernel has no index axis beyond the age
        dimension; even with a terrible dispatch ratio the policy must
        not recommend coarsening it."""
        program, _ = build_mulsum()
        assert coarsenable_vars(program.kernels["print"]) == []
        assert coarsenable_vars(program.kernels["mul2"]) == ["x"]
        policy = AdaptivePolicy(ratio_target=0.25, min_instances=10)
        instr = self._instr(kernel="print", instances=100,
                            dispatch_us=90.0, kernel_us=10.0)
        assert policy.recommend(program, instr) == []

    def test_recommends_fusion_for_hot_pipeline(self):
        """With fuse=True a hot producer->consumer pair becomes one
        FusionDecision, and the fused kernels are not also coarsened."""
        program, _ = build_mulsum()
        instr = Instrumentation()
        for _ in range(200):
            instr.record("mul2", 40e-6, 10e-6)
            instr.record("plus5", 40e-6, 10e-6)
        policy = AdaptivePolicy(ratio_target=0.25, min_instances=10)
        decisions = policy.recommend(program, instr, fuse=True)
        fusions = [d for d in decisions if isinstance(d, FusionDecision)]
        assert fusions == [FusionDecision("mul2", "plus5")]
        fused = {"mul2", "plus5"}
        assert not any(
            isinstance(d, GranularityDecision) and d.kernel in fused
            for d in decisions
        )

    def test_fuse_disabled_by_default(self):
        program, _ = build_mulsum()
        instr = Instrumentation()
        for _ in range(200):
            instr.record("mul2", 40e-6, 10e-6)
            instr.record("plus5", 40e-6, 10e-6)
        policy = AdaptivePolicy(ratio_target=0.25, min_instances=10)
        decisions = policy.recommend(program, instr)
        assert not any(isinstance(d, FusionDecision) for d in decisions)


class TestDecisionValidation:
    """GranularityDecision.apply clamps the factor domain so a live
    replan can never feed coarsen a degenerate factor."""

    def _program(self):
        program, _ = build_mulsum()
        return program

    def test_non_power_of_two_rejected(self):
        with pytest.raises(SchedulerError, match="power of two"):
            GranularityDecision("mul2", "x", 3).apply(self._program())

    @pytest.mark.parametrize("factor", [0, -4, 1 << 21])
    def test_out_of_range_rejected(self, factor):
        with pytest.raises(SchedulerError, match="out of range"):
            GranularityDecision("mul2", "x", factor).apply(self._program())

    def test_non_integer_rejected(self):
        with pytest.raises(SchedulerError):
            GranularityDecision("mul2", "x", 2.0).apply(self._program())

    def test_bool_rejected(self):
        with pytest.raises(SchedulerError):
            GranularityDecision("mul2", "x", True).apply(self._program())

    def test_valid_factor_applies_byte_identical(self):
        program, sink = build_mulsum()
        coarse = GranularityDecision("mul2", "x", 4).apply(program)
        run_sink(coarse)
        expected = expected_series(3)
        for age in expected:
            assert np.array_equal(sink[age][1], expected[age][1])

    def test_fusion_decision_applies(self):
        program, _ = build_mulsum()
        fused = FusionDecision("mul2", "plus5").apply(program)
        assert "mul2+plus5" in fused.kernels
