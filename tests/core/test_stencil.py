"""Tests for stencil (offset) fetches — clamped neighbour access."""

import numpy as np
import pytest

from repro.core import (
    AgeExpr,
    DefinitionError,
    Dim,
    FetchSpec,
    FieldDef,
    KernelDef,
    Program,
    StoreSpec,
    run_program,
)


class TestDimOffset:
    def test_region_shifts(self):
        d = Dim.of("x", offset=1)
        assert d.region(2, 10) == slice(3, 4)

    def test_negative_offset_clamps_at_zero(self):
        d = Dim.of("x", offset=-1)
        assert d.region(0, 10) == slice(0, 1)  # edge replication
        assert d.region(3, 10) == slice(2, 3)

    def test_positive_offset_clamps_at_extent(self):
        d = Dim.of("x", offset=1)
        assert d.region(9, 10) == slice(9, 10)

    def test_count_unchanged_by_offset(self):
        assert Dim.of("x", offset=-2).count(10) == 10

    def test_block_with_offset(self):
        d = Dim.of("x", block=4, offset=-1)
        assert d.region(1, 16) == slice(3, 7)
        assert d.region(0, 16) == slice(0, 4)  # clamped, full width

    def test_candidates_cover_shifted_consumers(self):
        d = Dim.of("x", offset=-1)
        # a store of element 5 can satisfy the x=6 instance (fetch [x-1])
        assert 6 in d.candidates(slice(5, 6), 10)

    def test_str(self):
        assert str(Dim.of("x", offset=-1)) == "x-1"
        assert str(Dim.of("x", block=8, offset=2)) == "x+2:8"


class TestStencilValidation:
    def test_store_offset_rejected(self):
        with pytest.raises(DefinitionError, match="fetch-only"):
            KernelDef(
                "k", lambda ctx: None, has_age=True, index_vars=("x",),
                fetches=(FetchSpec("v", "f", dims=(Dim.of("x"),),
                                   scalar=True),),
                stores=(StoreSpec("g", dims=(Dim.of("x", offset=1),)),),
            )


def build_blur_program(n: int, ages: int):
    """1-d [1 2 1]/4 blur iterated over ages via stencil fetches."""
    signal0 = np.zeros(n, dtype=np.int64)
    signal0[n // 2] = 1024  # impulse

    def seed_body(ctx):
        ctx.emit("signal", signal0)

    def blur_body(ctx):
        ctx.emit(
            "out",
            (ctx["left"] + 2 * ctx["mid"] + ctx["right"]) // 4,
        )

    return Program.build(
        fields=[FieldDef("signal", "int64", 1, shape=(n,))],
        kernels=[
            KernelDef("seed", seed_body,
                      stores=(StoreSpec("signal", AgeExpr.const(0)),)),
            KernelDef(
                "blur", blur_body, has_age=True, index_vars=("x",),
                fetches=(
                    FetchSpec("left", "signal",
                              dims=(Dim.of("x", offset=-1),), scalar=True),
                    FetchSpec("mid", "signal",
                              dims=(Dim.of("x"),), scalar=True),
                    FetchSpec("right", "signal",
                              dims=(Dim.of("x", offset=1),), scalar=True),
                ),
                stores=(StoreSpec("signal", AgeExpr.var(1),
                                  dims=(Dim.of("x"),), key="out"),),
                age_limit=ages - 1,
            ),
        ],
        name="blur",
    )


def reference_blur(n: int, ages: int) -> np.ndarray:
    v = np.zeros(n, dtype=np.int64)
    v[n // 2] = 1024
    for _ in range(ages):
        padded = np.concatenate([[v[0]], v, [v[-1]]])  # edge clamp
        v = (padded[:-2] + 2 * padded[1:-1] + padded[2:]) // 4
    return v


class TestStencilExecution:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_blur_matches_reference(self, workers):
        n, ages = 16, 5
        program = build_blur_program(n, ages)
        result = run_program(program, workers=workers, timeout=60)
        assert result.reason == "idle"
        got = result.fields["signal"].fetch(ages)
        assert np.array_equal(got, reference_blur(n, ages))

    def test_instance_counts(self):
        n, ages = 12, 3
        program = build_blur_program(n, ages)
        result = run_program(program, workers=2, timeout=60)
        assert result.stats["blur"].instances == n * ages

    def test_mass_preserved_odd_boundaries(self):
        """Edge clamping conserves nothing exactly, but the impulse must
        spread symmetrically while centred."""
        n, ages = 32, 4
        program = build_blur_program(n, ages)
        result = run_program(program, workers=3, timeout=60)
        v = result.fields["signal"].fetch(ages)
        centre = n // 2
        for k in range(1, ages + 1):
            assert v[centre - k] == v[centre + k]  # symmetric spread
        assert v[centre] == v.max()
