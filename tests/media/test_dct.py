"""Unit + property tests for the three DCT implementations.

``TestStackedIdentity`` has no ``max_examples``: the CI property job
re-runs this file under the ``deep`` Hypothesis profile
(``tests/conftest.py``) for ten times the default budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.media import jpeg
from repro.media.dct import (
    aan_dct2,
    dct2_blocks,
    dct_matrix,
    idct2,
    idct2_blocks,
    matrix_dct2,
    naive_dct2,
)
from repro.media.yuv import synthetic_sequence

BLOCKS = hnp.arrays(
    dtype=np.float64,
    shape=(8, 8),
    elements=st.floats(-128, 127, allow_nan=False),
)

M = dct_matrix()
MT = M.T.copy()


def loop_dct2_blocks(blocks, method="matrix"):
    """``dct2_blocks(..., "matrix")`` as a Python loop of one matmul pair
    per block — the reference the stacked call must equal bit for bit."""
    assert method == "matrix"
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim == 2:
        return M @ blocks @ MT
    flat = blocks.reshape(-1, 8, 8)
    out = np.empty_like(flat)
    for i in range(flat.shape[0]):
        out[i] = M @ flat[i] @ MT
    return out.reshape(blocks.shape)


@st.composite
def dct_stacks(draw):
    """``(N, 8, 8)`` or ``(bh, bw, 8, 8)`` stacks, contiguous or strided:
    random values at a drawn scale with arbitrary finite floats planted
    among them, their transposed view, or the ``plane_to_blocks`` view of
    a level-shifted uint8 plane."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["contiguous", "transposed", "plane"]))
    if layout == "plane":
        bh, bw = draw(st.integers(1, 24)), draw(st.integers(1, 24))
        plane = rng.integers(0, 256, (8 * bh, 8 * bw), dtype=np.uint8)
        return jpeg.plane_to_blocks(plane.astype(np.float64) - 128.0)
    if draw(st.booleans()):
        lead = (draw(st.integers(1, 400)),)
    else:
        lead = (draw(st.integers(1, 20)), draw(st.integers(1, 20)))
    scale = draw(st.sampled_from([1.0, 128.0, 1e6, 1e150, 1e300]))
    x = rng.uniform(-scale, scale, lead + (8, 8))
    planted = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False), max_size=32
    ))
    at = rng.choice(x.size, min(len(planted), x.size), replace=False)
    x.flat[at] = planted[: len(at)]
    return x.swapaxes(-1, -2) if layout == "transposed" else x


class TestStackedIdentity:
    """The matrix DCT is one stacked matmul; NumPy runs the same 8x8
    routine on every slice of a stack, so the stack's bits are each
    block's bits alone, and the per-block loop it replaced."""

    @given(dct_stacks())
    @settings(deadline=None)
    def test_stack_equals_each_block_alone(self, x):
        out = dct2_blocks(x, "matrix")
        assert out.shape == x.shape
        assert out.tobytes() == loop_dct2_blocks(x).tobytes()
        for index in np.ndindex(x.shape[:-2]):
            assert out[index].tobytes() == matrix_dct2(x[index]).tobytes()

    def test_cif_frame_encodes_to_the_loop_bytes(self, monkeypatch):
        frame = synthetic_sequence(2, 352, 288, seed=5)[1]
        qy, qc = jpeg.qtables_for_quality(75)

        def encode():
            planes = [
                jpeg.quantize_plane(jpeg.pad_plane(plane, pad), q)
                for plane, pad, q in (
                    (frame.y, 16, qy), (frame.u, 8, qc), (frame.v, 8, qc)
                )
            ]
            return jpeg.encode_from_quantized(*planes, 352, 288, qy, qc)

        stacked = encode()
        calls = []

        def loop(blocks, method="matrix"):
            calls.append(np.shape(blocks))
            return loop_dct2_blocks(blocks, method)

        monkeypatch.setattr(jpeg, "dct2_blocks", loop)
        assert encode() == stacked
        assert calls == [(36, 44, 8, 8), (18, 22, 8, 8), (18, 22, 8, 8)]

    def test_not_8x8_is_a_value_error(self):
        with pytest.raises(ValueError):
            dct2_blocks(np.zeros((16, 8)), "matrix")

    @pytest.mark.parametrize("routine", ["dct_quant", "idct", "downscale",
                                         "transcode_chain"])
    @pytest.mark.parametrize("plane,claim", [("y", 792), ("u", 198)])
    def test_stacked_routines_are_size_invariant(self, routine, plane,
                                                 claim):
        """A claim is one body call, so the stacked codec routines see
        stacks of any size up to a whole CIF claim (792 luma / 198
        chroma blocks on 2 workers): every block gets the same bytes
        in a stack of 1, of 32 and of the whole claim."""
        from repro.core.vectorize import BatchKernelContext
        from repro.media.stacked import (
            box_downscale_stack,
            dct_quant_stack,
            idct_stack,
        )
        from repro.workloads import TranscodeConfig, build_transcode

        rng = np.random.default_rng(36)
        qtable = jpeg.qtables_for_quality(75)[plane != "y"]
        if routine == "dct_quant":
            fn = dct_quant_stack(qtable)
            x = rng.integers(0, 256, (claim, 8, 8), dtype=np.uint8)
        elif routine == "idct":
            fn = idct_stack
            x = rng.integers(-1024, 1024, (claim, 8, 8)).astype(np.int32)
        elif routine == "downscale":
            fn = box_downscale_stack(2)
            x = rng.integers(0, 256, (claim, 16, 16), dtype=np.uint8)
        else:  # idct -> scale -> dct, fused into one batch_body
            kernel = build_transcode(
                TranscodeConfig(width=352, height=288, frames=1)
            ).program.kernels[f"{plane}dct"]
            param = kernel.fetches[0].param
            key = kernel.stores[0].emit_key

            def fn(stack):
                bctx = BatchKernelContext(
                    0, np.zeros((len(stack), 2), np.intp), {param: stack},
                    index_vars=kernel.index_vars,
                )
                kernel.batch_body(bctx)
                return np.asarray(bctx.emitted[key])

            x = rng.integers(-64, 64, (claim, 16, 16)).astype(np.int32)
            x[:, ::8, ::8] = rng.integers(-1024, 1024, (claim, 2, 2))

        whole = fn(x)
        assert len(whole) == claim
        for size in (1, 32):
            parts = np.concatenate([
                fn(x[lo:lo + size]) for lo in range(0, claim, size)
            ])
            assert parts.dtype == whole.dtype
            assert parts.tobytes() == whole.tobytes()


class TestBasisMatrix:
    def test_orthonormal(self):
        m = dct_matrix()
        assert np.allclose(m @ m.T, np.eye(8), atol=1e-12)

    def test_first_row_constant(self):
        m = dct_matrix()
        assert np.allclose(m[0], m[0, 0])


class TestEquivalence:
    @given(BLOCKS)
    @settings(max_examples=25, deadline=None)
    def test_naive_equals_matrix(self, block):
        assert np.allclose(naive_dct2(block), matrix_dct2(block), atol=1e-9)

    @given(BLOCKS)
    @settings(max_examples=25, deadline=None)
    def test_aan_equals_matrix(self, block):
        assert np.allclose(aan_dct2(block), matrix_dct2(block), atol=1e-5)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        batch = rng.uniform(-128, 127, (6, 8, 8))
        out = dct2_blocks(batch, "matrix")
        for i in range(6):
            assert np.array_equal(out[i], matrix_dct2(batch[i]))

    def test_methods_dispatch(self):
        rng = np.random.default_rng(1)
        b = rng.uniform(-10, 10, (2, 8, 8))
        for method in ("naive", "matrix", "aan"):
            out = dct2_blocks(b, method)
            assert out.shape == (2, 8, 8)
        with pytest.raises(ValueError):
            dct2_blocks(b, "fft")


class TestRoundTrip:
    @given(BLOCKS)
    @settings(max_examples=25, deadline=None)
    def test_idct_inverts_dct(self, block):
        assert np.allclose(idct2(matrix_dct2(block)), block, atol=1e-9)

    def test_idct_blocks_batch(self):
        rng = np.random.default_rng(2)
        batch = rng.uniform(-128, 127, (3, 4, 8, 8))
        coeffs = dct2_blocks(batch)
        assert np.allclose(idct2_blocks(coeffs), batch, atol=1e-9)


class TestDCTProperties:
    def test_constant_block_concentrates_in_dc(self):
        block = np.full((8, 8), 100.0)
        coeffs = matrix_dct2(block)
        assert coeffs[0, 0] == pytest.approx(800.0)  # 8 * mean
        coeffs[0, 0] = 0
        assert np.allclose(coeffs, 0, atol=1e-10)

    @given(BLOCKS, BLOCKS)
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, a, b):
        lhs = matrix_dct2(a + b)
        rhs = matrix_dct2(a) + matrix_dct2(b)
        assert np.allclose(lhs, rhs, atol=1e-9)

    @given(BLOCKS)
    @settings(max_examples=20, deadline=None)
    def test_parseval_energy_preserved(self, block):
        assert np.sum(block**2) == pytest.approx(
            np.sum(matrix_dct2(block) ** 2), rel=1e-9, abs=1e-6
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            naive_dct2(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            aan_dct2(np.zeros((8, 4)))
        with pytest.raises(ValueError):
            idct2_blocks(np.zeros((2, 8, 4)))
