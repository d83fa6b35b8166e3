"""8x8 forward and inverse DCT implementations.

The JPEG standard's two-dimensional DCT-II of an 8x8 block ``f`` is::

    F[u,v] = 1/4 C(u) C(v) sum_x sum_y f[x,y]
             cos((2x+1)u*pi/16) cos((2y+1)v*pi/16),   C(0)=1/sqrt(2), else 1

Three forward implementations are provided, all numerically equivalent:

* :func:`naive_dct2` — the quadruple loop straight off the formula.  The
  paper's prototype deliberately uses a naive DCT ("there are versions of
  DCT that can significantly improve performance, such as FastDCT [2]"),
  so this is the reference kernel for the MJPEG workload.
* :func:`matrix_dct2` — the separable form ``M f M^T`` (one matmul pair).
* :func:`aan_dct2` — the Arai–Agui–Nakajima fast DCT of the paper's
  reference [2] (5 multiplies / 29 adds per 1-D transform), vectorized
  over batches of blocks; this is the "FastDCT" ablation.

The inverse (:func:`idct2`) uses the separable form and is exercised by
the JPEG decoder and the property tests (round-trip within float
tolerance).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "dct_matrix",
    "naive_dct2",
    "matrix_dct2",
    "aan_dct2",
    "dct2_blocks",
    "idct2",
    "idct2_blocks",
    "AAN_SCALE",
]


def dct_matrix() -> np.ndarray:
    """The 8x8 orthonormal DCT-II basis matrix ``M`` with
    ``M[u,x] = 1/2 C(u) cos((2x+1)u*pi/16)`` so that ``F = M f M^T``."""
    m = np.zeros((8, 8), dtype=np.float64)
    for u in range(8):
        c = math.sqrt(0.5) if u == 0 else 1.0
        for x in range(8):
            m[u, x] = 0.5 * c * math.cos((2 * x + 1) * u * math.pi / 16.0)
    return m


_M = dct_matrix()
_MT = _M.T.copy()

#: AAN post-scale factors: true coefficient = raw AAN output divided by
#: ``8 * AAN_SCALE[u] * AAN_SCALE[v]`` (libjpeg folds this into the
#: quantization table; we apply it explicitly so all DCTs agree).
AAN_SCALE = np.array(
    [
        1.0,
        1.387039845,
        1.306562965,
        1.175875602,
        1.0,
        0.785694958,
        0.541196100,
        0.275899379,
    ]
)
_AAN_DESCALE = 1.0 / (8.0 * np.outer(AAN_SCALE, AAN_SCALE))


def naive_dct2(block: np.ndarray) -> np.ndarray:
    """Textbook O(N^4) 2-D DCT of one 8x8 block (the paper's kernel)."""
    block = np.asarray(block, dtype=np.float64)
    if block.shape != (8, 8):
        raise ValueError(f"expected an 8x8 block, got {block.shape}")
    out = np.zeros((8, 8), dtype=np.float64)
    for u in range(8):
        cu = math.sqrt(0.5) if u == 0 else 1.0
        for v in range(8):
            cv = math.sqrt(0.5) if v == 0 else 1.0
            acc = 0.0
            for x in range(8):
                cx = math.cos((2 * x + 1) * u * math.pi / 16.0)
                for y in range(8):
                    acc += (
                        block[x, y]
                        * cx
                        * math.cos((2 * y + 1) * v * math.pi / 16.0)
                    )
            out[u, v] = 0.25 * cu * cv * acc
    return out


def matrix_dct2(block: np.ndarray) -> np.ndarray:
    """Separable-matrix 2-D DCT: ``M f M^T``."""
    block = np.asarray(block, dtype=np.float64)
    return _M @ block @ _MT


def _aan_1d(d: np.ndarray, axis: int) -> np.ndarray:
    """One AAN butterfly pass along ``axis`` of a (..., 8, 8) batch."""
    d = np.moveaxis(d, axis, -1)
    d0, d1, d2, d3, d4, d5, d6, d7 = (d[..., i] for i in range(8))

    tmp0 = d0 + d7
    tmp7 = d0 - d7
    tmp1 = d1 + d6
    tmp6 = d1 - d6
    tmp2 = d2 + d5
    tmp5 = d2 - d5
    tmp3 = d3 + d4
    tmp4 = d3 - d4

    tmp10 = tmp0 + tmp3
    tmp13 = tmp0 - tmp3
    tmp11 = tmp1 + tmp2
    tmp12 = tmp1 - tmp2

    out = np.empty_like(d)
    out[..., 0] = tmp10 + tmp11
    out[..., 4] = tmp10 - tmp11

    z1 = (tmp12 + tmp13) * 0.707106781
    out[..., 2] = tmp13 + z1
    out[..., 6] = tmp13 - z1

    tmp10 = tmp4 + tmp5
    tmp11 = tmp5 + tmp6
    tmp12 = tmp6 + tmp7

    z5 = (tmp10 - tmp12) * 0.382683433
    z2 = 0.541196100 * tmp10 + z5
    z4 = 1.306562965 * tmp12 + z5
    z3 = tmp11 * 0.707106781

    z11 = tmp7 + z3
    z13 = tmp7 - z3

    out[..., 5] = z13 + z2
    out[..., 3] = z13 - z2
    out[..., 1] = z11 + z4
    out[..., 7] = z11 - z4
    return np.moveaxis(out, -1, axis)


def aan_dct2(blocks: np.ndarray) -> np.ndarray:
    """AAN fast 2-D DCT of one block or a batch ``(..., 8, 8)``.

    Matches :func:`matrix_dct2` to float precision after the explicit
    descale (libjpeg instead folds the descale into quantization).
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.shape[-2:] != (8, 8):
        raise ValueError(f"expected (..., 8, 8), got {blocks.shape}")
    out = _aan_1d(blocks, axis=-1)
    out = _aan_1d(out, axis=-2)
    return out * _AAN_DESCALE


def dct2_blocks(blocks: np.ndarray, method: str = "matrix") -> np.ndarray:
    """Forward DCT of a batch ``(..., 8, 8)`` with a selectable method
    (``"naive"``, ``"matrix"``, ``"aan"``)."""
    blocks = np.asarray(blocks, dtype=np.float64)
    if method == "matrix":
        # One stacked matmul chain: NumPy's matmul runs the same 8x8
        # routine on every slice of a stack, so each block's coefficients
        # are bit for bit what matrix_dct2 gives it alone, whatever the
        # stack's size or strides — a kernel transforming one macro-block
        # and the baseline transforming a plane view quantize alike.
        # tests/media/test_dct.py::TestStackedIdentity holds this.
        if blocks.shape[-2:] != (8, 8):
            raise ValueError(f"expected (..., 8, 8), got {blocks.shape}")
        return _M @ blocks @ _MT
    if method == "aan":
        return aan_dct2(blocks)
    if method == "naive":
        flat = blocks.reshape(-1, 8, 8)
        out = np.stack([naive_dct2(b) for b in flat])
        return out.reshape(blocks.shape)
    raise ValueError(f"unknown DCT method {method!r}")


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT of one 8x8 coefficient block: ``M^T F M``."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return _MT @ coeffs @ _M


def idct2_blocks(coeffs: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT of a batch ``(..., 8, 8)``."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[-2:] != (8, 8):
        raise ValueError(f"expected (..., 8, 8), got {coeffs.shape}")
    return _MT @ (coeffs @ _M)
