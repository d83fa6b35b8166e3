"""Stacked forms of the codec's block routines.

The ``stack -> stack`` array functions (``KernelDef(stack=...)``,
``ops.map(..., stack=...)``) of the native blocks two workloads share —
the MJPEG encoder and the transcode chain, the mosaic and the transcode
chain.  Each takes an ``(N, h, w)`` stack and returns row for row what
the workload's scalar body emits for one block: the routines wrapped
are shape-invariant per block, so the bytes match.  A stack whose block
geometry drifted raises :class:`~repro.core.vectorize.VectorizeFallback`
— the claim re-runs through the scalar body — instead of reshaping
into wrong bytes.
"""

from __future__ import annotations

import numpy as np

from ..core.vectorize import StackFn, VectorizeFallback
from .dct import dct2_blocks, idct2_blocks
from .quant import quantize
from .yuv import box_downscale

__all__ = ["box_downscale_stack", "dct_quant_stack", "idct_stack"]


def dct_quant_stack(qtable: np.ndarray, method: str = "matrix") -> StackFn:
    """Level shift, 2-D DCT, quantize — the MJPEG macro-block pipeline.
    ``dct2_blocks`` gives each block the bits it gives that block alone,
    under every method (one stacked matmul for ``"matrix"``: the same
    routine on every slice, a property ``tests/media/test_dct.py``
    checks), and ``quantize`` is elementwise."""

    def dct_quant(blocks: np.ndarray) -> np.ndarray:
        if blocks.shape[-2:] != (8, 8):
            raise VectorizeFallback
        coeffs = dct2_blocks(
            blocks.astype(np.float64) - 128.0, method=method
        )
        return quantize(coeffs, qtable)

    return dct_quant


def idct_stack(coeffs: np.ndarray) -> np.ndarray:
    """Inverse DCT + level shift of 8x8 coefficient blocks back to uint8
    pixels — the transcode chain's decode stage (its scalar body runs
    the same batched matmul on a ``(1, 8, 8)`` view)."""
    if coeffs.shape[-2:] != (8, 8):
        raise VectorizeFallback
    pixels = idct2_blocks(coeffs) + 128.0
    return np.clip(np.rint(pixels), 0, 255).astype(np.uint8)


def box_downscale_stack(factor: int) -> StackFn:
    """:func:`~repro.media.yuv.box_downscale` by ``factor`` (integer
    arithmetic, identical for ``(h, w)`` and ``(N, h, w)``)."""

    def downscale(blocks: np.ndarray) -> np.ndarray:
        if blocks.shape[-1] % factor or blocks.shape[-2] % factor:
            raise VectorizeFallback
        return box_downscale(blocks, factor)

    return downscale
