"""Motion JPEG *decoding* as a P2G program.

The reverse of figure 8's encoder pipeline, built from the same
substrate: a serial ``vld`` source kernel entropy-decodes one JPEG per
age into quantized-coefficient fields (variable-length decoding cannot
be split — the bitstream is sequential), then per-macro-block
``yidct``/``uidct``/``vidct`` kernels dequantize and inverse-transform
in parallel, and a ``write`` kernel reassembles the YUV frame.  The
paper's intro motivates exactly this shape of workload (arbitrary
multimedia transformations with per-stage decomposition opportunities
"at different granularities"); the decoder demonstrates that the P2G
model expresses the consumer side as naturally as the producer side.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from ..core import (
    Dim,
    FetchSpec,
    FieldDef,
    KernelContext,
    KernelDef,
    Program,
    StoreSpec,
)
from ..media.dct import idct2_blocks
from ..media.jpeg import blocks_to_plane, decode_to_coefficients
from ..media.quant import dequantize
from ..media.yuv import YUVFrame
from .mjpeg import MJPEGConfig

__all__ = ["MJPEGDecodeSink", "build_mjpeg_decoder"]


@dataclass
class MJPEGDecodeSink:
    """Collects reconstructed frames by age."""

    config: MJPEGConfig
    frames: dict[int, YUVFrame] = dc_field(default_factory=dict)
    qtables: dict[int, np.ndarray] = dc_field(default_factory=dict)


def build_mjpeg_decoder(
    jpegs: Sequence[bytes],
    config: MJPEGConfig = MJPEGConfig(),
) -> tuple[Program, MJPEGDecodeSink]:
    """Build the decoder program for a sequence of JPEG frames.

    All frames must share the configured geometry (our encoder's 4:2:0
    output); the ``vld`` kernel parses each frame's own quantization
    tables, so any baseline quality is accepted.
    """
    jpegs = list(jpegs)
    sink = MJPEGDecodeSink(config)
    luma_shape = (config.height, config.width)
    chroma_shape = (config.height // 2, config.width // 2)

    def vld_body(ctx: KernelContext) -> None:
        if ctx.age >= len(jpegs):
            return  # end of stream
        dec = decode_to_coefficients(jpegs[ctx.age])
        if (dec.width, dec.height) != (config.width, config.height):
            raise ValueError(
                f"frame {ctx.age}: size {dec.width}x{dec.height} does not "
                f"match config {config.width}x{config.height}"
            )
        if dec.sampling != ((2, 2), (1, 1), (1, 1)):
            raise ValueError(
                f"frame {ctx.age}: only 4:2:0 streams are supported"
            )
        sink.qtables.setdefault(0, dec.qtables[dec.qtable_ids[0]])
        sink.qtables.setdefault(1, dec.qtables[dec.qtable_ids[1]])
        # Coefficient planes in block-raster layout; int32 fields.
        ctx.emit("y_coeff", blocks_to_plane(dec.grids[0]))
        ctx.emit("u_coeff", blocks_to_plane(dec.grids[1]))
        ctx.emit("v_coeff", blocks_to_plane(dec.grids[2]))

    def idct_body_for(qtable_id: int):
        def idct_body(ctx: KernelContext) -> None:
            block = ctx["block"].astype(np.float64)
            q = sink.qtables[qtable_id]
            pix = idct2_blocks(dequantize(block, q)) + 128.0
            ctx.emit("out", np.clip(np.round(pix), 0, 255))

        return idct_body

    def write_body(ctx: KernelContext) -> None:
        sink.frames[ctx.age] = YUVFrame(
            ctx["y"].astype(np.uint8),
            ctx["u"].astype(np.uint8),
            ctx["v"].astype(np.uint8),
        )

    block_dims = (Dim.of("by", 8), Dim.of("bx", 8))

    def idct_kernel(name: str, src: str, dst: str, qid: int) -> KernelDef:
        return KernelDef(
            name=name,
            body=idct_body_for(qid),
            has_age=True,
            index_vars=("by", "bx"),
            fetches=(FetchSpec("block", src, dims=block_dims),),
            stores=(StoreSpec(dst, dims=block_dims, key="out"),),
        )

    vld = KernelDef(
        name="vld",
        body=vld_body,
        has_age=True,
        stores=(
            StoreSpec("y_coeff", key="y_coeff"),
            StoreSpec("u_coeff", key="u_coeff"),
            StoreSpec("v_coeff", key="v_coeff"),
        ),
    )
    write = KernelDef(
        name="write",
        body=write_body,
        has_age=True,
        fetches=(
            FetchSpec("y", "y_pixels"),
            FetchSpec("u", "u_pixels"),
            FetchSpec("v", "v_pixels"),
        ),
    )
    program = Program.build(
        fields=[
            FieldDef("y_coeff", "int32", 2, shape=luma_shape),
            FieldDef("u_coeff", "int32", 2, shape=chroma_shape),
            FieldDef("v_coeff", "int32", 2, shape=chroma_shape),
            FieldDef("y_pixels", "uint8", 2, shape=luma_shape),
            FieldDef("u_pixels", "uint8", 2, shape=chroma_shape),
            FieldDef("v_pixels", "uint8", 2, shape=chroma_shape),
        ],
        kernels=[
            vld,
            idct_kernel("yidct", "y_coeff", "y_pixels", 0),
            idct_kernel("uidct", "u_coeff", "u_pixels", 1),
            idct_kernel("vidct", "v_coeff", "v_pixels", 1),
            write,
        ],
        name="mjpeg-decode",
    )
    return program, sink
