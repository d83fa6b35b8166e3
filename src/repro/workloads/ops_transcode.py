"""MJPEG transcode: decode → downscale → re-encode, as an operator chain.

The third operator-algebra scenario (ISSUE 10), reusing the ``media/``
codec and the decode stages of ``workloads/mjpeg_decode.py``:

``jin`` (JPEG bytes) → ``vld`` (serial entropy decode + dequantize, the
hand-off point of :func:`repro.media.decode_to_coefficients`) →
per-plane ``*idct`` block maps → per-plane ``*scale`` box-downscale
maps → per-plane ``*dct`` block maps (the MJPEG encoder's own stacked
form, :mod:`repro.media.stacked`) → ``vlc`` sink assembling the output
JFIF bytes via :func:`repro.media.encode_from_quantized`.

JPEG byte strings are variable length, and fields are fixed-shape: the
``jin.jpg`` field is a length-prefixed, zero-padded ``uint8`` vector
(:func:`pack_bytes` / :func:`unpack_bytes`), sized for the worst case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import ops
from ..media.dct import dct2_blocks, idct2_blocks
from ..media.jpeg import (
    blocks_to_plane,
    decode_to_coefficients,
    encode_from_quantized,
    encode_jpeg,
    plane_to_blocks,
    qtables_for_quality,
)
from ..media.quant import dequantize, quantize
from ..media.stacked import box_downscale_stack, dct_quant_stack, idct_stack
from ..media.yuv import box_downscale, synthetic_sequence

__all__ = [
    "TranscodeConfig",
    "build_transcode",
    "build_transcode_stream",
    "make_input_jpegs",
    "pack_bytes",
    "transcode_baseline",
    "unpack_bytes",
]


@dataclass(frozen=True)
class TranscodeConfig:
    """Geometry and quality knobs of the transcode scenario."""

    width: int = 64
    height: int = 64
    frames: int = 6
    quality_in: int = 80
    quality_out: int = 60
    factor: int = 2
    seed: int = 1234

    @property
    def out_size(self) -> tuple[int, int]:
        """(width, height) of the re-encoded stream."""
        return (self.width // self.factor, self.height // self.factor)

    @property
    def capacity(self) -> int:
        """The ``jin.jpg`` field length: worst-case JPEG + prefix."""
        return self.width * self.height * 3 + 4096

    def validate(self) -> None:
        f = self.factor
        if f < 1:
            raise ValueError(f"factor must be >= 1, got {f}")
        if self.width % (16 * f) or self.height % (16 * f):
            raise ValueError(
                f"width/height must be multiples of {16 * f} "
                f"(4:2:0 macro-blocks after /{f} downscale)"
            )


def pack_bytes(data: bytes, capacity: int) -> np.ndarray:
    """Length-prefix and zero-pad ``data`` into a ``(capacity,)`` uint8
    vector (4-byte big-endian length, then the payload)."""
    n = len(data)
    if n + 4 > capacity:
        raise ValueError(
            f"payload of {n} bytes exceeds field capacity {capacity}"
        )
    out = np.zeros(capacity, dtype=np.uint8)
    out[:4] = np.frombuffer(n.to_bytes(4, "big"), dtype=np.uint8)
    out[4 : 4 + n] = np.frombuffer(data, dtype=np.uint8)
    return out


def unpack_bytes(arr: np.ndarray) -> bytes:
    """Inverse of :func:`pack_bytes`."""
    n = int.from_bytes(bytes(arr[:4]), "big")
    return bytes(arr[4 : 4 + n])


def make_input_jpegs(config: TranscodeConfig) -> list[bytes]:
    """The input clip: synthetic frames encoded at ``quality_in``."""
    clip = synthetic_sequence(
        config.frames, config.width, config.height, config.seed
    )
    return [encode_jpeg(f, config.quality_in) for f in clip]


# ----------------------------------------------------------------------
# Kernel bodies
# ----------------------------------------------------------------------
_COMPONENTS = ("y", "u", "v")


def _vld_body():
    def body(ctx) -> None:
        dec = decode_to_coefficients(bytes(unpack_bytes(ctx.fetched["jpg"])))
        for port, comp in (("yc", 0), ("uc", 1), ("vc", 2)):
            grid = dec.grids[comp]
            qtable = dec.qtables[dec.qtable_ids[comp]]
            plane = blocks_to_plane(dequantize(grid, qtable))
            ctx.emit(port, plane.astype(np.int32))

    return body


def _idct_body(param: str, out_port: str):
    def body(ctx) -> None:
        # The (1, 8, 8) view routes the scalar path through the same
        # stacked idct2_blocks matmul idct_stack uses.
        pixels = idct2_blocks(ctx.fetched[param][None])[0] + 128.0
        ctx.emit(
            out_port,
            np.clip(np.rint(pixels), 0, 255).astype(np.uint8),
        )

    return body


def _scale_body(param: str, out_port: str, factor: int):
    def body(ctx) -> None:
        ctx.emit(out_port, box_downscale(ctx.fetched[param], factor))

    return body


def _dct_body(param: str, out_port: str, qtable: np.ndarray):
    def body(ctx) -> None:
        coeffs = dct2_blocks(
            ctx.fetched[param].astype(np.float64) - 128.0,
            method="matrix",
        )
        ctx.emit(out_port, quantize(coeffs, qtable))

    return body


def _build_graph(config: TranscodeConfig, jin: ops.Handle) -> ops.Handle:
    f = config.factor
    ow, oh = config.out_size
    qy, qc = qtables_for_quality(config.quality_out)
    plane_shapes = {
        "y": (config.height, config.width),
        "u": (config.height // 2, config.width // 2),
        "v": (config.height // 2, config.width // 2),
    }
    out_shapes = {
        "y": (oh, ow),
        "u": (oh // 2, ow // 2),
        "v": (oh // 2, ow // 2),
    }
    vld = jin["jpg"].map(
        "vld",
        _vld_body(),
        out={
            "yc": ("int32", plane_shapes["y"]),
            "uc": ("int32", plane_shapes["u"]),
            "vc": ("int32", plane_shapes["v"]),
        },
    )
    quantized = []
    for comp in _COMPONENTS:
        coeff_port = f"{comp}c"
        pixels = vld[coeff_port].block(8, 8).map(
            f"{comp}idct",
            _idct_body(coeff_port, comp),
            out={comp: ("uint8", plane_shapes[comp])},
            out_block={comp: (8, 8)},
            stack=idct_stack,
        )
        scaled = pixels[comp].block(8 * f, 8 * f).map(
            f"{comp}scale",
            _scale_body(comp, comp, f),
            out={comp: ("uint8", out_shapes[comp])},
            out_block={comp: (8, 8)},
            stack=box_downscale_stack(f),
        )
        qtable = qy if comp == "y" else qc
        quantized.append(
            scaled[comp].block(8, 8).map(
                f"{comp}dct",
                _dct_body(comp, "q", qtable),
                out={"q": ("int32", out_shapes[comp])},
                out_block={"q": (8, 8)},
                stack=dct_quant_stack(qtable),
            )
        )

    def vlc_fn(age, values):
        yq = plane_to_blocks(values["ydct.q"])
        uq = plane_to_blocks(values["udct.q"])
        vq = plane_to_blocks(values["vdct.q"])
        return encode_from_quantized(yq, uq, vq, ow, oh, qy, qc)

    return ops.sink("vlc", quantized, fn=vlc_fn, key="frame")


def _jin_source(config: TranscodeConfig, **kwargs) -> ops.Handle:
    return ops.source(
        "jin", {"jpg": ("uint8", (config.capacity,))}, **kwargs
    )


def build_transcode(
    config: TranscodeConfig = TranscodeConfig(),
    jpegs: Sequence[bytes] | None = None,
) -> ops.CompiledPipeline:
    """Batch transcode of ``jpegs`` (default: the synthetic input clip)."""
    config.validate()
    if jpegs is None:
        jpegs = make_input_jpegs(config)
    jin = _jin_source(
        config,
        frames=[
            {"jpg": pack_bytes(j, config.capacity)} for j in jpegs
        ],
    )
    return ops.compile_ops(_build_graph(config, jin), name="ops_transcode")


def build_transcode_stream(
    config: TranscodeConfig = TranscodeConfig(),
    stream=None,
    source=None,
) -> ops.CompiledPipeline:
    """Live transcode; ``source`` is a
    :class:`~repro.stream.FrameSource` of JPEG byte strings (default: a
    :class:`~repro.stream.CycleSource` looping the synthetic clip)."""
    from ..stream.sources import CycleSource

    config.validate()
    if source is None:
        source = CycleSource(make_input_jpegs(config))
    cap = config.capacity

    def adapter(frame):
        data = frame if isinstance(frame, bytes) else bytes(frame)
        return {"jpg": pack_bytes(data, cap)}

    jin = _jin_source(config, live=source, adapter=adapter)
    return ops.compile_ops(
        _build_graph(config, jin),
        name="ops_transcode",
        mode="live",
        stream=stream,
    )


# ----------------------------------------------------------------------
# Reference implementation
# ----------------------------------------------------------------------
def transcode_baseline(
    config: TranscodeConfig = TranscodeConfig(),
    jpegs: Sequence[bytes] | None = None,
) -> list[bytes]:
    """Sequential transcode through the same codec calls: the
    byte-identity oracle for every backend."""
    config.validate()
    if jpegs is None:
        jpegs = make_input_jpegs(config)
    f = config.factor
    ow, oh = config.out_size
    qy, qc = qtables_for_quality(config.quality_out)
    out = []
    for data in jpegs:
        dec = decode_to_coefficients(data)
        planes = []
        for comp in range(3):
            grid = dec.grids[comp]
            qtable = dec.qtables[dec.qtable_ids[comp]]
            coeff = blocks_to_plane(dequantize(grid, qtable)).astype(
                np.int32
            )
            blocks = plane_to_blocks(coeff).reshape(-1, 8, 8)
            pixels = idct2_blocks(blocks) + 128.0
            pixels = np.clip(np.rint(pixels), 0, 255).astype(np.uint8)
            bh, bw = coeff.shape[0] // 8, coeff.shape[1] // 8
            plane = blocks_to_plane(pixels.reshape(bh, bw, 8, 8))
            planes.append(box_downscale(plane, f))
        grids = []
        for comp, plane in enumerate(planes):
            qtable = qy if comp == 0 else qc
            coeffs = dct2_blocks(
                plane_to_blocks(plane.astype(np.float64) - 128.0),
                method="matrix",
            )
            grids.append(quantize(coeffs, qtable))
        out.append(
            encode_from_quantized(
                grids[0], grids[1], grids[2], ow, oh, qy, qc
            )
        )
    return out
