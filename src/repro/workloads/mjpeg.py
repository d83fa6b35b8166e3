"""Motion JPEG encoding as a P2G program (paper figure 8, section VII-B).

Kernel structure follows the paper exactly:

* ``read`` (read + splitYUV): an aged source kernel that reads one YUV
  frame per age and stores its three components to the global fields
  ``y_input``, ``u_input``, ``v_input``.  "The read loop ends when the
  kernel stops storing to the next age, e.g., at the end of the file" —
  at EOF the body emits nothing, so with 50 frames the kernel runs 51
  times but encodes 50 (table II's read/splityuv row).
* ``ydct``/``udct``/``vdct``: one kernel per component, each instance
  fetching a single 8x8 macro-block, applying the DCT and quantization,
  and storing the quantized block to the matching result field.  At CIF
  resolution this yields 1584 luma and 396+396 chroma instances per age
  (the 4:2:0 geometry behind table II's counts; the paper's prose says
  "4:2:2" but its numbers — 396 = 1584/4 — are 4:2:0, which is what we
  implement).
* ``vlc`` (VLC + write): fetches the three whole result fields of an age
  and entropy-codes them into a complete JPEG, appended to the MJPEG
  stream.  Frames may finish out of order under parallel execution; the
  sink keys them by age and reassembles the stream in order.

The produced stream is a real MJPEG file: every frame decodes with
:func:`repro.media.decode_jpeg` and is PSNR-checked in the tests.
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
from ..media.jpeg import (
    encode_from_quantized,
    pad_plane,
    plane_to_blocks,
    qtables_for_quality,
    quantize_plane,
)
from ..media.dct import dct2_blocks
from ..media.quant import quantize
from ..media.stacked import dct_quant_stack
from ..media.yuv import YUVFrame, synthetic_sequence

__all__ = [
    "MJPEGConfig",
    "MJPEGSink",
    "build_mjpeg",
    "build_mjpeg_stream",
    "mjpeg_baseline",
]


@dataclass(frozen=True)
class MJPEGConfig:
    """Parameters of an MJPEG encode run.

    Defaults are the paper's evaluation settings (*Foreman*-like CIF,
    50 frames) except ``dct_method``: the paper used a naive DCT in C;
    in Python the naive quadruple loop is reserved for micro-benchmarks
    and the separable matrix DCT is the practical default.  ``"aan"``
    selects the FastDCT of the paper's reference [2].
    """

    width: int = 352
    height: int = 288
    frames: int = 50
    quality: int = 75
    dct_method: str = "matrix"  # "naive" | "matrix" | "aan"
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.width % 16 or self.height % 16:
            raise ValueError(
                "width/height must be multiples of 16 (4:2:0 MCU size); "
                "use repro.media.pad_plane for arbitrary input"
            )

    @property
    def luma_blocks(self) -> int:
        """Luma macro-blocks per frame (1584 at CIF)."""
        return (self.height // 8) * (self.width // 8)

    @property
    def chroma_blocks(self) -> int:
        """Chroma macro-blocks per component per frame (396 at CIF)."""
        return (self.height // 16) * (self.width // 16)


@dataclass
class MJPEGSink:
    """Collects per-age encoded frames and reassembles the stream.

    Live runs may *degrade* a late age to a frame-freeze instead of
    encoding it (:meth:`mark_frozen`): the stream repeats the previous
    encoded frame at that position, preserving frame timing.  A frozen
    age with no predecessor (nothing encoded yet) is silently dropped.
    With no frozen ages the output is exactly the batch encoder's
    byte stream.
    """

    config: MJPEGConfig
    frames: dict[int, bytes] = dc_field(default_factory=dict)
    frozen: set[int] = dc_field(default_factory=set)

    def mark_frozen(self, age: int) -> None:
        """Record that ``age`` was degraded to a repeat of its
        predecessor (the stream driver's QoS ``degrade`` action)."""
        self.frozen.add(age)

    def _ordered(self) -> list[bytes]:
        out: list[bytes] = []
        prev: bytes | None = None
        for a in sorted(set(self.frames) | self.frozen):
            data = self.frames.get(a, prev)
            if data is None:
                continue  # frozen before any frame was encoded
            out.append(data)
            prev = data
        return out

    def stream(self) -> bytes:
        """Concatenated JPEGs in age order (the MJPEG file), frozen
        ages resolved to their predecessor's bytes."""
        return b"".join(self._ordered())

    def frame_count(self) -> int:
        """Frames the stream will contain (encoded + resolvable
        frozen)."""
        return len(self._ordered())


def build_mjpeg(
    frames: Sequence[YUVFrame] | None = None,
    config: MJPEGConfig = MJPEGConfig(),
) -> tuple[Program, MJPEGSink]:
    """Build the figure-8 MJPEG program.

    ``frames`` defaults to the synthetic sequence of ``config.frames``
    frames.  Run with ``run_program(program, workers)``; termination is
    natural (the read kernel stops storing at end of input).

    The three dct kernels carry a stacked form: batched dispatch
    (``batch > 1``) transforms a whole run of macro-blocks in one NumPy
    call, byte-identical to the scalar body.
    """
    if frames is None:
        frames = synthetic_sequence(
            config.frames, config.width, config.height, config.seed
        )
    frames = list(frames)
    for f in frames:
        if (f.width, f.height) != (config.width, config.height):
            raise ValueError(
                f"frame size {f.width}x{f.height} does not match config "
                f"{config.width}x{config.height}"
            )

    def read_body(ctx: KernelContext) -> None:
        if ctx.age >= len(frames):
            return  # EOF: store nothing, ending the read loop
        f = frames[ctx.age]
        ctx.emit("y_input", f.y)
        ctx.emit("u_input", f.u)
        ctx.emit("v_input", f.v)

    read = KernelDef(
        name="read",
        body=read_body,
        has_age=True,
        stores=(
            StoreSpec("y_input", key="y_input"),
            StoreSpec("u_input", key="u_input"),
            StoreSpec("v_input", key="v_input"),
        ),
    )
    return _encode_program(config, read=read)


def _encode_program(
    config: MJPEGConfig, read: KernelDef | None
) -> tuple[Program, MJPEGSink]:
    """The DCT/quant/VLC pipeline shared by batch and live builds.

    With ``read`` the program is self-driving (figure 8 exactly);
    without it the input fields have no producer kernel and ages are
    created by externally injected stores — the streaming runtime's
    delivery path.
    """
    qy, qc = qtables_for_quality(config.quality)
    sink = MJPEGSink(config)
    method = config.dct_method

    def dct_body_for(qtable: np.ndarray):
        def dct_body(ctx: KernelContext) -> None:
            block = ctx["block"].astype(np.float64) - 128.0
            coeffs = dct2_blocks(block, method=method)
            ctx.emit("out", quantize(coeffs, qtable))

        return dct_body

    def vlc_body(ctx: KernelContext) -> None:
        yq = plane_to_blocks(ctx["y"])
        uq = plane_to_blocks(ctx["u"])
        vq = plane_to_blocks(ctx["v"])
        # Out-of-band: the encoded frame leaves the field model.  The
        # runtime delivers it to the program's output handler in the
        # parent process, so the sink fills identically on both the
        # threads and the processes backend.
        ctx.output(
            "frame",
            encode_from_quantized(
                yq, uq, vq, config.width, config.height, qy, qc
            ),
        )

    luma_shape = (config.height, config.width)
    chroma_shape = (config.height // 2, config.width // 2)
    block_dims = (Dim.of("by", 8), Dim.of("bx", 8))

    def dct_kernel(name: str, src: str, dst: str, qtable) -> KernelDef:
        return KernelDef(
            name=name,
            body=dct_body_for(qtable),
            has_age=True,
            index_vars=("by", "bx"),
            fetches=(FetchSpec("block", src, dims=block_dims),),
            stores=(StoreSpec(dst, dims=block_dims, key="out"),),
            stack=dct_quant_stack(qtable, method),
        )

    vlc = KernelDef(
        name="vlc",
        body=vlc_body,
        has_age=True,
        fetches=(
            FetchSpec("y", "y_result"),
            FetchSpec("u", "u_result"),
            FetchSpec("v", "v_result"),
        ),
    )
    kernels = [
        dct_kernel("ydct", "y_input", "y_result", qy),
        dct_kernel("udct", "u_input", "u_result", qc),
        dct_kernel("vdct", "v_input", "v_result", qc),
        vlc,
    ]
    if read is not None:
        kernels.insert(0, read)
    program = Program.build(
        fields=[
            FieldDef("y_input", "uint8", 2, shape=luma_shape),
            FieldDef("u_input", "uint8", 2, shape=chroma_shape),
            FieldDef("v_input", "uint8", 2, shape=chroma_shape),
            FieldDef("y_result", "int32", 2, shape=luma_shape),
            FieldDef("u_result", "int32", 2, shape=chroma_shape),
            FieldDef("v_result", "int32", 2, shape=chroma_shape),
        ],
        kernels=kernels,
        name="mjpeg",
    )

    def on_output(kernel, age, index, key, value) -> None:
        if key == "frame":
            sink.frames[age] = value

    program.set_output_handler(on_output)
    return program, sink


def _store_yuv_frame(fields, age: int, frame: YUVFrame) -> list:
    """Store one frame's planes into the input fields; returns the
    store events to inject (the :class:`StreamBinding` glue)."""
    from ..core.events import StoreEvent

    events = []
    for name, plane in (
        ("y_input", frame.y),
        ("u_input", frame.u),
        ("v_input", frame.v),
    ):
        region = tuple(slice(0, n) for n in plane.shape)
        fields[name].store(age, region, plane)
        events.append(StoreEvent(name, age, region))
    return events


def build_mjpeg_stream(
    config: MJPEGConfig = MJPEGConfig(),
    stream: "StreamConfig | None" = None,
    source: "FrameSource | None" = None,
):
    """Build the live-encoder variant of the figure-8 MJPEG program.

    The ``read`` kernel is replaced by a
    :class:`~repro.stream.StreamBinding`: frames come from ``source``
    (default: the infinite synthetic camera, frame-for-frame identical
    to the batch clip) and are injected as new ages by the stream
    driver, under the pacing/backpressure/QoS knobs in ``stream``.

    Returns ``(program, sink, binding)``; run with
    ``run_program(program, stream=binding)``.
    """
    from ..stream import StreamBinding, StreamConfig, SyntheticSource

    if stream is None:
        stream = StreamConfig()
    if source is None:
        source = SyntheticSource(config.width, config.height, config.seed)
    program, sink = _encode_program(config, read=None)
    binding = StreamBinding(
        source=source,
        store_frame=_store_yuv_frame,
        completion_key="frame",
        config=stream,
        on_degrade=sink.mark_frozen,
    )
    return program, sink, binding


def mjpeg_baseline(
    frames: Sequence[YUVFrame] | None = None,
    config: MJPEGConfig = MJPEGConfig(),
) -> bytes:
    """The standalone single-threaded MJPEG encoder the paper compares
    against ("the standalone single threaded MJPEG encoder on which the
    P2G version is based"): one sequential pass, same DCT/quant/VLC code
    as the kernels, no framework."""
    if frames is None:
        frames = synthetic_sequence(
            config.frames, config.width, config.height, config.seed
        )
    qy, qc = qtables_for_quality(config.quality)
    out = bytearray()
    for f in frames:
        yq = quantize_plane(pad_plane(f.y, 16), qy, config.dct_method)
        uq = quantize_plane(pad_plane(f.u, 8), qc, config.dct_method)
        vq = quantize_plane(pad_plane(f.v, 8), qc, config.dct_method)
        out += encode_from_quantized(
            yq, uq, vq, f.width, f.height, qy, qc
        )
    return bytes(out)
