"""Multi-camera mosaic: N live cameras → one composited stream.

The first operator-algebra scenario (ISSUE 10): ``cams`` synthetic
cameras each feed a per-plane box-downscale map, and a lockstep
:func:`repro.ops.merge` stitches the scaled tiles into a ``grid x grid``
mosaic the size of one input frame (both with a stacked form).  The
sink emits one :class:`~repro.media.YUVFrame` per age.

Batch and live compilations share the same graph; live mode zips the N
cameras through one :class:`~repro.stream.MultiSource`, so a mosaic
session is exactly the "multi-source session" shape the tentpole asks
the stream layer to serve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import ops
from ..media.stacked import box_downscale_stack
from ..media.yuv import (
    YUVFrame,
    box_downscale,
    synthetic_sequence,
)

__all__ = [
    "MosaicConfig",
    "assemble_grid",
    "build_mosaic",
    "build_mosaic_stream",
    "mosaic_baseline",
]


@dataclass(frozen=True)
class MosaicConfig:
    """Geometry of the mosaic scenario.

    ``cams`` must be a perfect square (the grid); every camera is
    ``width x height`` and the mosaic is too — each tile is the camera
    frame box-downscaled by the grid size.
    """

    cams: int = 4
    width: int = 64
    height: int = 64
    frames: int = 8
    seed: int = 1234

    @property
    def grid(self) -> int:
        g = math.isqrt(self.cams)
        if g * g != self.cams:
            raise ValueError(
                f"cams must be a perfect square, got {self.cams}"
            )
        return g

    def validate(self) -> None:
        g = self.grid
        if self.width % (16 * g) or self.height % (16 * g):
            raise ValueError(
                f"width/height must be multiples of {16 * g} "
                f"(8-pixel blocks after /{g} downscale, 4:2:0 chroma)"
            )


def assemble_grid(tiles: Sequence[np.ndarray], grid: int) -> np.ndarray:
    """Stitch ``grid*grid`` equally-sized tiles (row-major) into one
    plane in two concatenate passes (the composite's scalar body and
    its stacked form both call it)."""
    rows = [
        np.concatenate(tiles[r * grid : (r + 1) * grid], axis=-1)
        for r in range(grid)
    ]
    return np.concatenate(rows, axis=-2)


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------
_PLANES = ("y", "u", "v")


def _plane_shapes(width: int, height: int):
    return {
        "y": (height, width),
        "u": (height // 2, width // 2),
        "v": (height // 2, width // 2),
    }


def _scale_body(grid: int, plane: str):
    def body(ctx) -> None:
        ctx.emit(plane, box_downscale(ctx.fetched[plane], grid))

    return body


def _composite_bodies(layout: dict[str, list[str]], grid: int):
    """The composite's scalar body and its stacked form.  ``layout``
    maps each out plane to its tile fetch params, row-major; the tiles
    are whole-field, so a stack sees them shared and emits the one
    assembled plane once per instance (the composite runs one instance
    per age: the stacked form keeps it on the batched dispatch path)."""

    def body(ctx) -> None:
        for plane, tile_params in layout.items():
            tiles = [ctx.fetched[p] for p in tile_params]
            ctx.emit(plane, assemble_grid(tiles, grid))

    def batch_body(bctx) -> None:
        for plane, tile_params in layout.items():
            tiles = [bctx.fetched[p] for p in tile_params]
            bctx.emit(
                plane, np.stack([assemble_grid(tiles, grid)] * len(bctx))
            )

    return body, batch_body


def _build_graph(config: MosaicConfig, sources) -> ops.Handle:
    g = config.grid
    shapes = _plane_shapes(config.width, config.height)
    tile_shapes = {
        p: (h // g, w // g) for p, (h, w) in shapes.items()
    }
    scaled: dict[str, list[ops.Handle]] = {p: [] for p in _PLANES}
    for i, cam in enumerate(sources):
        for plane in _PLANES:
            # Fetch 2g·8-wide stripes, store 8x8 tiles: one instance
            # per output macro-block, the vectorizer's unit of work.
            block = 8 * g
            h = cam[plane].block(block, block).map(
                f"scale{i}_{plane}",
                _scale_body(g, plane),
                out={plane: ("uint8", tile_shapes[plane])},
                out_block={plane: (8, 8)},
                stack=box_downscale_stack(g),
            )
            scaled[plane].append(h)
    layout = {
        plane: [f"scale{i}_{plane}.{plane}" for i in range(config.cams)]
        for plane in _PLANES
    }
    body, batch_body = _composite_bodies(layout, g)
    composite = ops.merge(
        "composite",
        [scaled[p][i] for p in _PLANES for i in range(config.cams)],
        body,
        out={p: ("uint8", shapes[p]) for p in _PLANES},
        batch_body=batch_body,
    )
    return ops.sink(
        "mosaic",
        [composite],
        fn=lambda age, v: YUVFrame(v["y"], v["u"], v["v"]),
        key="frame",
    )


def build_mosaic(
    config: MosaicConfig = MosaicConfig(),
) -> ops.CompiledPipeline:
    """Batch mosaic: each camera's clip is the deterministic synthetic
    sequence at ``seed + cam``; the sink collects the composited
    :class:`~repro.media.YUVFrame` per age."""
    config.validate()
    sources = []
    for i in range(config.cams):
        clip = synthetic_sequence(
            config.frames, config.width, config.height, config.seed + i
        )
        sources.append(
            ops.source(
                f"cam{i}",
                {
                    p: ("uint8", s)
                    for p, s in _plane_shapes(
                        config.width, config.height
                    ).items()
                },
                frames=[
                    {"y": f.y, "u": f.u, "v": f.v} for f in clip
                ],
            )
        )
    done = _build_graph(config, sources)
    return ops.compile_ops(done, name="ops_mosaic")


def build_mosaic_stream(
    config: MosaicConfig = MosaicConfig(),
    stream=None,
    sources=None,
) -> ops.CompiledPipeline:
    """Live mosaic: N cameras zipped through one
    :class:`~repro.stream.MultiSource`.

    ``sources`` overrides the per-camera
    :class:`~repro.stream.FrameSource` list (e.g. ``FileLoopSource``
    clips via the CLI's ``--source-glob``); default is one
    :class:`~repro.stream.SyntheticSource` per camera at ``seed + i``.
    """
    from ..stream.sources import SyntheticSource

    config.validate()
    if sources is None:
        sources = [
            SyntheticSource(config.width, config.height, config.seed + i)
            for i in range(config.cams)
        ]
    if len(sources) != config.cams:
        raise ValueError(
            f"need {config.cams} sources, got {len(sources)}"
        )
    handles = [
        ops.source(
            f"cam{i}",
            {
                p: ("uint8", s)
                for p, s in _plane_shapes(
                    config.width, config.height
                ).items()
            },
            live=src,
        )
        for i, src in enumerate(sources)
    ]
    done = _build_graph(config, handles)
    return ops.compile_ops(
        done, name="ops_mosaic", mode="live", stream=stream
    )


# ----------------------------------------------------------------------
# Reference implementation
# ----------------------------------------------------------------------
def mosaic_baseline(
    config: MosaicConfig = MosaicConfig(),
) -> list[YUVFrame]:
    """Pure-NumPy mosaic: the byte-identity oracle for every backend."""
    config.validate()
    g = config.grid
    clips = [
        synthetic_sequence(
            config.frames, config.width, config.height, config.seed + i
        )
        for i in range(config.cams)
    ]
    out = []
    for t in range(config.frames):
        planes = {}
        for plane in _PLANES:
            tiles = [
                box_downscale(getattr(clips[i][t], plane), g)
                for i in range(config.cams)
            ]
            planes[plane] = assemble_grid(tiles, g)
        out.append(YUVFrame(planes["y"], planes["u"], planes["v"]))
    return out
