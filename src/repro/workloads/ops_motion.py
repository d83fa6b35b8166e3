"""Windowed per-region motion statistics over a live source.

The second operator-algebra scenario (ISSUE 10): a camera's luma plane
is diced into ``region x region`` tiles; a ``window(2)`` map computes
each tile's SAD/SSD against the *next* frame (with a stacked form over
a run of tiles), and a ``keyed_partition`` folds the regions
into ``slots`` deterministic hash zones (think per-zone alarms).  The
sink emits ``{"m": (RY, RX, 2), "z": (slots, 2)}`` int64 stats per
output age — one age *fewer* than input frames, the forward-window age
semantics (output age ``a`` compares frames ``a`` and ``a+1``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import ops
from ..media.yuv import synthetic_sequence

__all__ = [
    "MotionConfig",
    "build_motion",
    "build_motion_stream",
    "motion_baseline",
    "region_slots",
]


@dataclass(frozen=True)
class MotionConfig:
    """Geometry of the motion-statistics scenario."""

    width: int = 64
    height: int = 64
    frames: int = 8
    region: int = 16
    slots: int = 4
    seed: int = 1234

    @property
    def regions(self) -> tuple[int, int]:
        return (self.height // self.region, self.width // self.region)

    def validate(self) -> None:
        if self.width % self.region or self.height % self.region:
            raise ValueError(
                f"width/height must be multiples of region={self.region}"
            )
        if self.frames < 2:
            raise ValueError("motion stats need at least 2 frames")


def region_slots(config: MotionConfig) -> np.ndarray:
    """Deterministic ``(RY, RX)`` region→slot assignment grid."""
    ry, rx = config.regions
    return np.array(
        [
            [ops.slot_of((r, c), config.slots) for c in range(rx)]
            for r in range(ry)
        ],
        dtype=np.int64,
    )


def _stats_body(ctx) -> None:
    a = ctx.fetched["y@0"].astype(np.int64)
    b = ctx.fetched["y@1"].astype(np.int64)
    d = a - b
    ctx.emit(
        "m",
        np.array([np.abs(d).sum(), (d * d).sum()], dtype=np.int64),
    )


def _stats_batch(bctx) -> None:
    """:func:`_stats_body` over a stack of tile pairs; int64
    accumulation makes the stacked reduction bit-exact."""
    d = bctx["y@0"].astype(np.int64) - bctx["y@1"].astype(np.int64)
    axes = tuple(range(1, d.ndim))
    bctx.emit(
        "m",
        np.stack([np.abs(d).sum(axis=axes), (d * d).sum(axis=axes)], axis=1),
    )


def _zones_body(assign: np.ndarray):
    def body(ctx) -> None:
        m = ctx.fetched["m"]  # (RY, RX, 2)
        mask = assign == ctx.index["slot"]
        ctx.emit("z", m[mask].sum(axis=0, dtype=np.int64))

    return body


def _build_graph(config: MotionConfig, cam: ops.Handle) -> ops.Handle:
    ry, rx = config.regions
    stats = cam["y"].window(2).block(config.region, config.region).map(
        "stats",
        _stats_body,
        out={"m": ("int64", (ry, rx, 2))},
        out_block={"m": (1, 1)},
        batch_body=_stats_batch,
    )
    zones = stats["m"].keyed_partition(
        "zones",
        config.slots,
        _zones_body(region_slots(config)),
        out={"z": ("int64", (2,))},
    )
    return ops.sink(
        "motion",
        [stats, zones],
        fn=lambda age, v: {"m": v["stats.m"], "z": v["zones.z"]},
        key="sample",
    )


def build_motion(
    config: MotionConfig = MotionConfig(),
) -> ops.CompiledPipeline:
    """Batch motion stats over the deterministic synthetic clip."""
    config.validate()
    clip = synthetic_sequence(
        config.frames, config.width, config.height, config.seed
    )
    cam = ops.source(
        "cam",
        {"y": ("uint8", (config.height, config.width))},
        frames=[{"y": f.y} for f in clip],
    )
    done = _build_graph(config, cam)
    return ops.compile_ops(done, name="ops_motion")


def build_motion_stream(
    config: MotionConfig = MotionConfig(),
    stream=None,
    source=None,
) -> ops.CompiledPipeline:
    """Live motion stats; ``source`` overrides the synthetic camera
    (e.g. a ``FileLoopSource`` from the CLI's ``--source``)."""
    from ..stream.sources import SyntheticSource

    config.validate()
    if source is None:
        source = SyntheticSource(config.width, config.height, config.seed)
    cam = ops.source(
        "cam",
        {"y": ("uint8", (config.height, config.width))},
        live=source,
    )
    done = _build_graph(config, cam)
    return ops.compile_ops(
        done, name="ops_motion", mode="live", stream=stream
    )


# ----------------------------------------------------------------------
# Reference implementation
# ----------------------------------------------------------------------
def motion_baseline(
    config: MotionConfig = MotionConfig(),
) -> list[dict]:
    """Pure-NumPy motion stats: the byte-identity oracle."""
    config.validate()
    clip = synthetic_sequence(
        config.frames, config.width, config.height, config.seed
    )
    ry, rx = config.regions
    k = config.region
    assign = region_slots(config)
    out = []
    for t in range(config.frames - 1):
        a = clip[t].y.astype(np.int64)
        b = clip[t + 1].y.astype(np.int64)
        d = (a - b).reshape(ry, k, rx, k)
        m = np.stack(
            [np.abs(d).sum(axis=(1, 3)), (d * d).sum(axis=(1, 3))],
            axis=-1,
        )
        z = np.zeros((config.slots, 2), dtype=np.int64)
        for s in range(config.slots):
            z[s] = m[assign == s].sum(axis=0, dtype=np.int64)
        out.append({"m": m, "z": z})
    return out
