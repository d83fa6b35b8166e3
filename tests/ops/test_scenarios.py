"""Byte-identity tests for the three operator-algebra scenarios
(mosaic, motion, transcode) across threads, processes, cluster, and
live-vs-batch compilation."""

import numpy as np
import pytest

from repro.core import run_program
from repro.workloads import (
    MosaicConfig,
    MotionConfig,
    TranscodeConfig,
    build_mosaic,
    build_mosaic_stream,
    build_motion,
    build_motion_stream,
    build_transcode,
    build_transcode_stream,
    mosaic_baseline,
    motion_baseline,
    transcode_baseline,
)
from tests.conftest import scalar_only

MOSAIC = MosaicConfig(cams=4, width=32, height=32, frames=3)
MOTION = MotionConfig(width=32, height=32, frames=4, region=8, slots=3)
TRANSCODE = TranscodeConfig(width=32, height=32, frames=3)


def _mosaic_bytes(frames):
    return [f.tobytes() for f in frames]


class TestMosaic:
    def test_threads_matches_baseline(self):
        pipe = build_mosaic(MOSAIC)
        run_program(pipe.program, workers=4, timeout=120)
        got = pipe.collector().values()
        assert _mosaic_bytes(got) == _mosaic_bytes(
            mosaic_baseline(MOSAIC)
        )

    def test_scalar_matches_vectorized(self):
        pipe = scalar_only(build_mosaic(MOSAIC))
        run_program(pipe.program, workers=2, timeout=120, batch=1)
        assert _mosaic_bytes(pipe.collector().values()) == \
            _mosaic_bytes(mosaic_baseline(MOSAIC))

    def test_processes_matches_baseline(self):
        pipe = build_mosaic(MOSAIC)
        run_program(
            pipe.program, workers=2, timeout=300, backend="processes"
        )
        assert _mosaic_bytes(pipe.collector().values()) == \
            _mosaic_bytes(mosaic_baseline(MOSAIC))

    def test_live_matches_batch(self):
        from repro.media import synthetic_sequence
        from repro.stream import SequenceSource, StreamConfig

        sources = [
            SequenceSource(synthetic_sequence(
                MOSAIC.frames, MOSAIC.width, MOSAIC.height,
                MOSAIC.seed + i,
            ))
            for i in range(MOSAIC.cams)
        ]
        pipe = build_mosaic_stream(
            MOSAIC,
            stream=StreamConfig(fps=0.0, max_frames=MOSAIC.frames),
            sources=sources,
        )
        run_program(
            pipe.program, workers=4, timeout=120, stream=pipe.binding
        )
        assert _mosaic_bytes(pipe.collector().values()) == \
            _mosaic_bytes(mosaic_baseline(MOSAIC))


class TestMotion:
    def test_threads_matches_baseline(self):
        pipe = build_motion(MOTION)
        run_program(pipe.program, workers=4, timeout=120)
        got = pipe.collector().values()
        base = motion_baseline(MOTION)
        assert len(got) == MOTION.frames - 1 == len(base)
        for g, b in zip(got, base):
            np.testing.assert_array_equal(g["m"], b["m"])
            np.testing.assert_array_equal(g["z"], b["z"])

    def test_zone_totals_cover_all_regions(self):
        pipe = build_motion(MOTION)
        run_program(pipe.program, workers=2, timeout=120)
        for sample in pipe.collector().values():
            np.testing.assert_array_equal(
                sample["z"].sum(axis=0),
                sample["m"].reshape(-1, 2).sum(axis=0),
            )

    def test_live_matches_batch(self):
        from repro.media import synthetic_sequence
        from repro.stream import SequenceSource, StreamConfig

        source = SequenceSource(synthetic_sequence(
            MOTION.frames, MOTION.width, MOTION.height, MOTION.seed
        ))
        pipe = build_motion_stream(
            MOTION,
            stream=StreamConfig(fps=0.0, max_frames=MOTION.frames),
            source=source,
        )
        run_program(
            pipe.program, workers=4, timeout=120, stream=pipe.binding
        )
        base = motion_baseline(MOTION)
        got = pipe.collector().values()
        assert len(got) == len(base)
        for g, b in zip(got, base):
            np.testing.assert_array_equal(g["m"], b["m"])
            np.testing.assert_array_equal(g["z"], b["z"])


class TestTranscode:
    def test_threads_matches_baseline(self):
        from repro.obs import MetricsRegistry, flatten

        pipe = build_transcode(TRANSCODE)
        # 12 operators, 6 kernels: each plane's idct → scale → dct
        # chain is one kernel running one stacked call per claim.
        assert set(pipe.program.kernels) == {
            "jin", "vld", "ydct", "udct", "vdct", "vlc",
        }
        assert pipe.fused == {
            f"{c}dct": (f"{c}idct", f"{c}scale", f"{c}dct") for c in "yuv"
        }
        for name in pipe.fused:
            assert pipe.program.kernels[name].batch_body is not None
        reg = MetricsRegistry()
        run_program(pipe.program, workers=4, timeout=120, batch=32,
                    metrics=reg)
        assert pipe.collector().values() == \
            transcode_baseline(TRANSCODE)
        flat = flatten(reg.snapshot())
        assert flat["exec.vectorize_fallbacks"] == 0
        assert flat["exec.vectorized_instances"] > 0

    def test_scalar_matches_vectorized(self):
        pipe = scalar_only(build_transcode(TRANSCODE))
        run_program(pipe.program, workers=2, timeout=120, batch=1)
        assert pipe.collector().values() == \
            transcode_baseline(TRANSCODE)

    def test_output_decodes_to_downscaled_frames(self):
        from repro.media import decode_jpeg

        pipe = build_transcode(TRANSCODE)
        run_program(pipe.program, workers=2, timeout=120)
        ow, oh = TRANSCODE.out_size
        for data in pipe.collector().values():
            dec = decode_jpeg(data)
            assert dec.frame.y.shape == (oh, ow)

    def test_live_matches_batch(self):
        from repro.stream import SequenceSource, StreamConfig
        from repro.workloads import make_input_jpegs

        jpegs = make_input_jpegs(TRANSCODE)
        pipe = build_transcode_stream(
            TRANSCODE,
            stream=StreamConfig(fps=0.0, max_frames=len(jpegs)),
            source=SequenceSource(jpegs),
        )
        run_program(
            pipe.program, workers=4, timeout=120, stream=pipe.binding
        )
        assert pipe.collector().values() == \
            transcode_baseline(TRANSCODE, jpegs)


class TestCluster:
    """Distributed identity: the same scenarios over a 2-node cluster."""

    def test_mosaic_on_cluster(self):
        from repro.dist import Cluster

        pipe = build_mosaic(MOSAIC)
        Cluster(pipe.program, {"n0": 2, "n1": 2}).run(timeout=300)
        assert _mosaic_bytes(pipe.collector().values()) == \
            _mosaic_bytes(mosaic_baseline(MOSAIC))

    def test_motion_on_cluster(self):
        from repro.dist import Cluster

        pipe = build_motion(MOTION)
        Cluster(pipe.program, {"n0": 2, "n1": 2}).run(timeout=300)
        base = motion_baseline(MOTION)
        got = pipe.collector().values()
        assert len(got) == len(base)
        for g, b in zip(got, base):
            np.testing.assert_array_equal(g["m"], b["m"])
            np.testing.assert_array_equal(g["z"], b["z"])
