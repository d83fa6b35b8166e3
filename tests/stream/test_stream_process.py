"""Live runs on the process backend: retirement of shared-memory
segments mid-run, byte-identity, and shm hygiene (no leaked
/dev/shm segments after a run — including retirement mid-run)."""

import glob

from repro.core import run_program
from repro.stream import StreamConfig
from repro.workloads import MJPEGConfig, build_mjpeg_stream, mjpeg_baseline


def shm_segments() -> set[str]:
    # Segment names are f"p2g{run_id}_{field}_{serial}" (core.fields).
    return set(glob.glob("/dev/shm/p2g*"))


def test_process_backend_live_run_clean_shm():
    before = shm_segments()
    cfg = MJPEGConfig(width=32, height=32, frames=30)
    scfg = StreamConfig(fps=0, max_frames=30, lag_window=4)
    program, sink, binding = build_mjpeg_stream(cfg, scfg)
    result = run_program(
        program, workers=2, backend="processes", stream=binding
    )
    rep = result.stream
    assert rep.completed == 30
    assert rep.freed_bytes > 0  # retirement ran mid-stream
    assert sink.stream() == mjpeg_baseline(config=cfg)
    # Every shared segment — retired mid-run or freed at teardown — is
    # gone: an unbounded live run cannot accumulate /dev/shm garbage.
    leaked = shm_segments() - before
    assert leaked == set()


def test_batch_process_run_clean_shm():
    """The shm-hygiene fix: a plain batch run on the process backend
    must unlink every segment at teardown (wind_down releases the
    store it owns), not rely on interpreter-exit finalizers."""
    before = shm_segments()
    from repro.workloads import build_mjpeg

    cfg = MJPEGConfig(width=32, height=32, frames=6)
    program, sink = build_mjpeg(config=cfg)
    run_program(program, workers=2, backend="processes")
    assert sink.frame_count() == 6
    assert shm_segments() - before == set()
