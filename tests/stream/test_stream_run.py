"""End-to-end live runs on the thread backend: bounded memory under the
credit window, byte-identity with the batch encoder, deterministic
load shedding, and the observability surface."""

import json

import pytest

from repro.core import run_program
from repro.stream import StreamConfig, shed_fraction
from repro.workloads import MJPEGConfig, build_mjpeg_stream, mjpeg_baseline


def per_age_bytes(program) -> int:
    """Field bytes one age occupies when fully materialized."""
    total = 0
    for f in program.fields.values():
        elems = 1
        for n in f.shape:
            elems *= n
        total += elems * f.np_dtype.itemsize
    return total


def run_live(cfg, scfg, workers=2):
    program, sink, binding = build_mjpeg_stream(cfg, scfg)
    result = run_program(program, workers=workers, stream=binding)
    return program, sink, result.stream, result


def test_bounded_memory_over_500_frames():
    """Peak live field bytes scale with the lag window, not the
    stream length — the retirement + backpressure tentpole claim."""
    cfg = MJPEGConfig(width=32, height=32, frames=500)
    scfg = StreamConfig(fps=0, max_frames=500, lag_window=8)
    program, _, rep, _ = run_live(cfg, scfg)
    assert rep.offered == 500
    assert rep.completed == 500
    age_bytes = per_age_bytes(program)
    total = 500 * age_bytes
    # Generous constant: window (8) + keep_ages (1) + in-flight slack,
    # but nowhere near O(frames).
    assert rep.peak_live_bytes <= age_bytes * (scfg.lag_window * 2 + 4)
    assert rep.peak_live_bytes < total / 10
    # Retirement actually reclaimed the overwhelming majority.
    assert rep.freed_bytes > age_bytes * 400


def test_live_stream_byte_identical_to_batch():
    cfg = MJPEGConfig(width=64, height=64, frames=24)
    scfg = StreamConfig(fps=0, max_frames=24, lag_window=4)
    _, sink, rep, _ = run_live(cfg, scfg)
    assert rep.shed == 0 and rep.degraded == 0
    assert sink.stream() == mjpeg_baseline(config=cfg)


def test_duration_bounds_offered_frames():
    cfg = MJPEGConfig(width=32, height=32, frames=50)
    scfg = StreamConfig(fps=50.0, duration=0.2, lag_window=8)
    _, _, rep, _ = run_live(cfg, scfg)
    # The cutoff is on the frame *schedule* (age/fps >= duration), so
    # the count is exact: frames 0..9 fit before the 200ms mark.
    assert rep.offered == 10
    assert rep.completed == 10


def test_shedding_is_deterministic_and_seed_split():
    """A hopelessly starved stream sheds every frame; which late frames
    are shed vs degraded is the pure seeded hash — identical run to
    run, and flipped by changing the seed."""
    cfg = MJPEGConfig(width=32, height=32, frames=40)

    def starved(seed):
        scfg = StreamConfig(
            fps=1000.0,
            max_frames=40,
            lag_window=4,
            deadline_ms=1e-6,
            shed_seed=seed,
            degrade_ratio=0.5,
        )
        _, _, rep, _ = run_live(cfg, scfg)
        return rep

    a = starved(42)
    b = starved(42)
    assert a.offered == b.offered == 40
    assert a.shed_ages == b.shed_ages
    assert a.degraded_ages == b.degraded_ages
    assert set(a.shed_ages) | set(a.degraded_ages) == set(range(40))
    for age in a.degraded_ages:
        assert shed_fraction(42, age) < 0.5
    for age in a.shed_ages:
        assert shed_fraction(42, age) >= 0.5
    assert a.deadline_misses >= 40
    c = starved(7)
    assert c.shed_ages != a.shed_ages  # the seed is load-bearing


def test_metrics_gauges_and_latency_histogram():
    cfg = MJPEGConfig(width=32, height=32, frames=12)
    scfg = StreamConfig(fps=0, max_frames=12, lag_window=4)
    _, _, rep, result = run_live(cfg, scfg)
    snap = result.metrics.snapshot()
    assert "fields.live_bytes" in snap
    assert snap["process.peak_rss_bytes"]["value"] > 0
    lat = snap["stream.latency_ms"]
    assert lat["count"] == 12
    assert 0 < lat["p50"] <= lat["p99"] <= lat["max"]
    assert snap["stream.frames.offered"]["value"] == 12
    assert snap["stream.frames.completed"]["value"] == 12
    assert snap["stream.live_bytes.peak"]["value"] == rep.peak_live_bytes
    assert rep.latency_ms["p50"] == lat["p50"]


def test_report_is_json_ready():
    cfg = MJPEGConfig(width=32, height=32, frames=6)
    scfg = StreamConfig(fps=0, max_frames=6, lag_window=4)
    _, _, rep, _ = run_live(cfg, scfg)
    blob = json.loads(json.dumps(rep.as_dict()))
    assert blob["offered"] == 6
    assert blob["lag_window"] == 4
    assert "p99" in blob["latency_ms"]


def test_stream_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(fps=-1)
    with pytest.raises(ValueError):
        StreamConfig(lag_window=0)
    with pytest.raises(ValueError):
        StreamConfig(duration=0)


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_analyzer_bookkeeping_is_bounded_over_300_frames(backend):
    """Dispatch bookkeeping retires with the ages: after 300 frames the
    analyzer tracks a window's worth of instances, not the stream's."""
    from repro.core import ExecutionNode
    from repro.stream import StreamDriver

    cfg = MJPEGConfig(width=32, height=32, frames=300)
    scfg = StreamConfig(fps=0, max_frames=300, lag_window=8)
    program, _sink, binding = build_mjpeg_stream(cfg, scfg)
    node = ExecutionNode(program, 2, backend=backend, batch=32)
    driver = StreamDriver(binding, node=node)
    node.add_teardown_hook(driver.stop)
    node.start()
    driver.start()
    node.join(timeout=300)
    assert driver.report().completed == 300
    per_frame = 16 + 4 + 4 + 1  # y/u/v dct blocks + vlc at 32x32
    assert node.analyzer.dispatched_count() == 300 * per_frame
    assert node.analyzer.tracked_instances() <= (
        scfg.lag_window + scfg.keep_ages + 1
    ) * per_frame
