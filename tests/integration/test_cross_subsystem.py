"""Cross-subsystem integration: LLS transforms, clusters and the
language front-end must all preserve observable behaviour."""

import numpy as np

from repro.core import fuse, run_program
from repro.dist import Cluster
from repro.lang import compile_program
from repro.media import synthetic_sequence
from repro.workloads import (
    MJPEGConfig,
    build_mjpeg,
    build_mulsum,
    expected_series,
    mjpeg_baseline,
)


class TestLanguageAndAPIEquivalence:
    def test_same_program_same_fields(self):
        api_program, api_sink = build_mulsum()
        run_program(api_program, workers=2, max_age=2, timeout=60)

        lang_sink = {}
        src = """
int64[] m_data age;
int64[] p_data age;
init:
  local int64[] values;
  %{
    for i in range(5):
        put(values, i + 10, i)
  %}
  store m_data(0) = values;
mul2:
  age a;
  index x;
  fetch value = m_data(a)[x];
  %{ value *= 2 %}
  store p_data(a)[x] = value;
plus5:
  age a;
  index x;
  fetch value = p_data(a)[x];
  %{ value += 5 %}
  store m_data(a+1)[x] = value;
print:
  age a;
  fetch m = m_data(a);
  fetch p = p_data(a);
  %{ sink[a] = (m.copy(), p.copy()) %}
"""
        lang_program = compile_program(src, bindings={"sink": lang_sink})
        run_program(lang_program, workers=2, max_age=2, timeout=60)
        for age in api_sink:
            assert np.array_equal(api_sink[age][0], lang_sink[age][0])
            assert np.array_equal(api_sink[age][1], lang_sink[age][1])

    def test_language_program_survives_lls_and_cluster(self):
        """Compile from source, fuse the pipeline, run on two nodes."""
        sink = {}
        src = """
int64[] m_data age;
int64[] p_data age;
init:
  local int64[] values;
  %{
    for i in range(5):
        put(values, i + 10, i)
  %}
  store m_data(0) = values;
mul2:
  age a;
  index x;
  fetch value = m_data(a)[x];
  %{ value *= 2 %}
  store p_data(a)[x] = value;
plus5:
  age a;
  index x;
  fetch value = p_data(a)[x];
  %{ value += 5 %}
  store m_data(a+1)[x] = value;
print:
  age a;
  fetch m = m_data(a);
  fetch p = p_data(a);
  %{ sink[a] = m.copy() %}
"""
        program = compile_program(src, bindings={"sink": sink})
        fused = fuse(program, "mul2", "plus5")
        result = Cluster(fused, {"a": 2, "b": 2}).run(max_age=2, timeout=60)
        assert result.reason == "idle"
        expected = expected_series(3)
        for age in expected:
            assert np.array_equal(sink[age], expected[age][0])


class TestGCWithStreaming:
    def test_mjpeg_with_gc_still_correct(self):
        cfg = MJPEGConfig(width=64, height=64, frames=6)
        clip = synthetic_sequence(6, 64, 64, cfg.seed)
        program, sink = build_mjpeg(clip, cfg)
        result = run_program(
            program, workers=4, timeout=300, gc_fields=True, keep_ages=1
        )
        assert result.reason == "idle"
        assert sink.stream() == mjpeg_baseline(clip, cfg)
        assert result.gc_bytes > 0  # old frames were actually collected

    def test_gc_bounds_memory_against_no_gc(self):
        cfg = MJPEGConfig(width=64, height=64, frames=6)

        def live_bytes(gc):
            clip = synthetic_sequence(6, 64, 64, cfg.seed)
            program, _ = build_mjpeg(clip, cfg)
            result = run_program(program, workers=2, timeout=300,
                                 gc_fields=gc)
            return result.fields.live_bytes()

        assert live_bytes(True) < live_bytes(False)
