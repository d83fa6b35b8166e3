"""End-to-end tests: kernel-language source → running programs."""

import numpy as np
import pytest

from repro.core import SemanticError, run_program
from repro.lang import compile_file, compile_program
from repro.workloads import expected_series

FIG5 = """
int32[] m_data age;
int32[] p_data age;

init:
  local int32[] values;
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


class TestFigure5:
    def test_compiles_and_matches_paper_series(self):
        sink = {}
        program = compile_program(FIG5, bindings={"sink": sink})
        run_program(program, workers=4, max_age=2, timeout=60)
        expected = expected_series(3)
        for age in expected:
            assert np.array_equal(sink[age][0], expected[age][0])
            assert np.array_equal(sink[age][1], expected[age][1])

    def test_structure(self):
        program = compile_program(FIG5, bindings={"sink": {}})
        assert set(program.kernels) == {"init", "mul2", "plus5", "print"}
        mul2 = program.kernels["mul2"]
        assert mul2.has_age and mul2.index_vars == ("x",)
        assert mul2.fetches[0].scalar  # single-element fetch
        assert program.kernels["init"].run_once


class TestLanguageFeatures:
    def test_scalar_local_initialized_to_zero(self):
        out = []
        src = """
int64[] f age;
k:
  local int64 acc;
  %{
    acc += 41
    acc += 1
    out.append(acc)
  %}
  store f(0) = acc;
"""
        program = compile_program(src, bindings={"out": out})
        run_program(program, workers=1, timeout=30)
        assert out == [42]

    def test_block_fetch(self):
        got = {}
        src = """
int32[] data age;
feeder:
  local int32[] v;
  %{
    for i in range(10):
        put(v, i, i)
  %}
  store data(0) = v;

blocks:
  age a;
  index x;
  fetch chunk = data(a)[x:4];
  %{ got[x] = chunk.tolist() %}
"""
        program = compile_program(src, bindings={"got": got})
        run_program(program, workers=2, timeout=30)
        assert got == {0: [0, 1, 2, 3], 1: [4, 5, 6, 7], 2: [8, 9]}

    def test_none_source_skips_store(self):
        """Setting a store source to None takes the no-store path
        (end-of-stream for sources)."""
        src = """
int64[] stream age;
src:
  age a;
  local int64 v;
  %{
    v = a * 10 if a < 3 else None
  %}
  store stream(a) = v;
"""
        program = compile_program(src)
        result = run_program(program, workers=1, timeout=30)
        assert result.stats["src"].instances == 4  # ages 0..3; 3 stores
        assert result.fields["stream"].ages() == [0, 1, 2]

    def test_age_limit_option(self):
        src = """
int64[] f age;
src:
  age a;
  local int64 v;
  age_limit 2;
  %{ v = a %}
  store f(a) = v;
"""
        program = compile_program(src)
        result = run_program(program, workers=1, timeout=30)
        assert result.stats["src"].instances == 3  # ages 0, 1, 2

    def test_timer_binding(self):
        out = []
        src = """
timer t1;
int64[] f age;
k:
  local int64 v;
  %{
    out.append(t1.expired(100000))
    v = 1
  %}
  store f(0) = v;
"""
        program = compile_program(src, bindings={"out": out})
        assert program.timers == ("t1",)
        run_program(program, workers=1, timeout=30)
        assert out == [False]

    def test_extent_and_get_intrinsics(self):
        out = []
        src = """
int64[] f age;
init:
  local int64[] v;
  %{
    for i in range(4):
        put(v, i * i, i)
  %}
  store f(0) = v;

reader:
  age a;
  fetch m = f(a);
  %{
    total = 0
    for i in range(extent(m, 0)):
        total += get(m, i)
    out.append(total)
  %}
"""
        program = compile_program(src, bindings={"out": out})
        run_program(program, workers=1, timeout=30)
        assert out == [0 + 1 + 4 + 9]

    def test_bindings_reachable(self):
        sink = []
        src = "k:\n %{ sink.append(MAGIC) %}"
        program = compile_program(src, bindings={"sink": sink, "MAGIC": 7})
        run_program(program, workers=1, timeout=30)
        assert sink == [7]

    def test_two_stores_same_field_distinct_sources(self):
        src = """
int64[] f age;
k:
  age a;
  local int64 x;
  local int64 y;
  age_limit 0;
  %{
    x = 1
    y = 2
  %}
  store f(a) = x;
  store f(a+1) = y;
"""
        program = compile_program(src)
        result = run_program(program, workers=1, timeout=30)
        assert result.fields["f"].fetch(0, 0).item() == 1
        assert result.fields["f"].fetch(1, 0).item() == 2

    def test_invalid_python_reported_as_semantic_error(self):
        src = "k:\n %{ def broken( %}"
        with pytest.raises(SemanticError):
            compile_program(src)

    def test_compile_file(self, tmp_path):
        path = tmp_path / "prog.p2g"
        path.write_text("int32[] f age;\nk:\n  age a;\n  fetch v = f(a);")
        program = compile_file(path)
        assert program.name == "prog"
        assert "k" in program.kernels


class TestPrintIntrinsic:
    """Native blocks print whole lines: the builtin ``print`` writes
    each argument and separator on its own, so instances on different
    workers interleaved inside a line (``blur.p2g`` lost "age 4")."""

    SRC = """
int64[8] data age;

feed:
  age a;
  local int64[] v;
  age_limit 5;
  %{
    for i in range(8):
        put(v, a * 8 + i, i)
  %}
  store data(a) = v;

report:
  age a;
  index x;
  fetch value = data(a)[x];
  %{ print("age", a, "x", x, ":", [int(value)] * 3) %}
"""

    class _Stream:
        """Records every ``write`` and yields the GIL inside it, the
        way a real stream lets another worker in between two writes."""

        def __init__(self):
            self.writes = []

        def write(self, text):
            import time

            time.sleep(0)
            self.writes.append(text)

        def flush(self):
            pass

    def test_each_line_is_one_write_under_threads(self, monkeypatch):
        import sys

        stream = self._Stream()
        monkeypatch.setattr(sys, "stdout", stream)
        program = compile_program(self.SRC)
        run_program(program, workers=4, timeout=60)
        monkeypatch.undo()
        want = sorted(
            f"age {a} x {x} : {[a * 8 + x] * 3}\n"
            for a in range(6) for x in range(8)
        )
        assert sorted(stream.writes) == want

    def test_threads_hammering_the_compiled_body(self, monkeypatch):
        import sys
        import threading

        from repro.core.kernels import KernelContext

        body = compile_program(self.SRC).kernels["report"].body
        stream = self._Stream()
        monkeypatch.setattr(sys, "stdout", stream)

        def hammer(t):
            ctx = KernelContext()
            for i in range(200):
                body(ctx.reset(t, {"x": i}, {"value": i}))

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-line if it can
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.undo()
        assert not any(th.is_alive() for th in threads)
        assert sorted(stream.writes) == sorted(
            f"age {t} x {i} : {[i] * 3}\n"
            for t in range(4) for i in range(200)
        )

    def test_keeps_the_builtin_signature(self, capsys):
        import io

        program = compile_program(
            'k:\n %{\n'
            '    print("a", 1, sep="-", end="!")\n'
            '    print()\n'
            '    print("b", file=buf, flush=True)\n'
            ' %}',
            bindings={"buf": (buf := io.StringIO())},
        )
        run_program(program, workers=1, timeout=30)
        assert capsys.readouterr().out == "a-1!\n"
        assert buf.getvalue() == "b\n"
