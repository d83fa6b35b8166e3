"""Batched dispatch + vectorized kernels: byte-identity and mechanics.

The fast path has two levers — the ready queue surfacing *runs* of
same-kernel/same-age instances (``ExecutionNode(batch=N)``) and the
kernel's stacked form replacing per-instance bodies with one NumPy call
(``KernelDef(stack=...)`` / ``batch_body=``).  Both must be invisible
in the results: every
test here pins batched/vectorized output against the scalar ground
truth (``expected_series``, ``mjpeg_baseline``, ``kmeans_baseline``)
byte for byte, across backends and the cluster layer.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BatchKernelContext,
    Dim,
    ExecutionNode,
    FetchSpec,
    KernelDef,
    Program,
    ReadyQueue,
    StoreSpec,
    VectorizeFallback,
    run_program,
)
from repro.core.errors import (
    DefinitionError,
    RuntimeStateError,
    WriteOnceViolation,
)
from repro.core.kernels import KernelContext, KernelInstance
from repro.dist import Cluster
from repro.obs import MetricsRegistry, flatten
from repro.workloads import (
    MosaicConfig,
    MotionConfig,
    TranscodeConfig,
    build_kmeans,
    build_mjpeg,
    build_mjpeg_stream,
    build_mosaic,
    build_motion,
    build_mulsum,
    build_transcode,
    expected_series,
    kmeans_baseline,
)
from repro.workloads.mjpeg import MJPEGConfig, mjpeg_baseline
from tests.conftest import scalar_only


def _assert_mulsum(sink, ages, modulo=None):
    expected = expected_series(ages, modulo=modulo)
    assert sorted(sink) == list(range(ages))
    for age in expected:
        assert np.array_equal(sink[age][0], expected[age][0])
        assert np.array_equal(sink[age][1], expected[age][1])


def _noop(ctx):  # pragma: no cover - never dispatched
    pass


def _inst(kernel, age, index=()):
    return KernelInstance(kernel, age=age, index=index)


class TestPopBatch:
    """Batch formation: same kernel definition, same age, heap order."""

    def _kernels(self):
        a = KernelDef(name="a", body=_noop, has_age=True,
                      index_vars=("x",), domain={"x": 8})
        b = KernelDef(name="b", body=_noop, has_age=True,
                      index_vars=("x",), domain={"x": 8})
        return a, b

    def test_drains_same_kernel_same_age_run(self):
        a, _ = self._kernels()
        q = ReadyQueue()
        for i in range(5):
            q.push(_inst(a, 0, (i,)))
        batch, _wait = q.pop_batch(8)
        assert [i.index for i in batch] == [(0,), (1,), (2,), (3,), (4,)]
        assert q.pops == 5

    def test_respects_max_n(self):
        a, _ = self._kernels()
        q = ReadyQueue()
        for i in range(5):
            q.push(_inst(a, 0, (i,)))
        batch, _ = q.pop_batch(2)
        assert len(batch) == 2
        batch2, _ = q.pop_batch(2)
        assert len(batch2) == 2
        assert batch2[0].index == (2,)

    def test_stops_at_kernel_change(self):
        a, b = self._kernels()
        q = ReadyQueue()
        q.push(_inst(a, 0, (0,)))
        q.push(_inst(a, 0, (1,)))
        q.push(_inst(b, 0, (0,)))
        batch, _ = q.pop_batch(8)
        assert len(batch) == 2 and all(i.kernel is a for i in batch)

    def test_stops_at_age_change(self):
        a, _ = self._kernels()
        q = ReadyQueue()
        q.push(_inst(a, 0, (0,)))
        q.push(_inst(a, 1, (0,)))
        batch, _ = q.pop_batch(8)
        assert len(batch) == 1 and batch[0].age == 0

    def test_never_consumes_sentinel(self):
        a, _ = self._kernels()
        q = ReadyQueue()
        q.push(_inst(a, 0, (0,)))
        q.push_sentinel()
        batch, _ = q.pop_batch(8)
        assert len(batch) == 1
        batch2, _ = q.pop_batch(8)
        assert batch2 is None  # sentinel -> worker exit signal

    def test_identity_not_name_bounds_the_run(self):
        """Two kernel *definitions* with the same name never batch
        together: a claim is one definition's instances (an LLS rewrite
        is a fresh KernelDef under the old name)."""
        a1 = KernelDef(name="a", body=_noop, has_age=True,
                       index_vars=("x",), domain={"x": 8})
        a2 = KernelDef(name="a", body=_noop, has_age=True,
                       index_vars=("x",), domain={"x": 8})
        q = ReadyQueue()
        q.push(_inst(a1, 0, (0,)))
        q.push(_inst(a2, 0, (1,)))
        batch, _ = q.pop_batch(8)
        assert len(batch) == 1 and batch[0].kernel is a1

    def test_batch_size_validated(self):
        program, _ = build_mulsum()
        with pytest.raises(RuntimeStateError):
            ExecutionNode(program, 1, max_age=1, batch=0)


def _history(sink):
    return b"".join(sink.history[a].tobytes() for a in sorted(sink.history))


def _mulsum_case():
    program, sink = build_mulsum()
    return program, {"max_age": 4}, lambda: b"".join(
        a.tobytes() for age in sorted(sink) for a in sink[age])


def _mjpeg_case():
    program, sink = build_mjpeg(config=MJPEGConfig(48, 32, frames=2))
    return program, {}, sink.stream


def _mjpeg_stream_case():
    from repro.stream import StreamConfig

    program, sink, binding = build_mjpeg_stream(
        MJPEGConfig(48, 32, frames=2), StreamConfig(fps=0, max_frames=2))
    return program, {"stream": binding}, sink.stream


def _kmeans_case(granularity):
    program, sink = build_kmeans(n=40, k=4, iterations=2,
                                 granularity=granularity)
    return program, {}, lambda: _history(sink)


def _ops_case(build, config):
    pipe = build(config)

    def planes(v):
        if isinstance(v, bytes):
            return v
        parts = v.values() if isinstance(v, dict) else (v.y, v.u, v.v)
        return b"".join(np.asarray(x).tobytes() for x in parts)

    return pipe.program, {}, lambda: b"".join(
        planes(v) for v in pipe.collector().values())


#: shipped builder -> (case, the kernels that carry a stacked form)
BUILDERS = {
    "mulsum": (_mulsum_case, {"mul2", "plus5"}),
    "mjpeg": (_mjpeg_case, {"ydct", "udct", "vdct"}),
    "mjpeg-stream": (_mjpeg_stream_case, {"ydct", "udct", "vdct"}),
    "kmeans-pair": (lambda: _kmeans_case("pair"), {"assign"}),
    "kmeans-point": (lambda: _kmeans_case("point"), {"assign"}),
    "ops-mosaic": (
        lambda: _ops_case(build_mosaic, MosaicConfig(4, 32, 32, frames=2)),
        {f"scale{i}_{p}" for i in range(4) for p in "yuv"} | {"composite"},
    ),
    "ops-motion": (
        lambda: _ops_case(
            build_motion, MotionConfig(32, 32, 3, region=8, slots=3)),
        {"stats"},
    ),
    "ops-transcode": (
        lambda: _ops_case(
            build_transcode, TranscodeConfig(32, 32, frames=2)),
        {"ydct", "udct", "vdct"},
    ),
}


class TestVectorizer:
    """A definition carries its stacked form."""

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_workload_builders_attach_batch_bodies(self, name):
        """Which kernels of each shipped builder carry a stacked form is
        pinned (one that silently went scalar shows as a diff), and the
        program stripped of them stores the same bytes at batch=32."""
        case, stacked = BUILDERS[name]
        runs = {}
        for strip in (False, True):
            program, kw, read = case()
            assert {
                k.name for k in program.kernels.values()
                if k.batch_body is not None
            } == stacked
            if strip:
                scalar_only(program)
            reg = MetricsRegistry()
            run_program(program, workers=2, batch=32, timeout=120,
                        metrics=reg, **kw)
            runs[strip] = read()
            vectorized = flatten(reg.snapshot())["exec.vectorized_instances"]
            assert (vectorized == 0) == strip
        assert runs[True] and runs[True] == runs[False]

    def _kernel(self, fetches=None, stores=None, **kw):
        dims = (Dim.of("x"),)
        return KernelDef(
            name="k", body=_noop, has_age=True, index_vars=("x",),
            fetches=fetches or (FetchSpec("v", "f", dims=dims),),
            stores=stores or (StoreSpec("g", dims=dims, key="out"),),
            **kw)

    def test_stack_becomes_the_batch_body(self):
        k = self._kernel(stack=lambda v: v + 1)
        bctx = BatchKernelContext(0, [{"x": 0}, {"x": 1}],
                                  {"v": np.array([[3], [4]])})
        k.batch_body(bctx)
        assert bctx.emitted["out"].tolist() == [[4], [5]]

    def test_stack_on_another_structure_fails_at_definition(self):
        """A whole-field fetch, a second fetch, two stores, or a
        ``batch_body`` beside it: a DefinitionError where the kernel is
        defined, not a silent scalar run."""
        dims = (Dim.of("x"),)
        region = FetchSpec("v", "f", dims=dims)
        for kw in (
            {"fetches": (region, FetchSpec("w", "f"))},
            {"fetches": (FetchSpec("w", "f"),), "domain": {"x": 4}},
            {"stores": (StoreSpec("g", dims=dims, key="a"),
                        StoreSpec("h", dims=dims, key="b"))},
            {"batch_body": lambda bctx: None},
        ):
            with pytest.raises(DefinitionError, match="stack="):
                self._kernel(stack=lambda v: v, **kw)

    def test_make_kernel_takes_a_stack(self):
        from repro.core import make_kernel

        dims = (Dim.of("x"),)
        k = make_kernel(
            "k", age=True, index=["x"],
            fetches=[FetchSpec("v", "f", dims=dims)],
            stores=[StoreSpec("g", dims=dims)],
            stack=lambda v: v * 2)(_noop)
        assert k.batch_body is not None

    def test_stripping_is_one_attribute(self):
        """``batch_body = None`` is the whole scalar reference: it
        survives a session's re-namespacing and leaves ``fuse`` nothing
        to chain."""
        from repro.core import fuse
        from repro.stream.multitenant import namespace_program

        program = scalar_only(build_mulsum()[0])
        spaced = namespace_program(program, "s")
        assert all(k.batch_body is None for k in spaced.kernels.values())
        assert fuse(program, "mul2", "plus5").kernels[
            "mul2+plus5"].batch_body is None
        stacked = namespace_program(build_mulsum()[0], "s")
        assert stacked.kernels["s.mul2"].batch_body is not None

    def test_batch_context_double_emit_rejected(self):
        bctx = BatchKernelContext(0, [{"x": 0}], {"v": np.zeros(1)})
        bctx.emit("out", np.zeros(1))
        with pytest.raises(DefinitionError):
            bctx.emit("out", np.zeros(1))

    def test_fallback_reverts_batch_to_scalar_path(self):
        """A batch_body raising VectorizeFallback re-runs through the
        scalar body — results unchanged, run completes."""
        program, sink = build_mulsum()

        def always_fall_back(bctx):
            raise VectorizeFallback

        program.kernels["mul2"].batch_body = always_fall_back
        run_program(program, workers=2, max_age=4, batch=8)
        _assert_mulsum(sink, 5)


class TestByteIdentityThreads:
    """batched + vectorized ≡ per-instance scalar, threads backend."""

    @given(batch=st.integers(min_value=1, max_value=64),
           workers=st.integers(min_value=1, max_value=4),
           vectorize=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_mulsum_series_any_batch_size(self, batch, workers,
                                          vectorize):
        program, sink = build_mulsum()
        if not vectorize:
            scalar_only(program)
        run_program(program, workers=workers, max_age=4, batch=batch)
        _assert_mulsum(sink, 5)

    @given(batch=st.sampled_from([2, 7, 16, 64]),
           vectorize=st.booleans())
    @settings(max_examples=6, deadline=None)
    def test_mjpeg_stream_bytes(self, batch, vectorize):
        cfg = MJPEGConfig(width=96, height=64, frames=4)
        base = mjpeg_baseline(config=cfg)
        program, sink = build_mjpeg(config=cfg)
        if not vectorize:
            scalar_only(program)
        run_program(program, workers=4, batch=batch)
        assert sink.stream() == base

    @pytest.mark.parametrize("granularity", ["pair", "point"])
    def test_kmeans_trajectory(self, granularity):
        base = kmeans_baseline(n=150, k=8, iterations=3)
        program, sink = build_kmeans(n=150, k=8, iterations=3,
                                     granularity=granularity)
        run_program(program, workers=4, batch=16)
        for age in base.history:
            assert np.array_equal(sink.history[age], base.history[age])

    def test_dct_pattern_guards_block_shape(self):
        """The dct kernels' stacked form refuses non-8x8 regions with
        VectorizeFallback rather than producing wrong bytes."""
        program, _ = build_mjpeg(config=MJPEGConfig(96, 64, 1))
        batch_body = program.kernels["ydct"].batch_body
        assert batch_body is not None
        bctx = BatchKernelContext(
            0, [{"by": 0, "bx": 0}],
            {"block": np.zeros((1, 4, 4), dtype=np.uint8)})
        with pytest.raises(VectorizeFallback):
            batch_body(bctx)


class TestByteIdentityProcesses:
    """Same guarantees across the one-IPC-per-batch process path."""

    def test_mjpeg_stream_bytes(self):
        cfg = MJPEGConfig(width=96, height=64, frames=4)
        base = mjpeg_baseline(config=cfg)
        program, sink = build_mjpeg(config=cfg)
        run_program(program, workers=2, backend="processes", batch=16)
        assert sink.stream() == base

    def test_mjpeg_scalar_fallback(self):
        cfg = MJPEGConfig(width=96, height=64, frames=3)
        base = mjpeg_baseline(config=cfg)
        program, sink = build_mjpeg(config=cfg)
        scalar_only(program)
        run_program(program, workers=2, backend="processes", batch=16)
        assert sink.stream() == base

    @pytest.mark.parametrize("granularity", ["pair", "point"])
    def test_kmeans_trajectory(self, granularity):
        base = kmeans_baseline(n=150, k=8, iterations=3)
        program, sink = build_kmeans(n=150, k=8, iterations=3,
                                     granularity=granularity)
        run_program(program, workers=2, backend="processes", batch=16)
        for age in base.history:
            assert np.array_equal(sink.history[age], base.history[age])

    def test_worker_body_error_names_failing_instance(self):
        from repro.core.errors import KernelBodyError

        program, _ = build_kmeans(n=64, k=4, iterations=2)
        scalar_only(program)

        def bomb(ctx):
            if ctx.index.get("x") == 13 and ctx.age == 1:
                raise ValueError("boom")
            ctx.emit("distances", 0.0)

        program.kernels["assign"].body = bomb
        with pytest.raises(KernelBodyError):
            run_program(program, workers=2, backend="processes",
                        batch=16, timeout=60)


class TestByteIdentityCluster:
    """Batched dispatch through the distributed layer."""

    def test_mulsum_on_two_nodes(self):
        program, sink = build_mulsum()
        result = Cluster(program, {"n0": 2, "n1": 2}).run(
            max_age=4, batch=8, timeout=120
        )
        assert result.reason == "idle"
        _assert_mulsum(sink, 5)

    def test_kmeans_on_two_nodes(self):
        base = kmeans_baseline(n=120, k=8, iterations=3)
        program, sink = build_kmeans(n=120, k=8, iterations=3)
        result = Cluster(program, {"n0": 2, "n1": 2}).run(
            batch=16, timeout=120
        )
        assert result.reason == "idle"
        for age in base.history:
            assert np.array_equal(sink.history[age], base.history[age])


_LANG_MULSUM = """
int32[5] m_data age;
int32[5] p_data age;

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
"""


def _store_events(program, backend, batch, workers=1, prepare=None,
                  **node_kw):
    """Run ``program`` (after ``prepare(node)``); returns the node, what
    :meth:`ExecutionNode.run` returned or raised, and the store events
    it posted as ``(field, age, regions)`` in posting order."""
    from repro.core import StoreEvent

    events = []
    node = ExecutionNode(
        program, workers, backend=backend, batch=batch,
        on_event=lambda _node, ev: isinstance(ev, StoreEvent)
        and events.append((ev.field, ev.age, ev.regions)),
        **node_kw,
    )
    if prepare is not None:
        prepare(node)
    try:
        outcome = node.run(timeout=60)
    except Exception as exc:  # noqa: BLE001 - handed to the test
        outcome = exc
    return node, outcome, events


class TestScalarClaims:
    """A claim of a kernel that has no ``batch_body`` runs the scalar
    loop and is announced like a stacked one: every store committed as
    it happens, one event per (field, age) when the claim ends — on
    both backends, from the same store records."""

    @pytest.mark.parametrize("batch,claims", [(1, [1] * 12),
                                              (5, [6, 6]), (32, [12])])
    def test_backends_announce_the_same_groups(self, batch, claims):
        """12 scalar ``dbl`` instances pushed as one run, two workers:
        a claim is ``max(batch, ceil(12 / 2))`` of them, and each claim
        is one store event carrying exactly its members' regions."""
        streams = {}
        for backend in ("threads", "processes"):
            node, result, events = _store_events(
                _doubling_program(48, 4), backend, batch, workers=2)
            assert result.fields["out"].fetch(0).tolist() == list(
                range(0, 96, 2))
            streams[backend] = sorted(events)
        assert streams["threads"] == streams["processes"]
        groups = [r for f, _a, r in streams["threads"] if f == "out"]
        assert sorted(map(len, groups)) == sorted(claims)
        # every region announced exactly once, whatever the grouping
        assert sorted(r for g in groups for r in g) == [
            (slice(x, x + 4),) for x in range(0, 48, 4)]

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_raise_mid_claim_leaves_nothing_committed_unannounced(
            self, backend):
        """Instance 7 of one claim of 12 raises.  Where the claim ran in
        the parent the first seven stores are committed, and announced;
        a worker process's are never committed.  Either way the same
        ``KernelBodyError`` surfaces."""
        from repro.core.errors import KernelBodyError

        def bomb(ctx):
            if ctx.index["x"] == 7:
                raise ValueError("boom")
            ctx.emit("out", ctx["v"] * 2)

        node, err, events = _store_events(
            _doubling_program(48, 4, body=bomb), backend, 32)
        assert isinstance(err, KernelBodyError)
        assert (err.kernel, err.age, tuple(err.index)) == ("dbl", None, (7,))
        assert "ValueError: boom" in str(err)
        out = node.fields["out"]
        announced = [r for f, _a, g in events if f == "out" for r in g]
        committed = [
            (slice(x, x + 4),) for x in range(0, 48, 4)
            if out.is_complete(0, slice(x, x + 4))
        ]
        assert announced == committed
        assert len(committed) == (7 if backend == "threads" else 0)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_write_once_violation_in_a_scalar_claim(self, backend):
        """Instances ``(x, 0)`` and ``(x, 1)`` both store ``out[x]``:
        the second of the claim is refused, and the error names the
        contested element on either backend."""
        from repro.core import AgeExpr, FieldDef

        age0 = AgeExpr.const(0)
        dims = (Dim.of("x"), Dim.of("y"))
        program = Program.build(
            [FieldDef("a", "int64", 2, aging=False, shape=(6, 2)),
             FieldDef("out", "int64", 1, aging=False, shape=(6,))],
            [KernelDef(
                "src", lambda ctx: ctx.emit(
                    "a", np.arange(12, dtype=np.int64).reshape(6, 2)),
                stores=(StoreSpec("a", age=age0),)),
             KernelDef(
                 "dup", lambda ctx: ctx.emit("out", ctx["v"]),
                 index_vars=("x", "y"),
                 fetches=(FetchSpec("v", "a", age=age0, dims=dims,
                                    scalar=True),),
                 stores=(StoreSpec("out", age=age0,
                                   dims=(Dim.of("x"),)),))],
        )
        _node, err, _events = _store_events(program, backend, 32)
        assert isinstance(err, WriteOnceViolation)
        assert (err.field, err.age, tuple(err.index)) == ("out", 0, (0,))

    def test_recover_node_reannounces_a_skipped_store(self):
        """A recovery node finds ``out[0:4]`` already complete (its dead
        predecessor wrote it): the payload write is skipped, the region
        is still part of the claim's event."""
        stores = []

        def prewrite(node):
            out = node.fields["out"]
            out.store(0, slice(0, 4), np.arange(0, 8, 2))
            real_store = out.store
            out.store = lambda age, index, value: (
                stores.append(index), real_store(age, index, value))[1]

        _node, result, events = _store_events(
            _doubling_program(48, 4), "threads", 32, recover=True,
            prepare=prewrite)
        assert result.fields["out"].fetch(0).tolist() == list(
            range(0, 96, 2))
        assert (slice(0, 4),) not in stores and len(stores) == 11
        (group,) = [g for f, _a, g in events if f == "out"]
        assert list(group) == [(slice(x, x + 4),) for x in range(0, 48, 4)]

    CASES = {
        "lang-mulsum": {"max_age": 3},
        "kmeans-point": {},
        "mjpeg": {},
        "intra": {},
    }

    @staticmethod
    def _run_case(name, backend, batch):
        """Bytes a scalar build of ``name`` produces (no kernel of it
        has a ``batch_body``)."""
        from repro.lang import compile_program
        from repro.workloads import IntraConfig, build_intra

        kw = TestScalarClaims.CASES[name]
        if name == "lang-mulsum":  # prints nothing: read the fields
            program, sink = compile_program(_LANG_MULSUM), None
        elif name == "kmeans-point":
            program, sink = build_kmeans(
                n=60, k=5, iterations=3, granularity="point")
        elif name == "mjpeg":
            program, sink = build_mjpeg(
                config=MJPEGConfig(48, 32, frames=2))
        else:
            program, sink = build_intra(
                config=IntraConfig(width=48, height=32, frames=2))
        scalar_only(program)
        result = run_program(program, workers=2, backend=backend,
                             batch=batch, timeout=120, **kw)
        if name == "lang-mulsum":
            return b"".join(
                result.fields[f].fetch(age).tobytes()
                for age in range(4) for f in ("m_data", "p_data"))
        if name == "kmeans-point":
            return b"".join(sink.history[a].tobytes()
                            for a in sorted(sink.history))
        if name == "mjpeg":
            return sink.stream()
        # the sink is filled by a body, i.e. in a worker process
        return b"".join(
            result.fields[f].fetch(age).tobytes()
            for age in range(2) for f in ("recon", "levels"))

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_scalar_programs_byte_identical_at_any_claim(self, name,
                                                         backend):
        want = self._run_case(name, "threads", 1)
        assert want
        for batch in (1, 5, 32):
            assert self._run_case(name, backend, batch) == want

    def test_cluster_transport_carries_the_group_events(self):
        """The scalar mulsum over two nodes: what crosses the transport
        is one store event per claim, and the series is unchanged."""
        from repro.core import StoreEvent
        from repro.dist import InProcTransport

        sink = {}
        program, _ = build_mulsum(sink=sink)
        scalar_only(program)
        transport = InProcTransport()
        transport.enable_log()
        result = Cluster(
            program, {"n0": 1, "n1": 1}, transport=transport,
        ).run(max_age=4, batch=5, timeout=120)
        assert result.reason == "idle"
        _assert_mulsum(sink, 5)
        groups = [
            len(msg.payload.regions) for msg in transport.replay()
            if isinstance(msg.payload, StoreEvent)
            and msg.topic in ("m_data", "p_data")
        ]
        assert groups and max(groups) == 5
        assert sum(groups) >= 5 * 9  # 5 ages of p_data, 4 of m_data + init


class TestRecoverCommitRace:
    """A successor re-executes its predecessor's unfinished work only
    through the event-log replay, which dispatches each instance once,
    so no two copies of one instance race to commit.  A write-once
    violation is a bug on a recover node as anywhere else: it raises,
    on both the scalar and the vectorized store path."""

    @staticmethod
    def _race_first_store(node, field_name):
        """Make the first store to ``field_name`` lose the commit race:
        a shadow commit of the same bytes lands between the caller's
        completeness check and its own store."""
        field = node.fields[field_name]
        real_store = field.store
        fired = []

        def racing_store(age, index, value):
            if not fired:
                fired.append(True)
                real_store(age, index, value)  # the duplicate's commit
            return real_store(age, index, value)

        field.store = racing_store
        return fired

    @pytest.mark.parametrize("batch", [1, 4])
    def test_recover_node_raises_on_a_lost_race(self, batch):
        program, _ = build_mulsum()
        node = ExecutionNode(program, 2, max_age=2, recover=True,
                             batch=batch)
        fired = self._race_first_store(node, "p_data")
        with pytest.raises(WriteOnceViolation):
            node.run(timeout=60)
        assert fired

    def test_non_recover_node_still_raises(self):
        program, _ = build_mulsum()
        node = ExecutionNode(program, 2, max_age=2)
        fired = self._race_first_store(node, "p_data")
        with pytest.raises(WriteOnceViolation):
            node.run(timeout=60)
        assert fired


class TestHotPathGuards:
    """Satellite: metrics/trace guards and pooled contexts."""

    def test_default_registry_counts_instances_exactly(self):
        reg = MetricsRegistry()
        program, _ = build_mulsum()
        result = run_program(program, workers=2, max_age=3,
                             metrics=reg, batch=8)
        flat = flatten(reg.snapshot())
        executed = result.instrumentation.total_instances()
        assert flat["instances.executed"] == executed
        # Batched mode observes ready-wait once per *dispatch*.
        assert flat["ready.pops"] == executed
        assert 0 < flat["ready.wait_s.count"] <= executed

    def test_context_reset_clears_state(self):
        ctx = KernelContext(age=0, index={"x": 1}, fetched={"v": 1})
        ctx.emit("k", 2)
        ctx2 = ctx.reset(3, {"x": 9}, {"v": 5})
        assert ctx2 is ctx
        assert ctx.age == 3 and ctx.index == {"x": 9}
        assert ctx.fetched == {"v": 5}
        assert ctx.emitted == {} and ctx.outputs == []

    def test_telemetry_off_binds_no_timeline(self):
        # Telemetry and tracing off (the default) is no sink: the node
        # records into the shared sink-less stream, so every hot-path
        # guard is one false ``tracer.enabled`` test.
        from repro.obs import NULL_TRACER

        program, sink = build_mulsum()
        result = run_program(program, workers=2, max_age=3, batch=8)
        assert result.telemetry is None and result.tracer is None
        node = ExecutionNode(program, 1)
        assert node.tracer is NULL_TRACER
        assert not node.tracer.enabled and node.tracer.frames is None

    def test_enabled_timeline_ignores_non_stream_frames(self):
        # Batch (non-stream) runs hit the span hooks, but no driver
        # ever begin()s a frame: the recorder must stay empty.
        from repro.obs import Telemetry

        tel = Telemetry()
        program, sink = build_mulsum()
        result = run_program(program, workers=2, max_age=3, batch=8,
                             telemetry=tel)
        _assert_mulsum(sink, 4)
        assert result.telemetry is tel
        assert tel.timeline.in_flight() == 0
        assert tel.timeline.sessions() == []


def _doubling_program(extent, block, *, body=None, batch_body=None,
                      domain=None):
    """``src`` stores ``a`` whole; one ``dbl`` instance per ``block``
    elements doubles its region into ``out``.  An ``extent`` that is not
    a multiple of ``block`` leaves a ragged trailing region — unless
    ``domain`` stops the instances short of it, which leaves whole
    blocks that do not tile the field."""
    from repro.core import AgeExpr, FieldDef

    def src(ctx):
        ctx.emit("a", np.arange(extent, dtype=np.int64))

    def dbl(ctx):
        ctx.emit("out", ctx["v"] * 2)

    age0 = AgeExpr.const(0)
    return Program.build(
        [FieldDef("a", "int64", 1, aging=False, shape=(extent,)),
         FieldDef("out", "int64", 1, aging=False, shape=(extent,))],
        [KernelDef("src", src, stores=(StoreSpec("a", age=age0),)),
         KernelDef(
             "dbl", body or dbl, index_vars=("x",),
             fetches=(FetchSpec("v", "a", age=age0,
                                dims=(Dim.of("x", block),)),),
             stores=(StoreSpec("out", age=age0,
                               dims=(Dim.of("x", block),)),),
             batch_body=batch_body,
             domain=None if domain is None else {"x": domain},
         )],
    )


def _stacked_double(bctx):
    bctx.emit("out", bctx["v"] * 2)


def _always_fall_back(bctx):
    raise VectorizeFallback


class TestOnePathSeams:
    """Threads and worker processes run one routine at every batch
    size; these pin the places where separate copies used to drift:
    the scalar drop inside a batch, error attribution, and what the
    parent can see of a worker's vectorization."""

    @staticmethod
    def _run(program, backend, batch, tracer=None):
        reg = MetricsRegistry()
        events = []
        node = ExecutionNode(
            program, 1, backend=backend, batch=batch, metrics=reg,
            tracer=tracer,
            # One entry per announced *region*: how a dispatch groups
            # its stores into events is free, what it announces is not.
            on_event=lambda _node, ev: events.extend(
                (type(ev).__name__, ev.field, region)
                for region in getattr(ev, "regions", (None,))),
        )
        result = node.run(timeout=60)
        flat = flatten(reg.snapshot())
        counts = {k: flat[k] for k in (
            "instances.executed", "fields.stores", "fields.fetches")}
        counts["dbl"] = result.instrumentation["dbl"].instances
        return (result.fields["out"].fetch(0).tobytes(),
                sorted(events, key=repr), counts, flat)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("case", ["ragged", "fallback"])
    def test_scalar_drop_inside_a_batch_is_invisible(self, backend, case):
        """A ragged trailing region (a shape class of one) and a
        ``batch_body`` raising VectorizeFallback both finish in the
        scalar loop: same bytes and the same regions announced as
        ``batch=1`` (however they are grouped into events).  The
        declined claim is counted as a drop on either backend; beside
        the ragged block, the four whole ones stay one stacked call."""
        def build():
            if case == "ragged":
                return _doubling_program(18, 4, batch_body=_stacked_double)
            return _doubling_program(20, 4, batch_body=_always_fall_back)

        base = self._run(build(), backend, 1)
        got = self._run(build(), backend, 8)
        assert got[:3] == base[:3]
        assert base[2]["dbl"] == 5
        assert base[3]["exec.vectorize_fallbacks"] == 0
        if case == "ragged":
            assert got[3]["exec.vectorize_fallbacks"] == 0
            assert got[3]["exec.vectorized_instances"] == 4
        else:
            assert got[3]["exec.vectorize_fallbacks"] >= 1
            assert got[3]["exec.vectorized_instances"] == 0

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_untiled_group_takes_the_region_loop_unseen(self, backend):
        """18 elements in blocks of 4: the four whole blocks form a
        uniform batch whose region group does not tile the field, so
        the group path declines it and the per-region loop moves it —
        still one stacked call, same bytes, same regions announced; the
        ragged fifth block runs alone."""
        def build():
            return _doubling_program(18, 4, batch_body=_stacked_double)

        base = self._run(build(), backend, 1)
        got = self._run(build(), backend, 4)
        assert got[:3] == base[:3]
        assert got[3]["exec.vectorized_instances"] == 4
        assert got[3]["exec.vectorize_fallbacks"] == 0

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_vectorization_is_visible_from_the_parent(self, backend):
        from repro.obs import Tracer

        tracer = Tracer()
        out, _events, counts, flat = self._run(
            _doubling_program(32, 4, batch_body=_stacked_double),
            backend, 8, tracer,
        )
        assert out == (np.arange(32, dtype=np.int64) * 2).tobytes()
        assert counts["dbl"] == 8
        assert flat["exec.vectorize_fallbacks"] == 0
        assert 2 <= flat["exec.vectorized_instances"] <= 8
        spans = [e for e in tracer.events() if e.get("cat") == "kernel"]
        assert all("vectorized" in e["args"] for e in spans)
        stacked = [e for e in spans if e["name"].startswith("dbl[x")]
        assert stacked and all(e["args"]["vectorized"] for e in stacked)
        assert sum(e["args"]["batch"] for e in stacked) == (
            flat["exec.vectorized_instances"])

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("fallback", [False, True],
                             ids=["scalar", "after-fallback"])
    def test_body_error_names_the_failing_instance(self, backend,
                                                   fallback):
        from repro.core.errors import KernelBodyError

        def bomb(ctx):
            if ctx.index["x"] == 2:
                raise ValueError("boom")
            ctx.emit("out", ctx["v"] * 2)

        program = _doubling_program(
            16, 4, body=bomb,
            batch_body=_always_fall_back if fallback else None,
        )
        with pytest.raises(KernelBodyError) as ei:
            run_program(program, workers=1, backend=backend, batch=4,
                        timeout=60)
        err = ei.value
        assert (err.kernel, err.age, tuple(err.index)) == ("dbl", None, (2,))
        assert "ValueError: boom" in str(err)


    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_short_stack_is_a_named_body_error(self, backend):
        """A stacked form emitting the wrong number of rows: the same
        KernelBodyError on both backends — kernel, key, shape got, rows
        wanted — and nothing of the claim written."""
        from repro.core.errors import KernelBodyError

        def short(bctx):
            bctx.emit("out", (bctx["v"] * 2)[:-1])

        program = _doubling_program(32, 4, batch_body=short)
        node = ExecutionNode(program, 1, backend=backend, batch=32)
        with pytest.raises(KernelBodyError) as ei:
            node.run(timeout=60)
        assert ei.value.kernel == "dbl" and ei.value.stores == []
        # (a worker's error arrives with its remote traceback appended)
        assert str(ei.value).startswith(
            "kernel 'dbl' instance (age=None, index=(0,)) raised ")
        assert (
            "ValueError: batch_body emitted 'out' with shape (7, 4) for a "
            "stack of 8 instances (one row each)") in str(ei.value)
        assert node.fields["out"].written_count(0) == 0


def _doubling_plane(height, width, block):
    """:func:`_doubling_program` on a 2-D ``int64`` field: one ``dbl``
    instance per ``block`` x ``block`` tile, index ``(y, x)``; the
    right and bottom edges are ragged unless ``block`` divides the
    extent."""
    from repro.core import AgeExpr, FieldDef

    def src(ctx):
        ctx.emit("a", np.arange(height * width, dtype=np.int64).reshape(
            height, width))

    def dbl(ctx):
        ctx.emit("out", ctx["v"] * 2)

    age0 = AgeExpr.const(0)
    dims = (Dim.of("y", block), Dim.of("x", block))
    return Program.build(
        [FieldDef("a", "int64", 2, aging=False, shape=(height, width)),
         FieldDef("out", "int64", 2, aging=False, shape=(height, width))],
        [KernelDef("src", src, stores=(StoreSpec("a", age=age0),)),
         KernelDef(
             "dbl", dbl, index_vars=("y", "x"),
             fetches=(FetchSpec("v", "a", age=age0, dims=dims),),
             stores=(StoreSpec("out", age=age0, dims=dims),),
             batch_body=_stacked_double,
         )],
    )


class TestRaggedClaims:
    """A claim holding ragged edge blocks is one stacked call per shape
    class of its rows, not a scalar loop."""

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_ragged_claims_keep_the_stacked_form(self, backend):
        """100 x 100 in 8 x 8 tiles on 2 workers: 169 instances in two
        claims.  The 144 whole tiles, the 12 right-edge and the 12
        bottom-edge tiles run stacked; only the corner tile, a class of
        one, runs alone.  The bytes are ``batch=1``'s."""
        def run(batch):
            reg = MetricsRegistry()
            result = run_program(
                _doubling_plane(100, 100, 8), workers=2, backend=backend,
                batch=batch, metrics=reg, timeout=60,
            )
            return result.fields["out"].fetch(0), flatten(reg.snapshot())

        base, _flat = run(1)
        got, flat = run(32)
        assert got.tobytes() == base.tobytes()
        assert np.array_equal(
            base, np.arange(10_000, dtype=np.int64).reshape(100, 100) * 2)
        assert flat["instances.executed"] == 170
        assert flat["exec.vectorized_instances"] == 168
        assert flat["exec.vectorize_fallbacks"] == 0


class TestEventGranularity:
    """The event stream is as coarse as the dispatch: one store event
    per (field, age) of a dispatch, and one done event per dispatch the
    analyzer acts on — an aged source's, or any with ``gc_fields``."""

    @staticmethod
    def _run(backend, batch, gc_fields=False):
        reg = MetricsRegistry()
        program, sink = build_mjpeg(config=MJPEGConfig(64, 64, 2))
        node = ExecutionNode(program, 2, backend=backend, batch=batch,
                             metrics=reg, gc_fields=gc_fields)
        seen = {"store": 0, "regions": 0, "done": 0, "members": 0,
                "dispatches": 0, "source_dispatches": 0,
                "source_members": 0}
        on_store, on_done = node.analyzer.on_store, node.analyzer.on_done
        execute_batch = node.backend.execute_batch

        def counting_store(ev):
            seen["store"] += 1
            seen["regions"] += len(ev.regions)
            return on_store(ev)

        def counting_done(ev):
            seen["done"] += 1
            seen["members"] += len(ev.claim)
            return on_done(ev)

        def counting_execute(batch_, worker_id):
            seen["dispatches"] += 1
            kernel = batch_[0].kernel
            if kernel.is_source and kernel.has_age:
                seen["source_dispatches"] += 1
                seen["source_members"] += len(batch_)
            return execute_batch(batch_, worker_id)

        node.analyzer.on_store = counting_store
        node.analyzer.on_done = counting_done
        node.backend.execute_batch = counting_execute
        node.run(timeout=120)
        flat = flatten(reg.snapshot())
        assert sink.stream() == mjpeg_baseline(config=MJPEGConfig(64, 64, 2))
        return seen, flat["fields.stores"], flat["instances.executed"]

    @staticmethod
    def _one_dispatch_of_32(backend):
        """``src`` stores ``a`` whole, the analyzer pushes all 32 ``dbl``
        instances as one run, the single worker claims them as one
        batch: a deterministic event stream on either backend."""
        program = _doubling_program(128, 4, batch_body=_stacked_double)
        events, replies = [], []
        node = ExecutionNode(
            program, 1, backend=backend, batch=32,
            on_event=lambda _node, ev: events.append(ev),
        )
        if backend == "processes":
            recv_reply = node.backend._recv_reply

            def capture(*args):
                reply = recv_reply(*args)  # as unpickled off the pipe
                replies.append(reply)
                return reply

            node.backend._recv_reply = capture
        result = node.run(timeout=60)
        assert result.fields["out"].fetch(0).tolist() == list(
            range(0, 256, 2))
        assert result.instrumentation["dbl"].instances == 32
        return events, replies

    def test_stacked_reply_carries_one_record_per_store_spec(self):
        from repro.core.fields import RegionGroup

        events, replies = self._one_dispatch_of_32("processes")
        (reply,) = [r for r in replies if r[-1]]  # the vectorized one
        tag, stores, outputs = reply[:3]
        assert tag == "ok" and outputs == []
        (record,) = stores  # 32 instances, one store spec, one record
        field, age, regions, who = record
        assert (field, age, who) == ("out", 0, None)
        assert isinstance(regions, RegionGroup) and len(regions) == 32
        assert regions.shape == (4,)
        assert regions.starts[:, 0].tolist() == list(range(0, 128, 4))
        # the parent announces the group as it arrived
        (out_event,) = [ev for ev in events if ev.field == "out"]
        assert isinstance(out_event.rest, RegionGroup)
        assert out_event.regions == tuple(regions)

    def test_backends_agree_on_the_store_event_stream(self):
        streams = {
            backend: [
                (ev.field, ev.age, ev.regions, ev.elements)
                for ev in self._one_dispatch_of_32(backend)[0]
            ]
            for backend in ("threads", "processes")
        }
        assert streams["threads"] == streams["processes"]
        assert [(f, len(r), n) for f, _a, r, n in streams["threads"]] == [
            ("a", 1, 128), ("out", 32, 128)]

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_batch_32_posts_one_done_event_per_dispatch(self, backend):
        """Per dispatch the analyzer acts on: the aged source ``read``'s
        dispatches post one done event each, carrying every member; no
        other dispatch posts one (it could make nothing runnable)."""
        seen, stores, executed = self._run(backend, 32)
        assert seen["done"] == seen["source_dispatches"] > 0
        assert seen["members"] == seen["source_members"] < executed
        assert seen["dispatches"] > seen["done"]
        assert seen["regions"] == stores  # every store announced once
        assert seen["store"] + seen["done"] <= stores / 2

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_batch_1_announces_each_store_and_instance(self, backend):
        seen, stores, executed = self._run(backend, 1)
        assert seen["store"] == seen["regions"] == stores
        assert seen["done"] == seen["members"] == seen["source_dispatches"]
        assert seen["dispatches"] == executed > seen["done"] > 0

    @pytest.mark.parametrize("batch", [1, 32])
    def test_gc_fields_gets_a_done_event_per_dispatch(self, batch):
        """The retirement sweep runs on done events, so with
        ``gc_fields`` every dispatch posts one."""
        seen, _stores, executed = self._run("threads", batch,
                                            gc_fields=True)
        assert seen["done"] == seen["dispatches"]
        assert seen["members"] == executed


# ----------------------------------------------------------------------
# Claims: a worker's share of a run is the unit on the shared path,
# ``batch`` only sizes the body call
# ----------------------------------------------------------------------
_BLOCK = 3


def _claim_program(n, layout, poison=None):
    """``n`` doubling instances over blocks of :data:`_BLOCK`:
    ``"tiled"`` (the regions tile the field), ``"untiled"`` (whole
    blocks of a field one element too long to tile) or ``"ragged"``
    (the last block is short, so no claim containing it has a uniform
    fetch plan).  ``poison`` names an instance whose stack's
    ``batch_body`` call raises VectorizeFallback."""
    def stacked(bctx):
        if any(imap["x"] == poison for imap in bctx.indices):
            raise VectorizeFallback
        bctx.emit("out", bctx["v"] * 2)

    if layout == "ragged":
        return _doubling_program(n * _BLOCK - 1, _BLOCK, batch_body=stacked)
    extent = n * _BLOCK + (layout == "untiled")
    return _doubling_program(extent, _BLOCK, batch_body=stacked, domain=n)


def _run_claims(program, backend, batch, workers, covered):
    """Run ``program``; returns what must not depend on ``batch``
    (bytes of the covered part of ``out``, announced regions, counters)
    and what describes the claims (``dbl`` claim sizes, write-once
    commits of ``out``)."""
    reg = MetricsRegistry()
    events, claims, marks = [], [], []
    node = ExecutionNode(
        program, workers, backend=backend, batch=batch, metrics=reg,
        on_event=lambda _node, ev: events.extend(
            (type(ev).__name__, ev.field, region)
            for region in getattr(ev, "regions", (None,))),
    )
    execute_batch = node.backend.execute_batch
    out = node.fields["out"]
    mark_written_many = out.mark_written_many

    def counting_execute(claim, worker_id):
        if claim[0].kernel.name == "dbl":
            claims.append(len(claim))
        return execute_batch(claim, worker_id)

    def counting_mark(age, regions):
        marks.append(len(regions))
        return mark_written_many(age, regions)

    node.backend.execute_batch = counting_execute
    out.mark_written_many = counting_mark
    result = node.run(timeout=60)
    flat = flatten(reg.snapshot())
    same = (
        result.fields["out"].fetch(0, slice(0, covered)).tobytes(),
        sorted(events, key=repr),
        flat["instances.executed"], flat["fields.stores"],
    )
    return same, claims, marks, flat


class TestClaimEquivalence:
    """Any claim size, stack size, worker count, field layout and
    fallback position: same bytes, same announced regions, same
    counters as ``batch=1``."""

    @pytest.mark.parametrize("backend,examples", [("threads", 150),
                                                  ("processes", 40)])
    def test_claims_are_invisible_in_the_results(self, backend, examples):
        @given(
            n=st.integers(2, 40),
            batch=st.integers(2, 9),
            workers=st.integers(1, 3),
            layout=st.sampled_from(["tiled", "untiled", "ragged"]),
            poison=st.one_of(st.none(), st.integers(0, 39)),
        )
        @settings(max_examples=examples, deadline=None)
        def check(n, batch, workers, layout, poison):
            covered = n * _BLOCK - (layout == "ragged")
            base, singles, _marks, _flat = _run_claims(
                _claim_program(n, layout), backend, 1, workers, covered)
            got, claims, marks, flat = _run_claims(
                _claim_program(n, layout, poison), backend, batch,
                workers, covered)
            assert got == base
            assert base[0] == (
                np.arange(covered, dtype=np.int64) * 2).tobytes()
            assert singles == [1] * n
            # a claim is a worker's share of the run, never less than
            # ``batch`` while that many are left
            assert sum(claims) == n
            assert len(claims) <= max(workers, -(-n // batch))
            assert flat["exec.claims"] == len(claims) + 1  # + ``src``
            if backend == "processes":
                # one write-once commit per (field, age) per claim
                assert len(marks) == len(claims)
                assert sorted(marks) == sorted(claims)
            dropped = poison is not None and poison < n
            if layout != "ragged" and not dropped:
                assert flat["exec.vectorize_fallbacks"] == 0
                assert flat["exec.vectorized_instances"] == sum(
                    c for c in claims if c > 1)
            if dropped:
                assert flat["exec.vectorized_instances"] <= n - 1

        check()

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_fallback_in_stack_k_happens_before_any_write(self, backend,
                                                          tmp_path):
        """One claim of 12 is one body call, and it declines (its
        ninth instance is the one it cannot take).  At that moment
        nothing of the claim has been written (the scatter comes after
        the last body call); the claim then runs in the scalar loop."""
        seen = tmp_path / "seen"

        def stacked(bctx):
            if any(imap["x"] == 8 for imap in bctx.indices):
                with open(seen, "a") as fh:
                    fh.write(f"{probe()}\n")
                raise VectorizeFallback
            bctx.emit("out", bctx["v"] * 2)

        program = _doubling_program(48, 4, batch_body=stacked)
        reg = MetricsRegistry()
        node = ExecutionNode(program, 1, backend=backend, batch=4,
                             metrics=reg)
        out = node.fields["out"]
        if backend == "threads":
            def probe():
                return out.written_count(0)
        else:
            # in the worker the payload is all there is to look at: the
            # parent gives age 0 its segment before the workers fork
            from repro.core.fields import segment_name

            name = segment_name(node.fields.run_id, "out",
                                out.ensure_age(0))

            def probe():
                from multiprocessing import shared_memory

                shm = shared_memory.SharedMemory(name=name)
                try:
                    return int(np.count_nonzero(
                        np.ndarray((48,), np.int64, buffer=shm.buf)))
                finally:
                    shm.close()

        result = node.run(timeout=60)
        # raised once, in the claim's one body call, nothing written
        assert seen.read_text().split() == ["0"]
        assert result.fields["out"].fetch(0).tolist() == list(
            range(0, 96, 2))
        flat = flatten(reg.snapshot())
        assert flat["exec.vectorized_instances"] == 0
        assert flat["exec.vectorize_fallbacks"] == 1
        assert flat["instances.executed"] == 13

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_body_error_in_stack_k_commits_nothing(self, backend):
        from repro.core.errors import KernelBodyError

        def stacked(bctx):
            if any(imap["x"] == 8 for imap in bctx.indices):
                raise ValueError("boom")
            bctx.emit("out", bctx["v"] * 2)

        program = _doubling_program(48, 4, batch_body=stacked)
        events = []
        node = ExecutionNode(
            program, 1, backend=backend, batch=4,
            on_event=lambda _node, ev: events.append(ev.field))
        with pytest.raises(KernelBodyError) as ei:
            node.run(timeout=60)
        err = ei.value
        # the stacked call names the first instance of its call: the
        # claim's
        assert (err.kernel, tuple(err.index)) == ("dbl", (0,))
        assert "ValueError: boom" in str(err)
        assert node.fields["out"].written_count(0) == 0
        assert events == ["a"]

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_write_once_violation_in_a_claim_commits_nothing(self,
                                                             backend):
        """The last block of ``out`` is already written when the one
        claim of 12 (three stacks) commits: the violation is raised and
        none of the claim's other 11 regions is marked or announced."""
        program = _doubling_program(48, 4, batch_body=_stacked_double)
        events = []
        node = ExecutionNode(
            program, 1, backend=backend, batch=4,
            on_event=lambda _node, ev: events.append(ev.field))
        out = node.fields["out"]
        out.store(0, slice(44, 48), np.full(4, -1, dtype=np.int64))
        with pytest.raises(WriteOnceViolation):
            node.run(timeout=60)
        assert out.written_count(0) == 4
        assert events == ["a"]
        if backend == "threads":
            # (a worker process scatters into the segment before the
            # parent can check; the run fails either way)
            assert out.fetch(0, slice(44, 48)).tolist() == [-1] * 4


class TestDispatchCount:
    """How many ``execute_batch`` calls a wavefront costs."""

    @staticmethod
    def _count(node):
        calls = []
        execute_batch = node.backend.execute_batch

        def counting(claim, worker_id):
            calls.append((claim[0].kernel.name, len(claim)))
            return execute_batch(claim, worker_id)

        node.backend.execute_batch = counting
        return calls

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_a_cif_frame_costs_at_most_eight_calls(self, backend):
        """read + 2 claims each of ydct / udct / vdct + vlc: 8 calls
        for a CIF frame on 2 workers (77 when a claim was ``batch``
        instances), whatever the order the workers get to the queue."""
        frames = 2
        cfg = MJPEGConfig(width=352, height=288, frames=frames)
        program, sink = build_mjpeg(config=cfg)
        node = ExecutionNode(program, 2, backend=backend, batch=32)
        calls = self._count(node)
        node.run(timeout=300)
        assert sink.stream() == mjpeg_baseline(config=cfg)
        # the source's end-of-stream probe is the one call past the
        # last frame
        assert len(calls) <= 8 * frames + 1
        assert sum(n for _name, n in calls) == (
            frames * (1 + 1584 + 396 + 396 + 1) + 1)
        sizes = {name: {n for k, n in calls if k == name}
                 for name in ("ydct", "udct", "vdct")}
        assert sizes == {"ydct": {792}, "udct": {198}, "vdct": {198}}

    def test_batch_1_costs_one_call_per_instance(self):
        program, sink = build_kmeans(n=40, k=8, iterations=3,
                                     granularity="pair")
        node = ExecutionNode(program, 2, batch=1)
        calls = self._count(node)
        result = node.run(timeout=120)
        assert len(calls) == result.instrumentation.total_instances()
        assert {n for _name, n in calls} == {1}
        base = kmeans_baseline(n=40, k=8, iterations=3)
        for age in base.history:
            assert np.array_equal(sink.history[age], base.history[age])

    def test_worker_killed_mid_claim_names_it_and_commits_nothing(self):
        import os

        from repro.core.errors import WorkerProcessError

        def stacked(bctx):
            if any(imap["x"] == 8 for imap in bctx.indices):
                os._exit(3)  # inside the claim's one body call
            bctx.emit("out", bctx["v"] * 2)

        program = _doubling_program(48, 4, batch_body=stacked)
        events = []
        node = ExecutionNode(
            program, 1, backend="processes", batch=4,
            on_event=lambda _node, ev: events.append(ev.field))
        with pytest.raises(WorkerProcessError,
                           match=r"dbl\[x12\]\(age=None, index=\(0,\)\)"):
            node.run(timeout=60)
        assert node.fields["out"].written_count(0) == 0
        assert events == ["a"]

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_trace_span_carries_claim_and_stacks(self, backend):
        from repro.obs import Tracer

        tracer = Tracer()
        reg = MetricsRegistry()
        node = ExecutionNode(
            _doubling_program(160, 4, batch_body=_stacked_double), 2,
            backend=backend, batch=8, tracer=tracer, metrics=reg)
        node.run(timeout=60)
        spans = [e["args"] for e in tracer.events()
                 if e.get("cat") == "kernel"
                 and e["name"].startswith("dbl")]
        # 40 instances, 2 workers: two claims of 20, one body call each
        assert [(a["batch"], a["stacks"]) for a in spans] == [(20, 1)] * 2
        flat = flatten(reg.snapshot())
        assert flat["exec.claims"] == 3  # ``src`` + the two
        assert flat["exec.claim_size.count"] == 3
        assert flat["exec.claim_size.sum"] == 41
        assert flat["exec.claim_size.max"] == 20


class TestAClaimBuildsNoInstance:
    """A wavefront is one index array from analysis to worker: with
    tracing off, a CIF frame at ``batch=32`` — its store events, the
    analyzer's runs, the queue's claims, the backend's message, the
    worker's routine and the commit tail — builds no
    :class:`KernelInstance`, in the parent or in a worker process."""

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_a_cif_frame_builds_no_instance(self, backend, monkeypatch):
        import multiprocessing

        built = multiprocessing.Value("i", 0)  # shared with forked workers
        init = KernelInstance.__init__

        def counting(self, *args, **kwargs):
            with built.get_lock():
                built.value += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(KernelInstance, "__init__", counting)
        KernelInstance(build_mulsum()[0].kernels["mul2"], 0)
        assert built.value == 1  # the count sees a construction
        built.value = 0
        cfg = MJPEGConfig(width=352, height=288, frames=1)
        program, sink = build_mjpeg(config=cfg)
        node = ExecutionNode(program, 2, backend=backend, batch=32)
        sizes = []
        execute_batch = node.backend.execute_batch

        def counting_execute(claim, worker_id):
            sizes.append(len(claim))  # (``claim[0]`` would build one)
            return execute_batch(claim, worker_id)

        node.backend.execute_batch = counting_execute
        node.run(timeout=300)
        assert sink.stream() == mjpeg_baseline(config=cfg)
        # read + the DCTs + vlc, and the source's end-of-stream probe
        assert sum(sizes) == 1 + 1584 + 396 + 396 + 1 + 1
        assert built.value == 0
