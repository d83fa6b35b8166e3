"""Compile-time fusion: a chain of block maps lowers to one kernel.

Property: random linear chains (stages with and without a ``stack=``
function — "tagged" below — block ratios
1 / 2 / 4 per axis) produce the bytes of a sequential NumPy reference on
every execution form, from one kernel and no interior field.  Negative:
each graph shape the fusability rule excludes keeps its kernels and its
fields.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ops
from repro.core import run_program
from repro.core.errors import DefinitionError, KernelBodyError
from repro.core.fusion import retile
from repro.media.stacked import box_downscale_stack
from repro.media.yuv import box_downscale
from repro.obs import MetricsRegistry, flatten
from tests.conftest import scalar_only


# ----------------------------------------------------------------------
# Random chains
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageSpec:
    """One map of a random chain over a uint8 plane: ``factor > 0`` is
    an integer box downscale (``tagged``: defined with its ``stack=``
    function), ``factor == 0`` an elementwise ``x*mul + add`` computed in
    int64 and emitted as such into the uint8 port."""

    factor: int
    tagged: bool
    mul: int
    add: int
    fetch: tuple[int, int]  # fetch block
    shape: tuple[int, int]  # input plane

    @property
    def scale(self) -> int:
        return self.factor or 1

    @property
    def store(self) -> tuple[int, int]:
        return tuple(b // self.scale for b in self.fetch)

    @property
    def out_shape(self) -> tuple[int, int]:
        return tuple(n // self.scale for n in self.shape)

    def apply(self, plane: np.ndarray) -> np.ndarray:
        """The stage over a whole plane (or a block of it)."""
        if self.factor:
            return box_downscale(plane, self.factor)
        return (plane.astype(np.int64) * self.mul + self.add).astype(
            np.uint8
        )

    @property
    def stack(self):
        if self.factor and self.tagged:
            return box_downscale_stack(self.factor)
        return None

    def fn(self):
        if self.factor:
            def body(ctx):
                ctx.emit("x", box_downscale(ctx.fetched["x"], self.factor))

            return body

        def affine(ctx):
            ctx.emit(
                "x",
                ctx.fetched["x"].astype(np.int64) * self.mul + self.add,
            )

        return affine


@st.composite
def chains(draw):
    """2–4 stages; per-edge block ratios from {1, 2, 4} per axis (their
    product per axis capped at 8 to bound the scalar runs); the tail
    runs 1–3 instances per axis, so every extent is a multiple of the
    outer block."""
    n = draw(st.integers(2, 4))
    tagged_only = draw(st.booleans())
    blocks, fetch, total = [], (2, 2), [1, 1]
    for i in range(n):
        even = all(b % 2 == 0 for b in fetch)
        if tagged_only:
            factor = draw(st.sampled_from([1, 2] if even else [1]))
        else:
            factor = draw(st.sampled_from([0, 1, 2] if even else [0, 1]))
        blocks.append((factor, fetch))
        store = tuple(b // (factor or 1) for b in fetch)
        ratio = []
        for axis in range(2):
            r = draw(st.sampled_from([1, 2, 4])) if i < n - 1 else 1
            if total[axis] * r > 8:
                r = 1
            total[axis] *= r
            ratio.append(r)
        fetch = tuple(s * r for s, r in zip(store, ratio))
    count = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    # extents, tail to head: the tail's plane is count x its fetch block
    shape = tuple(c * b for c, b in zip(count, blocks[-1][1]))
    shapes = [shape]
    for factor, _ in reversed(blocks[:-1]):
        shapes.insert(0, tuple(n * (factor or 1) for n in shapes[0]))
    return [
        StageSpec(
            factor, tagged_only or draw(st.booleans()),
            draw(st.integers(1, 7)), draw(st.integers(-9, 9)),
            fetch, shape,
        )
        for (factor, fetch), shape in zip(blocks, shapes)
    ]


def _frames(chain, n=3):
    rng = np.random.default_rng(sum(chain[0].shape) + len(chain))
    return [
        rng.integers(0, 256, size=chain[0].shape, dtype=np.uint8)
        for _ in range(n)
    ]


def _pipeline(chain, frames, vectorize=True, tap=None):
    """source → the chain's maps → sink; ``tap`` names a stage whose out
    port also feeds a second sink (which keeps it a field)."""
    h = ops.source(
        "src", {"x": ("uint8", chain[0].shape)},
        frames=[{"x": f} for f in frames],
    )
    sinks = []
    for i, stage in enumerate(chain):
        h = h.block(*stage.fetch).map(
            f"s{i}", stage.fn(),
            out={"x": ("uint8", stage.out_shape)},
            out_block={"x": stage.store},
            stack=stage.stack,
        )
        if tap == i:
            sinks.append(h.sink("tap"))
    sinks.insert(0, h.sink("out"))
    pipe = ops.compile_ops(sinks)
    return pipe if vectorize else scalar_only(pipe)


def _reference(chain, frames):
    out = []
    for plane in frames:
        for stage in chain:
            plane = stage.apply(plane)
        out.append(plane.tobytes())
    return out


def _collected(pipe):
    return [np.asarray(v).tobytes() for v in pipe.collector("out").values()]


class TestRandomChains:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(chains())
    def test_one_kernel_same_bytes_on_every_form(self, chain):
        frames = _frames(chain)
        expected = _reference(chain, frames)
        names = tuple(f"s{i}" for i in range(len(chain)))
        for vectorize in (True, False):
            for batch in (1, 32):
                pipe = _pipeline(chain, frames, vectorize)
                assert set(pipe.program.kernels) == {
                    "src", names[-1], "out",
                }
                assert set(pipe.program.fields) == {
                    "src.x", f"{names[-1]}.x",
                }
                assert pipe.fused == {names[-1]: names}
                stacked = vectorize and all(
                    s.factor and s.tagged for s in chain
                )
                fused = pipe.program.kernels[names[-1]]
                assert (fused.batch_body is not None) == stacked
                run_program(pipe.program, workers=2, batch=batch,
                            timeout=120)
                assert _collected(pipe) == expected

    @settings(
        max_examples=4, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(chains())
    def test_same_bytes_on_worker_processes(self, chain):
        frames = _frames(chain)
        for batch in (1, 32):
            pipe = _pipeline(chain, frames)
            run_program(pipe.program, workers=2, batch=batch,
                        backend="processes", timeout=300)
            assert _collected(pipe) == _reference(chain, frames)

    def test_int64_into_uint8_wraps_as_the_field_would(self):
        """The elided store's dtype cast stays: a stage emitting int64
        into a uint8 port hands on the wrapped bytes.  The unfused twin
        is the same graph with a sink on the interior port."""
        shape = (8, 8)
        chain = [
            StageSpec(0, False, 7, 9, (2, 2), shape),
            StageSpec(2, True, 1, 0, (4, 4), shape),
        ]
        frames = _frames(chain)
        for vectorize in (True, False):
            for batch in (1, 32):
                fused = _pipeline(chain, frames, vectorize)
                twin = _pipeline(chain, frames, vectorize, tap=0)
                assert fused.fused and not twin.fused
                assert "s0.x" in twin.program.fields
                for pipe in (fused, twin):
                    run_program(pipe.program, workers=2, batch=batch,
                                timeout=120)
                assert _collected(fused) == _collected(twin)
                assert _collected(fused) == _reference(chain, frames)

    def test_stacked_chain_runs_stacked(self):
        """An all-tagged chain takes the batched path with no fallback:
        one ``batch_body`` call covers every stage."""
        shape = (32, 32)
        chain = [
            StageSpec(1, True, 1, 0, (2, 2), shape),
            StageSpec(2, True, 1, 0, (4, 4), shape),
            StageSpec(2, True, 1, 0, (2, 2), (16, 16)),
        ]
        frames = _frames(chain)
        pipe = _pipeline(chain, frames)
        reg = MetricsRegistry()
        run_program(pipe.program, workers=1, batch=32, timeout=120,
                    metrics=reg)
        flat = flatten(reg.snapshot())
        assert _collected(pipe) == _reference(chain, frames)
        assert flat["exec.vectorize_fallbacks"] == 0
        assert flat["exec.vectorized_instances"] == 64 * len(frames)


# ----------------------------------------------------------------------
# Shapes that must not fuse
# ----------------------------------------------------------------------
def _src(shape=(8,), n=3, name="src"):
    size = int(np.prod(shape))
    return ops.source(
        name, {"x": ("int64", shape)},
        frames=[
            {"x": (np.arange(size, dtype=np.int64) + t).reshape(shape)}
            for t in range(n)
        ],
    )


def _double(port="x"):
    return lambda ctx: ctx.emit("y", ctx.fetched[port] * 2)


def _map(h, name, block=None, shape=(8,), param="x"):
    """A doubling map ``name`` over ``h`` (blocked by ``block``)."""
    if block:
        h = h.block(block)
    return h.map(
        name, _double(param), out={"y": ("int64", shape)},
        out_block={"y": (block,)} if block else None,
    )


def _assert_unfused(pipe, *kernels):
    assert pipe.fused == {}
    assert set(kernels) <= set(pipe.program.kernels)
    for k in kernels:
        if pipe.program.kernels[k].stores:
            assert f"{k}.y" in pipe.program.fields
    run_program(pipe.program, workers=2, timeout=60)


class TestNotFusable:
    def test_two_block_maps_do_fuse(self):
        """The control: the shape every negative below perturbs."""
        a = _map(_src(), "a", 2)
        b = _map(a, "b", 4, param="y")
        pipe = ops.compile_ops(b.sink("out"))
        assert pipe.fused == {"b": ("a", "b")}
        assert "a.y" not in pipe.program.fields
        run_program(pipe.program, workers=2, timeout=60)
        np.testing.assert_array_equal(
            pipe.collector().values()[1], (np.arange(8) + 1) * 4
        )

    def test_second_consumer(self):
        a = _map(_src(), "a", 2)
        b = _map(a, "b", 2, param="y")
        c = _map(a, "c", 2, param="y")
        pipe = ops.compile_ops([b.sink("out"), c.sink("out2")])
        _assert_unfused(pipe, "a", "b", "c")

    def test_sink_on_interior_port(self):
        a = _map(_src(), "a", 2)
        b = _map(a, "b", 2, param="y")
        pipe = ops.compile_ops([b.sink("out"), a.sink("tap")])
        _assert_unfused(pipe, "a", "b")

    def test_multicast_on_interior_port(self):
        a = _map(_src(), "a", 2)
        left, right = a.multicast("mc", 2)
        b = _map(left, "b", 2, param="y")
        pipe = ops.compile_ops([b.sink("out"), right.sink("out2")])
        _assert_unfused(pipe, "a", "b")

    def test_window_edge(self):
        a = _map(_src(), "a", 2)
        b = a.window(2).block(2).map(
            "b",
            lambda ctx: ctx.emit("y", ctx.fetched["y@0"] + ctx.fetched["y@1"]),
            out={"y": ("int64", (8,))}, out_block={"y": (2,)},
        )
        pipe = ops.compile_ops(b.sink("out"))
        _assert_unfused(pipe, "a", "b")

    def test_skew_edge(self):
        a = _map(_src(), "a", 2)
        b = _map(a.skew(1), "b", 2, param="y")
        pipe = ops.compile_ops(b.sink("out"))
        _assert_unfused(pipe, "a", "b")

    def test_multi_producer_merge(self):
        a = _map(_src(name="s1"), "a", 2)
        c = _map(_src(name="s2"), "c", 2)
        m = ops.merge(
            "m", [a.block(2), c.block(2)],
            lambda ctx: ctx.emit("y", ctx.fetched["a.y"] + ctx.fetched["c.y"]),
            out={"y": ("int64", (8,))}, out_block={"y": (2,)},
        )
        pipe = ops.compile_ops(m.sink("out"))
        _assert_unfused(pipe, "a", "c", "m")

    def test_multi_port_producer_feeding_two_operators(self):
        a = _src().block(2).map(
            "a",
            lambda ctx: (ctx.emit("y", ctx.fetched["x"]),
                         ctx.emit("z", ctx.fetched["x"] + 1)),
            out={"y": ("int64", (8,)), "z": ("int64", (8,))},
            out_block={"y": (2,), "z": (2,)},
        )
        b = _map(a["y"], "b", 2, param="y")
        c = _map(a["z"], "c", 2, param="z")
        pipe = ops.compile_ops([b.sink("out"), c.sink("out2")])
        assert pipe.fused == {}
        assert {"a.y", "a.z"} <= set(pipe.program.fields)
        run_program(pipe.program, workers=2, timeout=60)

    def test_non_divisible_extent(self):
        # 12 elements: A stores blocks of 2, B fetches blocks of 8
        a = _map(_src((12,)), "a", 2, shape=(12,))
        b = _map(a, "b", 8, shape=(12,), param="y")
        pipe = ops.compile_ops(b.sink("out"))
        _assert_unfused(pipe, "a", "b")

    def test_smaller_consumer_block(self):
        # B's block is not a multiple of A's: B is the finer stage
        a = _map(_src(), "a", 4)
        b = _map(a, "b", 2, param="y")
        pipe = ops.compile_ops(b.sink("out"))
        _assert_unfused(pipe, "a", "b")

    def test_whole_field_consumer_of_a_blocked_map(self):
        a = _map(_src(), "a", 2)
        b = _map(a, "b", param="y")
        pipe = ops.compile_ops(b.sink("out"))
        _assert_unfused(pipe, "a", "b")

    def test_keyed_partition(self):
        a = _map(_src(), "a")
        kp = a.keyed_partition(
            "kp", 2,
            lambda ctx: ctx.emit(
                "y", ctx.fetched["y"][ctx.index["slot"]::2]
            ),
            out={"y": ("int64", (4,))},
        )
        b = kp.map(
            "b", _double("y"), out={"y": ("int64", (2, 4))},
        )
        pipe = ops.compile_ops(b.sink("out"))
        assert pipe.fused == {}
        assert {"a", "kp", "b"} <= set(pipe.program.kernels)
        assert {"a.y", "kp.y"} <= set(pipe.program.fields)
        run_program(pipe.program, workers=2, timeout=60)

    def test_two_whole_field_maps_fuse(self):
        b = _map(_map(_src(), "a"), "b", param="y")
        pipe = ops.compile_ops(b.sink("out"))
        assert pipe.fused == {"b": ("a", "b")}
        run_program(pipe.program, workers=2, timeout=60)
        np.testing.assert_array_equal(
            pipe.collector().values()[0], np.arange(8) * 4
        )


class TestScenarioGraphs:
    def test_mosaic_and_motion_have_no_fusable_chain(self):
        """Their graphs keep one kernel per operator: every map feeds a
        multi-producer merge, a windowed edge, a keyed_partition or the
        sink."""
        from repro.workloads import (
            MosaicConfig, MotionConfig, build_mosaic, build_motion,
        )

        mosaic = build_mosaic(
            MosaicConfig(cams=4, width=32, height=32, frames=2)
        )
        assert mosaic.fused == {}
        assert set(mosaic.program.kernels) == {
            *(f"cam{i}" for i in range(4)),
            *(f"scale{i}_{p}" for i in range(4) for p in "yuv"),
            "composite", "mosaic",
        }
        motion = build_motion(
            MotionConfig(width=32, height=32, frames=3, region=8, slots=3)
        )
        assert motion.fused == {}
        assert set(motion.program.kernels) == {
            "cam", "stats", "zones", "motion",
        }


# ----------------------------------------------------------------------
# Errors and the re-tile
# ----------------------------------------------------------------------
class TestFusedErrors:
    def _pipe(self, bad, **stacked):
        a = _src().block(2).map(
            "a", bad, out={"y": ("int64", (8,))}, out_block={"y": (2,)},
            **stacked,
        )
        b = _map(a, "b", 4, param="y")
        return ops.compile_ops(b.sink("out"))

    def test_raising_stage_is_named(self):
        def boom(ctx):
            raise ValueError("bad block")

        pipe = self._pipe(boom)
        assert pipe.fused == {"b": ("a", "b")}
        with pytest.raises(KernelBodyError) as err:
            run_program(pipe.program, workers=1, timeout=60)
        assert err.value.kernel == "b"
        assert "fused stage 'a' raised ValueError: bad block" in str(
            err.value
        )

    def test_raising_stacked_stage_is_named(self):
        """The same on the batched path: the stage's array function
        raises inside the fused kernel's one ``batch_body`` call."""
        def body(ctx):
            ctx.emit("x", ctx.fetched["x"])

        def dividing(blocks, factor=0):
            return blocks[..., :: blocks.shape[-1] % factor]

        chain = [
            StageSpec(1, True, 1, 0, (2, 2), (8, 8)),
            StageSpec(1, True, 1, 0, (4, 4), (8, 8)),
        ]
        h = ops.source(
            "src", {"x": ("uint8", (8, 8))},
            frames=[{"x": np.zeros((8, 8), np.uint8)}],
        )
        h = h.block(2, 2).map(
            "s0", chain[0].fn(), out={"x": ("uint8", (8, 8))},
            out_block={"x": (2, 2)}, stack=chain[0].stack,
        )
        h = h.block(4, 4).map(
            "s1", body, out={"x": ("uint8", (8, 8))},
            out_block={"x": (4, 4)}, stack=dividing,
        )
        pipe = ops.compile_ops(h.sink("out"))
        assert pipe.program.kernels["s1"].batch_body is not None
        with pytest.raises(KernelBodyError) as err:
            run_program(pipe.program, workers=1, batch=32, timeout=60)
        assert err.value.kernel == "s1"
        assert "fused stage 's1' raised ZeroDivisionError" in str(err.value)

    def test_wrong_block_shape_is_refused(self):
        """The elided store's shape check stays: in the unfused program
        a 3-element store into blocks of 2 breaks write-once."""
        pipe = self._pipe(lambda ctx: ctx.emit("y", np.zeros(3, np.int64)))
        with pytest.raises(KernelBodyError, match="store block is"):
            run_program(pipe.program, workers=1, timeout=60)

    def test_stage_that_stores_nothing_ends_the_instance(self):
        """A map that skips an age leaves its consumer never ready —
        fused, the kernel stores nothing for that age either."""
        def skip_odd(ctx):
            if ctx.age % 2 == 0:
                ctx.emit("y", ctx.fetched["x"])

        pipe = self._pipe(skip_odd)
        run_program(pipe.program, workers=2, timeout=60)
        assert pipe.collector().ages == [0, 2]

    def test_stack_on_another_structure_fails_at_definition(self):
        """``stack=`` on a map it cannot serve — a whole-field input, a
        windowed (two-fetch) input, two out ports, or beside a
        ``batch_body=`` — is a DefinitionError where the operator is
        defined, interior stage of a chain or not."""
        def body(ctx):
            ctx.emit("y", ctx.fetched["x"])

        out = {"y": ("int64", (8,))}
        with pytest.raises(DefinitionError, match="operator 'a'"):
            self._pipe(body, stack=lambda v: v,
                       batch_body=lambda bctx: None)
        with pytest.raises(DefinitionError, match="operator 'w'"):
            _src().map("w", body, out=out, stack=lambda v: v)
        with pytest.raises(DefinitionError, match="operator 'n'"):
            _src().window(2).block(2).map(
                "n", body, out=out, out_block={"y": (2,)},
                stack=lambda v: v)
        with pytest.raises(DefinitionError, match="operator 'p'"):
            _src().block(2).map(
                "p", body, out={**out, "z": ("int64", (8,))},
                out_block={"y": (2,), "z": (2,)}, stack=lambda v: v)

    def test_general_batch_body_on_a_lone_map(self):
        """``batch_body=`` is the form for every other structure: it
        lands on the lowered kernel as given."""
        def body(ctx):
            ctx.emit("y", ctx.fetched["x@0"] + ctx.fetched["x@1"])

        def batch_body(bctx):
            bctx.emit("y", bctx["x@0"] + bctx["x@1"])

        h = _src().window(2).block(2).map(
            "n", body, out={"y": ("int64", (8,))}, out_block={"y": (2,)},
            batch_body=batch_body)
        pipe = ops.compile_ops(h.sink("out"))
        assert pipe.program.kernels["n"].batch_body is batch_body
        run_program(pipe.program, workers=1, batch=32, timeout=60)
        np.testing.assert_array_equal(
            pipe.collector().values()[0], np.arange(8) * 2 + 1)


class TestRetile:
    @pytest.mark.parametrize("grid,new", [
        ((), (2, 2)), ((2, 2), ()), ((4, 2), (2, 1)), ((1, 2), (2, 1)),
        ((2,), (4,)),
    ])
    def test_round_trip_and_tile_contents(self, grid, new):
        n, block = 3, (8, 4, 2)
        blocks = np.arange(n * 64).reshape((n,) + block)
        tiles = retile(blocks, (), grid)
        assert len(tiles) == n * int(np.prod(grid or (1,)))
        regrouped = retile(tiles, grid, new)
        np.testing.assert_array_equal(retile(regrouped, new, ()), blocks)
        # row-major tile order inside each block
        g = tuple(new) + (1,) * (2 - len(new))
        th, tw = block[0] // g[0], block[1] // g[1]
        for i, tile in enumerate(regrouped):
            b, t = divmod(i, g[0] * g[1])
            r, c = divmod(t, g[1])
            np.testing.assert_array_equal(
                tile, blocks[b, r * th:(r + 1) * th, c * tw:(c + 1) * tw]
            )

    def test_indivisible_block_is_refused(self):
        with pytest.raises(DefinitionError, match="cannot cut"):
            retile(np.zeros((1, 6, 6)), (), (4, 1))
