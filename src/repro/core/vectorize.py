"""Vectorized kernel backend: batch compilation of known native blocks.

The paper's C++ runtime dispatches kernel instances at near-zero cost;
this Python runtime pays a full scheduler->backend->callable round trip
per instance — at CIF geometry that is 1584 Python calls per frame for
the luma DCT alone.  Batched dispatch (the ready queue handing a worker
its share of a *run* of same-kernel/same-age instances as one claim,
see :meth:`~repro.core.runtime.ReadyQueue.pop_batch`) amortizes the
per-call overhead; this module removes the per-instance *body* calls
too, by compiling a kernel's native block into a NumPy implementation
over a whole stack — at most ``batch`` instances of the claim.

The mechanism is pattern matching, not tracing: a workload tags its
kernel body with :func:`tag_vectorizable` naming one of the known
patterns (the DCT/quant macro-block pipeline, the K-means distance and
assignment kernels, elementwise integer affine maps).  At program-build
time :func:`vectorize_program` matches each tagged body against the
pattern table and attaches a ``batch_body`` to the
:class:`~repro.core.kernels.KernelDef`; kernels with no tag — or whose
structure does not match the pattern's fetch and store dims — keep
``batch_body=None`` and run the scalar path per instance.  The escape
hatches:

* ``vectorize=False`` on a workload builder skips the compilation step
  entirely (the tests' scalar reference);
* a ``batch_body`` may raise :class:`VectorizeFallback` at run time
  (e.g. the stack's block shape is not the expected 8x8) and
  :func:`~repro.core.execute.run_batch` re-runs that stack in its
  scalar loop — nothing of the claim has been written by then — and
  reports the drop (``exec.vectorize_fallbacks``).

Fusion keeps the stacked call.  The patterns with one region fetch and
one store (``idct_8x8``, ``box_downscale``, ``dct_quant_8x8``,
``affine_int``) are registered as ``stack -> stack`` array functions
(:func:`stack_pattern`); one shared builder turns such a function into
a lone kernel's ``batch_body``, and
:func:`repro.core.fusion.fused_batch_body` chains the functions of a
fused kernel's stages with a reshape/transpose re-tile between them —
for an operator chain fused by :func:`repro.ops.compile_ops` and for an
LLS :func:`~repro.core.fusion.fuse` alike.

Byte-identity is a hard requirement, exactly as for fusion:
every pattern reproduces the scalar body's arithmetic bit for bit
(:func:`repro.media.dct.dct2_blocks` deliberately keeps its per-block
loop under ``method="matrix"`` for this reason), and the property tests
in ``tests/core/test_batch.py`` enforce it across backends.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import DefinitionError
from .kernels import BodyFn, KernelDef

__all__ = [
    "BatchKernelContext",
    "VectorizeFallback",
    "batch_fetch_plan",
    "stack_function",
    "stack_pattern",
    "tag_vectorizable",
    "vectorize_program",
    "vectorizable_pattern",
]

#: Attribute carrying a body's ``(pattern_name, params)`` tag.
_TAG_ATTR = "__p2g_vector__"


class VectorizeFallback(Exception):
    """Raised by a ``batch_body`` when this particular stack cannot be
    handled (shape drift, unexpected dtype); the routine re-runs the
    stack through the scalar body instead of failing the run."""


class BatchKernelContext:
    """Execution context handed to a vectorized ``batch_body``.

    Attributes
    ----------
    age:
        The batch's common age (batches never mix ages).
    indices:
        Per-instance index maps (``{var: value}``), batch order.
    fetched:
        Per-fetch-param values: a stacked ``(N, *region_shape)`` array
        for region fetches (one leading axis over the batch), or the
        single shared array for whole-field fetches (every instance of
        the batch sees the same bytes; the param name is listed in
        ``shared``).
    shared:
        The fetch params delivered un-stacked because they are
        whole-field.
    """

    __slots__ = ("age", "indices", "fetched", "shared", "_emitted")

    def __init__(
        self,
        age: int | None,
        indices: Sequence[Mapping[str, int]],
        fetched: Mapping[str, Any],
        shared: frozenset[str] = frozenset(),
    ) -> None:
        self.age = age
        self.indices = list(indices)
        self.fetched = dict(fetched)
        self.shared = shared
        self._emitted: dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, param: str) -> Any:
        return self.fetched[param]

    def emit(self, key: str, values: Any) -> None:
        """Provide the batch's values for the store spec whose
        ``emit_key`` is ``key``: an array (or sequence) whose leading
        axis runs over the batch — ``values[i]`` is what instance ``i``'s
        scalar body would have emitted."""
        if key in self._emitted:
            raise DefinitionError(
                f"batch body emitted {key!r} twice in one batch"
            )
        self._emitted[key] = values

    @property
    def emitted(self) -> dict[str, Any]:
        """Per-key batch emissions."""
        return self._emitted


# ----------------------------------------------------------------------
# Tagging and the pattern table
# ----------------------------------------------------------------------
def tag_vectorizable(body: BodyFn, pattern: str, **params: Any) -> BodyFn:
    """Tag a kernel body as an instance of a known vectorizable pattern.

    The tag is inert until :func:`vectorize_program` runs; an unknown
    pattern name fails there, not here, so tagging never breaks a
    program that skips vectorization.
    """
    setattr(body, _TAG_ATTR, (pattern, params))
    return body


#: pattern name -> builder(kernel, params) -> batch_body | None.
_PATTERNS: dict[str, Callable[[KernelDef, dict], Any]] = {}


def vectorizable_pattern(name: str):
    """Register a pattern builder under ``name`` (decorator).

    A builder receives the tagged :class:`KernelDef` and the tag's
    params and returns a batch callable, or ``None`` when the kernel's
    current structure does not match the pattern (wrong fetch/store
    arity, store produces out-of-band outputs, ...).
    """

    def register(builder):
        _PATTERNS[name] = builder
        return builder

    return register


#: A stacked native block: ``(N, *block)`` array in, ``(N, *out)`` out;
#: row ``i`` of the result is what the scalar body emits for row ``i``.
StackFn = Callable[[np.ndarray], Any]

#: pattern name -> make(params) -> StackFn, for the patterns with one
#: region fetch and one store.
_STACK_PATTERNS: dict[str, Callable[[dict], StackFn]] = {}


def stack_pattern(name: str):
    """Register a one-fetch / one-store pattern as a factory of
    ``stack -> stack`` array functions (decorator): ``make(params)``
    returns the function.  The pattern's kernel builder is the shared
    one — a single region fetch, a single store, ``emit(fn(stack))`` —
    and the same function is what a fused kernel chains
    (:func:`stack_function`)."""

    def register(make):
        _STACK_PATTERNS[name] = make

        def build(kernel: KernelDef, params: dict):
            if len(kernel.fetches) != 1 or len(kernel.stores) != 1:
                return None
            fetch = kernel.fetches[0]
            if fetch.whole_field():
                return None
            param, key = fetch.param, kernel.stores[0].emit_key
            fn = make(params)

            def batch_body(bctx: BatchKernelContext) -> None:
                bctx.emit(key, fn(bctx.fetched[param]))

            return batch_body

        vectorizable_pattern(name)(build)
        return make

    return register


def _tagged(body: BodyFn, who: str):
    """``(pattern, params)`` of a tagged body (``None`` if untagged);
    an unknown pattern name is a definition error."""
    tag = getattr(body, _TAG_ATTR, None)
    if tag is not None and tag[0] not in _PATTERNS:
        raise DefinitionError(
            f"{who} is tagged with unknown vectorization pattern "
            f"{tag[0]!r}; known: {sorted(_PATTERNS)}"
        )
    return tag


def stack_function(body: BodyFn, who: str) -> StackFn | None:
    """The ``stack -> stack`` function of a body tagged with a
    :func:`stack_pattern`, or ``None`` (untagged, or a pattern of
    another arity).  ``who`` names the body's owner in the error an
    unknown pattern raises."""
    tag = _tagged(body, who)
    if tag is None or tag[0] not in _STACK_PATTERNS:
        return None
    return _STACK_PATTERNS[tag[0]](tag[1])


def vectorize_program(program) -> list[str]:
    """Attach ``batch_body`` implementations to every tagged kernel of
    ``program`` whose structure matches its pattern; returns the names
    of the kernels vectorized.  Safe to call on untagged programs
    (no-op) and idempotent."""
    vectorized: list[str] = []
    for kernel in program.kernels.values():
        tag = _tagged(kernel.body, f"kernel {kernel.name!r}")
        if tag is None:
            continue
        pattern, params = tag
        batch_body = _PATTERNS[pattern](kernel, params)
        if batch_body is not None:
            kernel.batch_body = batch_body
            vectorized.append(kernel.name)
    return vectorized


# ----------------------------------------------------------------------
# Batch assembly shared by the execution backends
# ----------------------------------------------------------------------
def batch_fetch_plan(
    kernel: KernelDef,
    age: int | None,
    indices: np.ndarray,
    extent_of: Callable[[str], tuple[int, ...]],
):
    """Resolve every fetch of a batch to one region group.

    ``indices`` is the batch's ``(n, len(kernel.index_vars))`` index
    array, one row per instance.  Returns ``[(spec, field_age, group)]``
    — ``group`` is ``None`` for whole-field fetches and the
    :class:`~repro.core.fields.RegionGroup` of the instances' regions
    otherwise, built once per spec from the index columns — or ``None``
    when the batch is not vectorizable as one stacked call: ragged
    regions (the trailing block of a non-divisible extent) or empty
    shrink-boundary regions make per-instance shapes diverge, so the
    caller must take the scalar path.
    """
    n = len(indices)
    columns = dict(zip(kernel.index_vars, indices.T))
    plan = []
    for f in kernel.fetches:
        group = None
        if not f.whole_field():
            group = f.group(columns, n, extent_of(f.field))
            if group is None:
                return None
        plan.append((f, f.age.resolve(age), group))
    return plan


# ----------------------------------------------------------------------
# The pattern table
# ----------------------------------------------------------------------
@stack_pattern("dct_quant_8x8")
def _make_dct_quant(params: dict) -> StackFn:
    """The MJPEG macro-block pipeline: level-shift, 2-D DCT, quantize.

    Scalar body (``repro.workloads.mjpeg``)::

        block -> dct2_blocks(block - 128.0, method) -> quantize(qtable)

    ``dct2_blocks`` already accepts ``(..., 8, 8)`` stacks and keeps its
    arithmetic per-block-identical under every method, and ``quantize``
    is elementwise, so one stacked call over ``(N, 8, 8)`` is byte-
    identical to N scalar calls.
    """
    qtable = params["qtable"]
    method = params["method"]

    def dct_quant(blocks: np.ndarray):
        from ..media.dct import dct2_blocks
        from ..media.quant import quantize

        if blocks.shape[-2:] != (8, 8):
            raise VectorizeFallback  # block geometry drifted
        coeffs = dct2_blocks(
            blocks.astype(np.float64) - 128.0, method=method
        )
        return quantize(coeffs, qtable)

    return dct_quant


@vectorizable_pattern("kmeans_pair_distance")
def _build_kmeans_pair(kernel: KernelDef, params: dict):
    """The pair-granularity K-means ``assign``: one Euclidean distance
    per (point, centroid) instance, computed for the whole batch as a
    row-wise reduction (NumPy reduces each row with the same pairwise
    summation a 1-D sum uses, so the bits match the scalar body)."""
    if len(kernel.fetches) != 2 or len(kernel.stores) != 1:
        return None
    point, centroid = kernel.fetches
    if point.whole_field() or centroid.whole_field():
        return None
    key = kernel.stores[0].emit_key

    def batch_body(bctx: BatchKernelContext) -> None:
        n = len(bctx)
        p = bctx.fetched[point.param].reshape(n, -1)
        c = bctx.fetched[centroid.param].reshape(n, -1)
        bctx.emit(key, np.sqrt(np.sum((p - c) ** 2, axis=1)))

    return batch_body


@vectorizable_pattern("kmeans_point_assign")
def _build_kmeans_point(kernel: KernelDef, params: dict):
    """The point-granularity K-means ``assign``: nearest centroid per
    point.  The centroids fetch is whole-field (shared across the
    batch); distances reduce over the trailing axis exactly as the
    scalar ``np.linalg.norm(..., axis=1)`` does per point."""
    if len(kernel.fetches) != 2 or len(kernel.stores) != 1:
        return None
    point, cents = kernel.fetches
    if point.whole_field() or not cents.whole_field():
        return None
    key = kernel.stores[0].emit_key

    def batch_body(bctx: BatchKernelContext) -> None:
        n = len(bctx)
        p = bctx.fetched[point.param].reshape(n, 1, -1)
        c = bctx.fetched[cents.param]
        d = np.linalg.norm(c[None, :, :] - p, axis=2)
        bctx.emit(key, np.argmin(d, axis=1))

    return batch_body


@stack_pattern("affine_int")
def _make_affine_int(params: dict) -> StackFn:
    """Elementwise integer affine map ``v -> v*mul + add (% modulo)`` —
    the figure-5 ``mul2``/``plus5`` kernels.  Exercises the smallest
    possible native block, where dispatch overhead dominates by orders
    of magnitude (table II's pattern)."""
    mul = int(params.get("mul", 1))
    add = int(params.get("add", 0))
    modulo = params.get("modulo")

    def affine(v: np.ndarray):
        v = v.reshape(len(v)) * mul + add
        if modulo is not None:
            v = v % modulo
        return v

    return affine


@stack_pattern("box_downscale")
def _make_box_downscale(params: dict) -> StackFn:
    """Integer box-filter downscale of a fetched region — the operator
    scenarios' mosaic tile scaler and the transcode resize stage.

    ``repro.media.box_downscale`` accumulates in uint32 and divides with
    integer rounding, identically for ``(h, w)`` and ``(N, h, w)``
    inputs, so the stacked call is byte-identical to N scalar calls.
    """
    factor = int(params["factor"])

    def downscale(blocks: np.ndarray):
        from ..media.yuv import box_downscale

        if blocks.shape[-1] % factor or blocks.shape[-2] % factor:
            raise VectorizeFallback  # block geometry drifted
        return box_downscale(blocks, factor)

    return downscale


@stack_pattern("idct_8x8")
def _make_idct_8x8(params: dict) -> StackFn:
    """Inverse DCT + level shift of an 8x8 coefficient block back to
    uint8 pixels — the transcode chain's decode stage.  The scalar body
    routes through the same stacked :func:`repro.media.dct.idct2_blocks`
    call (on a ``(1, 8, 8)`` view), so both paths perform the identical
    batched matmul per slice."""

    def idct(coeffs: np.ndarray):
        from ..media.dct import idct2_blocks

        if coeffs.shape[-2:] != (8, 8):
            raise VectorizeFallback
        pixels = idct2_blocks(coeffs) + 128.0
        return np.clip(np.rint(pixels), 0, 255).astype(np.uint8)

    return idct


@vectorizable_pattern("absdiff_region_stats")
def _build_absdiff_stats(kernel: KernelDef, params: dict):
    """Windowed motion statistics over a region pair: sum of absolute
    differences and sum of squared differences between the same region
    at consecutive ages.  int64 accumulation makes the stacked
    reduction bit-exact against the scalar body."""
    if len(kernel.fetches) != 2 or len(kernel.stores) != 1:
        return None
    cur, prev = kernel.fetches
    if cur.whole_field() or prev.whole_field():
        return None
    key = kernel.stores[0].emit_key

    def batch_body(bctx: BatchKernelContext) -> None:
        a = bctx.fetched[cur.param].astype(np.int64)
        b = bctx.fetched[prev.param].astype(np.int64)
        d = a - b
        axes = tuple(range(1, d.ndim))
        sad = np.abs(d).sum(axis=axes)
        ssd = (d * d).sum(axis=axes)
        bctx.emit(key, np.stack([sad, ssd], axis=1))

    return batch_body


@vectorizable_pattern("grid_composite")
def _build_grid_composite(kernel: KernelDef, params: dict):
    """Tile assembly for the mosaic composite: each out plane is a
    ``grid x grid`` arrangement of whole-field input tiles, stitched
    with two ``np.concatenate`` passes — exactly what the scalar body's
    ``assemble_grid`` does, so the bytes match by construction.

    ``layout`` maps each emit key to its tile fetch params in row-major
    order.  The composite runs one instance per age, so batches are
    length 1; the pattern still matters because it keeps the whole
    merge kernel on the batched dispatch path.
    """
    grid = int(params["grid"])
    layout: dict = params["layout"]
    if any(not f.whole_field() for f in kernel.fetches):
        return None
    if set(layout) != {s.emit_key for s in kernel.stores}:
        return None
    have = {f.param for f in kernel.fetches}
    if any(p not in have for tiles in layout.values() for p in tiles):
        return None

    def batch_body(bctx: BatchKernelContext) -> None:
        n = len(bctx)
        for key, tile_params in layout.items():
            tiles = [bctx.fetched[p] for p in tile_params]
            if len(tiles) != grid * grid:
                raise VectorizeFallback
            rows = [
                np.concatenate(tiles[r * grid : (r + 1) * grid], axis=-1)
                for r in range(grid)
            ]
            full = np.concatenate(rows, axis=-2)
            bctx.emit(key, np.stack([full] * n))

    return batch_body
