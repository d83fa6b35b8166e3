"""Stacked kernel bodies: one NumPy call for a whole run of instances.

The paper's C++ runtime dispatches kernel instances at near-zero cost;
this Python runtime pays a full scheduler->backend->callable round trip
per instance — at CIF geometry that is 1584 Python calls per frame for
the luma DCT alone.  Batched dispatch (the ready queue handing a worker
its share of a *run* of same-kernel/same-age instances as one claim,
see :meth:`~repro.core.runtime.ReadyQueue.pop_batch`) amortizes the
per-call overhead; a kernel's *stacked form* removes the per-instance
body calls too: one call over the whole claim (one per shape class of
its rows, :func:`shape_classes`, when ragged edge blocks are among
them).

The definition carries its stacked form; nothing here knows what any
kernel computes.  ``KernelDef(batch_body=...)`` is the general form: a
callable receiving a :class:`BatchKernelContext` (every fetch stacked
or shared, any number of stores).  ``KernelDef(stack=...)`` is the
block map — one region fetch, one store — given as a ``stack -> stack``
array function (:data:`StackFn`); its ``batch_body`` is the
:class:`StackBody` of it, and
:func:`repro.core.fusion.fused_batch_body` chains the functions of a
fused kernel's stages with a reshape/transpose re-tile between them —
for an operator chain fused by :func:`repro.ops.compile_ops` and for an
LLS :func:`~repro.core.fusion.fuse` alike.  A kernel with neither runs
``body`` per instance, and ``kernel.batch_body = None`` strips a
stacked form (the tests' scalar reference).

A ``batch_body`` may raise :class:`VectorizeFallback` at run time (e.g.
the stack's block shape is not the expected 8x8) and
:func:`~repro.core.execute.run_batch` re-runs those rows in its scalar
loop — nothing of the claim has been written by then — and reports the
drop (``exec.vectorize_fallbacks``).

Byte-identity is a hard requirement, exactly as for fusion: a stacked
form reproduces its scalar body's arithmetic bit for bit
(:func:`repro.media.dct.dct2_blocks` is one stacked matmul because
NumPy's matmul computes every 8x8 slice of a stack with the routine it
uses on one block — ``tests/media/test_dct.py`` holds that identity as
a property), and the property tests in ``tests/core/test_batch.py``
enforce it across backends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from .errors import DefinitionError

if TYPE_CHECKING:
    from .kernels import KernelDef

__all__ = [
    "BatchKernelContext",
    "StackBody",
    "StackFn",
    "VectorizeFallback",
    "batch_fetch_plan",
    "shape_classes",
]

#: A stacked native block: ``(N, *block)`` array in, ``(N, *out)`` out;
#: row ``i`` of the result is what the scalar body emits for row ``i``.
StackFn = Callable[[np.ndarray], Any]


class VectorizeFallback(Exception):
    """Raised by a ``batch_body`` when this particular stack cannot be
    handled (shape drift, unexpected dtype); the routine re-runs its
    rows through the scalar body instead of failing the run."""


class BatchKernelContext:
    """Execution context handed to a vectorized ``batch_body``.

    Attributes
    ----------
    age:
        The batch's common age (batches never mix ages).
    indices:
        Per-instance index maps (``{var: value}``), batch order.  Given
        ``index_vars``, the constructor's ``indices`` is instead the
        ``(n, len(index_vars))`` array of index rows, and the maps are
        built from it when this attribute is first read — no shipped
        ``batch_body`` reads them.
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

    __slots__ = (
        "age", "fetched", "shared", "_emitted", "_n", "_indices", "_rows",
        "_index_vars",
    )

    def __init__(
        self,
        age: int | None,
        indices: Sequence[Mapping[str, int]] | np.ndarray,
        fetched: Mapping[str, Any],
        shared: frozenset[str] = frozenset(),
        *,
        index_vars: Sequence[str] | None = None,
    ) -> None:
        self.age = age
        self._n = len(indices)
        self._indices: list[dict] | None = None
        if index_vars is None:
            self._indices = list(indices)
        else:
            self._rows, self._index_vars = indices, index_vars
        self.fetched = dict(fetched)
        self.shared = shared
        self._emitted: dict[str, Any] = {}

    @property
    def indices(self) -> list[dict]:
        if self._indices is None:
            self._indices = [
                dict(zip(self._index_vars, row))
                for row in self._rows.tolist()
            ]
        return self._indices

    def __len__(self) -> int:
        return self._n

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


class StackBody:
    """The ``batch_body`` of a block map (``KernelDef(stack=fn)``):
    ``fn`` applied to the stack fetched as ``param``, the result emitted
    under ``key``.  A fused kernel chains the ``fn`` of its stages."""

    __slots__ = ("param", "key", "fn")

    def __init__(self, param: str, key: str, fn: StackFn) -> None:
        self.param = param
        self.key = key
        self.fn = fn

    def __call__(self, bctx: BatchKernelContext) -> None:
        bctx.emit(self.key, self.fn(bctx.fetched[self.param]))


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


def shape_classes(
    kernel: KernelDef,
    indices: np.ndarray,
    extent_of: Callable[[str], tuple[int, ...]],
) -> list[np.ndarray]:
    """The positions of a batch's rows grouped by the shape of every
    region they fetch — one index array per distinct shape, in order of
    first appearance, each sorted — so that each class is one uniform
    stacked call where :func:`batch_fetch_plan` of the whole batch came
    back ``None``.  A row with an empty region forms a class that still
    has no plan."""
    columns = dict(zip(kernel.index_vars, indices.T))
    widths = [
        d.widths(columns[d.var], size)
        for f in kernel.fetches if not f.whole_field()
        for d, size in zip(f.dims, extent_of(f.field)) if not d.is_all
    ]
    if not widths:
        return [np.arange(len(indices))]
    _keys, first, inverse = np.unique(
        np.stack(widths, axis=1), axis=0,
        return_index=True, return_inverse=True,
    )
    inverse = inverse.reshape(-1)
    return [np.flatnonzero(inverse == c) for c in np.argsort(first)]
