"""Body composition for fused kernels.

A fused kernel runs several *stages* — the native blocks of the kernels
or operators it replaced — inside one instance, handing each stage's
emitted values to the next without a field in between (paper, figure 4,
Age 2 → Age 3).  Two callers build one: the operator compiler
(:func:`repro.ops.compile_ops`, which fuses chains of block maps before
lowering) and the LLS rewrite :func:`fuse` below (task granularity: a
producer/consumer pair of an existing program becomes one kernel;
:func:`fusable_pairs` lists the candidates).  Both describe the kernel
as a sequence of :class:`Stage` and get its scalar native block from
:func:`fused_body` and, when every stage has a stacked array function,
its ``batch_body`` from :func:`fused_batch_body`.

Stages need not share a granularity.  A stage with a ``grid`` runs
several sub-instances per fused instance, each on one *tile* of the
block the fused kernel fetched (or the previous stage produced):
transcode's ``idct`` runs on the four 8x8 tiles of the 16x16 block its
``scale`` consumer needs.  :func:`retile` is the one re-grouping both
forms use — a reshape/transpose between "n blocks" and "n·g tiles".

What crosses a :class:`Pipe` is what the consumer would have fetched
had the store not been elided: the value goes through the store's own
dtype cast and rank alignment
(:func:`~repro.core.kernels.coerce_store_value`) and its block-shape
check, so an ``int64`` result handed to a ``uint8`` port wraps exactly
as the field would have wrapped it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import DefinitionError, FusedStageError, SchedulerError
from .graph import final_graph
from .kernels import (
    BatchBodyFn,
    BodyFn,
    Dim,
    FetchSpec,
    KernelContext,
    KernelDef,
    StoreSpec,
    coerce_store_value,
)
from .program import Program
from .vectorize import StackBody, StackFn, VectorizeFallback

__all__ = [
    "Pipe",
    "Stage",
    "fusable_pairs",
    "fuse",
    "fused_batch_body",
    "fused_body",
    "retile",
]


def retile(
    stack: np.ndarray, grid: Sequence[int], new_grid: Sequence[int]
) -> np.ndarray:
    """Re-group a stack of tiles.

    ``stack`` holds ``n`` blocks, each cut along its leading axes into a
    ``grid`` of equal tiles (row-major, block after block: ``n·prod(grid)``
    rows); the result holds the same blocks cut into ``new_grid``.  An
    empty grid means uncut.  ``retile(x[None], (), (2, 2))`` cuts one
    block into its four quadrants; ``retile(tiles, (2, 2), ())[0]`` puts
    them back.
    """
    grid, new_grid = tuple(grid), tuple(new_grid)
    k = max(len(grid), len(new_grid))
    grid += (1,) * (k - len(grid))
    new_grid += (1,) * (k - len(new_grid))
    if grid == new_grid:
        return stack
    n = len(stack) // math.prod(grid)
    tile, rest = stack.shape[1:1 + k], stack.shape[1 + k:]
    trailing = list(range(1 + 2 * k, 1 + 2 * k + len(rest)))
    if math.prod(grid) > 1:
        # (n, g0, g1, t0, t1, ...) -> (n, g0, t0, g1, t1, ...)
        pairs = [a for j in range(k) for a in (1 + j, 1 + k + j)]
        stack = stack.reshape((n,) + grid + tile + rest).transpose(
            [0] + pairs + trailing
        )
    block = tuple(g * t for g, t in zip(grid, tile))
    if any(b % g for b, g in zip(block, new_grid)):
        raise DefinitionError(
            f"cannot cut blocks of shape {block} into a {new_grid} grid"
        )
    new_tile = tuple(b // g for b, g in zip(block, new_grid))
    if math.prod(new_grid) > 1:
        # (n, g0, t0, g1, t1, ...) -> (n, g0, g1, t0, t1, ...)
        split = tuple(a for gt in zip(new_grid, new_tile) for a in gt)
        stack = stack.reshape((n,) + split + rest).transpose(
            [0]
            + [1 + 2 * j for j in range(k)]
            + [2 + 2 * j for j in range(k)]
            + trailing
        )
    return stack.reshape((n * math.prod(new_grid),) + new_tile + rest)


@dataclass
class Pipe:
    """One store → fetch hand-over inside a fused kernel.

    ``store`` is the producer's store spec (kept by the fused kernel or
    elided from it), ``dtype`` / ``ndim`` its field's, ``param`` the
    consumer's fetch param and ``scalar`` that fetch's ``scalar`` flag.
    ``tile`` is the shape each produced value must have — the store
    block, known when the field declares its extent; ``None`` leaves it
    unchecked, as a store into a growable field is.
    """

    param: str
    store: StoreSpec
    dtype: np.dtype
    ndim: int
    tile: tuple[int, ...] | None = None
    scalar: bool = False

    def cast(self, value: Any, stage: str) -> np.ndarray:
        """``value`` as the elided store would have written it;
        ``stage`` names the producer in the shape error."""
        arr, _ = coerce_store_value(value, self.dtype, self.ndim, self.store)
        if self.tile is not None and arr.shape != self.tile:
            raise DefinitionError(
                f"fused stage {stage!r} emitted {self.store.emit_key!r} "
                f"with shape {arr.shape}; its store block is {self.tile}"
            )
        return arr

    def cast_stack(self, stack: Any, stage: str) -> np.ndarray:
        """:meth:`cast` for a stack of values, checked on its first."""
        first = self.cast(stack[0], stage)
        return np.asarray(stack, dtype=self.dtype).reshape(
            (len(stack),) + first.shape
        )

    def deliver(self, block: np.ndarray) -> Any:
        """The assembled block as the consumer's fetch would return it."""
        if self.scalar and block.size == 1:
            return block.reshape(()).item()
        return block


@dataclass
class Stage:
    """One native block of a fused kernel.

    ``params`` are the stage's fetch params: each is served by the
    previous stage's pipe of that name, else by the fused kernel's own
    fetch.  ``pipes`` maps the emit keys handed to the next stage;
    ``stores`` lists the emit keys that are stores of the fused kernel
    (a key in both is a pipe whose store was kept).  ``grid`` maps the
    stage's leading index variables to how many sub-instances run per
    fused instance along each (empty: one); params in ``shared`` are
    whole-field and seen uncut by every sub-instance.  ``rename`` maps
    the fused kernel's index-variable names to the stage's own, and
    ``stack`` is the stage's stacked array function, if it has one.
    """

    name: str
    body: BodyFn
    params: tuple[str, ...]
    stores: tuple[str, ...] = ()
    pipes: Mapping[str, Pipe] = dc_field(default_factory=dict)
    grid: Mapping[str, int] = dc_field(default_factory=dict)
    shared: frozenset[str] = frozenset()
    rename: Mapping[str, str] = dc_field(default_factory=dict)
    stack: StackFn | None = None

    def __post_init__(self) -> None:
        if self.grid and set(self.stores) - set(self.pipes):
            raise DefinitionError(
                f"fused stage {self.name!r} runs under a grid; it can "
                f"store only what it also pipes"
            )

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(self.grid.values())


def _run_stage(stage: Stage, ctx: KernelContext, pool: Mapping[str, Any]):
    """Run every sub-instance of ``stage`` for the fused instance
    ``ctx``; returns per pipe key the list of values cast for hand-over
    (shorter than the grid when a sub-instance did not emit it)."""
    index = ctx.index
    if stage.rename:
        index = {stage.rename.get(v, v): i for v, i in index.items()}
    counts = stage.counts
    if counts:
        tiles = {
            p: retile(np.asarray(pool[p])[None], (), counts)
            for p in stage.params if p not in stage.shared
        }
        subs = []
        for t, offset in enumerate(np.ndindex(*counts)):
            sub_index = dict(index)
            for var, count, o in zip(stage.grid, counts, offset):
                sub_index[var] = index[var] * count + o
            subs.append((sub_index, {
                p: tiles[p][t] if p in tiles else pool[p]
                for p in stage.params
            }))
    else:
        subs = [(index, {p: pool[p] for p in stage.params})]
    piped: dict[str, list] = {key: [] for key in stage.pipes}
    sub = KernelContext(timers=ctx.timers, node=ctx.node)
    for sub_index, fetched in subs:
        sub.reset(ctx.age, sub_index, fetched)
        try:
            stage.body(sub)
        except Exception as exc:  # noqa: BLE001 - rewrapped with context
            raise FusedStageError(stage.name, exc) from exc
        for key, value in sub.outputs:
            ctx.output(key, value)
        for key, value in sub.emitted.items():
            pipe = stage.pipes.get(key)
            if pipe is not None:
                piped[key].append(pipe.cast(value, stage.name))
            elif key in stage.stores:
                ctx.emit(key, value)
    return piped, len(subs)


def fused_body(stages: Sequence[Stage]) -> BodyFn:
    """The scalar native block of a kernel fused from ``stages``.

    Each stage runs on its own :class:`KernelContext` (sub-index = fused
    index × grid + offset); what it pipes is assembled back into one
    block per key and handed on.  A stage that stores nothing under a
    piped key ends the instance there — in the unfused program its
    consumer would never have become ready.
    """
    stages = tuple(stages)

    def body(ctx: KernelContext) -> None:
        pool: Mapping[str, Any] = ctx.fetched
        for stage in stages:
            piped, n = _run_stage(stage, ctx, pool)
            if any(len(values) != n for values in piped.values()):
                return
            handed = {}
            for key, values in piped.items():
                pipe = stage.pipes[key]
                block = (
                    retile(np.stack(values), stage.counts, ())[0]
                    if stage.grid else values[0]
                )
                if key in stage.stores:
                    ctx.emit(key, block)
                handed[pipe.param] = pipe.deliver(block)
            pool = {**ctx.fetched, **handed}

    return body


def fused_batch_body(stages: Sequence[Stage]) -> BatchBodyFn | None:
    """The ``batch_body`` of a kernel fused from ``stages``: their
    stacked array functions chained, with a :func:`retile` wherever two
    stages differ in grid.  ``None`` unless every stage has a stacked
    function and the chain is one region fetch in, one value through
    each pipe, one store out of the last stage."""
    stages = tuple(stages)
    for stage, nxt in zip(stages, stages[1:] + (None,)):
        if stage.stack is None or len(stage.params) != 1 or stage.shared:
            return None
        if nxt is None:
            if stage.pipes or len(stage.stores) != 1:
                return None
        elif (
            len(stage.pipes) != 1
            or next(iter(stage.pipes.values())).param != nxt.params[0]
        ):
            return None
    param = stages[0].params[0]
    last_key = stages[-1].stores[0]

    def batch_body(bctx) -> None:
        stack = bctx.fetched[param]
        grid: tuple[int, ...] = ()
        for stage in stages:
            stack = retile(stack, grid, stage.counts)
            grid = stage.counts
            try:
                stack = stage.stack(stack)
            except VectorizeFallback:
                raise
            except Exception as exc:  # noqa: BLE001 - rewrapped
                raise FusedStageError(stage.name, exc) from exc
            for key, pipe in stage.pipes.items():
                stack = pipe.cast_stack(stack, stage.name)
                if key in stage.stores:
                    bctx.emit(key, retile(stack, grid, ()))
        bctx.emit(last_key, stack)

    return batch_body


# ----------------------------------------------------------------------
# Fusing two kernels of a program (figure 4, Age 2 -> Age 3)
# ----------------------------------------------------------------------
def _pipe_candidates(
    program: Program, first: KernelDef, second: KernelDef
) -> list[tuple[StoreSpec, FetchSpec]]:
    """(store of first, fetch of second) pairs forming a same-age pipe."""
    pairs = []
    for s in first.stores:
        for f in second.fetches:
            if f.field != s.field:
                continue
            if s.age.literal is not None or f.age.literal is not None:
                continue
            if s.age.offset != f.age.offset:
                continue
            if len(s.dims) != len(f.dims):
                continue
            if any(
                (ds.is_all != df.is_all) or
                (not ds.is_all and (ds.block != df.block or df.offset))
                for ds, df in zip(s.dims, f.dims)
            ):
                continue
            pairs.append((s, f))
    return pairs


def _stack_of(kernel: KernelDef) -> StackFn | None:
    """The stacked array function ``kernel`` was defined with (``None``
    when it has no ``batch_body``, or one that is not a block map's)."""
    body = kernel.batch_body
    return body.fn if isinstance(body, StackBody) else None


def fuse(
    program: Program,
    first: str,
    second: str,
    *,
    elide: bool | None = None,
    name: str | None = None,
) -> Program:
    """Fuse a producer/consumer pipeline into a single kernel.

    Requirements: ``second`` fetches a field ``first`` stores with the
    same age expression and identical index pattern (figure 4's Age 3
    decision is exactly this for ``mul2``→``plus5``).

    ``elide`` controls whether the intermediate store is skipped: default
    is to elide when no *other* kernel fetches the pipe field (the paper:
    "if the print kernel was not present, storing to the intermediate
    field could be circumvented in its entirety").
    """
    k1 = program.kernels.get(first)
    k2 = program.kernels.get(second)
    if k1 is None or k2 is None:
        raise SchedulerError(f"unknown kernel in fuse({first!r}, {second!r})")
    if k1.has_age != k2.has_age:
        raise SchedulerError("cannot fuse kernels with differing age use")
    pipes = _pipe_candidates(program, k1, k2)
    if not pipes:
        raise SchedulerError(
            f"kernels {first!r} and {second!r} do not form a same-age "
            f"pipeline with matching index patterns"
        )
    pipe_store, pipe_fetch = pipes[0]
    pipe_field = pipe_store.field

    other_consumers = [
        c for c in program.consumers_of(pipe_field) if c.name != second
    ]
    extra_pipe_fetches = [
        f for f in k2.fetches
        if f.field == pipe_field and f is not pipe_fetch
    ]
    can_elide = not other_consumers and not extra_pipe_fetches
    if elide is None:
        elide = can_elide
    elif elide and not can_elide:
        raise SchedulerError(
            f"cannot elide {pipe_field!r}: other consumers exist"
        )

    # Unify index variables: the pipe's matching dims identify second's
    # variables with first's; remaining second variables keep their names
    # (renamed on collision).
    rename: dict[str, str] = {}
    for ds, df in zip(pipe_store.dims, pipe_fetch.dims):
        if not ds.is_all:
            rename[df.var] = ds.var
    taken = set(k1.index_vars)
    for v in k2.index_vars:
        if v in rename:
            continue
        nv = v
        while nv in taken:
            nv = nv + "_2"
        rename[v] = nv
        taken.add(nv)

    def remap_dims(dims: tuple[Dim, ...]) -> tuple[Dim, ...]:
        return tuple(
            d if d.is_all else Dim.of(rename[d.var], d.block) for d in dims
        )

    param_clash = {f.param for f in k1.fetches} & {
        f.param for f in k2.fetches if f is not pipe_fetch
    }
    if param_clash:
        raise SchedulerError(
            f"cannot fuse: fetch param collision {sorted(param_clash)}"
        )
    fused_fetches = tuple(k1.fetches) + tuple(
        FetchSpec(f.param, f.field, f.age, remap_dims(f.dims), f.scalar)
        for f in k2.fetches if f is not pipe_fetch
    )
    k1_stores = tuple(
        s for s in k1.stores if not (elide and s is pipe_store)
    )
    k2_stores = tuple(
        StoreSpec(s.field, s.age, remap_dims(s.dims), s.key)
        for s in k2.stores
    )
    clash = {s.emit_key for s in k1_stores} & {s.emit_key for s in k2_stores}
    if clash:
        raise SchedulerError(
            f"cannot fuse: store key collision {sorted(clash)}"
        )

    index_vars = tuple(k1.index_vars) + tuple(
        rename[v] for v in k2.index_vars if rename[v] not in k1.index_vars
    )
    pipe_def = program.fields[pipe_field]
    stages = (
        Stage(
            name=first,
            body=k1.body,
            params=tuple(f.param for f in k1.fetches),
            stores=tuple(s.emit_key for s in k1_stores),
            pipes={
                pipe_store.emit_key: Pipe(
                    pipe_fetch.param, pipe_store, pipe_def.np_dtype,
                    pipe_def.ndim, scalar=pipe_fetch.scalar,
                )
            },
            stack=_stack_of(k1),
        ),
        Stage(
            name=second,
            body=k2.body,
            params=tuple(f.param for f in k2.fetches),
            stores=tuple(s.emit_key for s in k2_stores),
            rename={v: u for u, v in rename.items()},
            stack=_stack_of(k2),
        ),
    )
    limits = [
        lim for lim in (k1.age_limit, k2.age_limit) if lim is not None
    ]
    fused = KernelDef(
        name=name or f"{first}+{second}",
        body=fused_body(stages),
        fetches=fused_fetches,
        stores=k1_stores + k2_stores,
        has_age=k1.has_age,
        index_vars=index_vars,
        domain=dict(k1.domain or {}) or None,
        cost_hint=k1.cost_hint + k2.cost_hint,
        age_limit=min(limits) if limits else None,
        batch_body=fused_batch_body(stages),
    )
    out = program.without_kernels(first, second).with_kernel(fused)
    if elide:
        # Drop the pipe field when nothing references it any more.
        if not out.consumers_of(pipe_field) and not out.producers_of(
            pipe_field
        ):
            fields = {
                n: f for n, f in out.fields.items() if n != pipe_field
            }
            rebuilt = Program.build(
                fields.values(), out.kernels.values(), out.timers, out.name
            )
            rebuilt.output_handler = out.output_handler
            out = rebuilt
    return out


def fusable_pairs(program: Program) -> list[tuple[str, str]]:
    """Pipeline pairs the LLS could fuse, read off the final graph:
    same-age edges whose endpoints have matching index patterns and no
    competing consumers of the pipe field."""
    g = final_graph(program)
    out = []
    for u, v, attrs in g.edges():
        if u == v or attrs.get("age_delta") != 0:
            continue
        k1, k2 = program.kernels[u], program.kernels[v]
        if k1.has_age != k2.has_age:
            continue
        if _pipe_candidates(program, k1, k2):
            out.append((u, v))
    return out
