"""The low-level scheduler (LLS): granularity control and kernel fusion.

Figure 4 of the paper shows the two knobs an execution node's LLS turns
to trade parallelism against per-instance overhead:

* **data granularity** (Age 1 → Age 2): make each instance fetch a
  coarser slice, reducing the number of instances — implemented by
  :func:`coarsen` (multiply a dimension's block size, wrap the body in a
  loop over the original sub-slices);
* **task granularity** (Age 2 → Age 3): combine kernels that form a
  pipeline, deferring (or eliding) the intermediate store — implemented
  by :func:`fuse`.

Applying both (Age 3 → Age 4) "renders the single kernel instance
effectively into a classical for-loop".

Both transformations are *program → program* rewrites: the analyzer,
runtime, graphs and simulator all operate on the transformed program
unchanged.  :class:`AdaptivePolicy` closes the loop the paper describes —
instrumentation showing a high dispatch/kernel-time ratio (K-means'
``assign``, table III) drives a coarsening recommendation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import SchedulerError
from .fusion import Pipe, Stage, fused_batch_body, fused_body
from .graph import final_graph
from .instrumentation import Instrumentation
from .kernels import (
    AgeExpr,
    Dim,
    FetchSpec,
    KernelContext,
    KernelDef,
    StoreSpec,
)
from .program import Program
from .vectorize import stack_function


# ----------------------------------------------------------------------
# Data-granularity reduction
# ----------------------------------------------------------------------
def _var_axis(dims: Sequence[Dim], var: str) -> int | None:
    """Axis where ``var`` appears (validated unique), or None."""
    axes = [i for i, d in enumerate(dims) if not d.is_all and d.var == var]
    if not axes:
        return None
    if len(axes) > 1:
        raise SchedulerError(
            f"index variable {var!r} appears in multiple dimensions of one "
            f"spec; coarsening is undefined"
        )
    return axes[0]


def coarsen(program: Program, kernel: str, var: str, factor: int) -> Program:
    """Multiply the block size of index variable ``var`` of ``kernel`` by
    ``factor``.

    The rewritten kernel's body loops over the original sub-blocks,
    slicing its coarse fetches and concatenating its sub-stores, so the
    observable field contents are identical — only the instance count
    (and thus dispatch overhead) changes.
    """
    if factor < 1:
        raise SchedulerError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return program
    k = program.kernels.get(kernel)
    if k is None:
        raise SchedulerError(f"unknown kernel {kernel!r}")
    if var not in k.index_vars:
        raise SchedulerError(
            f"kernel {kernel!r} has no index variable {var!r}"
        )
    for f in k.fetches:
        for d in f.dims:
            if not d.is_all and d.var == var and d.offset:
                raise SchedulerError(
                    f"kernel {kernel!r}: fetch {f.param!r} uses a stencil "
                    f"offset on {var!r}; coarsening stencil dimensions is "
                    f"not supported"
                )
    # Validate: every store must use var (otherwise the original program
    # already multi-stores the same region across var instances).
    for s in k.stores:
        if _var_axis(s.dims, var) is None and s.dims:
            raise SchedulerError(
                f"kernel {kernel!r}: store to {s.field!r} does not use "
                f"{var!r}; cannot coarsen"
            )

    fetch_axis = {
        f.param: _var_axis(f.dims, var) for f in k.fetches
    }
    fetch_block = {
        f.param: (f.dims[fetch_axis[f.param]].block
                  if fetch_axis[f.param] is not None else None)
        for f in k.fetches
    }
    fetch_scalar = {f.param: f.scalar for f in k.fetches}
    store_axis = {
        s.emit_key: _var_axis(s.dims, var) for s in k.stores
    }
    store_ndim = {s.emit_key: len(s.dims) for s in k.stores}
    inner_body = k.body

    def coarse_dims(dims: tuple[Dim, ...]) -> tuple[Dim, ...]:
        out = []
        for d in dims:
            if not d.is_all and d.var == var:
                out.append(Dim.of(var, d.block * factor))
            else:
                out.append(d)
        return tuple(out)

    new_fetches = tuple(
        FetchSpec(f.param, f.field, f.age, coarse_dims(f.dims),
                  scalar=False if fetch_axis[f.param] is not None
                  else f.scalar)
        for f in k.fetches
    )
    new_stores = tuple(
        StoreSpec(s.field, s.age, coarse_dims(s.dims), s.key)
        for s in k.stores
    )

    def coarse_body(ctx: KernelContext) -> None:
        # Number of original sub-blocks inside this coarse instance,
        # derived from the longest coarsened fetch.
        n_sub = 0
        for param, axis in fetch_axis.items():
            if axis is None:
                continue
            arr = np.asarray(ctx.fetched[param])
            b = fetch_block[param]
            n_sub = max(n_sub, math.ceil(arr.shape[axis] / b))
        if n_sub == 0:
            n_sub = factor
        collected: dict[str, list[Any]] = {}
        base = ctx.index.get(var, 0) * factor
        for j in range(n_sub):
            sub_fetched: dict[str, Any] = {}
            for param, axis in fetch_axis.items():
                value = ctx.fetched[param]
                if axis is None:
                    sub_fetched[param] = value
                    continue
                arr = np.asarray(value)
                b = fetch_block[param]
                sl = [slice(None)] * arr.ndim
                sl[axis] = slice(j * b, (j + 1) * b)
                sub = arr[tuple(sl)].copy()
                if fetch_scalar[param] and sub.size == 1:
                    sub_fetched[param] = sub.reshape(()).item()
                else:
                    sub_fetched[param] = sub
            sub_index = dict(ctx.index)
            sub_index[var] = base + j
            sub_ctx = KernelContext(
                age=ctx.age, index=sub_index, fetched=sub_fetched,
                timers=ctx.timers, node=ctx.node,
            )
            inner_body(sub_ctx)
            for key, value in sub_ctx.emitted.items():
                collected.setdefault(key, []).append(value)
        for key, values in collected.items():
            if len(values) != n_sub:
                raise SchedulerError(
                    f"coarsened kernel {kernel!r}: store {key!r} emitted by "
                    f"{len(values)}/{n_sub} sub-instances; conditional "
                    f"stores cannot be coarsened"
                )
            axis = store_axis.get(key)
            ndim = store_ndim.get(key, 1)
            arrs = []
            for v in values:
                a = np.asarray(v)
                if a.ndim < max(ndim, 1):
                    a = a.reshape((1,) * (max(ndim, 1) - a.ndim) + a.shape)
                arrs.append(a)
            ctx.emit(key, np.concatenate(arrs, axis=axis or 0))

    coarse = KernelDef(
        name=k.name,
        body=coarse_body,
        fetches=new_fetches,
        stores=new_stores,
        has_age=k.has_age,
        index_vars=k.index_vars,
        domain=k.domain,
        cost_hint=k.cost_hint * factor,
        age_limit=k.age_limit,
    )
    return program.replace_kernel(coarse)


# ----------------------------------------------------------------------
# Task-granularity reduction (pipeline fusion)
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


def _stack_of(kernel: KernelDef):
    """The stacked array function behind ``kernel``'s ``batch_body``
    (``None`` when it has none, or one that is not a plain stack map)."""
    if kernel.batch_body is None:
        return None
    return stack_function(kernel.body, f"kernel {kernel.name!r}")


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


# ----------------------------------------------------------------------
# Failure recovery: re-enqueueing in-flight instances
# ----------------------------------------------------------------------
def reenqueue(node, instances) -> int:
    """Re-enqueue a failed node's in-flight kernel instances onto a
    replacement node's ready queue; returns how many were enqueued.

    ``instances`` are the units frozen or abandoned at the dead node's
    fail-stop boundary (never started, so never stored).  Instances whose
    kernel the replacement does not own are skipped.  Duplication with
    the replacement's own analyzer-driven dispatch is harmless: dispatch
    is keyed per (kernel, age, index) in the analyzer, and a recovery
    node skip-stores already-complete regions, so a doubly enqueued
    instance at worst re-runs an idempotent body.
    """
    n = 0
    for inst in instances:
        if inst.kernel.name not in node.program.kernels:
            continue
        node._inc()
        node.ready.push(inst)
        n += 1
    return n


# ----------------------------------------------------------------------
# Adaptive policy
# ----------------------------------------------------------------------
#: Largest factor :meth:`GranularityDecision.apply` accepts.  Decisions
#: come from instrumentation arithmetic; a factor beyond this is a
#: corrupted or nonsensical measurement, not a plausible plan.
MAX_DECISION_FACTOR = 1 << 20


@dataclass(frozen=True)
class GranularityDecision:
    """One LLS decision: coarsen ``kernel``'s ``var`` by ``factor``."""

    kernel: str
    var: str
    factor: int

    def apply(self, program: Program) -> Program:
        """Apply this decision to a program (returns the rewrite).

        Validates the factor before rewriting: the policy only ever
        produces power-of-two factors in ``[1, MAX_DECISION_FACTOR]``,
        so anything else reaching apply means the decision was built by
        hand and is rejected with a :class:`SchedulerError` rather than
        silently producing an unexpected decomposition.  Note
        :func:`coarsen` itself accepts any factor ≥ 1 — the restriction
        is on *decisions*, the values the policy recommends.
        """
        f = self.factor
        if (
            not isinstance(f, int)
            or isinstance(f, bool)
            or f < 1
            or f > MAX_DECISION_FACTOR
        ):
            raise SchedulerError(
                f"GranularityDecision({self.kernel!r}, {self.var!r}): "
                f"factor {f!r} out of range; expected an int in "
                f"[1, {MAX_DECISION_FACTOR}]"
            )
        if f & (f - 1):
            raise SchedulerError(
                f"GranularityDecision({self.kernel!r}, {self.var!r}): "
                f"factor {f} is not a power of two"
            )
        return coarsen(program, self.kernel, self.var, self.factor)


@dataclass(frozen=True)
class FusionDecision:
    """One LLS decision: fuse the ``first``→``second`` pipeline."""

    first: str
    second: str

    def apply(self, program: Program) -> Program:
        """Apply this decision to a program (returns the rewrite)."""
        return fuse(program, self.first, self.second)


def apply_decisions(program: Program, decisions: Sequence) -> Program:
    """Apply a batch of LLS decisions in order."""
    for d in decisions:
        program = d.apply(program)
    return program


def coarsenable_vars(kernel: KernelDef) -> list[str]:
    """Index variables :func:`coarsen` can legally operate on.

    A variable qualifies when it is actually bound by at least one fetch
    or store dimension (a kernel whose only real parallel axis is the
    age dimension has none — coarsening it would change nothing but the
    loop wrapper), no fetch uses a stencil offset on it, and every
    dimensioned store uses it (coarsen's own preconditions).
    """
    out: list[str] = []
    for var in kernel.index_vars:
        bound = False
        ok = True
        for f in kernel.fetches:
            for d in f.dims:
                if d.is_all or d.var != var:
                    continue
                bound = True
                if d.offset:
                    ok = False
        for s in kernel.stores:
            try:
                axis = _var_axis(s.dims, var)
            except SchedulerError:
                ok = False
                continue
            if axis is None:
                if s.dims:
                    ok = False
            else:
                bound = True
        if ok and bound:
            out.append(var)
    return out


class AdaptivePolicy:
    """Instrumentation-driven granularity adaptation.

    A kernel whose dispatch overhead exceeds ``ratio_target`` of its
    total per-instance cost gets its first index variable coarsened by
    the power-of-two factor that brings the expected ratio back to the
    target: with per-instance dispatch ``d`` and kernel time ``t``, a
    factor ``f`` yields ratio ``d / (d + f·t)``.
    """

    def __init__(
        self,
        ratio_target: float = 0.25,
        min_instances: int = 64,
        max_factor: int = 4096,
    ) -> None:
        if not 0 < ratio_target < 1:
            raise SchedulerError("ratio_target must be in (0, 1)")
        self.ratio_target = ratio_target
        self.min_instances = min_instances
        self.max_factor = max_factor

    def recommend(
        self,
        program: Program,
        instrumentation,
        *,
        fuse: bool = False,
    ) -> list:
        """LLS decisions for kernels whose dispatch ratio is too high.

        ``instrumentation`` is either an :class:`Instrumentation`
        collector or a plain ``{kernel: KernelStats}`` mapping.

        With ``fuse=True`` the policy also recommends fusing
        :func:`fusable_pairs` whose endpoints both pay high dispatch
        overhead — fusing halves the per-item instance count, attacking
        the same overhead coarsening does but across the task axis
        (figure 4's Age 2 → Age 3 step).  A kernel recommended for
        fusion is not simultaneously recommended for coarsening (the
        fused kernel can be coarsened by a later round).
        """
        stats = (
            instrumentation.stats()
            if hasattr(instrumentation, "stats")
            else dict(instrumentation)
        )
        out: list = []
        fused: set[str] = set()
        if fuse:
            for u, v in fusable_pairs(program):
                if u in fused or v in fused:
                    continue
                su, sv = stats.get(u), stats.get(v)
                if su is None or sv is None:
                    continue
                if min(su.instances, sv.instances) < self.min_instances:
                    continue
                if max(su.dispatch_ratio,
                       sv.dispatch_ratio) <= self.ratio_target:
                    continue
                if not program.kernels[u].has_age:
                    continue
                out.append(FusionDecision(u, v))
                fused.update((u, v))
        for name, st in sorted(stats.items()):
            k = program.kernels.get(name)
            if k is None or name in fused:
                continue
            if k.batch_body is not None:
                # coarsen() rebuilds the kernel without its batch_body:
                # one stacked NumPy call would become a Python loop
                # over sub-slices.  ``batch`` is this kernel's dial.
                continue
            cvars = coarsenable_vars(k)
            if not cvars:
                # e.g. the age dimension is the kernel's only real
                # parallel axis: nothing coarsen() could legally block.
                continue
            if st.instances < self.min_instances:
                continue
            if st.dispatch_ratio <= self.ratio_target:
                continue
            d = st.mean_dispatch_us
            t = max(st.mean_kernel_us, 1e-3)
            needed = d * (1 - self.ratio_target) / (self.ratio_target * t)
            factor = 1
            while factor < needed and factor < self.max_factor:
                factor *= 2
            if factor > 1:
                out.append(GranularityDecision(name, cvars[0], factor))
        return out

    def apply(
        self,
        program: Program,
        decisions: Sequence,
    ) -> Program:
        """Apply a list of decisions in order; returns the rewritten program."""
        return apply_decisions(program, decisions)
