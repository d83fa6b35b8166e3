"""The one execution routine: fetch -> body -> store for a claim.

The paper's LLS is *one* dispatch loop with granularity as a parameter
(section IV); a single instance is a claim of one.  :func:`run_batch`
is the only caller of a kernel's native block, and worker threads and
worker processes run it verbatim.  All that differs between them is
where field bytes live, behind a small *field-access adapter*:

``fields[name]``
    a handle on the field, carrying its ``extent`` and ``fdef``;
``read(field, age, region)``
    the values of ``region`` (``None``: the whole field; a
    :class:`~repro.core.fields.RegionGroup`: its ``(n, *shape)`` stack);
``write(field, age, regions, arrs)``
    commit a *group* of stores to one (field, age) — ``arrs[i]`` into
    ``regions[i]``.  The scalar loop writes groups of one, as each
    instance's stores happen; the stacked form writes the whole claim's
    stores through one spec as one ``RegionGroup``.

Two sizes are in play and they are not the same thing.  A **claim** is
what a worker took off the ready queue — its share of a (kernel, age)
run, hundreds of instances at CIF — and is the unit of everything on
the shared path: one pipe message, one index array, one fetch plan, one
gather per fetch spec, one scatter and one store record per store spec,
one write-once commit and one event per (field, age).  A **stack** is
what one ``batch_body`` call sees: at most ``batch`` rows of the
claim's gathered arrays.  ``batch`` sizes the body call and nothing
else.

What the claim stored is reported as one record per adapter ``write``,
and announced when the claim ends as one event per (field, age), by the
parent-side commit tail on both backends
(:meth:`~repro.core.runtime.ExecutionNode._commit_batch`).  In the
parent a handle is the live ``Field`` and a write commits (write-once
enforced per store; :class:`~repro.core.backends._NodeFields`); in a
worker process reads and writes are shared-memory views, and the
records travel back to the parent, which commits them before it
announces them (:class:`~repro.core.backends._SegmentCache`).

Dropping out of the stacked form stays stack-granular.  A claim that
cannot be planned as a whole (a ragged trailing block makes the fetch
plan non-uniform) or in which a body call declines (raises
:class:`~repro.core.vectorize.VectorizeFallback` — before anything of
the claim is written, because the scatter comes after the last body
call) is run stack by stack instead: each stack is planned, stacked and
stored on its own, and only a stack that still cannot be stacked takes
the scalar loop.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from . import vectorize
from .errors import KernelBodyError
from .kernels import KernelContext, KernelDef, coerce_store_value


def run_batch(
    kernel: KernelDef,
    age: int | None,
    rows: np.ndarray,
    mem: Any,
    ctx: KernelContext,
    stack: int,
):
    """Run a claim of ``len(rows) >= 1`` instances of ``kernel`` at
    ``age`` — ``rows`` its ``(n, len(kernel.index_vars))`` index array —
    calling ``batch_body`` on at most ``stack`` of them at a time (the
    node's ``batch``).

    Returns ``(stores, outputs, t_fetch, t_kernel, t_store, calls,
    fallbacks, vectorized)``.  ``stores`` has one ``(field, age,
    regions, who)`` record per adapter ``write``, in commit order:
    ``who`` is the position in ``rows`` of the instance that stored
    (the scalar loop: one record per store that happened, ``regions`` a
    tuple of one), or ``None`` when every instance of the claim did (the
    stacked form: one record per store spec, ``regions`` a
    :class:`~repro.core.fields.RegionGroup`), or the ``range`` of
    positions of one stack of a claim that ran stack by stack.
    ``outputs`` are the bodies' out-of-band ``ctx.output`` values as
    ``(position, key, value)``; the durations are claim totals.
    ``calls`` counts body calls (one per stack, one per instance of a
    scalar loop), ``vectorized`` the instances that ran through
    ``batch_body``, and ``fallbacks`` the stacks for which that was
    attempted and which dropped to the scalar loop (ragged regions, or
    the body raised :class:`~repro.core.vectorize.VectorizeFallback`).
    Every form
    stores the same bytes: that is the vectorizer's contract
    (:mod:`repro.core.vectorize`).

    The scalar loop rebinds the caller's pooled ``ctx`` per instance; a
    singleton builds no stack and no fetch plan.  A raising body
    surfaces as :class:`KernelBodyError` naming the failing instance
    (the first of its stack, for a stacked call) and carrying the
    records of what the claim had written by then.
    """
    n = len(rows)
    if n < 2 or stack < 2 or kernel.batch_body is None:
        return _run_scalar(kernel, age, rows, mem, ctx)
    run = _run_stacked(kernel, age, rows, mem, stack)
    if run is not None:
        return run
    # Stack by stack: what each slice of the claim would have done as a
    # dispatch of its own (a claim of one stack has just been tried).
    total: list = [[], [], 0.0, 0.0, 0.0, 0, 0, 0]
    for lo in range(0, n, stack):
        part = rows[lo:lo + stack]
        try:
            run = (
                _run_stacked(kernel, age, part, mem, stack)
                if 1 < len(part) < n else None
            )
            if run is not None:
                # "every member" of this stack, not of the claim
                who = range(lo, lo + len(part))
                run = ([rec[:3] + (who,) for rec in run[0]],) + run[1:]
            else:
                run = _run_scalar(
                    kernel, age, part, mem, ctx, lo, int(len(part) > 1)
                )
        except KernelBodyError as exc:
            exc.stores = total[0] + exc.stores
            raise
        for i, value in enumerate(run):
            total[i] += value
    return tuple(total)


def _run_scalar(
    kernel: KernelDef, age, rows, mem, ctx, base: int = 0,
    dropped: int = 0,
):
    """The scalar loop, in :func:`run_batch`'s return shape: one
    ``body`` call per instance — per row of ``rows.tolist()``, so a
    body sees Python ints — each one's stores written as they happen; a
    whole-field operand is read once and seen by every instance, as in
    the stacked form.  ``base`` is the position of ``rows[0]`` in the
    claim, ``dropped`` 1 when these instances are a stack that was
    tried stacked first.

    What does not change per instance is not derived per instance, and
    no plan object is built for it: the specs carry their own facts
    (``whole_field()``, ``stencil``, ``emit_key``, derived when a spec
    is made), so the loop needs no state beyond the claim's — the body
    sees the caller's pooled ``ctx``, a whole-field operand is read once
    per claim, and the return shape is :func:`run_batch`'s, which the
    worker reply and the commit tail share.  Only a stencil fetch, the
    one kind whose region can be empty, is probed for an absent
    neighbour."""
    clock = time.perf_counter
    index_vars = kernel.index_vars
    fields = mem.fields
    stores: list = []
    outputs: list = []
    whole: dict[str, Any] = {}  # whole-field operands: one read a claim
    t_fetch = t_kernel = t_store = 0.0
    for who, index in enumerate(rows.tolist(), base):
        t0 = clock()
        imap = dict(zip(index_vars, index))
        fetched: dict[str, Any] = {}
        for f in kernel.fetches:
            field = fields[f.field]
            f_age = f.age.resolve(age)
            if f.whole_field():
                value: Any = whole.get(f.param)
                if value is None:
                    value = whole[f.param] = mem.read(field, f_age, None)
            else:
                region = f.region(imap, field.extent)
                if f.stencil and any(s.stop <= s.start for s in region):
                    # absent shrink-boundary neighbour: empty array
                    shape = tuple(
                        max(0, s.stop - s.start) for s in region
                    )
                    value = np.zeros(shape, dtype=field.fdef.np_dtype)
                else:
                    value = mem.read(field, f_age, region)
                    if f.scalar and value.size == 1:
                        value = value.reshape(()).item()
            fetched[f.param] = value
        ctx.reset(age, imap, fetched)
        t1 = clock()
        try:
            kernel.body(ctx)
        except Exception as exc:  # noqa: BLE001 - rewrapped with context
            err = KernelBodyError(kernel.name, age, tuple(index), exc)
            err.stores = stores  # the earlier instances' are written
            raise err from exc
        t2 = clock()
        emitted = ctx.emitted
        for s in kernel.stores:
            if s.emit_key not in emitted:
                continue
            field = fields[s.field]
            fdef = field.fdef
            arr, spec = coerce_store_value(
                emitted[s.emit_key], fdef.np_dtype, fdef.ndim, s
            )
            s_age = s.age.resolve(age)
            regions = (spec.region(imap, arr.shape),)
            mem.write(field, s_age, regions, (arr,))
            stores.append((s.field, s_age, regions, who))
        for key, value in ctx.outputs:
            outputs.append((who, key, value))
        t3 = clock()
        t_fetch += t1 - t0
        t_kernel += t2 - t1
        t_store += t3 - t2
    return (stores, outputs, t_fetch, t_kernel, t_store,
            len(rows), dropped, 0)


def _run_stacked(kernel: KernelDef, age, rows, mem, stack: int):
    """The stacked form, in :func:`run_batch`'s return shape: the
    claim's index array as it is, one fetch plan and one gather per
    fetch spec for all of ``rows``, ``batch_body`` on ``stack`` rows at
    a time, then one
    scatter and one record per store spec.  ``None`` — with nothing
    written — when these instances cannot run this way as a whole: no
    uniform fetch plan, a body call raised
    :class:`~repro.core.vectorize.VectorizeFallback`, or the calls
    disagree on which keys they emit.  A call that emits other than one
    row per instance of its stack is a :class:`KernelBodyError`, like
    any other failure of the body — also with nothing written."""
    n = len(rows)
    t0 = time.perf_counter()
    index_vars = kernel.index_vars
    fields = mem.fields
    # Looked up on the module at call time: the benchmark's traced run
    # swaps the module attribute to count plans that come back ragged.
    plan = vectorize.batch_fetch_plan(
        kernel, age, rows, lambda name: fields[name].extent
    )
    if plan is None:
        return None
    fetched: dict[str, Any] = {}
    shared: set[str] = set()
    for f, f_age, group in plan:
        fetched[f.param] = mem.read(fields[f.field], f_age, group)
        if group is None:
            shared.add(f.param)
    shared = frozenset(shared)
    t1 = time.perf_counter()
    emitted: dict[str, list] = {}
    calls = 0
    for lo in range(0, n, stack):
        hi = lo + stack
        bctx = vectorize.BatchKernelContext(
            age,
            rows[lo:hi],
            {
                param: value if param in shared else value[lo:hi]
                for param, value in fetched.items()
            },
            shared,
            index_vars=index_vars,
        )
        try:
            kernel.batch_body(bctx)
            for key, values in bctx.emitted.items():
                if np.shape(values)[:1] != (len(bctx),):
                    raise ValueError(
                        f"batch_body emitted {key!r} with shape "
                        f"{np.shape(values)} for a stack of {len(bctx)} "
                        f"instances (one row each)"
                    )
        except vectorize.VectorizeFallback:
            return None
        except Exception as exc:  # noqa: BLE001 - rewrapped with context
            raise KernelBodyError(
                kernel.name, age, tuple(rows[lo].tolist()), exc
            ) from exc
        if calls and bctx.emitted.keys() != emitted.keys():
            return None
        for key, values in bctx.emitted.items():
            emitted.setdefault(key, []).append(values)
        calls += 1
    t2 = time.perf_counter()
    columns = dict(zip(index_vars, rows.T))
    stores = []
    for s in kernel.stores:
        parts = emitted.get(s.emit_key)
        if parts is None:
            continue
        field = fields[s.field]
        fdef = field.fdef
        s_age = s.age.resolve(age)
        # Every part has one row per instance (checked above), so
        # dtype coercion and spec resolution happen once for the claim,
        # not per instance.
        first, spec = coerce_store_value(
            parts[0][0], fdef.np_dtype, fdef.ndim, s
        )
        group = spec.group(columns, n, first.shape)
        stacks = [
            np.asarray(values, dtype=fdef.np_dtype).reshape(
                (len(values),) + first.shape
            )
            for values in parts
        ]
        mem.write(
            field, s_age, group,
            stacks[0] if calls == 1 else np.concatenate(stacks),
        )
        stores.append((s.field, s_age, group, None))
    t3 = time.perf_counter()
    return stores, [], t1 - t0, t2 - t1, t3 - t2, calls, 0, n
