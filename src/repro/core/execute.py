"""The one execution routine: fetch -> body -> store for a batch.

The paper's LLS is *one* dispatch loop with granularity as a parameter
(section IV); a single instance is a batch of one.  :func:`run_batch`
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
    instance's stores happen; the stacked form writes the whole batch's
    stores through one spec as one ``RegionGroup``.

The unit that flows through is the dispatch: a stacked batch resolves
each fetch and store spec to one ``RegionGroup`` from its index array
and moves it in one gather or scatter, and what it stored is reported
as one record per store spec.  A group is announced as one event.  In
the parent a handle is the live ``Field``: the group commits
(write-once enforced per store), then is announced
(:class:`~repro.core.backends._NodeFields`); in a worker process reads
and writes are shared-memory views, and the records travel back to the
parent, which commits and announces them, again one event per (field,
age) (:class:`~repro.core.backends._SegmentCache`).
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
    indices: list[tuple[int, ...]],
    mem: Any,
    ctx: KernelContext,
):
    """Run ``len(indices) >= 1`` instances of ``kernel`` at ``age``.

    Returns ``(stores, outputs, t_fetch, t_kernel, t_store,
    vectorized)``.  ``stores`` has one ``(field, age, regions, who)``
    record per adapter ``write``, in commit order: ``who`` is the
    position in ``indices`` of the instance that stored (the scalar
    loop: one record per store that happened, ``regions`` a tuple of
    one) or ``None`` when every instance of the batch did (the stacked
    form: one record per store spec, ``regions`` a
    :class:`~repro.core.fields.RegionGroup`).  ``outputs`` are the
    bodies' out-of-band ``ctx.output`` values as ``(position, key,
    value)``; the durations are batch totals.  ``vectorized`` is
    ``True`` when the batch ran as one stacked ``batch_body`` call,
    ``False`` when that was attempted and the batch dropped to the
    scalar loop (ragged regions, or the body raised
    :class:`~repro.core.vectorize.VectorizeFallback`), ``None`` when
    there was nothing to attempt (one instance, or no ``batch_body``).
    Both forms store the same bytes: that is the vectorizer's contract
    (:mod:`repro.core.vectorize`).

    The scalar loop rebinds the caller's pooled ``ctx`` per instance; a
    singleton builds no stack and no fetch plan.  A raising body
    surfaces as :class:`KernelBodyError` naming the failing instance.
    """
    vectorized = None
    if len(indices) > 1 and kernel.batch_body is not None:
        run = _run_stacked(kernel, age, indices, mem)
        if run is not None:
            return run
        vectorized = False
    clock = time.perf_counter
    index_vars = kernel.index_vars
    fields = mem.fields
    stores: list = []
    outputs: list = []
    t_fetch = t_kernel = t_store = 0.0
    for who, index in enumerate(indices):
        t0 = clock()
        imap = dict(zip(index_vars, index))
        fetched: dict[str, Any] = {}
        for f in kernel.fetches:
            field = fields[f.field]
            f_age = f.age.resolve(age)
            if f.whole_field():
                value: Any = mem.read(field, f_age, None)
            else:
                region = f.region(imap, field.extent)
                if any(s.stop <= s.start for s in region):
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
            raise KernelBodyError(kernel.name, age, index, exc) from exc
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
    return stores, outputs, t_fetch, t_kernel, t_store, vectorized


def _run_stacked(kernel: KernelDef, age, indices, mem):
    """One stacked ``batch_body`` call for the whole batch, in
    :func:`run_batch`'s return shape; ``None`` when this batch must take
    the scalar loop (no uniform fetch plan, or the body raised
    :class:`~repro.core.vectorize.VectorizeFallback`)."""
    n = len(indices)
    t0 = time.perf_counter()
    index_vars = kernel.index_vars
    rows = np.asarray(indices, dtype=np.intp).reshape(n, len(index_vars))
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
    bctx = vectorize.BatchKernelContext(
        age, [dict(zip(index_vars, index)) for index in indices],
        fetched, frozenset(shared),
    )
    t1 = time.perf_counter()
    try:
        kernel.batch_body(bctx)
    except vectorize.VectorizeFallback:
        return None
    except Exception as exc:  # noqa: BLE001 - rewrapped with context
        raise KernelBodyError(kernel.name, age, indices[0], exc) from exc
    t2 = time.perf_counter()
    columns = dict(zip(index_vars, rows.T))
    stores = []
    for s in kernel.stores:
        if s.emit_key not in bctx.emitted:
            continue
        values = bctx.emitted[s.emit_key]
        field = fields[s.field]
        fdef = field.fdef
        s_age = s.age.resolve(age)
        # The batch contract (BatchKernelContext.emit) guarantees a
        # uniform leading batch axis, so dtype coercion and spec
        # resolution happen once for the stack, not per instance.
        first, spec = coerce_store_value(
            values[0], fdef.np_dtype, fdef.ndim, s
        )
        group = spec.group(columns, n, first.shape)
        mem.write(
            field, s_age, group,
            np.asarray(values, dtype=fdef.np_dtype).reshape(
                (n,) + first.shape
            ),
        )
        stores.append((s.field, s_age, group, None))
    t3 = time.perf_counter()
    return stores, [], t1 - t0, t2 - t1, t3 - t2, True
