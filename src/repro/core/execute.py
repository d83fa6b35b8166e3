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
``write(field, age, region, value)``
    commit stores to one (field, age): ``value`` into ``region``, or a
    ``RegionGroup`` and its ``(n, *shape)`` stack.  The scalar loop
    writes one region as each instance's stores happen; the stacked
    form writes a whole shape class's stores through one spec as one
    ``RegionGroup``.

A **claim** is what a worker took off the ready queue — its share of a
(kernel, age) run, hundreds of instances at CIF — and is the unit of
everything on the shared path: one pipe message, one index array, one
fetch plan, one gather per fetch spec, one ``batch_body`` call, one
scatter and one store record per store spec, one write-once commit and
one event per (field, age).  ``batch`` decides how many instances a
claim holds at least, and whether it is stacked at all; it does not cut
the claim into smaller body calls.

What the claim stored is reported as one record per adapter ``write``,
and announced when the claim ends as one event per (field, age), by the
parent-side commit tail on both backends
(:meth:`~repro.core.runtime.ExecutionNode._commit_batch`).  In the
parent a handle is the live ``Field`` and a write commits (write-once
enforced per store; :class:`~repro.core.backends._NodeFields`); in a
worker process reads and writes are shared-memory views, and the
records travel back to the parent, which commits them before it
announces them (:class:`~repro.core.backends._SegmentCache`).

A claim whose rows do not all select regions of one shape (the ragged
trailing blocks of an extent that is not a multiple of the block) is
cut into *shape classes* — the rows whose regions agree — and each
class of two or more rows is one stacked call.  Only a class that
still cannot be stacked (no uniform fetch plan, or its body raises
:class:`~repro.core.vectorize.VectorizeFallback`) and a class of one
take the scalar loop.  Every stacked call is made before anything of
the claim is written, so a decline or a failing body call leaves the
claim unwritten.
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
):
    """Run a claim of ``len(rows) >= 1`` instances of ``kernel`` at
    ``age`` — ``rows`` its ``(n, len(kernel.index_vars))`` index array.

    Returns ``(stores, outputs, t_fetch, t_kernel, t_store, calls,
    fallbacks, vectorized)``.  ``stores`` has one ``(field, age,
    regions, who)`` record per adapter ``write``, in commit order:
    ``who`` is the position in ``rows`` of the instance that stored
    (the scalar loop: one record per store that happened, ``regions`` a
    tuple of one), or ``None`` when every instance of the claim did (the
    stacked form: one record per store spec, ``regions`` a
    :class:`~repro.core.fields.RegionGroup`), or the index array of the
    positions of one shape class of a claim that has several.
    ``outputs`` are the bodies' out-of-band ``ctx.output`` values as
    ``(position, key, value)``; the durations are claim totals.
    ``calls`` counts body calls (one per stacked shape class, one per
    instance of the scalar loop), ``vectorized`` the instances that ran
    through ``batch_body``, and ``fallbacks`` the shape classes of two
    or more rows that dropped to the scalar loop (no uniform fetch plan,
    or the body raised :class:`~repro.core.vectorize.VectorizeFallback`).
    Every form stores the same bytes: that is the vectorizer's contract
    (:mod:`repro.core.vectorize`).

    The scalar loop rebinds the caller's pooled ``ctx`` per instance; a
    singleton builds no stack and no fetch plan.  A raising body
    surfaces as :class:`KernelBodyError` naming the failing instance
    (the first of its shape class, for a stacked call) and carrying the
    records of what the claim had written by then.
    """
    if len(rows) < 2 or kernel.batch_body is None:
        return _run_scalar(kernel, age, rows, mem, ctx)
    return _run_stacked(kernel, age, rows, mem, ctx)


def _run_scalar(
    kernel: KernelDef, age, rows, mem, ctx, at: np.ndarray | None = None,
):
    """The scalar loop, in :func:`run_batch`'s return shape: one
    ``body`` call per instance — per row of ``rows.tolist()``, so a
    body sees Python ints — each one's stores written as they happen; a
    whole-field operand is read once and seen by every instance, as in
    the stacked form.  ``at`` holds the claim positions of ``rows``
    when they are not the whole claim in order.

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
    positions = range(len(rows)) if at is None else at.tolist()
    for who, index in zip(positions, rows.tolist()):
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
            region = spec.region(imap, arr.shape)
            mem.write(field, s_age, region, arr)
            stores.append((s.field, s_age, (region,), who))
        for key, value in ctx.outputs:
            outputs.append((who, key, value))
        t3 = clock()
        t_fetch += t1 - t0
        t_kernel += t2 - t1
        t_store += t3 - t2
    return (stores, outputs, t_fetch, t_kernel, t_store, len(rows), 0, 0)


def _run_stacked(kernel: KernelDef, age, rows, mem, ctx):
    """The stacked form, in :func:`run_batch`'s return shape: one fetch
    plan, one gather per fetch spec and one ``batch_body`` call per
    shape class — the whole claim, unless its rows select regions of
    more than one shape — then, after the last call, one scatter and
    one record per store spec and class.  The rows of a class that
    cannot run stacked (no uniform fetch plan, a call raised
    :class:`~repro.core.vectorize.VectorizeFallback`) and of a class of
    one take the scalar loop last.  A call that emits other than one
    row per instance of its class is a :class:`KernelBodyError`, like
    any other failure of the body — with nothing of the claim written."""
    clock = time.perf_counter
    t0 = clock()
    fields = mem.fields

    def extent_of(name):
        return fields[name].extent

    # Looked up on the module at call time: the benchmark's traced run
    # swaps the module attribute to count plans that come back ragged.
    plan = vectorize.batch_fetch_plan(kernel, age, rows, extent_of)
    if plan is not None:
        classes = [(None, rows, plan)]
    else:  # (one class and no plan: the claim runs scalar)
        parts = vectorize.shape_classes(kernel, rows, extent_of)
        classes = [
            (at, rows[at], None if len(at) < 2 or len(parts) < 2 else (
                vectorize.batch_fetch_plan(kernel, age, rows[at], extent_of)
            ))
            for at in parts
        ]
    whole: dict[str, Any] = {}  # whole-field operands: one read a claim
    calls: list = []
    left: list = []  # the classes the scalar loop runs
    fallbacks = 0
    t_kernel = 0.0
    for at, part, plan in classes:
        if plan is None:
            fallbacks += len(part) > 1
            left.append(at)
            continue
        fetched: dict[str, Any] = {}
        for f, f_age, group in plan:
            if group is None:
                value = whole.get(f.param)
                if value is None:
                    value = whole[f.param] = mem.read(
                        fields[f.field], f_age, None
                    )
            else:
                value = mem.read(fields[f.field], f_age, group)
            fetched[f.param] = value
        t1 = clock()
        emitted = _call_batch_body(kernel, age, part, fetched, whole.keys())
        t_kernel += clock() - t1
        if emitted is None:
            fallbacks += 1
            left.append(at)
        else:
            calls.append((at, part, emitted))
    t2 = clock()
    stores = []
    for at, part, emitted in calls:
        stores += _store_stacked(kernel, age, part, at, emitted, mem)
    t3 = clock()
    vectorized = sum(len(part) for _at, part, _emitted in calls)
    run = (stores, [], t2 - t0 - t_kernel, t_kernel, t3 - t2,
           len(calls), fallbacks, vectorized)
    if not left:
        return run
    at = left[0] if len(left) == 1 else np.sort(np.concatenate(left))
    try:
        scalar = _run_scalar(
            kernel, age, rows if at is None else rows[at], mem, ctx, at
        )
    except KernelBodyError as exc:
        exc.stores = stores + exc.stores
        raise
    return tuple(a + b for a, b in zip(run, scalar))


def _call_batch_body(kernel: KernelDef, age, rows, fetched, shared):
    """One ``batch_body`` call on ``rows``: its emissions, or ``None``
    when it declined (:class:`~repro.core.vectorize.VectorizeFallback`).
    Writes nothing."""
    bctx = vectorize.BatchKernelContext(
        age, rows, fetched, frozenset(shared),
        index_vars=kernel.index_vars,
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
            kernel.name, age, tuple(rows[0].tolist()), exc
        ) from exc
    return bctx.emitted


def _store_stacked(kernel: KernelDef, age, rows, at, emitted, mem) -> list:
    """Write one stacked call's emissions: one group and one record per
    store spec it fed, ``who`` being ``at`` (``None``: the claim)."""
    n = len(rows)
    fields = mem.fields
    columns = dict(zip(kernel.index_vars, rows.T))
    stores = []
    for s in kernel.stores:
        values = emitted.get(s.emit_key)
        if values is None:
            continue
        field = fields[s.field]
        fdef = field.fdef
        s_age = s.age.resolve(age)
        # Every row has one value (checked at the call), so dtype
        # coercion and spec resolution happen once for the class.
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
        stores.append((s.field, s_age, group, at))
    return stores
