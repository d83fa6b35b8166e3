"""The dependency analyzer.

Implements section VI-B of the paper: "When receiving such a storage
event, the runtime finds all *new* valid combinations of age and index
variables that can be processed as a result of the store statement, and
puts these in a per-kernel ready queue."

The analyzer is deliberately serial (the prototype runs it in a
dedicated thread); all of its mutable state — the dispatched mask per
(kernel, age), per-kernel pending ages, dispatch counters — is touched
only under the node's analysis lock (:meth:`ExecutionNode._analyze
<repro.core.runtime.ExecutionNode._analyze>`), so it needs no locks of
its own.  Field completeness checks go through the fields' own locks.

Algorithm sketch
----------------
A store event announces a *group* of regions of field ``F`` at age
``α`` (a batch's stores; a single store is a group of one) and is
analysed once per (consumer kernel, age), over the union of the
regions' candidates.  For each region ``R`` of the group:

1. For each (kernel ``K``, fetch ``f``) with ``f.field == F``, derive the
   candidate *kernel ages*: solving ``f``'s age expression for ``α`` when
   it references the age variable, or rechecking every *pending* age when
   it is a literal match (a literal-age fetch alone cannot bound the age
   domain; program validation guarantees a variable-age fetch exists).
2. For each candidate age, enumerate candidate index combinations —
   variables bound by ``f`` are restricted to the block range overlapping
   ``R``; other variables range over the full instance count implied by
   current field extents.
3. A combination is dispatched when it has never been dispatched before
   (write-once ⇒ dispatch-once) and *every* fetch of ``K`` is complete
   for the resolved age/region.  A fetch whose field is whole at its
   age is complete for every combination (an O(1) count); each other
   var-bound fetch is checked for all the box's undispatched
   combinations at once, their regions as one region group per region
   shape read off the written mask.  A whole-field fetch of an
   incomplete field makes nothing runnable — which is why the node does
   not analyse a store to a field that is only ever fetched whole until
   the store that completes its age.

What an entry point returns is a list of :class:`~repro.core.kernels.Run`
— per (kernel, age), the released combinations as one ``(n, len(index
vars))`` index array, in lexicographic order over the domain — and no
:class:`~repro.core.kernels.KernelInstance` is built on the way.

Pending ages are pruned once every combination at current extents has
been dispatched; any event that could make new combinations runnable
(a store or resize) re-adds the age, so pruning never loses instances.

The dispatch-once bookkeeping is, per (kernel, age), a boolean mask
over the kernel's index domain (:class:`_AgeMask`), grown with the
extents, with the count of its set cells beside it: a box of candidates
is a slice of the mask, a claim one fancy-index assignment, and the
pruning test one comparison.  It is keyed by kernel and age and retires
with the ages (:meth:`DependencyAnalyzer.retire_below`), so it stays
bounded on an unbounded stream.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .events import InstanceDoneEvent, ResizeEvent, StoreEvent
from .fields import FieldStore, IndexExpr
from .kernels import FetchSpec, KernelDef, Run, StoreSpec
from .program import Program


class _AgeMask:
    """The instances of one (kernel, age) ever dispatched: ``mask`` has
    a cell per index combination — grown, never shrunk, to cover the
    domain as the extents grow — and ``count`` is its number of set
    cells (``len``), so pruning an age and the early-out cost O(1)."""

    __slots__ = ("mask", "count")

    def __init__(self, ndim: int) -> None:
        self.mask = np.zeros((0,) * ndim, dtype=bool)
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def cover(self, shape: Sequence[int]) -> np.ndarray:
        """The mask, first grown to at least ``shape`` (each dimension
        at least doubling, so a field growing element by element costs
        amortised O(1) copies)."""
        mask = self.mask
        if all(have >= need for have, need in zip(mask.shape, shape)):
            return mask
        grown = np.zeros(
            tuple(have if have >= need else max(need, 2 * have)
                  for have, need in zip(mask.shape, shape)),
            dtype=bool,
        )
        grown[tuple(slice(0, have) for have in mask.shape)] = mask
        self.mask = grown
        return grown

    def fresh(self, rows: np.ndarray) -> np.ndarray:
        """The rows of ``rows`` (distinct) not dispatched yet."""
        if not len(rows):
            return rows
        mask = self.cover(rows.max(axis=0) + 1)
        # (no index variables: the mask is 0-d and so is the lookup)
        return rows[~np.broadcast_to(mask[tuple(rows.T)], len(rows))]


def _unset_rows(
    mask: np.ndarray, windows: Sequence[Sequence[tuple[int, int]]]
) -> np.ndarray:
    """The unset cells of ``mask`` inside the union of ``windows`` (each
    a ``(lo, hi)`` per dimension), as an index array in lexicographic
    order: one box is a slice of the mask, several are OR-ed into a
    scratch mask over their bounding box first (boxes may overlap).
    The array is the transpose of its ``(ndim, n)`` columns, so
    ``tuple(rows.T)`` indexes the mask without a copy."""
    if not mask.ndim:  # no index variables: the one combination ()
        return np.zeros((0 if mask[()] else 1, 0), dtype=np.intp)
    if len(windows) == 1:
        (window,) = windows
        base = [lo for lo, _hi in window]
        free = ~mask[tuple(slice(lo, hi) for lo, hi in window)]
    else:
        base = [min(w[d][0] for w in windows) for d in range(mask.ndim)]
        top = [max(w[d][1] for w in windows) for d in range(mask.ndim)]
        free = np.zeros([hi - lo for lo, hi in zip(base, top)], dtype=bool)
        for window in windows:
            free[tuple(
                slice(lo - b, hi - b) for (lo, hi), b in zip(window, base)
            )] = True
        free &= ~mask[tuple(slice(lo, hi) for lo, hi in zip(base, top))]
    # (``np.argwhere`` is this plus a Python-level wrapper; on the
    # one-instance events of ``batch=1`` that wrapper was half the cost)
    cols = np.array(free.nonzero(), dtype=np.intp)
    for d, lo in enumerate(base):
        if lo:
            cols[d] += lo
    return cols.T


class DependencyAnalyzer:
    """Turns field store/resize events into newly runnable instances."""

    def __init__(
        self,
        program: Program,
        fields: FieldStore,
        max_age: int | None = None,
        producers: Iterable[KernelDef] | None = None,
    ) -> None:
        self.program = program
        self.fields = fields
        self.max_age = max_age
        #: kernel name -> age -> instances dispatched (write-once ⇒
        #: dispatch-once); keyed by age so it can retire with the ages
        self._dispatched: dict[str, dict[int | None, _AgeMask]] = {
            k: {} for k in program.kernels
        }
        #: kernel name -> candidate ages not yet fully dispatched
        self._pending: dict[str, set[int]] = {
            k: set() for k in program.kernels
        }
        #: kernel name -> instances ever dispatched (survives retirement)
        self._total: dict[str, int] = {}
        #: kernel name -> ages below this are retired: bookkeeping
        #: dropped, late events ignored
        self._retired: dict[str, int] = {}
        #: field -> consuming (kernel, fetch) pairs
        self._fetchers: dict[str, list[tuple[KernelDef, FetchSpec]]] = {}
        for k in program.kernels.values():
            for f in k.fetches:
                self._fetchers.setdefault(f.field, []).append((k, f))
        #: The fields no consumer here fetches by region: every fetch of
        #: one (if any) is whole-field, so a store to it releases nothing
        #: while the field is incomplete at its age (:meth:`_collect`),
        #: and the node analyses only the stores that find it complete
        #: (:meth:`ExecutionNode._analyze
        #: <repro.core.runtime.ExecutionNode._analyze>`).
        self.whole_fetched = frozenset(
            name for name in program.fields
            if all(f.whole_field() for _k, f in self._fetchers.get(name, ()))
        )
        #: field -> producing (kernel, store) pairs, for the
        #: premature-completeness guard.  ``producers`` names the full
        #: program's kernels in a distributed run, where writers of a
        #: field may be partitioned onto other nodes.
        self._producers: dict[str, list[tuple[KernelDef, StoreSpec]]] = {}
        for k in (
            program.kernels.values() if producers is None else producers
        ):
            for s in k.stores:
                self._producers.setdefault(s.field, []).append((k, s))
        #: instrumentation: store events processed / candidates examined
        self.events_processed = 0
        self.candidates_examined = 0

    # ------------------------------------------------------------------
    def _extent_of(self, field: str) -> tuple[int, ...]:
        return self.fields[field].extent

    def _age_ok(self, age: int | None, kernel: KernelDef | None = None) -> bool:
        if age is None:
            return True
        if self.max_age is not None and age > self.max_age:
            return False
        if (
            kernel is not None
            and kernel.age_limit is not None
            and age > kernel.age_limit
        ):
            return False
        return True

    def _mask(self, kernel: KernelDef, age: int | None) -> _AgeMask:
        by_age = self._dispatched[kernel.name]
        seen = by_age.get(age)
        if seen is None:
            seen = by_age[age] = _AgeMask(len(kernel.index_vars))
        return seen

    # ------------------------------------------------------------------
    def initial_instances(self) -> list[Run]:
        """Runs dispatchable before any store: run-once kernels and the
        age-0 instances of aged source kernels."""
        out: list[Run] = []
        for k in self.program.kernels.values():
            age = 0 if k.has_age else None
            if not k.is_source or not self._age_ok(age, k):
                continue
            counts = dict(k.domain or {})
            shape = [counts.get(v, 1) for v in k.index_vars]
            seen = self._mask(k, age)
            rows = _unset_rows(
                seen.cover(shape), [[(0, n) for n in shape]]
            )
            if len(rows):
                out.append(self._claim(k, age, rows, seen))
        return out

    # ------------------------------------------------------------------
    def on_store(self, ev: StoreEvent) -> list[Run]:
        """React to a store event: dispatch every newly satisfiable
        instance, analysing the event's group of regions once per
        (consumer kernel, age)."""
        self.events_processed += 1
        # Materialised by the first var-bound consumer that needs the
        # candidate boxes; a whole-field fetch never walks the group.
        regions = None
        extent = self._extent_of(ev.field)
        #: (kernel name, age) -> [kernel, boxes]: the candidate boxes of
        #: every region under every fetch of the field, or ``None`` once
        #: any of them (a whole-field fetch) asks for the whole domain.
        work: dict[tuple, list] = {}
        for kernel, fetch in self._fetchers.get(ev.field, ()):
            ages: list[int | None]
            if kernel.has_age:
                if fetch.age.literal is None:
                    a = fetch.age.solve(ev.age)
                    if (
                        a is None
                        or a < self._retired.get(kernel.name, 0)
                        or not self._age_ok(a, kernel)
                    ):
                        continue
                    self._pending[kernel.name].add(a)
                    ages = [a]
                elif fetch.age.matches_literal(ev.age):
                    ages = sorted(self._pending[kernel.name])
                else:
                    continue
            elif fetch.age.matches_literal(ev.age):
                ages = [None]
            else:
                continue
            boxes = None
            if fetch.vars():
                if regions is None:
                    regions = ev.regions
                boxes = [
                    self._restrict(fetch, r, extent) for r in regions
                ]
            for age in ages:
                slot = work.get((kernel.name, age))
                if slot is None:
                    work[(kernel.name, age)] = [kernel, boxes]
                elif slot[1] is not None:
                    slot[1] = None if boxes is None else slot[1] + boxes
        out: list[Run] = []
        for (_name, age), (kernel, boxes) in work.items():
            out.extend(self._collect(kernel, age, boxes))
        return out

    def on_resize(self, ev: ResizeEvent) -> list[Run]:
        """A resize may raise instance counts; recheck pending ages of
        every consumer of the field (and ageless consumers)."""
        self.events_processed += 1
        out: list[Run] = []
        for kernel, _fetch in self._fetchers.get(ev.field, ()):
            if kernel.has_age:
                for age in sorted(self._pending[kernel.name]):
                    out.extend(self._collect(kernel, age, None))
            else:
                out.extend(self._collect(kernel, None, None))
        return out

    def on_done(self, ev: InstanceDoneEvent) -> list[Run]:
        """Self-advance aged source kernels: instance ``a`` finishing with
        at least one store schedules instance ``a + 1`` (section VII-B:
        "the read loop ends when the kernel stops storing")."""
        claim = ev.claim
        k = claim.kernel
        if not k.self_advances:
            return []
        assert claim.age is not None
        nxt_age = claim.age + 1
        if not self._age_ok(nxt_age, k):
            return []
        seen = self._mask(k, nxt_age)
        rows = seen.fresh(claim.rows[np.asarray(ev.stored, dtype=bool)])
        return [self._claim(k, nxt_age, rows, seen)] if len(rows) else []

    def _restrict(
        self, fetch: FetchSpec, region: IndexExpr, extent: tuple[int, ...]
    ) -> dict[str, range]:
        """Candidate index-variable ranges implied by one stored region
        (the *box* of combinations whose fetch may touch it)."""
        box: dict[str, range] = {}
        for dim, sl, n in zip(fetch.dims, region, extent):
            if dim.is_all:
                continue
            cand = dim.candidates(sl, n)
            if dim.var in box:
                prev = box[dim.var]
                lo = max(prev.start, cand.start)
                hi = min(prev.stop, cand.stop)
                cand = range(lo, max(lo, hi))
            box[dim.var] = cand
        return box

    def _claim(
        self, kernel: KernelDef, age: int | None, rows: np.ndarray,
        seen: _AgeMask,
    ) -> Run:
        """Dispatch-once: record ``rows`` (distinct, none dispatched
        before, inside ``seen``'s mask) as dispatched; their run."""
        seen.mask[tuple(rows.T)] = True
        seen.count += len(rows)
        self._total[kernel.name] = (
            self._total.get(kernel.name, 0) + len(rows)
        )
        return Run(kernel, age, rows)

    def _collect(
        self,
        kernel: KernelDef,
        age: int | None,
        boxes: Sequence[Mapping[str, range]] | None,
    ) -> list[Run]:
        """Find every not-yet-dispatched, fully satisfied combination in
        the union of ``boxes`` (``None``: the whole domain), and prune
        the age from the pending set once its domain is exhausted.  The
        box's candidates are tested together — one :meth:`_complete`
        over all of them, not a check per combination.

        The O(1) whole-field question comes first: while a whole-field
        operand is incomplete nothing is runnable, and an age with no
        dispatched instance cannot be pruned, so neither the counts nor
        the domain are built (K-means' ``refine`` is asked by every
        ``centroids`` row of the next age while that age's
        ``distances`` are still to be computed).  Otherwise the counts
        are taken *before* the fetches are probed, as always: extents
        only grow, so a field found complete afterwards covers every
        combination of the domain."""
        name = kernel.name
        seen = self._dispatched[name].get(age)
        if not seen:
            for f in kernel.fetches:
                if f.whole_field() and not self.fields[f.field].is_complete(
                    f.age.resolve(age), None
                ):
                    return []
        index_vars = kernel.index_vars
        counts = kernel.index_counts(self._extent_of)
        shape = [counts.get(v, 0) for v in index_vars]
        out: list[Run] = []
        probes = self._open_fetches(kernel, age)
        if probes is not None:
            if boxes is None:
                windows = [[(0, n) for n in shape]]
            else:
                windows = []
                for box in boxes:
                    window = []
                    for v, n in zip(index_vars, shape):
                        r = box.get(v)
                        window.append(
                            (0, n) if r is None
                            else (max(0, r.start), min(n, r.stop))
                        )
                    if all(lo < hi for lo, hi in window):
                        windows.append(window)
            if windows:
                if seen is None:
                    seen = self._mask(kernel, age)
                rows = _unset_rows(seen.cover(shape), windows)
                self.candidates_examined += len(rows)
                if probes and len(rows):
                    rows = rows[self._complete(probes, index_vars, rows)]
                if len(rows):
                    out.append(self._claim(kernel, age, rows, seen))
        # Drop a pending age once every combination at current extents
        # has been dispatched (safe: new combinations require new store
        # or resize events, which re-add the age).
        if age is not None and seen and age in self._pending[name]:
            total = math.prod(shape)
            if total and seen.count >= total:
                self._pending[name].discard(age)
        return out

    def _open_fetches(self, kernel: KernelDef, age: int | None):
        """The fetches of ``kernel`` at ``age`` that still need a mask
        probe per combination, as ``(fetch, field age, field)``; ``None``
        when a whole-field fetch is not satisfiable yet, so nothing is.

        A fetch whose field is already whole at its age is satisfied for
        every combination of the domain — the O(1) ``store_count``
        comparison instead of a probe per combination.  A variable-free
        (whole-field) fetch needs exactly that, plus its producers'
        index domains covered by the extent.
        """
        probes = []
        for f in kernel.fetches:
            f_age = f.age.resolve(age)
            field = self.fields[f.field]
            bound = f.vars()
            if field.is_complete(f_age, None):
                if bound or self._covers_producers(f.field, f_age):
                    continue
                return None
            if not bound:
                return None
            probes.append((f, f_age, field))
        return probes

    @staticmethod
    def _complete(probes, index_vars, rows: np.ndarray) -> np.ndarray:
        """Which of the candidate ``rows`` have every probed fetch's
        region complete, one flag per row.

        Per fetch, the rows still standing are split by region shape (a
        ragged trailing block or a stencil at the field's edge has its
        own; :meth:`~repro.core.kernels.Dim.widths`) and each shape's
        regions are one :class:`~repro.core.fields.RegionGroup`
        (:meth:`~repro.core.kernels.FetchSpec.group`), checked in one
        :meth:`~repro.core.fields.Field.members_complete`.  An empty
        region is satisfied when every empty dimension is a
        shrink-boundary stencil's (an absent neighbour); any other empty
        region makes the combination invalid."""
        ok = np.ones(len(rows), dtype=bool)
        position = {v: i for i, v in enumerate(index_vars)}
        for f, f_age, field in probes:
            live = np.flatnonzero(ok)
            if not len(live):
                break
            extent = field.extent
            if any(d.is_all and n <= 0 for d, n in zip(f.dims, extent)):
                ok[live] = False  # an empty whole dimension
                continue
            cols = {v: rows[live, position[v]] for v in f.vars()}
            var_dims = [d for d in f.dims if not d.is_all]
            widths = np.stack([
                d.widths(cols[d.var], n)
                for d, n in zip(f.dims, extent) if not d.is_all
            ], axis=1)
            if (widths == widths[0]).all():
                classes = [(widths[0], None)]
            else:
                shapes, inverse = np.unique(
                    widths, axis=0, return_inverse=True
                )
                inverse = inverse.reshape(-1)
                classes = [(shape, inverse == s)
                           for s, shape in enumerate(shapes)]
            for shape, which in classes:
                members = live if which is None else live[which]
                empty = shape <= 0
                if empty.any():
                    ok[members] = all(
                        d.boundary == "shrink"
                        for d, e in zip(var_dims, empty) if e
                    )
                    continue
                group = f.group(
                    cols if which is None
                    else {v: c[which] for v, c in cols.items()},
                    len(members), extent,
                )
                ok[members] = field.members_complete(f_age, group)
        return ok

    def _covers_producers(self, field: str, f_age: int | None) -> bool:
        """Whether the field's current extent reaches every producer's
        index domain at ``f_age``.

        Guards whole-field fetches against *premature* completeness: a
        field grows store by store, so a producer that has committed only
        its first elements momentarily satisfies
        ``store_count == prod(extent)`` at the partial extent.  Normal
        runs win that race by timing; a node failure between producer
        instances freezes the extent small for the whole detection
        window and would fire the consumer on a fragment.

        Only plain unit-block, zero-offset var dims constrain the extent
        — blocked or stencil dims and whole-array emits size the field by
        payload, and a conditional var-dim store (none exist in the
        bundled workloads; the skip-the-emit idiom is how whole-array
        sources signal EOF) would be indistinguishable from one still
        outstanding.
        """
        extent = self._extent_of(field)
        for kernel, spec in self._producers.get(field, ()):
            if kernel.has_age and not spec.age.is_literal:
                if f_age is None:
                    continue
                p_age = spec.age.solve(f_age)
                if p_age is None or not self._age_ok(p_age, kernel):
                    continue
            else:
                concrete = spec.age.literal if spec.age.is_literal else 0
                if concrete != (f_age if f_age is not None else 0):
                    continue
            counts: dict[str, int] | None = None
            for i, dim in enumerate(spec.dims):
                if dim.is_all or dim.block != 1 or dim.offset != 0:
                    continue
                if counts is None:
                    counts = kernel.index_counts(self._extent_of)
                need = counts.get(dim.var, 0)
                if need and i < len(extent) and extent[i] < need:
                    return False
        return True

    # ------------------------------------------------------------------
    def retire_below(self, min_age: int, kernels=None) -> None:
        """Forget the dispatch bookkeeping of every age below
        ``min_age`` — the streaming retirer freed those field ages.

        Safe under the retirement invariant (DESIGN.md §11): no
        undispatched instance can fetch a freed age (a retired age is
        never complete), so nothing below the floor can be
        dispatched again; a late event for such an age is ignored
        rather than left pending.  ``kernels`` (kernel names) scopes
        the drop to one session, like :meth:`min_pending_age`.
        """
        for name in (self._dispatched if kernels is None else kernels):
            by_age = self._dispatched.get(name)
            if by_age is None or min_age <= self._retired.get(name, 0):
                continue
            self._retired[name] = min_age
            for a in [a for a in by_age if a is not None and a < min_age]:
                del by_age[a]

    def tracked_instances(self) -> int:
        """Dispatched instances still held in the bookkeeping (bounded
        on a retiring stream)."""
        return sum(
            len(seen)
            for by_age in self._dispatched.values()
            for seen in by_age.values()
        )

    def dispatched_count(self, kernel: str | None = None) -> int:
        """Total instances dispatched (optionally for one kernel)."""
        if kernel is None:
            return sum(self._total.values())
        return self._total.get(kernel, 0)

    def min_pending_age(self, kernels=None) -> int | None:
        """Lowest age any kernel still has pending (GC lower bound).

        ``kernels`` (an iterable of kernel names) scopes the probe to
        one subgraph — the per-session retirement path passes a tenant's
        namespaced kernel set so another session's frontier never pins
        (or frees past) this one's ages.
        """
        if kernels is None:
            ages = [a for s in self._pending.values() for a in s]
        else:
            names = set(kernels)
            ages = [
                a
                for k, s in self._pending.items()
                if k in names
                for a in s
            ]
        return min(ages) if ages else None
