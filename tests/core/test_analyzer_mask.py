"""The analyzer's dispatch-once bookkeeping — a boolean mask per (kernel,
age) over the kernel's index domain — against the set of index tuples
it replaced.

``_SetAnalyzer`` below is that reference: the analyzer with its
``_collect`` / ``_claim`` / ``initial_instances`` / ``on_done`` as they
were, one tuple per combination checked against and added to a set,
each combination's probed fetches tested region by region
(``_satisfied``) where the analyzer tests a candidate box's regions as
region groups.  Both analyzers read one field store and see the same
events — grouped stores whose regions overlap as candidate boxes,
implicit resizes, partially complete probed fetches over ragged extents
and stencils at both boundary policies, source self-advance and
retirement floors — and must agree on what each event dispatches, on
the bookkeeping's size and on the pending ages, and the mask side must
never dispatch a combination twice.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (
    DependencyAnalyzer,
    Dim,
    FetchSpec,
    FieldDef,
    FieldStore,
    KernelDef,
    Program,
    StoreSpec,
)
from repro.core.events import InstanceDoneEvent, ResizeEvent, StoreEvent
from repro.core.fields import normalize_index
from repro.core.kernels import KernelInstance
from tests.conftest import flatten_runs

VARS = ("i", "j", "k")
SIDE = 5  #: stores land in [0, SIDE) per dimension; fields grow to it


def nop(ctx):  # pragma: no cover - never run
    pass


class _SetAnalyzer(DependencyAnalyzer):
    """The set-of-tuples bookkeeping, kept as the reference."""

    def _claim_set(self, kernel, age, combos):
        seen = self._dispatched[kernel.name].setdefault(age, set())
        out = []
        for combo in combos:
            if combo not in seen:
                seen.add(combo)
                out.append(KernelInstance(kernel, age, combo))
        if out:
            self._total[kernel.name] = (
                self._total.get(kernel.name, 0) + len(out)
            )
        return out

    def initial_instances(self):
        out = []
        for k in self.program.kernels.values():
            age = 0 if k.has_age else None
            if not k.is_source or not self._age_ok(age, k):
                continue
            counts = dict(k.domain or {})
            out.extend(self._claim_set(k, age, itertools.product(
                *(range(counts.get(v, 1)) for v in k.index_vars))))
        return out

    def on_done(self, ev):
        k = ev.instance.kernel
        if not k.self_advances or not self._age_ok(ev.instance.age + 1, k):
            return []
        stored = [
            inst.index for inst, stored in zip(ev.claim, ev.stored) if stored
        ]
        return self._claim_set(k, ev.instance.age + 1, stored)

    def _collect(self, kernel, age, boxes):
        name = kernel.name
        if not self._dispatched[name].get(age):
            for f in kernel.fetches:
                if f.whole_field() and not self.fields[f.field].is_complete(
                    f.age.resolve(age), None
                ):
                    return []
        index_vars = kernel.index_vars
        counts = kernel.index_counts(self._extent_of)
        domain = [range(counts.get(v, 0)) for v in index_vars]
        out = []
        probes = self._open_fetches(kernel, age)
        if probes is not None:
            if boxes is None:
                combos = itertools.product(*domain)
            else:
                combos = dict.fromkeys(itertools.chain.from_iterable(
                    itertools.product(*(
                        range(max(0, box[v].start), min(len(r), box[v].stop))
                        if v in box else r
                        for v, r in zip(index_vars, domain)
                    ))
                    for box in boxes
                ))
            seen = self._dispatched[name].get(age, ())
            ready = [combo for combo in combos if combo not in seen]
            self.candidates_examined += len(ready)
            if probes:
                ready = [c for c in ready
                         if self._satisfied(probes, index_vars, c)]
            if ready:
                out = self._claim_set(kernel, age, ready)
        if age is not None and age in self._pending[name]:
            total = math.prod(len(r) for r in domain)
            if total and len(self._dispatched[name].get(age, ())) >= total:
                self._pending[name].discard(age)
        return out

    @staticmethod
    def _satisfied(probes, index_vars, combo) -> bool:
        """Whether every probed fetch's region is complete for ``combo``."""
        imap = dict(zip(index_vars, combo))
        for f, f_age, field in probes:
            region = f.region(imap, field.extent)
            empty_dims = [
                i for i, s in enumerate(region) if s.stop <= s.start
            ]
            if empty_dims:
                # A shrink-boundary stencil outside the extent is an
                # absent neighbour: trivially satisfied.  Any other
                # empty dimension means the combination is invalid.
                if all(
                    not f.dims[i].is_all
                    and f.dims[i].boundary == "shrink"
                    for i in empty_dims
                ):
                    continue
                return False
            if not field.is_complete(f_age, region):
                return False
        return True


def _program(nvars: int, block: int) -> Program:
    """``k``: ``nvars`` index variables over ``f`` in blocks of
    ``block``, again one block further on (a shrink-boundary stencil:
    its boxes overlap the first fetch's), again one element back along
    the last variable (a clamp-boundary stencil: at the edge its region
    is pulled into the extent), and over ``g`` element-wise (a probed
    fetch); ``w``: all of ``g``; ``src``: a self-advancing source over a
    domain of 3."""
    vs = VARS[:nvars]
    ndim = max(1, nvars)
    if nvars:
        fetches = (
            FetchSpec("a", "f", dims=tuple(Dim.of(v, block) for v in vs)),
            FetchSpec("b", "f", dims=(
                Dim.of(vs[0], block, offset=block, boundary="shrink"),
                *(Dim.of(v, block) for v in vs[1:]))),
            FetchSpec("d", "f", dims=(
                *(Dim.of(v, block) for v in vs[:-1]),
                Dim.of(vs[-1], block, offset=-1, boundary="clamp"))),
            FetchSpec("c", "g", dims=tuple(Dim.of(v) for v in vs)),
        )
    else:
        fetches = (FetchSpec("a", "f"), FetchSpec("c", "g"))
    kernels = [
        KernelDef("k", nop, has_age=True, index_vars=vs, fetches=fetches),
        KernelDef("w", nop, has_age=True, fetches=(FetchSpec("c", "g"),)),
        KernelDef("src", nop, has_age=True, index_vars=("x",),
                  domain={"x": 3}, stores=(StoreSpec(
                      "s", dims=(Dim.of("x"),)),)),
    ]
    return Program.build(
        [FieldDef("f", "int32", ndim), FieldDef("g", "int32", ndim),
         FieldDef("s", "int32", 1)],
        kernels,
    )


_cell = st.lists(st.integers(0, SIDE - 1), min_size=3, max_size=3)
_ops = st.lists(
    st.one_of(
        # a grouped store: its cells stored one by one (each may grow
        # the field), then announced as one event
        st.tuples(st.just("store"), st.sampled_from("fg"),
                  st.integers(0, 3), st.lists(_cell, min_size=1,
                                              max_size=8)),
        st.tuples(st.just("done"), st.lists(st.booleans(), min_size=3,
                                            max_size=3)),
        st.tuples(st.just("retire"), st.integers(0, 4)),
    ),
    max_size=30,
)


def _keys(instances):
    return [inst.key for inst in instances]


class TestMaskEqualsTheSetItReplaced:
    @given(st.integers(0, 3), st.integers(1, 2), _ops)
    @settings(max_examples=3 * settings.default.max_examples // 2,
              deadline=None)
    def test_same_dispatches_bookkeeping_and_pending(self, nvars, block,
                                                     ops):
        program = _program(nvars, block)
        fields = FieldStore(program.fields.values())
        mask_an = DependencyAnalyzer(program, fields)
        set_an = _SetAnalyzer(program, fields)
        dispatched = set()
        sources = []  # the mask side's src runs, oldest first

        def agree(runs, ref):
            got = _keys(flatten_runs(runs))
            assert len(set(got)) == len(got)  # no repeat within an event
            assert set(got) == set(_keys(ref))
            assert not dispatched & set(got)  # nor across events
            dispatched.update(got)
            for run in runs:
                assert len(run)
                assert run.rows.dtype == np.intp
                assert run.rows.shape == (len(run),
                                          len(run.kernel.index_vars))
                if run.kernel.name == "src":
                    sources.append(run)
            assert mask_an.tracked_instances() == set_an.tracked_instances()
            assert mask_an._pending == set_an._pending
            assert mask_an.min_pending_age() == set_an.min_pending_age()
            assert mask_an.dispatched_count() == set_an.dispatched_count()
            assert mask_an.candidates_examined == (
                set_an.candidates_examined)

        agree(mask_an.initial_instances(), set_an.initial_instances())
        floor = 0
        for op, *args in ops:
            if op == "store":
                name, age, cells = args
                age += floor
                field = fields[name]
                regions = []
                for cell in cells:
                    idx = normalize_index(tuple(cell[:field.ndim]),
                                          field.ndim)
                    if idx in regions or field.is_complete(age, idx):
                        continue  # write-once: already stored
                    resize = field.store(age, idx, 1)
                    regions.append(idx)
                    if resize is not None:
                        ev = ResizeEvent(name, resize.old_extent,
                                         resize.new_extent)
                        agree(mask_an.on_resize(ev), set_an.on_resize(ev))
                if regions:
                    ev = StoreEvent.group(name, age, regions)
                    agree(mask_an.on_store(ev), set_an.on_store(ev))
            elif op == "done":
                if not sources:
                    continue
                claim = sources.pop(0)
                ev = InstanceDoneEvent(claim, args[0][:len(claim)])
                agree(mask_an.on_done(ev), set_an.on_done(ev))
            else:
                floor += args[0]
                fields.collect_below(floor)
                mask_an.retire_below(floor)
                set_an.retire_below(floor)
                agree([], [])
        # Everything retires: nothing is left in the bookkeeping (an
        # age entry that outlives its retirement grows it for as long as
        # a stream runs).
        mask_an.retire_below(1 + max(
            [floor + 3] + [a for by_age in mask_an._dispatched.values()
                           for a in by_age]))
        assert mask_an.tracked_instances() == 0
        assert all(not by_age for by_age in mask_an._dispatched.values())


_dim = st.one_of(
    st.just(Dim.all()),
    st.builds(Dim.of, st.sampled_from(VARS[:2]), st.integers(1, 3),
              st.integers(-3, 3), st.sampled_from(["clamp", "shrink"])),
)


class TestGroupCheckEqualsTheCombinationCheck:
    """The analyzer's candidate check (``_complete``: region groups per
    region shape) against ``_satisfied`` (one combination at a time) on
    arbitrary probes — stencils at both boundary policies, rows past the
    extent, empty and partly written fields, ages with no slot — not
    only the combinations the analyzer's own domain produces."""

    @given(
        # a probed fetch binds at least one variable
        st.lists(st.tuples(st.lists(_dim, min_size=2, max_size=2).filter(
            lambda dims: any(not d.is_all for d in dims)),
            st.integers(-1, 2)), min_size=1, max_size=3),
        st.lists(st.integers(0, 3), min_size=2, max_size=2),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                           st.integers(0, 1)), max_size=16),
        st.lists(st.tuples(st.integers(0, SIDE), st.integers(0, SIDE)),
                 min_size=1, max_size=12),
    )
    @settings(max_examples=3 * settings.default.max_examples,
              deadline=None)
    def test_same_flags_per_combination(self, specs, shape, cells, rows):
        fields = FieldStore([FieldDef("f", "int32", 2,
                                      shape=tuple(shape))])
        field = fields["f"]
        for x, y, age in cells:
            if x < shape[0] and y < shape[1] and not field.is_complete(
                    age, (x, y)):
                field.store(age, (x, y), 1)
        probes = [(FetchSpec(f"p{i}", "f", dims=tuple(dims)), f_age, field)
                  for i, (dims, f_age) in enumerate(specs)]
        index_vars = VARS[:2]
        rows = np.array(rows, dtype=np.intp).reshape(-1, 2)
        got = DependencyAnalyzer._complete(probes, index_vars, rows)
        want = [_SetAnalyzer._satisfied(probes, index_vars, row)
                for row in rows.tolist()]
        assert got.tolist() == want
