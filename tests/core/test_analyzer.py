"""Unit tests for the dependency analyzer (event → instance logic)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AgeExpr,
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
from repro.core.kernels import Run
from tests.conftest import flatten_runs


def nop(ctx):
    pass


def store_ev(fields, name, age, index, value):
    """Perform a store and return the matching event (as a worker would)."""
    field = fields[name]
    idx = normalize_index(index, field.ndim)
    resize = field.store(age, idx, value)
    return StoreEvent(name, age, idx), resize


def simple_program():
    """init -> per-element consumer -> whole-field sink."""
    init = KernelDef("init", nop, stores=(StoreSpec("a", AgeExpr.const(0)),))
    per = KernelDef(
        "per", nop, has_age=True, index_vars=("x",),
        fetches=(FetchSpec("v", "a", dims=(Dim.of("x"),), scalar=True),),
        stores=(StoreSpec("b", dims=(Dim.of("x"),)),),
    )
    sink = KernelDef(
        "sink", nop, has_age=True, fetches=(FetchSpec("all", "b"),),
    )
    return Program.build(
        [FieldDef("a"), FieldDef("b")], [init, per, sink]
    )


class TestInitialInstances:
    def test_run_once_and_aged_sources(self):
        src = KernelDef("src", nop, has_age=True,
                        stores=(StoreSpec("a"),))
        init = KernelDef("init", nop, stores=(StoreSpec("b", AgeExpr.const(0)),))
        prog = Program.build([FieldDef("a"), FieldDef("b")], [init, src])
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        initial = flatten_runs(an.initial_instances())
        got = {(i.kernel.name, i.age) for i in initial}
        assert got == {("init", None), ("src", 0)}

    def test_initial_respects_domain(self):
        src = KernelDef("src", nop, has_age=True, index_vars=("x",),
                        domain={"x": 3}, stores=(StoreSpec("a", dims=(Dim.of("x"),)),))
        prog = Program.build([FieldDef("a")], [src])
        an = DependencyAnalyzer(prog, FieldStore(prog.fields.values()))
        assert len(flatten_runs(an.initial_instances())) == 3

    def test_initial_only_once(self):
        prog = simple_program()
        an = DependencyAnalyzer(prog, FieldStore(prog.fields.values()))
        first = flatten_runs(an.initial_instances())
        assert len(first) == 1
        assert an.initial_instances() == []


class TestOnStore:
    def test_per_element_dispatch(self):
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        an.initial_instances()
        ev, _ = store_ev(fields, "a", 0, slice(0, 3), [1, 2, 3])
        out = flatten_runs(an.on_store(ev))
        names = sorted(str(i) for i in out)
        assert names == ["per(age=0, x=0)", "per(age=0, x=1)",
                         "per(age=0, x=2)"]

    def test_dispatch_once(self):
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "a", 0, 0, 5)
        assert len(flatten_runs(an.on_store(ev))) == 1
        assert an.on_store(ev) == []  # same event again: nothing new

    def test_whole_field_fetch_waits_for_completion(self):
        """With a declared shape, a whole-field fetch is exact: it only
        dispatches when every element is written."""
        init = KernelDef("init", nop, stores=(StoreSpec("a", AgeExpr.const(0)),))
        sink = KernelDef(
            "sink", nop, has_age=True, fetches=(FetchSpec("all", "b"),),
        )
        prog = Program.build(
            [FieldDef("a"), FieldDef("b", shape=(2,))], [init, sink]
        )
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev1, _ = store_ev(fields, "b", 0, 0, 2)
        assert an.on_store(ev1) == []  # element 1 still missing
        ev2, _ = store_ev(fields, "b", 0, 1, 4)
        out = flatten_runs(an.on_store(ev2))
        assert [i.kernel.name for i in out] == ["sink"]

    def test_whole_field_fetch_on_growing_field(self):
        """Without a declared shape, 'the whole field' is the extent at
        dispatch time — the documented implicit-resize semantics (the
        paper dispatches once per instance; resizes add *new* instances,
        they do not re-dispatch old ones)."""
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev1, _ = store_ev(fields, "b", 0, 0, 2)
        out = flatten_runs(an.on_store(ev1))
        assert [i.kernel.name for i in out] == ["sink"]
        # later growth does not re-dispatch the sink for age 0
        ev2, _ = store_ev(fields, "b", 0, 1, 4)
        assert an.on_store(ev2) == []

    def test_age_offset_solve(self):
        loop = KernelDef(
            "loop", nop, has_age=True, index_vars=("x",),
            fetches=(FetchSpec("v", "a", AgeExpr.var(0),
                               dims=(Dim.of("x"),), scalar=True),),
            stores=(StoreSpec("a", AgeExpr.var(1), dims=(Dim.of("x"),)),),
        )
        prog = Program.build([FieldDef("a")], [loop])
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "a", 3, 0, 1)
        out = flatten_runs(an.on_store(ev))
        assert [(i.kernel.name, i.age) for i in out] == [("loop", 3)]

    def test_literal_age_fetch_rechecks_pending(self):
        """A kernel fetching config(0) + stream(a): config arriving last
        must release the pending ages."""
        k = KernelDef(
            "k", nop, has_age=True, index_vars=("x",),
            fetches=(
                FetchSpec("s", "stream", dims=(Dim.of("x"),), scalar=True),
                FetchSpec("c", "config", AgeExpr.const(0)),
            ),
        )
        prog = Program.build(
            [FieldDef("stream"), FieldDef("config")], [k]
        )
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "stream", 2, 0, 1)
        assert an.on_store(ev) == []  # config missing
        ev2, _ = store_ev(fields, "config", 0, 0, 9)
        out = flatten_runs(an.on_store(ev2))
        assert [(i.kernel.name, i.age, i.index) for i in out] == [("k", 2, (0,))]

    def test_max_age_bound(self):
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields, max_age=1)
        ev, _ = store_ev(fields, "a", 5, 0, 1)
        assert an.on_store(ev) == []

    def test_per_kernel_age_limit(self):
        per = KernelDef(
            "per", nop, has_age=True, index_vars=("x",),
            fetches=(FetchSpec("v", "a", dims=(Dim.of("x"),), scalar=True),),
            age_limit=2,
        )
        prog = Program.build([FieldDef("a")], [per])
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "a", 2, 0, 1)
        assert len(flatten_runs(an.on_store(ev))) == 1
        ev2, _ = store_ev(fields, "a", 3, 0, 1)
        assert an.on_store(ev2) == []

    def test_multi_var_combinations(self):
        pair = KernelDef(
            "pair", nop, has_age=True, index_vars=("x", "y"),
            fetches=(
                FetchSpec("a", "fa", dims=(Dim.of("x"),), scalar=True),
                FetchSpec("b", "fb", dims=(Dim.of("y"),), scalar=True),
            ),
        )
        prog = Program.build([FieldDef("fa"), FieldDef("fb")], [pair])
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "fa", 0, slice(0, 2), [1, 2])
        assert an.on_store(ev) == []  # fb empty
        ev2, _ = store_ev(fields, "fb", 0, slice(0, 3), [1, 2, 3])
        out = flatten_runs(an.on_store(ev2))
        assert len(out) == 6  # 2 x 3 combinations

    def test_block_fetch_candidates(self):
        blocky = KernelDef(
            "blocky", nop, has_age=True, index_vars=("x",),
            fetches=(FetchSpec("v", "a", dims=(Dim.of("x", 4),)),),
        )
        prog = Program.build([FieldDef("a")], [blocky])
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "a", 0, slice(0, 8), np.arange(8))
        out = flatten_runs(an.on_store(ev))
        assert sorted(i.index for i in out) == [(0,), (1,)]


class TestSourceAdvance:
    def test_source_chain_advances_until_silent(self):
        src = KernelDef("src", nop, has_age=True, stores=(StoreSpec("a"),))
        prog = Program.build([FieldDef("a")], [src])
        an = DependencyAnalyzer(prog, FieldStore(prog.fields.values()))
        (first,) = an.initial_instances()
        nxt = an.on_done(InstanceDoneEvent(first, [True]))
        assert [(i.kernel.name, i.age) for i in flatten_runs(nxt)] == [
            ("src", 1)]
        done = an.on_done(InstanceDoneEvent(nxt[0], [False]))
        assert done == []

    def test_non_source_done_is_ignored(self):
        prog = simple_program()
        an = DependencyAnalyzer(prog, FieldStore(prog.fields.values()))
        per = prog.kernels["per"]
        ev = InstanceDoneEvent(Run(per, 0, np.array([[0]], np.intp)), [True])
        assert an.on_done(ev) == []


class TestResize:
    def test_resize_dispatches_new_combos(self):
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "a", 0, slice(0, 2), [1, 2])
        assert len(flatten_runs(an.on_store(ev))) == 2
        # growth: element 5 written later (extent 0..5); elements 2..4
        # missing, so only x=5 becomes dispatchable
        ev2, resize = store_ev(fields, "a", 0, 5, 9)
        assert resize is not None
        out = flatten_runs(an.on_store(ev2))
        assert sorted(i.index for i in out) == [(5,)]
        out2 = an.on_resize(
            ResizeEvent("a", resize.old_extent, resize.new_extent)
        )
        assert out2 == []  # nothing new; gap still unwritten

    def test_counters(self):
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        an.initial_instances()
        ev, _ = store_ev(fields, "a", 0, slice(0, 4), [1, 2, 3, 4])
        an.on_store(ev)
        assert an.dispatched_count("per") == 4
        assert an.dispatched_count() == 5  # + init
        assert an.events_processed == 1


class TestProducerCoverage:
    """Whole-field fetches must wait out the producer's full index
    domain, not fire at a momentarily-consistent partial extent."""

    def events_for(self, an, fields, name, age, index, value):
        ev, resize = store_ev(fields, name, age, index, value)
        out = []
        if resize is not None:
            out += an.on_resize(
                ResizeEvent(name, resize.old_extent, resize.new_extent)
            )
        out += an.on_store(ev)
        return flatten_runs(out)

    def test_whole_field_fetch_waits_for_producer_domain(self):
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        # init commits a(0) atomically: per x=0..4 become runnable.
        assert len(self.events_for(an, fields, "a", 0, slice(0, 5),
                                   [1, 2, 3, 4, 5])) == 5
        # First per instance stores b[0] only: extent (1,), store_count 1
        # — "complete" at the partial extent, but per's domain (from a's
        # extent) promises five elements, so sink must not fire yet.
        out = self.events_for(an, fields, "b", 0, 0, 10)
        assert all(i.kernel.name != "sink" for i in out)
        # The remaining stores complete the true domain: sink(0) fires
        # exactly once.
        for x in range(1, 5):
            out += self.events_for(an, fields, "b", 0, x, 10 + x)
        assert [(i.kernel.name, i.age) for i in out].count(("sink", 0)) == 1

    def test_partitioned_analyzer_knows_remote_producers(self):
        """A node hosting only the consumer is told the full program's
        kernels (the cluster layer's ``dependency_kernels``) and applies
        the same guard to a field written remotely."""
        prog = simple_program()
        sink_only = Program.build(
            prog.fields.values(), [prog.kernels["sink"]]
        )
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(
            sink_only, fields, producers=prog.kernels.values()
        )
        store_ev(fields, "a", 0, slice(0, 5), [1, 2, 3, 4, 5])
        out = self.events_for(an, fields, "b", 0, 0, 10)
        assert out == []
        for x in range(1, 5):
            out += self.events_for(an, fields, "b", 0, x, 10 + x)
        assert [(i.kernel.name, i.age) for i in out] == [("sink", 0)]


class TestRetirement:
    """Dispatch bookkeeping retires with the ages (``retire_below``)."""

    def _loop(self):
        loop = KernelDef(
            "loop", nop, has_age=True, index_vars=("x",),
            fetches=(FetchSpec("v", "a", dims=(Dim.of("x"),), scalar=True),),
        )
        other = KernelDef(
            "other", nop, has_age=True, index_vars=("x",),
            fetches=(FetchSpec("v", "a", dims=(Dim.of("x"),), scalar=True),),
        )
        prog = Program.build([FieldDef("a", shape=(3,))], [loop, other])
        fields = FieldStore(prog.fields.values())
        return DependencyAnalyzer(prog, fields), fields

    def test_drops_everything_below_the_floor(self):
        an, fields = self._loop()
        for age in range(4):
            ev, _ = store_ev(fields, "a", age, slice(0, 3), [1, 2, 3])
            assert len(flatten_runs(an.on_store(ev))) == 6
        assert an.tracked_instances() == 24
        an.retire_below(3)
        assert an.tracked_instances() == 6  # age 3 of both kernels
        assert an.dispatched_count() == 24  # totals survive retirement

    def test_scoped_by_kernel_names(self):
        an, fields = self._loop()
        for age in range(2):
            ev, _ = store_ev(fields, "a", age, slice(0, 3), [1, 2, 3])
            an.on_store(ev)
        an.retire_below(2, frozenset({"loop", "not-on-this-node"}))
        assert an.tracked_instances() == 6  # other's two ages remain
        assert an.min_pending_age() is None

    def test_late_event_for_a_retired_age_is_ignored(self):
        """It can dispatch nothing (the slot is collected) and must not
        pin ``min_pending_age`` — the retirer's floor — either."""
        an, fields = self._loop()
        ev, _ = store_ev(fields, "a", 0, slice(0, 3), [1, 2, 3])
        assert len(flatten_runs(an.on_store(ev))) == 6
        fields.collect_below(1)
        an.retire_below(1)
        assert an.on_store(ev) == []
        assert an.min_pending_age() is None
        assert an.tracked_instances() == 0


class TestGroupedEvents:
    """A store event announces a group of regions; a done event a
    dispatch's members."""

    def test_group_dispatches_the_union_once(self):
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        regions = []
        for x in (0, 1, 3):
            ev, _ = store_ev(fields, "a", 0, x, x)
            regions.append(ev.region)
        out = flatten_runs(an.on_store(StoreEvent.group("a", 0, regions)))
        assert sorted(i.index for i in out) == [(0,), (1,), (3,)]
        assert an.events_processed == 1
        assert an.on_store(StoreEvent.group("a", 0, regions)) == []

    def test_whole_field_consumer_checked_once_per_event(self):
        sink = KernelDef(
            "sink", nop, has_age=True, fetches=(FetchSpec("all", "b"),),
        )
        prog = Program.build([FieldDef("b", shape=(4,))], [sink])
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        regions = [store_ev(fields, "b", 0, x, x)[0].region
                   for x in range(4)]
        out = flatten_runs(an.on_store(StoreEvent.group("b", 0, regions)))
        assert [(i.kernel.name, i.age) for i in out] == [("sink", 0)]
        assert an.candidates_examined == 1

    def test_done_group_advances_each_storing_member(self):
        src = KernelDef(
            "src", nop, has_age=True, index_vars=("x",), domain={"x": 3},
            stores=(StoreSpec("a", dims=(Dim.of("x"),)),),
        )
        prog = Program.build([FieldDef("a")], [src])
        an = DependencyAnalyzer(prog, FieldStore(prog.fields.values()))
        (claim,) = an.initial_instances()  # first, second, third
        ev = InstanceDoneEvent(claim, [True, False, True])
        out = flatten_runs(an.on_done(ev))
        assert [(i.age, i.index) for i in out] == [(1, (0,)), (1, (2,))]
        assert an.on_done(ev) == []  # dispatch-once


class TestWholeFieldEarlyOut:
    """While a whole-field operand is incomplete, a store can make
    nothing of its consumer runnable: the analyzer answers that from
    the O(1) completeness count, before any counts or domain are
    built, and pruning still sees every age that has dispatched."""

    @staticmethod
    def _counting(kernel):
        calls = []
        index_counts = kernel.index_counts

        def counting(extent_of):
            calls.append(1)
            return index_counts(extent_of)

        kernel.index_counts = counting
        return calls

    def test_refine_domain_not_built_while_distances_incomplete(self):
        program, max_age, stores = _recorded("kmeans-pair")
        calls = self._counting(program.kernels["refine"])
        fields = FieldStore(program.fields.values())
        an = DependencyAnalyzer(program, fields, max_age)
        an.initial_instances()
        incomplete = 0
        for f, a, region, value in stores:
            fields[f].store(a, region, value)
            before = len(calls)
            an.on_store(StoreEvent(f, a, region))
            if f == "distances" and not fields[f].is_complete(a):
                incomplete += 1
                assert len(calls) == before, (a, region)
        assert incomplete > 20

    def test_kmeans_bytes_with_the_early_out(self):
        """A threaded run: whenever ``refine``'s domain is built for an
        age, ``distances`` was complete there (completeness only grows,
        so checking at the call is checking at the early-out) or the
        age had dispatched — and the centroids are the reference's."""
        from repro.core import ExecutionNode
        from repro.workloads import build_kmeans, kmeans_baseline

        args = dict(n=24, k=4, iterations=4, seed=3)
        program, result = build_kmeans(granularity="pair", **args)
        node = ExecutionNode(program, 2)
        an, distances = node.analyzer, node.fields["distances"]
        collecting, premature = [], []
        collect = an._collect

        def tracking(kernel, age, boxes):
            collecting.append((kernel.name, age))
            try:
                return collect(kernel, age, boxes)
            finally:
                collecting.pop()

        refine = program.kernels["refine"]
        index_counts = refine.index_counts

        def checking(extent_of):
            if collecting and collecting[-1][0] == "refine":
                age = collecting[-1][1]
                premature.append(not (
                    distances.is_complete(age)
                    or an._dispatched["refine"].get(age)
                ))
            return index_counts(extent_of)

        an._collect = tracking
        refine.index_counts = checking
        node.run(timeout=60)
        assert premature and not any(premature)
        want = kmeans_baseline(**args).history
        assert sorted(result.history) == sorted(want)
        for age, centroids in want.items():
            assert np.array_equal(result.history[age], centroids)

    def test_fully_dispatched_age_touched_later_leaves_pending(self):
        """A growable whole-field operand that was complete when every
        instance dispatched, then grows with a gap: the store that grew
        it finds the operand incomplete, yet the age — fully dispatched
        — is still pruned instead of pinning ``min_pending_age``."""
        k = KernelDef(
            "k", nop, has_age=True, index_vars=("x",),
            fetches=(
                FetchSpec("v", "a", dims=(Dim.of("x"),), scalar=True),
                FetchSpec("all", "b"),
            ),
        )
        prog = Program.build([FieldDef("a", shape=(3,)), FieldDef("b")],
                             [k])
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "a", 0, slice(0, 3), [1, 2, 3])
        assert an.on_store(ev) == []
        ev, _ = store_ev(fields, "b", 0, slice(0, 2), [1, 2])
        assert len(flatten_runs(an.on_store(ev))) == 3
        assert an.min_pending_age() is None
        ev, resize = store_ev(fields, "b", 0, 3, 4)  # extent 4, gap at 2
        assert resize is not None and not fields["b"].is_complete(0)
        assert an.on_resize(ResizeEvent(
            "b", resize.old_extent, resize.new_extent)) == []
        assert an.on_store(ev) == []
        assert an.min_pending_age() is None


# ----------------------------------------------------------------------
# Grouping is invisible to the schedule
# ----------------------------------------------------------------------
def _stencil_program(n=10):
    """fill -> shrink-boundary stencil iterated over ages."""
    def fill(ctx):
        ctx.emit("data", ctx.index["x"])

    def blur(ctx):
        ctx.emit("data", int(ctx["c"]) + ctx["l"].sum() + ctx["r"].sum())

    kernels = [
        KernelDef("fill", fill, index_vars=("x",), domain={"x": n},
                  stores=(StoreSpec("data", AgeExpr.const(0),
                                    dims=(Dim.of("x"),)),)),
        KernelDef(
            "blur", blur, has_age=True, index_vars=("x",), age_limit=2,
            fetches=(
                FetchSpec("c", "data", dims=(Dim.of("x"),), scalar=True),
                FetchSpec("l", "data", dims=(
                    Dim.of("x", offset=-1, boundary="shrink"),)),
                FetchSpec("r", "data", dims=(
                    Dim.of("x", offset=1, boundary="shrink"),)),
            ),
            stores=(StoreSpec("data", AgeExpr.var(1),
                              dims=(Dim.of("x"),)),),
        ),
    ]
    return Program.build([FieldDef("data", "int64", shape=(n,))], kernels)


def _blocked_program(n=18):
    """fill -> blocks of 4 (ragged tail) -> whole-field sum."""
    def fill(ctx):
        ctx.emit("data", ctx.index["x"])

    def double(ctx):
        ctx.emit("out", ctx["v"] * 2)

    kernels = [
        KernelDef("fill", fill, index_vars=("x",), domain={"x": n},
                  stores=(StoreSpec("data", AgeExpr.const(0),
                                    dims=(Dim.of("x"),)),)),
        KernelDef("double", double, index_vars=("b",),
                  fetches=(FetchSpec("v", "data", AgeExpr.const(0),
                                     dims=(Dim.of("b", 4),)),),
                  stores=(StoreSpec("out", AgeExpr.const(0),
                                    dims=(Dim.of("b", 4),)),)),
        KernelDef("total", nop,
                  fetches=(FetchSpec("all", "out", AgeExpr.const(0)),)),
    ]
    return Program.build(
        [FieldDef("data", "int64", shape=(n,), aging=False),
         FieldDef("out", "int64", shape=(n,), aging=False)],
        kernels,
    )


def _programs():
    from repro.workloads import build_kmeans, build_mjpeg, build_mulsum
    from repro.workloads.mjpeg import MJPEGConfig

    return {
        "mulsum": (lambda: build_mulsum()[0], 2),
        "kmeans-pair": (lambda: build_kmeans(
            n=10, k=3, iterations=2, granularity="pair")[0], None),
        "kmeans-point": (lambda: build_kmeans(
            n=10, k=3, iterations=2, granularity="point")[0], None),
        "mjpeg": (lambda: build_mjpeg(
            config=MJPEGConfig(32, 16, 2))[0], None),
        "stencil": (_stencil_program, None),
        "blocked": (_blocked_program, None),
    }


@functools.lru_cache(maxsize=None)
def _recorded(name):
    """``(program, max_age, stores)`` of a real run of ``name``:
    ``stores`` is every store in the order it was announced, as
    ``(field, age, region, value)``."""
    from repro.core import ExecutionNode

    build, max_age = _programs()[name]
    announced = []
    node = ExecutionNode(
        build(), 1, max_age=max_age,
        on_event=lambda _n, ev: announced.extend(
            (ev.field, ev.age, r) for r in getattr(ev, "regions", ())),
    )
    result = node.run(timeout=60)
    stores = [
        (f, a, r, result.fields[f].fetch(a, r)) for f, a, r in announced
    ]
    # Replay against a fresh build: kernel bodies hold run state.
    return build(), max_age, stores


def _replay(program, max_age, chunks):
    """Drive a fresh analyzer the way the runtime does, one chunk at a
    time: commit every store of the chunk, then announce them as one
    event per (field, age).  Returns the dispatched instance keys."""
    fields = FieldStore(program.fields.values())
    an = DependencyAnalyzer(program, fields, max_age)
    seen = set()

    def take(runs):
        for inst in flatten_runs(runs):
            assert inst.key not in seen, f"double dispatch of {inst}"
            seen.add(inst.key)

    take(an.initial_instances())
    for chunk in chunks:
        groups: dict = {}
        for f, a, region, value in chunk:
            resize = fields[f].store(a, region, value)
            if resize is not None:
                take(an.on_resize(ResizeEvent(
                    f, resize.old_extent, resize.new_extent)))
            groups.setdefault((f, a), []).append(region)
        for (f, a), regions in groups.items():
            take(an.on_store(StoreEvent.group(f, a, regions)))
    return seen


class TestGroupingIsInvisible:
    """Any partition of a store sequence into groups dispatches the
    same set of instances as one event per store."""

    @pytest.mark.parametrize("name", sorted(_programs()))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_partition_dispatches_the_same_set(self, name, data):
        program, max_age, stores = _recorded(name)
        assert len(stores) > 4
        cut = data.draw(st.integers(0, len(stores)), label="prefix")
        sizes = data.draw(
            st.lists(st.integers(1, 40), min_size=1, max_size=12),
            label="group sizes (cycled)",
        )
        prefix = stores[:cut]
        chunks, i, k = [], 0, 0
        while i < len(prefix):
            chunks.append(prefix[i:i + sizes[k % len(sizes)]])
            i += sizes[k % len(sizes)]
            k += 1
        single = _replay(program, max_age, [[s] for s in prefix])
        assert _replay(program, max_age, chunks) == single
        if cut == len(stores):
            # A whole run: every consumer instance was dispatched.
            assert single == _replay(program, max_age, [prefix])
