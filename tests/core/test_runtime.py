"""Unit and integration tests for the threaded execution node."""

import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    AgeExpr,
    DependencyAnalyzer,
    Dim,
    ExecutionNode,
    FetchSpec,
    FieldDef,
    KernelBodyError,
    KernelDef,
    KernelInstance,
    Program,
    ReadyQueue,
    RuntimeStateError,
    StoreEvent,
    StoreSpec,
    WorkCounter,
    run_program,
)
from repro.workloads import (
    MJPEGConfig,
    build_kmeans,
    build_mjpeg,
    build_mjpeg_stream,
    build_mulsum,
    expected_series,
    kmeans_baseline,
    mjpeg_baseline,
)


def _within(seconds, fn):
    """``fn()`` on a daemon thread: its result (or its exception), or a
    failure instead of a hang when it has not returned after
    ``seconds`` — a deadlock."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True, name="test-within")
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"did not finish within {seconds}s"
    if "error" in box:
        raise box["error"]
    return box.get("value")


def _threads_left(before, grace: float = 0.0):
    """Live threads that were not there ``before`` (the leak check of
    tests/dist/test_cluster.py), after up to ``grace`` seconds for a
    stopped thread that is not joined — a stream driver — to exit."""
    deadline = time.monotonic() + grace
    while True:
        left = sorted(
            t.name for t in set(threading.enumerate()) - before
            if t.is_alive()
        )
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.01)


class TestReadyQueue:
    def _kernel(self):
        return KernelDef("k", lambda ctx: None, has_age=True)

    def test_age_priority(self):
        q = ReadyQueue()
        k = self._kernel()
        q.push(KernelInstance(k, 5))
        q.push(KernelInstance(k, 1))
        q.push(KernelInstance(k, 3))
        assert q.pop().age == 1
        assert q.pop().age == 3
        assert q.pop().age == 5

    def test_ageless_first(self):
        q = ReadyQueue()
        init = KernelDef("init", lambda ctx: None)
        k = self._kernel()
        q.push(KernelInstance(k, 0))
        q.push(KernelInstance(init, None))
        assert q.pop().age is None

    def test_fifo_within_age(self):
        q = ReadyQueue()
        k = KernelDef("k", lambda ctx: None, has_age=True,
                      index_vars=("x",), domain={"x": 10})
        for i in range(5):
            q.push(KernelInstance(k, 0, (i,)))
        assert [q.pop().index[0] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_fifo_policy_is_insertion_order(self):
        q = ReadyQueue("fifo")
        k = self._kernel()
        q.push(KernelInstance(k, 5))
        q.push(KernelInstance(k, 1))
        assert q.pop().age == 5
        assert q.pop().age == 1

    def test_lifo_policy_is_newest_first(self):
        q = ReadyQueue("lifo")
        k = self._kernel()
        q.push(KernelInstance(k, 1))
        q.push(KernelInstance(k, 5))
        assert q.pop().age == 5
        assert q.pop().age == 1

    def test_unknown_policy_rejected(self):
        import pytest as _pytest

        from repro.core import RuntimeStateError as _RSE

        with _pytest.raises(_RSE):
            ReadyQueue("random")

    def test_sentinel_wakes(self):
        q = ReadyQueue()
        got = []

        def worker():
            got.append(q.pop())

        t = threading.Thread(target=worker)
        t.start()
        q.push_sentinel()
        t.join(2)
        assert got == [None]

    def test_min_age_and_len(self):
        q = ReadyQueue()
        k = self._kernel()
        assert q.min_age() is None
        q.push(KernelInstance(k, 4))
        q.push(KernelInstance(k, 2))
        assert q.min_age() == 2
        assert len(q) == 2


class TestWorkCounter:
    def test_zero_is_idle(self):
        c = WorkCounter()
        assert c.wait(0.01) == "idle"

    def test_inc_dec(self):
        c = WorkCounter()
        c.inc(3)
        assert c.wait(0.05) == "timeout"
        c.dec(3)
        assert c.wait(0.5) == "idle"

    def test_poke(self):
        c = WorkCounter()
        c.inc()
        results = []
        t = threading.Thread(target=lambda: results.append(c.wait(5)))
        t.start()
        time.sleep(0.02)
        c.poke()
        t.join(2)
        assert results == ["poked"]


class TestExecutionNode:
    def test_mulsum_exact_values(self):
        program, sink = build_mulsum()
        result = run_program(program, workers=4, max_age=4, timeout=60)
        assert result.reason == "idle"
        expected = expected_series(5)
        for age, (m, p) in expected.items():
            assert np.array_equal(sink[age][0], m)
            assert np.array_equal(sink[age][1], p)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_deterministic_across_worker_counts(self, workers):
        program, sink = build_mulsum()
        run_program(program, workers=workers, max_age=2, timeout=60)
        expected = expected_series(3)
        for age in expected:
            assert np.array_equal(sink[age][0], expected[age][0])

    def test_instance_counts(self):
        program, _ = build_mulsum()
        result = run_program(program, workers=2, max_age=3, timeout=60)
        stats = result.stats
        assert stats["init"].instances == 1
        assert stats["mul2"].instances == 4 * 5
        assert stats["plus5"].instances == 4 * 5
        assert stats["print"].instances == 4

    def test_run_twice_rejected(self):
        program, _ = build_mulsum()
        node = ExecutionNode(program, 1, max_age=0)
        node.run(timeout=30)
        with pytest.raises(RuntimeStateError):
            node.run()

    def test_join_before_start_rejected(self):
        program, _ = build_mulsum()
        node = ExecutionNode(program, 1, max_age=0)
        with pytest.raises(RuntimeStateError):
            node.join()

    def test_zero_workers_rejected(self):
        program, _ = build_mulsum()
        with pytest.raises(RuntimeStateError):
            ExecutionNode(program, 0)

    def test_kernel_error_propagates(self):
        def bad(ctx):
            raise ValueError("boom")

        prog = Program.build(
            [FieldDef("f")],
            [KernelDef("bad", bad, stores=(StoreSpec("f", AgeExpr.const(0)),))],
        )
        with pytest.raises(KernelBodyError) as err:
            run_program(prog, workers=2, timeout=30)
        assert err.value.kernel == "bad"
        assert isinstance(err.value.cause, ValueError)

    def test_stop_midway(self):
        # unbounded cyclic program (modulo keeps int64 exact forever)
        program, _ = build_mulsum(modulo=2**40)
        node = ExecutionNode(program, 2)
        node.start()
        time.sleep(0.05)
        node.stop()
        result = node.join(timeout=10)
        assert result.reason == "stopped"

    def test_timeout(self):
        program, _ = build_mulsum(modulo=2**40)  # runs forever
        node = ExecutionNode(program, 1)
        result = node.run(timeout=0.2)
        assert result.reason == "timeout"

    def test_empty_program_is_idle(self):
        prog = Program.build([FieldDef("f")], [])
        result = run_program(prog, workers=1, timeout=10)
        assert result.reason == "idle"

    def test_gc_frees_old_ages(self):
        program, _ = build_mulsum(modulo=2**40)
        result = run_program(
            program, workers=2, max_age=30, timeout=120,
            gc_fields=True, keep_ages=1,
        )
        assert result.reason == "idle"
        assert result.gc_bytes > 0
        # late ages must survive GC
        assert result.fields["m_data"].is_complete(30)

    def test_gc_does_not_change_results(self):
        program, sink = build_mulsum()
        run_program(program, workers=4, max_age=10, timeout=120,
                    gc_fields=True, keep_ages=2)
        expected = expected_series(11)
        for age in expected:
            assert np.array_equal(sink[age][0], expected[age][0])

    def test_gc_retires_analyzer_bookkeeping_with_the_ages(self):
        """``gc_fields`` goes through ``ExecutionNode.retire``, the
        routine the stream retirer uses: the dispatch-once bookkeeping
        leaves with the field ages instead of growing with the run."""
        program, _ = build_mulsum(modulo=2**40)
        node = ExecutionNode(program, 2, max_age=24, gc_fields=True,
                             keep_ages=1)
        result = node.run(timeout=120)
        assert result.gc_bytes > 0
        assert node.analyzer.dispatched_count() > 250
        # a few ages' worth (11 instances each), not all 25 ages'
        assert node.analyzer.tracked_instances() <= 5 * 11

    def test_gc_recycles_retired_segments(self):
        """Under ``processes`` a retired age's segment serves a later
        age: the bytes are the baseline's, and each aging field creates
        a live window's worth of segments, not one per age."""
        from repro.workloads import build_kmeans, kmeans_baseline

        iterations = 12
        program, sink = build_kmeans(n=60, k=5, iterations=iterations,
                                     granularity="point")
        node = ExecutionNode(program, 2, backend="processes", batch=4,
                             gc_fields=True, keep_ages=1)
        result = node.run(timeout=120)
        assert result.gc_bytes > 0
        base = kmeans_baseline(n=60, k=5, iterations=iterations)
        assert sink.history.keys() == base.history.keys()
        for age in base.history:
            assert np.array_equal(sink.history[age], base.history[age])
        aging = [f for f in node.fields if f.fdef.aging]
        assert aging and all(
            f.max_stored_age >= iterations - 1 for f in aging)
        # the age an assign fetches, the one its refine stores, the
        # ``keep_ages`` behind them, and one for a sweep that trails
        window = node._max_back + node.keep_ages + 3
        assert all(f.segments_created <= window for f in aging), [
            (f.name, f.segments_created) for f in aging]

    def test_in_hand_claim_pins_its_age(self):
        """A claim counts as live from inside the pop that takes it: a
        ``keep_ages=0`` retirement run while its worker sits between
        the pop and the body leaves the age it is about to fetch."""
        seen = []

        def use_body(ctx):
            seen.append((ctx.age, int(ctx["v"].sum())))

        use = KernelDef(
            "use", use_body, has_age=True,
            fetches=(FetchSpec("v", "f"),),
        )
        prog = Program.build([FieldDef("f", shape=(2,))], [use])
        node = ExecutionNode(prog, 1)
        parked, release = threading.Event(), threading.Event()
        pop_batch = node.ready.pop_batch

        def parking_pop(*args, **kwargs):
            claim, wait = pop_batch(*args, **kwargs)
            if claim is not None and claim.age == 0:
                parked.set()
                release.wait(10)
            return claim, wait

        node.ready.pop_batch = parking_pop
        f = node.fields["f"]
        f.store(0, slice(0, 2), [1, 2])
        f.store(1, slice(0, 2), [3, 4])
        node.start()
        node.inject(StoreEvent("f", 0, (slice(0, 2),)))
        node.inject(StoreEvent("f", 1, (slice(0, 2),)))
        try:
            assert parked.wait(10)
            # what the ``gc_fields`` sweep does with ``keep_ages=0``,
            # while ``use`` at age 1 is still queued
            node.retire(node.live_floor() - node._max_back)
            assert f.is_complete(0)
        finally:
            release.set()
        result = node.join(timeout=10)
        assert result.reason == "idle"
        assert sorted(seen) == [(0, 3), (1, 7)]

    def test_inject_external_event(self):
        """The distributed layer injects store events produced elsewhere;
        the local analyzer must react to them."""
        seen = []

        def sink_body(ctx):
            seen.append(ctx.age)

        sink = KernelDef(
            "sink", sink_body, has_age=True,
            fetches=(FetchSpec("v", "f"),),
        )
        prog = Program.build([FieldDef("f")], [sink])
        node = ExecutionNode(prog, 1)
        # store performed "remotely" against the shared field store
        from repro.core.events import StoreEvent

        node.fields["f"].store(0, slice(0, 2), [1, 2])
        node.start()
        node.inject(StoreEvent("f", 0, (slice(0, 2),)))
        result = node.join(timeout=10)
        assert result.reason == "idle"
        assert seen == [0]

    def test_on_event_tap_sees_stores(self):
        events = []
        program, _ = build_mulsum()
        node = ExecutionNode(
            program, 2, max_age=1,
            on_event=lambda n, ev: events.append(type(ev).__name__),
        )
        node.run(timeout=30)
        assert "StoreEvent" in events

    def test_instrumentation_populated(self):
        program, _ = build_mulsum()
        result = run_program(program, workers=2, max_age=2, timeout=60)
        stats = result.stats
        assert stats["mul2"].kernel_time >= 0
        assert stats["mul2"].mean_dispatch_us > 0
        assert result.instrumentation.analyzer_time > 0
        assert result.wall_time > 0
        assert result.ready_high_water >= 1


class TestStallWatchdog:
    """Regression: a node that stops draining work used to hang the
    quiescence wait forever; ``stall_timeout`` must turn that into a
    :class:`StallError` instead."""

    def _stuck_program(self, release: threading.Event):
        def stuck(ctx):
            release.wait()  # a kernel body that never returns on its own

        return Program.build(
            [FieldDef("f", "int64", 1)],
            [KernelDef("stuck", stuck,
                       stores=(StoreSpec("f", AgeExpr.const(0), key="f"),))],
        )

    def test_stalled_run_raises_instead_of_hanging(self):
        from repro.core import StallError

        release = threading.Event()
        program = self._stuck_program(release)
        t0 = time.monotonic()
        try:
            with pytest.raises(StallError) as exc_info:
                run_program(program, workers=1, stall_timeout=0.2, timeout=60)
            assert exc_info.value.outstanding >= 1
            # the watchdog fired, not the overall timeout
            assert time.monotonic() - t0 < 30
        finally:
            release.set()  # unstick the abandoned daemon worker

    def test_progressing_run_is_not_killed_by_watchdog(self):
        """Steady progress slower than nothing-at-all must never trip the
        stall watchdog, only genuine inactivity."""
        program, sink = build_mulsum()
        result = run_program(program, workers=2, max_age=3,
                             stall_timeout=5.0, timeout=60)
        assert result.reason == "idle"
        expected = expected_series(4)
        for age in expected:
            assert np.array_equal(sink[age][1], expected[age][1])


class TestWindDown:
    def test_wind_down_reports_abandoned_and_keeps_counter_clean(self):
        """Fencing a mid-flight node must return its unfinished work and
        leave the shared counter balanced (no leaked tokens)."""
        started = threading.Event()
        release = threading.Event()

        def first(ctx):
            started.set()
            release.wait()

        program = Program.build(
            [FieldDef("f", "int64", 1)],
            [KernelDef("stuck", first,
                       stores=(StoreSpec("f", AgeExpr.const(0), key="f"),))],
        )
        counter = WorkCounter()
        node = ExecutionNode(program, 1, counter=counter)
        counter.inc()  # startup token, as the cluster layer holds it
        node.start()
        assert started.wait(5)
        release.set()
        node.wind_down()
        counter.dec()
        assert counter.value() == 0

    def test_inject_after_wind_down_is_ignored(self):
        from repro.core import StoreEvent

        program, _ = build_mulsum()
        counter = WorkCounter()
        node = ExecutionNode(program, 1, max_age=0, counter=counter)
        counter.inc()
        node.start()
        node.wind_down()
        counter.dec()
        before = counter.value()
        node.inject(StoreEvent("m_data", 0, (slice(0, 5),)))
        assert counter.value() == before

    def test_wind_down_racing_a_late_inject_leaks_nothing(
        self, monkeypatch
    ):
        """Transport deliveries racing the fail-stop teardown: two
        threads replay a finished run's store events into a started
        node while the main thread winds it down.  Every event makes
        one new instance runnable and the analysis is slowed down, so
        a delivery is nearly always inside (or queued for) the analysis
        when the teardown starts.  Whatever the interleaving, nothing
        is dispatched once the ready queue was drained — ``_dead`` is
        set and read under the analysis lock — so the queue stays
        empty, the counter holds only the test's own unit, and later
        deliveries dispatch nothing."""
        n, ages = 16, 4
        consume = KernelDef(
            "consume", lambda ctx: None, has_age=True, index_vars=("x",),
            fetches=(FetchSpec("v", "f", dims=(Dim.of("x"),),
                               scalar=True),),
        )
        program = Program.build(
            [FieldDef("f", "int64", shape=(n,))], [consume]
        )
        stores = [
            StoreEvent("f", age, (slice(i, i + 1),))
            for age in range(ages) for i in range(n)
        ]
        on_store = DependencyAnalyzer.on_store

        def slow(analyzer, ev):
            time.sleep(0.002)  # widen the check-then-dispatch window
            return on_store(analyzer, ev)

        monkeypatch.setattr(DependencyAnalyzer, "on_store", slow)
        for _ in range(50):
            counter = WorkCounter()
            node = ExecutionNode(program, 2, counter=counter)
            for age in range(ages):  # the finished run's fields
                node.fields["f"].store(age, slice(0, n), np.arange(n))
            counter.inc()  # the test's unit: startup and the deliveries
            node.start()
            injecting = threading.Barrier(3)

            def replay(events):
                injecting.wait()
                for ev in events:
                    node.inject(ev)

            threads = [
                threading.Thread(target=replay, args=(stores[i::2],),
                                 daemon=True)
                for i in range(2)
            ]
            for t in threads:
                t.start()
            injecting.wait()
            time.sleep(0.003)
            node.wind_down()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
            assert len(node.ready) == 0
            assert counter.value() == 1
            dispatched = node.analyzer.dispatched_count()
            for ev in stores:
                node.inject(ev)
            assert node.analyzer.dispatched_count() == dispatched
            assert counter.value() == 1
            counter.dec()


class TestProgramLifetime:
    """Nothing the runtime keeps between runs holds a run's program, its
    kernels' specs or its fields: a cache of per-kernel facts keyed by
    identity (``id(kernel)``) would keep every job's, and their payload,
    alive for the life of the process."""

    def test_a_runs_program_dies_with_the_run(self):
        import gc
        import weakref

        from repro.workloads import build_kmeans
        from repro.workloads.ops_transcode import (
            TranscodeConfig,
            build_transcode,
        )

        refs = []

        def run(program, batch):
            node = ExecutionNode(program, 2, backend="threads",
                                 batch=batch)
            refs.append(weakref.ref(program))
            refs.append(weakref.ref(node.fields))
            for k in program.kernels.values():
                refs.append(weakref.ref(k))
                refs.extend(weakref.ref(s) for s in k.fetches + k.stores)
            node.run(timeout=60)

        for seed in range(50):
            run(build_kmeans(n=12, k=3, iterations=3, seed=seed,
                             granularity="pair")[0], 1)
        for seed in range(10):
            run(build_transcode(TranscodeConfig(
                width=32, height=32, frames=2, seed=seed)).program, 32)
        gc.collect()
        alive = [r() for r in refs if r() is not None]
        assert len(refs) > 60 * 3 and alive == []


def _mulsum_case():
    program, sink = build_mulsum()
    return program, {"max_age": 5}, lambda: {
        age: (m.tobytes(), p.tobytes()) for age, (m, p) in sink.items()
    }


def _kmeans_case():
    program, result = build_kmeans(n=24, k=4, iterations=4,
                                   granularity="pair")
    return program, {}, lambda: {
        age: c.tobytes() for age, c in result.history.items()
    }


def _mjpeg_case():
    program, sink = build_mjpeg(config=MJPEGConfig(32, 32, frames=2))
    return program, {}, sink.stream


@pytest.fixture
def fast_switching():
    """A shortened interpreter switch interval: a thread is preempted
    mid-step as often as it can be."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


class TestSerialAnalysis:
    """A node is its workers: an event is analysed on the thread that
    produced it, one at a time under the node's analysis lock, and the
    ``on_event`` tap runs after that lock is released."""

    @pytest.mark.parametrize("case, backend", [
        (_mulsum_case, "threads"),
        (_kmeans_case, "threads"),
        (_mjpeg_case, "processes"),
    ], ids=["mulsum-threads", "kmeans-threads", "mjpeg-processes"])
    def test_a_tap_that_injects_into_its_own_node_does_not_deadlock(
        self, case, backend
    ):
        """Each event comes straight back into the node that produced
        it — what two cluster nodes publishing to each other amount
        to.  The lock is not re-entrant, so a tap called while it is
        held hangs the run; re-analysing an event dispatches nothing
        twice, so the bytes are the plain run's."""
        def run(tap):
            program, kw, output = case()
            node = ExecutionNode(program, 2, backend=backend,
                                 on_event=tap, **kw)
            assert node.run(timeout=60).reason == "idle"
            return output()

        looped = _within(
            120, lambda: run(lambda node, ev: node.inject(ev))
        )
        assert looped == run(None)

    @staticmethod
    def _count_overlap(monkeypatch) -> dict:
        """Wrap the analyzer's event handlers with an in-flight counter;
        each call yields the GIL once, so an unserialised caller would
        get in."""
        state = {"now": 0, "peak": 0, "calls": 0}
        guard = threading.Lock()

        def probed(orig):
            def wrapper(analyzer, ev):
                with guard:
                    state["now"] += 1
                    state["calls"] += 1
                    state["peak"] = max(state["peak"], state["now"])
                try:
                    time.sleep(0.0001)
                    return orig(analyzer, ev)
                finally:
                    with guard:
                        state["now"] -= 1
            return wrapper

        for name in ("on_store", "on_done", "on_resize"):
            monkeypatch.setattr(DependencyAnalyzer, name,
                                probed(getattr(DependencyAnalyzer, name)))
        return state

    def test_analysis_stays_serial_with_four_workers(
        self, monkeypatch, fast_switching
    ):
        """Each age analyses its ``k`` ``centroids`` rows (fetched by
        region) and the store that completes ``distances`` (fetched
        only whole): sixteen iterations of ``k = 8`` are over 100
        analyses."""
        state = self._count_overlap(monkeypatch)
        program, result = build_kmeans(n=24, k=8, iterations=16,
                                       granularity="pair")
        run_program(program, workers=4, timeout=120)
        assert state["calls"] > 100
        assert state["peak"] == 1
        expected = kmeans_baseline(n=24, k=8, iterations=16)
        for age, centroids in expected.history.items():
            assert np.array_equal(result.history[age], centroids)

    def test_analysis_stays_serial_across_four_sessions(
        self, monkeypatch, fast_switching
    ):
        """Four stream drivers inject while four workers commit: still
        one analysis at a time.  A frame is analysed as its three input
        planes and the three stores that complete the DCT planes ``vlc``
        fetches whole: eight frames a session are over 100 analyses."""
        from repro.stream import SessionManager, SessionSpec, StreamConfig

        state = self._count_overlap(monkeypatch)
        specs, expected = [], []
        for i in range(4):
            cfg = MJPEGConfig(32, 32, frames=8, seed=700 + i)
            program, sink, binding = build_mjpeg_stream(
                cfg, StreamConfig(fps=0, max_frames=8, lag_window=4)
            )
            specs.append(SessionSpec(f"s{i}", program, binding))
            expected.append((sink, mjpeg_baseline(config=cfg)))
        SessionManager(specs, workers=4).run(timeout=120)
        assert state["calls"] > 100
        assert state["peak"] == 1
        for sink, reference in expected:
            assert sink.stream() == reference

    def test_a_running_node_owns_its_workers_and_nothing_else(self):
        program, _ = build_mulsum(modulo=2**40)  # runs until stopped
        before = set(threading.enumerate())
        node = ExecutionNode(program, 3, name="census")
        node.start()
        try:
            deadline = time.monotonic() + 30
            while node.instrumentation.total_instances() < 20:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert _threads_left(before) == [
                "census-worker0", "census-worker1", "census-worker2",
            ]
            assert not [t.name for t in threading.enumerate()
                        if t.name.endswith("-analyzer")]
        finally:
            node.stop()
            node.join(timeout=30)
        assert _threads_left(before) == []


class TestWholeFetchedFields:
    """A store to a field no consumer fetches by region is analysed only
    when it finds the field complete at its age; the ``on_event`` tap
    still sees every store."""

    @staticmethod
    def _kmeans(backend, workers, **kw):
        """A K-means pair run (40 points, 8 centroids, 3 iterations):
        its store regions per (field, age) at the tap, its ``on_store``
        calls per (field, age), and the node; its bytes checked."""
        program, result = build_kmeans(n=40, k=8, iterations=3,
                                       granularity="pair")
        tapped, analysed = Counter(), Counter()
        lock = threading.Lock()  # the tap runs on every worker thread

        def tap(_node, ev):
            if isinstance(ev, StoreEvent):
                with lock:
                    tapped[ev.field, ev.age] += len(ev.regions)

        node = ExecutionNode(program, workers, backend=backend,
                             on_event=tap, **kw)
        on_store = node.analyzer.on_store

        def counting(ev):
            analysed[ev.field, ev.age] += 1
            return on_store(ev)

        node.analyzer.on_store = counting
        assert node.run(timeout=120).reason == "idle"
        base = kmeans_baseline(n=40, k=8, iterations=3)
        assert set(result.history) == set(base.history)
        for age, centroids in base.history.items():
            assert np.array_equal(result.history[age], centroids)
        return tapped, analysed, node

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_distances_are_analysed_once_per_age(self, backend):
        """``refine`` fetches ``distances`` whole and nothing fetches it
        by region: of its 320 stores an age, the one that completes the
        age is analysed.  (One worker: two claims committing an age's
        last stores together may both find it complete.)"""
        tapped, analysed, node = self._kmeans(backend, 1)
        assert "distances" in node.analyzer.whole_fetched
        assert not {"centroids", "datapoints"} & node.analyzer.whole_fetched
        ages = sorted(a for f, a in tapped if f == "distances")
        assert ages == [0, 1, 2]
        for age in ages:
            assert tapped["distances", age] == 320
            assert analysed["distances", age] == 1
        # a field fetched by region is analysed at every store
        rows = {key: n for key, n in tapped.items()
                if key[0] == "centroids"}
        assert len(rows) == 4 and all(
            analysed[key] == n for key, n in rows.items())

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_gc_fields_keeps_the_bytes(self, backend):
        tapped, analysed, _node = self._kmeans(
            backend, 2, gc_fields=True, keep_ages=0)
        for age in range(3):
            assert tapped["distances", age] == 320
            assert 1 <= analysed["distances", age] <= 2

    @staticmethod
    def _produce_then_sum():
        """``p``: 4 instances, ``f[x] = x``; ``c`` fetches ``f`` whole
        and stores its sum to ``g``."""
        def p_body(ctx):
            ctx.emit("f", ctx.index["x"])

        def c_body(ctx):
            ctx.emit("g", int(ctx["f"].sum()))

        return Program.build(
            [FieldDef("f", "int32", 1, shape=(4,)),
             FieldDef("g", "int32", 1, shape=(1,))],
            [KernelDef("p", p_body, index_vars=("x",), domain={"x": 4},
                       stores=(StoreSpec("f", age=AgeExpr.const(0),
                                         dims=(Dim.of("x"),)),)),
             KernelDef("c", c_body,
                       fetches=(FetchSpec("f", "f", age=AgeExpr.const(0)),),
                       stores=(StoreSpec("g", age=AgeExpr.const(0)),))],
        )

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_a_recovery_node_skips_what_its_predecessor_committed(
        self, backend
    ):
        """A recovery node re-runs all of ``p`` over an ``f`` its dead
        predecessor completed, on either backend: no write-once
        violation, the bytes of a plain run, and every store of ``p``
        still reaches the ``on_event`` tap — re-announced for the nodes
        that missed the original delivery."""
        program = self._produce_then_sum()
        base = ExecutionNode(program, 1, backend=backend).run(timeout=60)
        tapped = []
        node = ExecutionNode(
            program, 1, backend=backend, recover=True,
            on_event=lambda _node, ev: isinstance(ev, StoreEvent)
            and tapped.extend((ev.field, r) for r in ev.regions),
        )
        node.fields["f"].store(0, slice(0, 4), base.fields["f"].fetch(0))
        result = node.run(timeout=60)
        assert result.reason == "idle"
        for name in ("f", "g"):
            assert result.fields[name].fetch(0).tobytes() == (
                base.fields[name].fetch(0).tobytes())
        assert sorted(r[0].start for f, r in tapped if f == "f") == [
            0, 1, 2, 3]
        assert result.fields["f"].written_count(0) == 4

    def test_a_recovery_node_reannounce_into_a_complete_field_is_analysed(
        self,
    ):
        """A recovery node re-runs ``p`` over a field its dead
        predecessor completed: each store is skipped and re-announced,
        finds ``f`` complete, and is analysed — so ``c``, which fetches
        ``f`` whole, runs."""
        node = ExecutionNode(self._produce_then_sum(), 1, recover=True)
        node.fields["f"].store(0, slice(0, 4), np.arange(4))
        analysed = []
        on_store = node.analyzer.on_store

        def counting(ev):
            analysed.append(ev.field)
            return on_store(ev)

        node.analyzer.on_store = counting
        result = node.run(timeout=60)
        assert "f" in node.analyzer.whole_fetched
        assert analysed.count("f") == 4
        assert result.fields["g"].fetch(0).tolist() == [6]


class AnalysisFailed(Exception):
    """The error the tests below plant in the analyzer."""


class TestAnalysisErrors:
    """An analysis error ends the run wherever it happens — in a
    worker's commit or in a stream driver's inject: it is not raised
    into the thread that produced the event, ``join`` re-raises it, and
    no thread is left behind."""

    @staticmethod
    def _fail_third_store(monkeypatch, thread_prefix="") -> list:
        """``on_store`` raises on its 3rd call from a thread whose name
        starts with ``thread_prefix``; returns where it raised."""
        on_store = DependencyAnalyzer.on_store
        calls, raised_on = [], []

        def flaky(analyzer, ev):
            name = threading.current_thread().name
            if name.startswith(thread_prefix):
                calls.append(name)
                if len(calls) == 3:
                    raised_on.append(name)
                    raise AnalysisFailed("planted")
            return on_store(analyzer, ev)

        monkeypatch.setattr(DependencyAnalyzer, "on_store", flaky)
        return raised_on

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_in_a_workers_commit(self, monkeypatch, backend):
        raised_on = self._fail_third_store(monkeypatch)
        program, _ = build_mjpeg(config=MJPEGConfig(32, 32, frames=3))
        before = set(threading.enumerate())
        with pytest.raises(AnalysisFailed):
            _within(60, lambda: run_program(
                program, workers=2, backend=backend, timeout=60,
            ))
        assert len(raised_on) == 1 and "-worker" in raised_on[0]
        assert _threads_left(before) == []

    def test_in_the_stream_drivers_inject(self, monkeypatch):
        from repro.stream import StreamConfig

        raised_on = self._fail_third_store(monkeypatch, "stream-driver")
        program, _sink, binding = build_mjpeg_stream(
            MJPEGConfig(32, 32, frames=8),
            StreamConfig(fps=0, max_frames=8, lag_window=4),
        )
        before = set(threading.enumerate())
        with pytest.raises(AnalysisFailed):
            _within(60, lambda: run_program(
                program, workers=2, stream=binding, timeout=60,
            ))
        assert raised_on == ["stream-driver"]
        # The lifecycle stops the driver but does not join it.
        assert _threads_left(before, grace=5.0) == []
