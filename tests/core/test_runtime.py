"""Unit and integration tests for the threaded execution node."""

import threading
import time

import numpy as np
import pytest

from repro.core import (
    AgeExpr,
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
    StoreSpec,
    WorkCounter,
    run_program,
)
from repro.workloads import build_mulsum, expected_series


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

    def test_gc_tells_worker_processes_the_retire_floor(self):
        """Under ``processes`` the same routine forwards each new floor
        down the workers' pipes, so they unmap the unlinked segments."""
        from repro.workloads import build_kmeans, kmeans_baseline

        program, sink = build_kmeans(n=60, k=5, iterations=8,
                                     granularity="point")
        node = ExecutionNode(program, 2, backend="processes", batch=4,
                             gc_fields=True, keep_ages=1)
        result = node.run(timeout=120)
        assert result.gc_bytes > 0
        floors = [m[1] for m in node.backend._control]
        assert floors and floors == sorted(set(floors))
        assert all(m[0] == "__retire__" for m in node.backend._control)
        assert max(node.backend._sent) > 0  # forwarded before a claim
        base = kmeans_baseline(n=60, k=5, iterations=8)
        for age in base.history:
            assert np.array_equal(sink.history[age], base.history[age])

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
        assert result.instrumentation.wall_time > 0
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
