"""Execution-backend tests: threads/processes parity, fault isolation,
shared-memory hygiene, and the backend plumbing itself."""

import glob
import os
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
    ProcessBackend,
    Program,
    ReadyQueue,
    RuntimeStateError,
    StoreSpec,
    ThreadBackend,
    WorkerProcessError,
    resolve_backend,
    run_program,
)
from repro.workloads import (
    MJPEGConfig,
    build_kmeans,
    build_mjpeg,
    kmeans_baseline,
    mjpeg_baseline,
)

needs_fork = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="processes backend tests use the fork start method",
)


def _leaked_segments(run_id: str) -> list:
    return glob.glob(f"/dev/shm/p2g{run_id}_*")


# ----------------------------------------------------------------------
# Plumbing
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_names(self):
        assert isinstance(resolve_backend("threads"), ThreadBackend)
        assert isinstance(resolve_backend("processes"), ProcessBackend)

    def test_instance_passthrough(self):
        b = ProcessBackend()
        assert resolve_backend(b) is b

    def test_unknown_rejected(self):
        with pytest.raises(RuntimeStateError, match="unknown execution"):
            resolve_backend("gpu")

    def test_result_records_backend(self):
        program, _ = build_kmeans(n=20, k=2, iterations=2,
                                  granularity="point")
        result = run_program(program, workers=1, timeout=60)
        assert result.backend == "threads"


class TestProcessBackendValidation:
    @needs_fork
    def test_rejects_plain_field_store(self):
        from repro.core import FieldStore

        program, _ = build_kmeans(n=20, k=2, iterations=2,
                                  granularity="point")
        node = ExecutionNode(
            program, workers=1,
            fields=FieldStore(program.fields.values()),
            backend="processes",
        )
        with pytest.raises(RuntimeStateError, match="SharedFieldStore"):
            node.start()

    def test_rejects_timers(self):
        program = Program.build(
            fields=[FieldDef("f", "int32", 1, shape=(4,))],
            kernels=[KernelDef(
                "init", lambda ctx: ctx.emit("f", np.arange(4)),
                stores=(StoreSpec("f", age=AgeExpr.const(0)),),
            )],
            timers=["t"],
        )
        node = ExecutionNode(program, workers=1, backend="processes")
        with pytest.raises(RuntimeStateError, match="timer"):
            node.start()

    def test_non_fork_requires_factory(self):
        program, _ = build_kmeans(n=20, k=2, iterations=2,
                                  granularity="point")
        node = ExecutionNode(
            program, workers=1,
            backend=ProcessBackend(start_method="spawn"),
        )
        with pytest.raises(RuntimeStateError, match="program_factory"):
            node.start()


# ----------------------------------------------------------------------
# Workload parity: the acceptance bar for the backend layer
# ----------------------------------------------------------------------
@needs_fork
class TestWorkloadParity:
    CFG = MJPEGConfig(width=64, height=32, frames=3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mjpeg_bitstream_identical(self, workers):
        reference = mjpeg_baseline(config=self.CFG)
        streams = {}
        for backend in ("threads", "processes"):
            program, sink = build_mjpeg(config=self.CFG)
            result = run_program(
                program, workers=workers, timeout=120, backend=backend
            )
            assert result.reason == "idle"
            assert result.backend == backend
            streams[backend] = sink.stream()
        assert streams["threads"] == reference
        assert streams["processes"] == reference

    @pytest.mark.parametrize("granularity", ["point", "pair"])
    def test_kmeans_centroids_identical(self, granularity):
        expected = kmeans_baseline(n=60, k=5, iterations=4)
        for backend in ("threads", "processes"):
            program, sink = build_kmeans(
                n=60, k=5, iterations=4, granularity=granularity
            )
            result = run_program(
                program, workers=2, timeout=120, backend=backend
            )
            assert result.reason == "idle"
            assert sink.history.keys() == expected.history.keys()
            for age, centroids in expected.history.items():
                assert np.array_equal(sink.history[age], centroids), (
                    f"{backend}: centroid divergence at age {age}"
                )

    def test_instrumentation_counts_match(self):
        counts = {}
        for backend in ("threads", "processes"):
            program, _ = build_mjpeg(config=self.CFG)
            result = run_program(
                program, workers=2, timeout=120, backend=backend
            )
            stats = result.instrumentation.stats()
            counts[backend] = {k: s.instances for k, s in stats.items()}
            if backend == "processes":
                assert any(s.ipc_time > 0 for s in stats.values())
        assert counts["threads"] == counts["processes"]


@needs_fork
class TestCountersAgreeAcrossBackends:
    """Counters are taken in the one commit tail both backends share,
    from what happened — not from the kernel's spec on one backend and
    the worker's report on the other."""

    @staticmethod
    def _program():
        def src(ctx):
            ctx.emit("a", np.arange(8, dtype=np.int64))

        def evens(ctx):
            if ctx["v"] % 2 == 0:  # emits for half of its instances
                ctx.emit("b", ctx["v"])

        age0 = AgeExpr.const(0)
        return Program.build(
            [FieldDef("a", "int64", 1, aging=False, shape=(8,)),
             FieldDef("b", "int64", 1, aging=False, shape=(8,))],
            [KernelDef("src", src, stores=(StoreSpec("a", age=age0),)),
             KernelDef(
                 "evens", evens, index_vars=("x",),
                 fetches=(FetchSpec("v", "a", age=age0,
                                    dims=(Dim.of("x"),), scalar=True),),
                 stores=(StoreSpec("b", age=age0, dims=(Dim.of("x"),)),),
             )],
        )

    def test_conditional_emit_counts_match(self):
        from repro.obs import MetricsRegistry, flatten

        seen = {}
        for backend in ("threads", "processes"):
            for batch in (1, 4):
                reg = MetricsRegistry()
                result = run_program(
                    self._program(), workers=2, timeout=60,
                    backend=backend, batch=batch, metrics=reg,
                )
                flat = flatten(reg.snapshot())
                seen[backend, batch] = (
                    flat["fields.stores"], flat["fields.fetches"],
                    flat["instances.executed"],
                    {k: s.instances for k, s in result.stats.items()},
                )
        # 1 whole-field store by ``src`` + 4 by the even ``evens``
        # instances; 8 element fetches; 9 instances.
        want = (5, 8, 9, {"src": 1, "evens": 8})
        assert seen == dict.fromkeys(seen, want)


# ----------------------------------------------------------------------
# Fault isolation
# ----------------------------------------------------------------------
@needs_fork
class TestWorkerFaults:
    def _program(self, body):
        k = KernelDef(
            "boom", body, has_age=True,
            fetches=(FetchSpec("v", "f"),),
            age_limit=1,
        )
        init = KernelDef(
            "init", lambda ctx: ctx.emit("f", np.arange(4)),
            stores=(StoreSpec("f", age=AgeExpr.const(0)),),
        )
        return Program.build(
            fields=[FieldDef("f", "int64", 1, shape=(4,))],
            kernels=[init, k],
        )

    def test_body_exception_is_kernel_body_error(self):
        def body(ctx):
            raise ValueError("intentional")

        program = self._program(body)
        with pytest.raises(KernelBodyError) as ei:
            run_program(program, workers=1, timeout=60,
                        backend="processes")
        # the remote type, message and traceback all survive the hop
        assert "ValueError: intentional" in str(ei.value)
        assert "Traceback" in str(ei.value)

    def test_worker_crash_raises_not_hangs(self):
        def body(ctx):
            os._exit(3)  # hard-kill the worker mid-instance

        program = self._program(body)
        # depending on timing the proxy sees the dead process or the
        # closed pipe first; both must surface as WorkerProcessError
        with pytest.raises(WorkerProcessError,
                           match="exited with code|connection lost"):
            run_program(program, workers=1, timeout=60,
                        backend="processes")

    def test_worker_death_is_seen_at_once(self, tmp_path):
        """The proxy blocks on the reply pipe and the process sentinel
        together: a dead worker surfaces without waiting out a poll
        interval (it used to be noticed up to 50 ms late)."""
        stamp = tmp_path / "died"

        def body(ctx):
            # CLOCK_MONOTONIC is system-wide: comparable across processes
            stamp.write_text(repr(time.monotonic()))
            os._exit(3)

        delays = []
        for _ in range(3):
            backend = ProcessBackend()
            recv_reply = backend._recv_reply
            noticed = []

            def timed(*args, _recv=recv_reply, _noticed=noticed):
                try:
                    return _recv(*args)
                except WorkerProcessError:
                    _noticed.append(time.monotonic())
                    raise

            backend._recv_reply = timed
            with pytest.raises(WorkerProcessError):
                run_program(self._program(body), workers=1, timeout=60,
                            backend=backend)
            delays.append(noticed[0] - float(stamp.read_text()))
        assert min(delays) < 0.010, delays

    def test_long_body_costs_one_wait(self, monkeypatch):
        """No periodic wake-ups while a body runs: one blocking wait per
        dispatch, however long the body takes (a 50 ms poll loop made
        several)."""
        from multiprocessing import connection

        waits = []
        real_wait = connection.wait

        def counting(objects, timeout=None):
            waits.append(timeout)
            return real_wait(objects, timeout)

        monkeypatch.setattr(connection, "wait", counting)

        def body(ctx):
            time.sleep(0.2)

        result = run_program(self._program(body), workers=1, timeout=60,
                             backend="processes")
        dispatches = sum(
            s.instances for s in result.instrumentation.stats().values()
        )
        assert dispatches == 2
        # (the shutdown's bounded ``proc.join`` waits too, once)
        assert waits.count(None) == dispatches
        assert not [t for t in waits if t is not None and t < 1.0]

    def test_crash_leaves_no_segments(self):
        def body(ctx):
            os._exit(3)

        program = self._program(body)
        node = ExecutionNode(program, workers=1, backend="processes")
        run_id = node.fields.run_id
        node.start()
        with pytest.raises(WorkerProcessError):
            node.join()
        assert _leaked_segments(run_id) == []


# ----------------------------------------------------------------------
# Shared-memory hygiene
# ----------------------------------------------------------------------
@needs_fork
class TestSegmentLifecycle:
    def test_run_unlinks_every_segment(self):
        program, sink = build_kmeans(n=40, k=4, iterations=3,
                                     granularity="point")
        node = ExecutionNode(program, workers=2, backend="processes")
        run_id = node.fields.run_id
        node.start()
        node.join()
        assert sink.final_centroids() is not None
        assert _leaked_segments(run_id) == []

    def test_singleton_batches_round_trip_outputs(self):
        # ``batch=1`` is the one message shape at size one: out-of-band
        # ``ctx.output`` values still ride the reply back to the sink,
        # and the run leaves /dev/shm empty.
        expected = kmeans_baseline(n=40, k=4, iterations=3)
        program, sink = build_kmeans(n=40, k=4, iterations=3,
                                     granularity="point")
        node = ExecutionNode(program, workers=2, backend="processes",
                             batch=1)
        run_id = node.fields.run_id
        node.run(timeout=120)
        assert sink.history.keys() == expected.history.keys()
        for age, centroids in expected.history.items():
            assert np.array_equal(sink.history[age], centroids)
        assert _leaked_segments(run_id) == []

    def test_gc_unlinks_retired_ages(self):
        # After a run, even the segments retired ages handed on must be
        # gone: ask the aging centroids field for every one it created.
        from repro.core import segment_name

        program, _ = build_kmeans(n=40, k=4, iterations=4,
                                  granularity="point")
        node = ExecutionNode(program, workers=1, backend="processes",
                             gc_fields=True)
        run_id = node.fields.run_id
        node.start()
        result = node.join()
        assert result.gc_bytes > 0
        centroids = node.fields["centroids"]
        assert centroids.segment(1) is None  # retired
        assert centroids.segments_created >= 2
        for serial in range(centroids.segments_created):
            assert not os.path.exists(
                f"/dev/shm/{segment_name(run_id, 'centroids', serial)}"
            )

    def test_live_stream_recycles_segments(self):
        """A retired age's segment serves a later age: 30 streamed
        frames through a lag window of 4 create a window's worth of
        segments per field, not 30, and leave /dev/shm clean."""
        from repro.stream import StreamConfig
        from repro.workloads import build_mjpeg_stream

        cfg = MJPEGConfig(width=32, height=32, frames=30)
        scfg = StreamConfig(fps=0, max_frames=30, lag_window=4)
        program, sink, binding = build_mjpeg_stream(cfg, scfg)
        result = run_program(program, workers=2, backend="processes",
                             batch=32, stream=binding)
        assert result.stream.completed == 30
        assert sink.stream() == mjpeg_baseline(config=cfg)
        aging = [f for f in result.fields if f.fdef.aging]
        assert aging and all(f.max_stored_age == 29 for f in aging)
        # the lag window's ages, the ``keep_ages`` behind it, and one
        # for a sweep that trails the completion that admits a frame
        window = scfg.lag_window + scfg.keep_ages + 2
        assert all(f.segments_created <= window for f in aging), [
            (f.name, f.segments_created) for f in aging]
        assert _leaked_segments(result.fields.run_id) == []


# ----------------------------------------------------------------------
# Ready-queue boundedness (regression for the age-bucket map)
# ----------------------------------------------------------------------
class TestReadyQueueAgeCounts:
    def test_zeroed_buckets_are_dropped(self):
        q = ReadyQueue()
        k = KernelDef("k", lambda ctx: None, has_age=True)
        for age in range(100):
            q.push(KernelInstance(k, age))
        for _ in range(100):
            q.pop()
        # the age tallies must not grow with retired ages
        assert q._session_ages == {"": {}}
        assert q.min_age() is None

    def test_partial_drain_keeps_live_buckets(self):
        q = ReadyQueue()
        k = KernelDef("k", lambda ctx: None, has_age=True)
        for age in (0, 0, 1):
            q.push(KernelInstance(k, age))
        q.pop()
        assert q.min_age() == 0
        q.pop()
        assert q.min_age() == 1
        q.pop()
        assert q.min_age() is None


# ----------------------------------------------------------------------
# Output-handler plumbing shared by both backends
# ----------------------------------------------------------------------
class TestOutputHandler:
    def test_missing_handler_raises(self):
        def body(ctx):
            ctx.output("x", 1)

        program = Program.build(
            fields=[],
            kernels=[KernelDef("k", body)],
        )
        with pytest.raises(RuntimeStateError, match="output handler"):
            run_program(program, workers=1, timeout=60)

    def test_handler_survives_functional_updates(self):
        program, _ = build_kmeans(n=20, k=2, iterations=2,
                                  granularity="point")
        assert program.output_handler is not None
        updated = program.replace_kernel(program.kernels["print"])
        assert updated.output_handler is program.output_handler
        dropped = program.without_kernels("print")
        assert dropped.output_handler is program.output_handler
