"""Execution backends: how kernel instances actually run.

The scheduler half of the runtime (ready queue, dependency analyzer,
quiescence counter) is backend-agnostic; a *backend* decides where a
popped kernel instance's body executes:

* :class:`ThreadBackend` — the paper-faithful default.  Bodies run on
  the node's worker threads.  Deterministic and zero-setup, but
  CPU-bound kernels serialize on the GIL, so scaling curves are flat.
* :class:`ProcessBackend` — true-parallel execution.  Each worker
  thread becomes a *proxy* that forwards ``(kernel_name, age, rows,
  segs)`` messages — ``rows`` the claim's index array, ``segs`` the
  segments it fetches from and stores to — over a dedicated pipe
  to a long-lived worker process and blocks on the reply (releasing
  the GIL).  Field payloads live in
  ``multiprocessing.shared_memory`` segments
  (:class:`~repro.core.fields.SharedFieldStore`), so fetches and stores
  are zero-copy views of the same physical pages — only the tiny
  claim descriptor and store report cross the pipe.

Both run the same routine, :func:`~repro.core.execute.run_batch`, and
hand its result to the same parent-side tail,
:meth:`ExecutionNode._commit_batch`; a backend only supplies the
field-access adapter that says where the bytes live (:class:`_NodeFields`
in the parent, :class:`_SegmentCache` in a worker process).

The unit a backend is handed is a *claim*: a worker's share of a
(kernel, age) run (:meth:`~repro.core.runtime.ReadyQueue.pop_batch`),
a :class:`~repro.core.kernels.Run` whose ``rows`` are one instance at
``batch=1``, hundreds of macro-blocks at ``batch=32`` on a CIF frame.
One claim is one ``execute_batch`` call — on the
process backend one pipe message and one reply — and, for a kernel
with a stacked form, one ``batch_body`` call per shape class of its
rows (one, unless a ragged trailing block is among them); the node's
``batch`` does not reach the routine.

The division of labour in the process backend keeps the P2G semantics
exactly where they were:

* the **parent** owns segment lifecycle (gives each age a segment at
  dispatch time, before any worker could touch it — a retired age's
  when its field has one pooled; unlinks them all at teardown) and all
  write-once bookkeeping — a worker's store report is applied via
  :meth:`~repro.core.fields.Field.mark_written_many`, so violations
  raise in the parent just like on the threads backend;
* **workers** only read and write payload bytes through views of the
  segments a claim's message names, each attached once by
  :func:`~repro.core.fields.segment_name` and kept until shutdown, and
  ship out-of-band ``ctx.output`` values back for parent-side delivery.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from multiprocessing import connection
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .errors import (
    KernelBodyError,
    RuntimeStateError,
    WorkerProcessError,
)
from .events import ResizeEvent
from .execute import run_batch
from .fields import (
    FieldStore,
    RegionGroup,
    SharedFieldStore,
    gather,
    scatter,
    segment_name,
)
from .kernels import KernelContext, KernelInstance, Run
from .program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import ExecutionNode


class ExecutionBackend:
    """Interface a backend implements; the node drives the lifecycle."""

    name = "abstract"

    def create_fields(self, program: Program) -> FieldStore:
        """Build the field store flavour this backend needs."""
        raise NotImplementedError

    def start(self, node: "ExecutionNode") -> None:
        """Bind to the node and allocate execution resources.  Called
        from :meth:`ExecutionNode.start` *before* any thread spawns (the
        process backend must fork from a single-threaded parent)."""
        raise NotImplementedError

    def execute_batch(self, batch: Run, worker_id: int) -> None:
        """Run a claim — one or more instances of the *same* kernel
        definition and age, as a :class:`~repro.core.kernels.Run` (see
        :meth:`~repro.core.runtime.ReadyQueue.pop_batch`) — on behalf of
        worker ``worker_id`` and post its events.  Called
        from the node's worker threads."""
        raise NotImplementedError

    def execute(self, inst: KernelInstance, worker_id: int) -> None:
        """Run one instance: a claim of one (a convenience for callers
        outside the runtime; the worker loop never uses it)."""
        self.execute_batch(
            Run(inst.kernel, inst.age, np.array([inst.index], np.intp)),
            worker_id,
        )

    def shutdown(self) -> None:
        """Release execution resources (idempotent)."""


class _NodeFields:
    """Field-access adapter for bodies run in the parent process (see
    :mod:`repro.core.execute`): a handle is the live ``Field``.  A
    :class:`~repro.core.fields.RegionGroup` is fetched in one ``Field``
    call, and one that tiles the field is checked and committed
    (write-once per store, all or nothing) in one too; any other group
    is stored region by region through the same entry point.  A store
    is committed here and announced by the claim's commit tail
    (:meth:`ExecutionNode._commit_batch`), like a worker process's; only
    a resize is posted at once."""

    def __init__(self, node: "ExecutionNode") -> None:
        self._node = node
        self.fields = {f.fdef.name: f for f in node.fields}

    def read(self, field, age: int, region) -> np.ndarray:
        return field.fetch(age, region)

    def write(self, field, age: int, regions, arrs) -> None:
        node = self._node
        if (
            isinstance(regions, RegionGroup)
            and not node.recover
            and regions.tiles(field.extent) is not None
        ):
            field.store(age, regions, arrs)
            return
        for region, arr in zip(regions, arrs):
            # Recovery: the dead predecessor already committed this
            # region with identical bytes (write-once determinism); skip
            # the payload write — the store is still recorded, so the
            # commit tail re-announces it and consumers that missed the
            # original delivery become runnable.
            if node.recover and field.is_complete(age, region):
                continue
            resize = field.store(age, region, arr)
            if resize is not None:
                node._post(
                    ResizeEvent(
                        field.fdef.name, resize.old_extent,
                        resize.new_extent,
                    )
                )


class ThreadBackend(ExecutionBackend):
    """Run kernel bodies directly on the node's worker threads."""

    name = "threads"

    def create_fields(self, program: Program) -> FieldStore:
        return FieldStore(program.fields.values())

    def start(self, node: "ExecutionNode") -> None:
        self._node = node
        self._mem = _NodeFields(node)
        # One pooled context per worker thread, rebound per instance: a
        # dispatch-bound program must not allocate per singleton batch.
        self._ctxs = [
            KernelContext(timers=node.timers.as_mapping(), node=node)
            for _ in range(node.workers)
        ]

    def execute_batch(self, batch: Run, worker_id: int) -> None:
        t0 = time.perf_counter()
        try:
            run = run_batch(
                batch.kernel, batch.age, batch.rows,
                self._mem, self._ctxs[worker_id],
            )
        except KernelBodyError as exc:
            # What the claim's earlier instances stored is committed.
            self._node._announce(exc.stores)
            raise
        self._node._commit_batch(batch, worker_id, t0, run)


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
class _SegmentCache:
    """A worker process's fields: the shared-memory views it attached,
    keyed by ``(field, serial)``, and the field-access adapter over them
    (see :mod:`repro.core.execute`).  Reads and writes go straight to
    the views — a :class:`~repro.core.fields.RegionGroup` as one gather
    or scatter; the routine's store records travel back to the parent,
    which owns all write-once bookkeeping.

    A claim's message names the segment of each (field, age) it touches
    (:meth:`bind`).  The parent unlinks segments only at teardown — a
    retired age's segment serves a later age — so a view never goes
    stale: each segment is attached once and every view is closed at
    shutdown.
    """

    def __init__(self, run_id: str, shared_tracker: bool, fdefs) -> None:
        self.run_id = run_id
        self.shared_tracker = shared_tracker
        self._entries: dict[tuple[str, int], tuple[Any, np.ndarray]] = {}
        #: the current claim's ``(field, age) -> serial``
        self._segs: dict[tuple[str, int], int] = {}
        # A worker's handle on a field: its definition and its declared
        # extent (shared-memory fields cannot grow).
        self.fields = {
            f.name: SimpleNamespace(fdef=f, extent=f.shape) for f in fdefs
        }

    def bind(self, kernel, age, segs) -> None:
        """Take a claim's segment serials: ``segs`` holds one per spec
        of ``kernel.fetches + kernel.stores`` at ``age``, in spec order
        (``None`` for a fetch age the parent has no segment for)."""
        self._segs = {
            (spec.field, spec.age.resolve(age)): serial
            for spec, serial in zip((*kernel.fetches, *kernel.stores), segs)
            if serial is not None
        }

    def read(self, field, age: int, region) -> np.ndarray:
        view = self.view(field.fdef, age)
        if isinstance(region, RegionGroup):
            return gather(view, region)
        value = view[... if region is None else region]
        value.flags.writeable = False
        return value

    def write(self, field, age: int, regions, arrs) -> None:
        view = self.view(field.fdef, age)
        if isinstance(regions, RegionGroup):
            scatter(view, regions, arrs)
        else:
            for region, arr in zip(regions, arrs):
                view[region] = arr

    def view(self, fdef, age: int) -> np.ndarray:
        try:
            key = (fdef.name, self._segs[fdef.name, age])
        except KeyError:
            raise RuntimeStateError(
                f"field {fdef.name!r} has no segment at age {age}"
            ) from None
        entry = self._entries.get(key)
        if entry is not None:
            return entry[1]
        from multiprocessing import resource_tracker, shared_memory

        shm = shared_memory.SharedMemory(
            name=segment_name(self.run_id, *key)
        )
        # The parent owns the segment's lifetime.  With a fork-shared
        # resource tracker the attach's register is a set-level no-op
        # and the parent's unlink balances it; a worker with its *own*
        # tracker (spawn/forkserver) must undo the register, or its
        # tracker would unlink segments the parent still uses.
        if not self.shared_tracker:
            try:  # pragma: no cover - tracker internals
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        arr = np.ndarray(fdef.shape, dtype=fdef.np_dtype, buffer=shm.buf)
        self._entries[key] = (shm, arr)
        return arr

    def close(self) -> None:
        for shm, _arr in self._entries.values():
            try:
                shm.close()
            except BufferError:
                pass
        self._entries.clear()


def _worker_main(
    conn, program_source, run_id: str, shared_tracker: bool
) -> None:
    """Entry point of a worker process.

    Protocol: one work message, ``(kernel_name, age, rows, segs)`` — a
    claim of one or more same-kernel/same-age instances in ONE
    round-trip, ``rows`` its ``(n, len(index_vars))`` index array (one
    row for a single instance; at ``batch > 1`` the proxy's whole share
    of a run), ``segs`` the serial of the segment behind each of the
    kernel's fetch and store specs at that age
    (:meth:`_SegmentCache.bind`).  The worker hands it to
    :func:`~repro.core.execute.run_batch`, the routine the threads
    backend runs in the parent, over its :class:`_SegmentCache` and a
    :class:`KernelContext` per message, and replies ``("ok", stores,
    outputs, t_fetch, t_kernel, t_store, calls, fallbacks,
    vectorized)`` — the routine's return value: a stacked claim reports
    one store record per store spec, whatever its size — or ``("err",
    index, type_name, message, traceback_text)``: ``index`` names the
    instance whose body raised (the first of its shape class, for a
    stacked call), ``None`` a failure in the fetch/store machinery.
    Nothing of a failed claim is committed: the parent only marks
    regions written from an ``"ok"`` reply.
    ``None`` (or EOF) means shut down.
    """
    program = (
        program_source() if callable(program_source) else program_source
    )
    cache = _SegmentCache(run_id, shared_tracker, program.fields.values())
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                return
            if msg is None:
                return
            kernel_name, age, rows, segs = msg
            try:
                kernel = program.kernels[kernel_name]
                cache.bind(kernel, age, segs)
                conn.send(
                    ("ok",) + run_batch(
                        kernel, age, rows, cache, KernelContext(),
                    )
                )
            except KernelBodyError as exc:
                conn.send(
                    ("err", exc.index, type(exc.cause).__name__,
                     str(exc.cause), traceback.format_exc())
                )
            except Exception as exc:  # noqa: BLE001 - shipped to parent
                conn.send(
                    ("err", None, type(exc).__name__, str(exc),
                     traceback.format_exc())
                )
    finally:
        cache.close()
        conn.close()


class RemoteKernelError(Exception):
    """Re-raised parent-side stand-in for a worker-side exception; the
    message carries the remote type and traceback."""


class ProcessBackend(ExecutionBackend):
    """Run kernel bodies in a pool of long-lived worker processes.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method.  Defaults to ``"fork"`` where
        available (kernel bodies are usually closures, which only fork
        can ship); ``"spawn"``/``"forkserver"`` require
        ``program_factory``.
    program_factory:
        Picklable zero-argument callable rebuilding the program in the
        worker (needed for non-fork start methods, where the program —
        including kernel body closures — cannot be pickled).  The
        factory must reproduce the same kernel names and field shapes.
    """

    name = "processes"

    def __init__(
        self,
        start_method: str | None = None,
        program_factory: Callable[[], Program] | None = None,
    ) -> None:
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        self.program_factory = program_factory
        self._procs: list[multiprocessing.Process] = []
        self._conns: list[Any] = []
        self._node: "ExecutionNode | None" = None

    def create_fields(self, program: Program) -> FieldStore:
        return SharedFieldStore(program.fields.values())

    # ------------------------------------------------------------------
    def start(self, node: "ExecutionNode") -> None:
        if not isinstance(node.fields, SharedFieldStore):
            raise RuntimeStateError(
                "the processes backend needs a SharedFieldStore; do not "
                "pass a plain FieldStore to ExecutionNode"
            )
        if node.program.timers:
            raise RuntimeStateError(
                "the processes backend does not support program timers "
                "(deadline clocks cannot cross process boundaries); use "
                "the threads backend"
            )
        self._node = node
        ctx = multiprocessing.get_context(self.start_method)
        if self.start_method != "fork" and self.program_factory is None:
            raise RuntimeStateError(
                f"start method {self.start_method!r} pickles worker "
                f"arguments; kernel bodies are closures, so a picklable "
                f"program_factory is required"
            )
        source: Any = (
            self.program_factory
            if self.program_factory is not None
            else node.program
        )
        run_id = node.fields.run_id
        shared_tracker = self.start_method == "fork"
        if shared_tracker:
            # Start the resource tracker *before* forking, so every
            # worker shares it and attach-side registers dedup against
            # the parent's create-side register.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        for i in range(node.workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, source, run_id, shared_tracker),
                daemon=True,
                name=f"{node.name}-proc{i}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def _recv_reply(self, worker_id: int, conn, proc, describe: str):
        """Block for a worker reply, surfacing worker death as
        :class:`WorkerProcessError` instead of hanging forever: one wait
        on the pipe and the process sentinel together, so a dead worker
        is seen at once and a long body costs no periodic wake-ups."""
        if conn not in connection.wait([conn, proc.sentinel]):
            proc.join(1.0)  # reap it, so the exit code is known
            raise WorkerProcessError(
                worker_id,
                f"exited with code {proc.exitcode} while running "
                f"{describe}",
            )
        try:
            return conn.recv()
        except EOFError:
            raise WorkerProcessError(
                worker_id,
                f"connection lost while running {describe}",
            ) from None

    def execute_batch(self, batch: Run, worker_id: int) -> None:
        """Ship a claim as ONE pipe message — its index array — and get
        one reply: a round trip per worker per wavefront, not per
        instance and not per ``batch``.  The node's commit tail applies
        the reply's stores and announces them as one event per (field,
        age), plus one done event where the analyzer acts on it."""
        node = self._node
        assert node is not None
        kernel = batch.kernel
        age = batch.age
        conn = self._conns[worker_id]
        proc = self._procs[worker_id]
        fields = node.fields
        t0 = time.perf_counter()
        # The segment behind each spec's (field, age), in spec order;
        # every store target's is created now, so the worker's attach
        # can never race segment creation.
        segs = tuple(
            fields[f.field].segment(f.age.resolve(age))
            for f in kernel.fetches
        ) + tuple(
            fields[s.field].ensure_age(s.age.resolve(age))
            for s in kernel.stores
        )
        t_send = time.perf_counter()
        conn.send((kernel.name, age, batch.rows, segs))
        reply = self._recv_reply(
            worker_id, conn, proc,
            f"{kernel.name}[x{len(batch)}](age={age}, "
            f"index={batch.index(0)})",
        )
        t_recv = time.perf_counter()
        if reply[0] == "err":
            _tag, index, type_name, message, tb = reply
            if index is None:
                raise WorkerProcessError(
                    worker_id, f"{type_name}: {message}"
                )
            raise KernelBodyError(
                kernel.name, age, index,
                RemoteKernelError(f"{type_name}: {message}\n{tb}"),
            )
        node._commit_batch(
            batch, worker_id, t0, reply[1:], (t_send, t_recv)
        )

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            conn.close()
        self._procs.clear()
        self._conns.clear()


#: Name -> backend factory, the ``--backend`` knob's domain.
BACKENDS: dict[str, Callable[[], ExecutionBackend]] = {
    "threads": ThreadBackend,
    "processes": ProcessBackend,
}


def resolve_backend(spec: "str | ExecutionBackend") -> ExecutionBackend:
    """Turn a backend name or instance into a backend instance."""
    if isinstance(spec, ExecutionBackend):
        return spec
    try:
        return BACKENDS[spec]()
    except KeyError:
        raise RuntimeStateError(
            f"unknown execution backend {spec!r}; "
            f"expected one of {sorted(BACKENDS)}"
        ) from None
