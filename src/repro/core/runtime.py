"""The execution-node runtime (paper, section VI-B).

Structure mirrors the prototype:

* kernel instances are executed by a pool of **worker threads** drawn
  from an age-ordered ready queue ("scheduled in an order that prefers
  the execution of kernel instances with a lower age value" — this is
  what keeps aging cycles such as ``mul2``/``plus5`` from starving other
  kernels);
* every store/resize event is analysed **serially**, under the node's
  analysis lock, on the thread that produced it (a committing worker,
  a stream driver, a transport delivery), pushing every newly
  satisfiable (age, index) combination onto the ready queue — the
  prototype's dedicated analyzer thread, minus the thread (fig 10
  measures that analysis is serial, which the lock keeps);
* the run terminates on *quiescence* — no ready instances, no running
  instances — or on an external :meth:`stop`, a wall-clock timeout, or
  the ``max_age`` bound used to cut off non-terminating cyclic programs.

The counter protocol for quiescence: ``outstanding`` counts ready
instances + running instances + held tokens.  Every producer increments
*before* the corresponding decrement can happen, and a thread analyses
an event only while it holds a unit (a worker its claim, a driver its
token), so the counter reaching zero is a stable property.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..obs import (
    Histogram,
    MetricsRegistry,
    Telemetry,
    Tracer,
    dump_flight,
    peak_rss_bytes,
    with_frames,
)
from .analyzer import DependencyAnalyzer
from .backends import ExecutionBackend, resolve_backend
from .deadlines import TimerSet
from .errors import RuntimeStateError, StallError
from .events import Event, InstanceDoneEvent, ResizeEvent, StoreEvent
from .fields import FieldStore, SharedFieldStore
from .instrumentation import Instrumentation
from .kernels import KernelInstance, Run
from .program import Program


def _session_prefix(inst: "KernelInstance | Run") -> str:
    """The session extractor of ``"fair"`` scheduling: the
    kernel-name prefix before the first ``"."`` (the multi-tenant
    namespace separator), or ``""`` for un-namespaced kernels."""
    name = inst.kernel.name
    i = name.find(".")
    return name[:i] if i > 0 else ""


class ReadyQueue:
    """Age-priority ready queue shared by the worker threads.

    Instances with lower age run first (``None`` ages — run-once
    kernels — sort before everything).  Ties break by insertion order,
    giving FIFO behaviour within an age.

    Alternative ``scheduling`` policies exist as ablation knobs for
    section VI-B's argument ("scheduled in an order that prefers the
    execution of kernel instances with a lower age value.  This ensures
    that no runnable kernel instance is starved by others that have no
    fetch statements"):

    * ``"age"`` (default) — the paper's policy;
    * ``"fifo"`` — insertion order (benign here because the serial
      analyzer enqueues in near-age order);
    * ``"lifo"`` — newest first (a work-stack, as many schedulers use):
      self-advancing source kernels race ahead of their consumers,
      ballooning the live field footprint — the starvation the paper's
      policy exists to prevent;
    * ``"fair"`` — multi-tenant deficit round-robin: instances are
      binned per *session* (the kernel-name prefix before the first
      ``"."``) with age priority *within* a session, and dispatch
      rotates across sessions so one hot tenant cannot starve the
      others.  ``session_weights`` maps a
      session to its quantum (pops per round-robin turn, default 1),
      letting a gold tier draw more dispatch slots than best-effort.

    Internally every policy runs on per-session heaps — the classic
    policies simply bin everything into the single ``""`` session, which
    degenerates to the original one-heap behaviour.  A heap entry is a
    *run* (:class:`~repro.core.kernels.Run`): the instances of one
    kernel and age the analyzer released together, as one index array
    (see :meth:`push_runs`), handed out in slices of its rows.  Sentinels
    live in a counter, not the heaps, and are only consumed once every
    heap is empty (the "sorts last" guarantee, now independent of
    session structure).
    """

    _SENTINEL = object()
    _POLICIES = ("age", "fifo", "lifo", "fair")

    def __init__(
        self,
        scheduling: str = "age",
        session_weights: "dict[str, int] | None" = None,
    ) -> None:
        if scheduling not in self._POLICIES:
            raise RuntimeStateError(
                f"unknown scheduling policy {scheduling!r}; "
                f"expected one of {self._POLICIES}"
            )
        self._session_of = _session_prefix if scheduling == "fair" else None
        self._quantum = {
            s: max(1, int(w)) for s, w in (session_weights or {}).items()
        }
        self._heaps: dict[str, list] = {}
        self._order: list[str] = []  # round-robin rotation of sessions
        self._rr = 0
        self._deficit: dict[str, int] = {}
        self._sentinels = 0
        self._depth = 0
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._seq = itertools.count()
        self._age_counts: dict[int, int] = {}
        self._session_ages: dict[str, dict[int, int]] = {}
        self.scheduling = scheduling
        # The queue holds its own totals, kept under the lock a push or
        # a pop already takes and read by :meth:`snapshot`: instances in
        # and out, the deepest it got, and each claim's wait (enqueue ->
        # dequeue seconds, summed over the claim's members).
        self.max_depth = 0
        self.pushes = 0
        self.pops = 0
        self.wait = Histogram(lock=self._lock)

    def _heap_for(self, session: str) -> list:
        heap = self._heaps.get(session)
        if heap is None:
            heap = self._heaps[session] = []
            self._order.append(session)
            self._deficit[session] = self._quantum.get(session, 1)
            self._session_ages[session] = {}
        return heap

    def push(self, inst: KernelInstance) -> None:
        """Enqueue a runnable instance (wakes one waiting worker): a
        run of one."""
        self.push_runs((
            Run(inst.kernel, inst.age, np.array([inst.index], np.intp)),
        ))

    def push_runs(self, runs) -> None:
        """Enqueue :class:`~repro.core.kernels.Run` s as they come — the
        analyzer's output — under one lock acquisition (wakes one
        waiting worker per instance).

        Each run is one heap entry ``[run, next position, push time, age
        key]``, so a heap operation and the age/session accounting
        happen once per run, not per instance.  A run's instances are
        adjacent in every policy's order (consecutive sequence numbers
        within one priority), so one sequence number per run ranks it
        against every other entry exactly as its members' own numbers
        would; ``"lifo"`` hands a run out newest first, so it is stored
        reversed.
        """
        session_of = self._session_of
        lifo = self.scheduling == "lifo"
        by_age = not lifo and self.scheduling != "fifo"
        age_counts = self._age_counts
        entries = []  # what needs no lock is done before taking it
        for run in runs:
            count = len(run)
            if count:
                entries.append((
                    run[::-1] if lifo and count > 1 else run, count,
                    session_of(run) if session_of else "",
                    -1 if run.age is None else run.age,
                ))
        if not entries:
            return
        n = 0
        with self._cv:
            now = time.perf_counter()
            for run, count, session, real in entries:
                seq = next(self._seq)
                heapq.heappush(
                    self._heap_for(session),
                    (
                        real if by_age else 0,
                        -seq if lifo else seq,
                        [run, 0, now, real],
                    ),
                )
                age_counts[real] = age_counts.get(real, 0) + count
                ages = self._session_ages[session]
                ages[real] = ages.get(real, 0) + count
                n += count
            self._depth += n
            self.pushes += n
            self.max_depth = max(self.max_depth, self._depth)
            self._cv.notify(n)

    def push_sentinel(self, n: int = 1) -> None:
        """Wake ``n`` workers with an exit marker (always sorts last)."""
        with self._cv:
            self._sentinels += n
            self._cv.notify_all()

    def pop(self) -> KernelInstance | None:
        """Blocking pop; ``None`` means shut down."""
        return self.pop_timed()[0]

    def pop_timed(self) -> tuple[KernelInstance | None, float]:
        """Blocking pop returning ``(instance, queue_wait_seconds)``;
        ``(None, 0.0)`` means shut down.  A claim of at most one."""
        claim, wait = self.pop_batch(1)
        return (None if claim is None else claim[0]), wait

    def _pick_session_locked(self) -> str:
        """Choose the session to dispatch from (deficit round-robin).

        Caller holds the lock and has checked ``self._depth > 0``.  A
        session with remaining quantum and ready work wins; an exhausted
        one refills its deficit and yields the turn.  Two passes bound
        the scan: the first may only refill deficits, the second must
        then find a ready session.
        """
        order = self._order
        n = len(order)
        for _ in range(2 * n):
            s = order[self._rr % n]
            if not self._heaps[s]:
                self._rr += 1
                continue
            if self._deficit.get(s, 0) <= 0:
                self._deficit[s] = self._quantum.get(s, 1)
                self._rr += 1
                continue
            return s
        for s in order:  # pragma: no cover - defensive
            if self._heaps[s]:
                return s
        raise RuntimeStateError("ready queue depth/heap mismatch")

    def pop_batch(
        self, max_n: int, workers: int = 0, hold=None
    ) -> tuple[Run | None, float]:
        """Blocking pop of a *claim*: up to ``max_n`` ready instances of
        the same kernel definition and age, as one
        :class:`~repro.core.kernels.Run`, returning ``(claim,
        total_queue_wait_seconds)``; ``(None, 0.0)`` means shut down.

        Called with the node's ``workers`` and ``max_n > 1`` (the worker
        loop), the bound is the caller's *share of the head run* instead
        — ``max(max_n, ceil(len(run) / workers))``, the run counted as
        it was pushed — so the wavefront the analyzer released in one
        piece is handed out in ``workers`` pieces, not in
        ``len(run) / max_n``.  ``max_n = 1`` always yields singletons.

        The claim is taken greedily from the head of the chosen
        session's heap — a slice of the head run's rows, continuing into
        the next entries while they match (their rows concatenated) — so
        its formation respects the scheduling policy exactly: a claim is
        simply the instances the policy would have handed out next,
        whenever they happen to share a native block.  Under ``"fair"``
        a claim never spans sessions (each member charges the session's
        deficit, so a large claim costs its tenant future turns).
        Matching is by kernel-definition *identity* (``is``), which is
        strictly finer than name equality: two definitions that share a
        name (a rewritten kernel next to the one it came from) never
        share a claim, even for ties within one age.  Equal age keeps
        the GC/retirement live-age bookkeeping exact (a worker runs one
        age at a time).  Sentinels are consumed only when every heap is
        empty, so a shutdown marker is never consumed mid-batch.

        ``hold`` (the worker loop's) is called with the claim's first
        part before the queue lock is released: the claim's age is
        published as in hand while the queue still counts it, so a
        live-age probe (:meth:`ExecutionNode.live_floor`) sees it one
        way or the other, never neither.
        """
        with self._cv:
            while not (self._depth or self._sentinels):
                self._cv.wait()
            if not self._depth:
                self._sentinels -= 1
                return None, 0.0
            session = self._pick_session_locked()
            heap = self._heaps[session]
            ages = self._session_ages[session]
            now = time.perf_counter()
            parts: list[Run] = []
            wait = 0.0
            if workers and max_n > 1:
                # the caller's share of the head run, as it was pushed
                max_n = max(max_n, -(-len(heap[0][2][0]) // workers))
            room = max_n
            while heap and room:
                entry = heap[0][2]
                run, pos, pushed, real = entry
                if parts and (
                    run.kernel is not parts[0].kernel
                    or run.age != parts[0].age
                ):
                    break
                took = len(run) - pos
                if took <= room:
                    heapq.heappop(heap)
                    # the queue owns ``run``: a whole one is handed out
                    # as it is
                    parts.append(run[pos:] if pos else run)
                else:
                    took = room
                    entry[1] = pos + room
                    parts.append(run[pos:pos + room])
                room -= took
                self._age_counts[real] -= took
                if not self._age_counts[real]:
                    del self._age_counts[real]
                ages[real] -= took
                if not ages[real]:
                    del ages[real]
                wait += took * (now - pushed)
            if hold is not None:
                hold(parts[0])
            took = max_n - room
            self._depth -= took
            self._deficit[session] = self._deficit.get(session, 1) - took
            self.pops += took
            self.wait.add(wait)
        return (parts[0] if len(parts) == 1 else Run.join(parts)), wait

    def min_age(self, session: str | None = None) -> int | None:
        """Lowest age currently queued (for the GC live-age bound).

        With ``session`` the bound is scoped to that tenant's queued
        instances — the per-session retirement path must not see another
        session's frontier.
        """
        with self._lock:
            if session is None:
                counts = self._age_counts
            else:
                counts = self._session_ages.get(session, {})
            real = [a for a, c in counts.items() if c and a >= 0]
            return min(real) if real else None

    def snapshot(self) -> dict[str, dict]:
        """The queue's totals as a typed metrics snapshot (a node's
        registry reads it, DESIGN.md §9): ``ready.wait_s`` observes one
        value per claim, so its count is dispatches, not instances."""
        with self._lock:
            pushes, pops, depth = self.pushes, self.pops, self.max_depth
        return {
            "ready.pushes": {"type": "counter", "value": pushes},
            "ready.pops": {"type": "counter", "value": pops},
            "ready.depth.max": {"type": "gauge", "value": depth},
            "ready.wait_s": self.wait.snapshot(),
        }

    def drain(self) -> int:
        """Remove every queued row (sentinels dropped); returns how many.

        Used by the fail-stop wind-down of a distributed node: the rows
        are the node's abandoned work, and the caller retires their
        outstanding-work units so the cluster-wide counter stays
        consistent after the node dies.
        """
        with self._cv:
            n = self._depth
            for heap in self._heaps.values():
                heap.clear()
            for ages in self._session_ages.values():
                ages.clear()
            self._age_counts.clear()
            self._depth = 0
            self._sentinels = 0
            return n

    def __len__(self) -> int:
        with self._lock:
            return self._depth + self._sentinels


class WorkCounter:
    """Counts outstanding work: ready instances + running instances +
    held :class:`~repro.core.events.WorkToken` s.  Producers always
    increment before the matching decrement can occur, so reaching zero
    is stable and means quiescence.  Shared across nodes in a
    distributed run so quiescence is global."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._count = 0
        self._poked = False
        self._last_activity = time.monotonic()

    def inc(self, n: int = 1) -> None:
        """Add outstanding work units."""
        with self._cv:
            self._count += n
            self._last_activity = time.monotonic()

    def dec(self, n: int = 1) -> None:
        """Retire work units; reaching zero signals quiescence."""
        with self._cv:
            self._count -= n
            self._last_activity = time.monotonic()
            if self._count <= 0:
                self._cv.notify_all()

    def poke(self) -> None:
        """Wake all waiters without changing the count (stop/error)."""
        with self._cv:
            self._poked = True
            self._cv.notify_all()

    def value(self) -> int:
        """Current outstanding count (diagnostics only)."""
        with self._lock:
            return self._count

    def wait(
        self,
        timeout: float | None = None,
        stall_timeout: float | None = None,
    ) -> str:
        """Block until quiescent, poked, timed out, or stalled; returns
        ``"idle"``, ``"poked"``, ``"timeout"`` or ``"stalled"``.

        ``stall_timeout`` is the watchdog for a wedged run: with
        outstanding work but no inc/dec activity for that many seconds,
        the wait returns ``"stalled"`` instead of hanging forever (the
        latent failure mode of a node that stops draining its queue).
        Pick it larger than the longest single kernel body — a long
        in-flight instance touches the counter only when it retires.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while True:
                if self._poked:
                    return "poked"
                if self._count == 0:
                    return "idle"
                now = time.monotonic()
                waits = []
                if deadline is not None:
                    remaining = deadline - now
                    if remaining <= 0:
                        return "timeout"
                    waits.append(remaining)
                if stall_timeout is not None:
                    stall_at = self._last_activity + stall_timeout
                    if now >= stall_at:
                        return "stalled"
                    waits.append(stall_at - now)
                self._cv.wait(min(waits) if waits else None)


@dataclass
class RunResult:
    """Outcome of :meth:`ExecutionNode.run`."""

    reason: str  #: "idle" | "stopped" | "timeout"
    wall_time: float
    instrumentation: Instrumentation
    fields: FieldStore
    ready_high_water: int = 0
    gc_bytes: int = 0
    backend: str = "threads"  #: execution backend that ran the program
    metrics: "MetricsRegistry | None" = None  #: the node's registry
    tracer: "Tracer | None" = None  #: the tracer the run recorded into
    #: :class:`~repro.stream.StreamReport` when the run was driven by a
    #: live source (``run_program(stream=...)``); ``None`` for batch runs.
    stream: Any = None
    #: :class:`~repro.obs.Telemetry` bundle when the run was launched
    #: with ``telemetry=...``; ``None`` otherwise.
    telemetry: Any = None

    @property
    def stats(self):
        """Per-kernel stats snapshot (shorthand for instrumentation.stats())."""
        return self.instrumentation.stats()


def _store_groups(stores) -> list:
    """The store records of :func:`~repro.core.execute.run_batch` as one
    ``(field, age, regions)`` per (field, age), in first-store order: a
    stacked claim's region group as it was built, a scalar claim's
    per-instance regions as one list."""
    if len(stores) < 2:
        # Nothing to merge — every claim of ``batch=1``; building the
        # dict anyway measured 2-3 % on the dispatch-bound reference
        # mode (``kmeans_batch``).
        return [rec[:3] for rec in stores]
    merged: dict[tuple[str, int], Any] = {}
    for fname, s_age, regions, _who in stores:
        prev = merged.get((fname, s_age))
        if prev is None:
            merged[fname, s_age] = regions
        elif isinstance(prev, list):
            prev.extend(regions)
        else:
            merged[fname, s_age] = [*prev, *regions]
    return [(*key, regions) for key, regions in merged.items()]


class ExecutionNode:
    """A P2G execution node for multi-core machines.

    Parameters
    ----------
    program:
        The (possibly fused) program to execute.
    workers:
        Number of worker threads (the paper sweeps 1–8) — the node's
        only threads.  Dependency analysis runs on the thread that
        produced the event, one event at a time under the node's
        analysis lock (the prototype gives it a dedicated thread;
        DESIGN.md §2).
    max_age:
        Upper bound on instance ages; bounds non-terminating cyclic
        programs (``mul2``/``plus5``) and iteration-limited runs
        (K-means "is not run until convergence, but with 10 iterations").
    gc_fields:
        Enable garbage collection of old field ages (section IX).
    keep_ages:
        How many ages behind the oldest live consumer to retain when GC
        is on.
    name:
        Node name (used by the distributed layer and in logs).
    backend:
        Execution backend: ``"threads"`` (default — deterministic,
        GIL-bound), ``"processes"`` (true-parallel worker processes over
        shared-memory fields), or an
        :class:`~repro.core.backends.ExecutionBackend` instance.
    fields / counter / timers:
        Normally created internally; the distributed layer passes a
        shared :class:`~repro.core.fields.FieldStore`, a cluster-wide
        :class:`WorkCounter` (so quiescence is detected globally) and a
        shared :class:`TimerSet` when several nodes cooperate on one
        program.
    on_event:
        Optional tap invoked with every locally produced store/resize
        event once it has been analysed here, outside the analysis lock
        — the hook the distributed transport uses to forward events to
        the other nodes' :meth:`inject`.
    recover:
        Recovery mode for replacement nodes in a fault-tolerant cluster
        run: stores into already-complete regions are skipped (the dead
        predecessor wrote identical bytes — write-once determinism)
        instead of raising :class:`WriteOnceViolation`, and the store
        event is still re-announced so nodes that missed the original
        delivery catch up.
    dependency_kernels:
        Kernel definitions the dependency analyzer should treat as the
        field producers (default: this program's kernels).  The
        distributed layer passes the *full* program's kernels so a node
        judging whole-field completeness accounts for writers partitioned
        onto other nodes.
    tracer:
        Optional :class:`~repro.obs.Tracer`, the run's span stream:
        per-instance lifecycle spans (queue wait, fetch, native block,
        store, IPC) plus analyzer and scheduler events.  Defaults to the
        shared disabled tracer; every instrumentation point is guarded
        by its ``enabled`` flag, so no sink costs one attribute test.
    metrics:
        Optional shared :class:`~repro.obs.MetricsRegistry` (a cluster
        passes one registry to all of its nodes so counters aggregate
        cluster-wide); the node creates its own when omitted.  The node
        writes nothing into it: it registers itself as a holder
        (:meth:`snapshot`), read when the registry takes a snapshot.
    batch:
        The paper's granularity parameter (default 1): the least
        instances a claim holds, and whether claims are stacked at all.
        With ``batch > 1`` a worker *claims* its share of the head
        (kernel, age) run — ``max(batch, ceil(len(run) / workers))``
        instances — and the claim is the unit of everything on the
        shared path: one backend call (one IPC message on the processes
        backend), one gather per fetch spec, one ``batch_body`` call
        when the kernel has a stacked form (one per shape class when a
        ragged trailing block is among its rows), one write-once commit
        and one event per (field, age), one trace span, one
        instrumentation record.  ``batch`` does not set the size of a
        body call.  ``batch=1`` is the paper's
        one-instance-per-dispatch reference mode (tables II/III):
        singleton claims through the same path; output is
        byte-identical at every size.
    timeline:
        Optional :class:`~repro.obs.TimelineRecorder` attached as the
        tracer's frame sink (:func:`~repro.obs.with_frames`; a stream of
        the node's own when no tracer was given).
    """

    #: Per-thread join bound during a stall/timeout teardown; threads
    #: still alive afterwards are daemonic and abandoned.
    _TEARDOWN_JOIN_TIMEOUT = 1.0

    def __init__(
        self,
        program: Program,
        workers: int = 1,
        *,
        max_age: int | None = None,
        gc_fields: bool = False,
        keep_ages: int = 1,
        name: str = "node0",
        clock=None,
        backend: "str | ExecutionBackend" = "threads",
        fields: FieldStore | None = None,
        counter: "WorkCounter | None" = None,
        timers: TimerSet | None = None,
        on_event=None,
        scheduling: str = "age",
        session_weights: "dict[str, int] | None" = None,
        recover: bool = False,
        dependency_kernels=None,
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        batch: int = 1,
        timeline=None,
    ) -> None:
        if workers < 1:
            raise RuntimeStateError("need at least one worker thread")
        if batch < 1:
            raise RuntimeStateError("batch size must be >= 1")
        self.program = program
        self.workers = workers
        self.batch = batch
        self.name = name
        self.max_age = max_age
        self.gc_fields = gc_fields
        self.keep_ages = keep_ages
        self.backend = resolve_backend(backend)
        self._owns_fields = fields is None
        self.fields = fields if fields is not None else (
            self.backend.create_fields(program)
        )
        self.timers = timers if timers is not None else TimerSet(
            program.timers, clock
        )
        self.analyzer = DependencyAnalyzer(
            program, self.fields, max_age, producers=dependency_kernels
        )
        self.instrumentation = Instrumentation()
        self.tracer = with_frames(tracer, timeline)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ready = ReadyQueue(scheduling, session_weights)
        #: The extractor the fair queue ended up with (None for classic
        #: policies): the per-session retirement path reuses it to scope
        #: the running-age probe to one tenant.
        self.session_of = self.ready._session_of
        self.on_event = on_event
        #: Serialises analysis: the analyzer's state and ``_dead`` are
        #: only touched under it.
        self._analysis_lock = threading.Lock()
        self._counter = counter if counter is not None else WorkCounter()
        self._stop = threading.Event()
        self._error: BaseException | None = None
        self._ran = False
        #: Recovery mode (a replacement node re-executing a dead node's
        #: kernels): a store whose region is already complete is skipped
        #: instead of raising WriteOnceViolation — write-once determinism
        #: guarantees the re-executed instance produced identical bytes.
        self.recover = recover
        self._dead = False  #: wound down: no event is analysed any more
        self._abandoned = 0  #: instances popped but never executed
        self._teardown_hooks: list = []
        self._threads: list[threading.Thread] = []
        self._running_ages: dict[int, int] = {}  # worker id -> age
        self._running_sessions: dict[int, str] = {}  # worker id -> session
        self._gc_bytes = 0
        self._gc_floor = 0  #: ages below this were retired by gc_fields
        self._max_back = max(
            (0,)
            + tuple(
                -f.age.offset
                for k in program.kernels.values()
                for f in k.fetches
                if f.age.literal is None and f.age.offset < 0
            )
        )
        # Last, so a registry shared with running nodes never reads a
        # half-built one.
        self.metrics.add_holder(self.snapshot)

    # ------------------------------------------------------------------
    # Outstanding-work counter
    # ------------------------------------------------------------------
    def _inc(self, n: int = 1) -> None:
        self._counter.inc(n)

    def _dec(self, n: int = 1) -> None:
        self._counter.dec(n)

    def inject(self, ev: Event) -> None:
        """Analyse an externally produced event (a transport delivery, a
        stream driver's frame, a succession's replay) on the calling
        thread, which holds a unit of outstanding work across the call.
        Ignored once the node has been wound down."""
        self._analyze(ev)

    def _fail(self, exc: BaseException) -> None:
        """End the run with ``exc``: :meth:`join` re-raises it."""
        self._error = exc
        self._stop.set()
        self._counter.poke()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _announce(self, stores, commit: bool = False) -> None:
        """Post what a claim stored, as coarse as the claim: one
        :class:`StoreEvent` group per (field, age) of its store records
        (:func:`_store_groups`).  With ``commit`` (the records of a
        worker process) the write-once metadata of every group is
        committed first, one call per (field, age), so the analyzer
        only ever observes completeness at least as advanced as the
        event it is handling."""
        groups = _store_groups(stores)
        if commit:
            for fname, s_age, regions in groups:
                self.fields[fname].mark_written_many(s_age, regions)
        for fname, s_age, regions in groups:
            self._post(StoreEvent.group(fname, s_age, regions))

    def _commit_batch(
        self, batch: Run, worker_id: int, t0: float, run: tuple,
        remote: "tuple[float, float] | None" = None,
    ) -> None:
        """The parent-side tail of every dispatch, on both backends.

        ``batch`` is the claim — the rows the worker took in one pop,
        as a :class:`~repro.core.kernels.Run` — and ``run`` what
        :func:`~repro.core.execute.run_batch` returned for it, started
        at ``t0``.  ``remote`` is ``None`` when
        the routine ran on this thread (its stores are already
        committed) and ``(t_send, t_recv)`` when it ran in a worker
        process: the payload bytes are in the segments, and the reply's
        store records — region groups as the worker built them, nothing
        is rebuilt here — get their write-once enforcement and
        completeness metadata here.  The rest is one code path — the
        claim's stores announced (:meth:`_announce`: one
        :class:`StoreEvent` group per (field, age), a stacked claim's
        and a scalar one's alike), ``ctx.output`` delivery, the
        instrumentation record (the one holder of the dispatch
        counters), the trace spans, and one
        :class:`InstanceDoneEvent` for the dispatch, carrying the claim
        and a stored flag per member — posted only when the analyzer
        acts on it: the claim's kernel
        :attr:`~repro.core.kernels.KernelDef.self_advances` or the node
        runs ``gc_fields`` (the retirement sweep).  An event that
        can make nothing runnable is not posted.
        """
        (stores, outputs, t_fetch, t_kernel, t_store,
         calls, fallbacks, vectorized) = run
        kernel = batch.kernel
        age = batch.age
        n = len(batch)
        n_stores = 0  # stores that happened, however they were grouped
        for _fname, _age, regions, _who in stores:
            n_stores += len(regions)
        self._announce(stores, commit=remote is not None)
        for who, key, value in outputs:
            # Out-of-band ``ctx.output`` values go to the program's
            # registered handler, always in the parent process.
            handler = self.program.output_handler
            if handler is None:
                raise RuntimeStateError(
                    f"kernel {kernel.name!r} produced output {key!r} "
                    f"but the program has no output handler; call "
                    f"program.set_output_handler()"
                )
            handler(kernel.name, age, batch.index(who), key, value)
        t_done = time.perf_counter()
        if remote is None:
            ipc = 0.0
            dispatch = (t_done - t0) - t_kernel
        else:
            t_send, t_recv = remote
            ipc = max(0.0, (t_recv - t_send) - (t_fetch + t_kernel + t_store))
            dispatch = t_fetch + t_store + (t_send - t0) + (t_done - t_recv)
        self.instrumentation.record(
            kernel.name, dispatch, t_kernel, ipc, n,
            n * len(kernel.fetches), n_stores, vectorized, fallbacks,
        )
        tracer = self.tracer
        if tracer.enabled:
            # One enclosing kernel span per dispatch in the worker's
            # lane, and as its children where the dispatch sits on this
            # thread's clock — the frame-keyed spans.  Run here, a
            # batch's fetch / native / store seconds are laid end to end
            # from ``t0`` (a scalar batch interleaves them per instance;
            # the totals are what is shown).  Run in a worker, its clock
            # is not comparable: the parent-observed round trip is the
            # ipc span, with the remote kernel time carved out at its
            # tail (the reply is sent right after the last store) and the
            # parent-side commit after it; the remote durations are
            # arguments.
            thread = f"worker{worker_id}"
            args = {
                "age": age,
                "index": list(batch.index(0)),
                "batch": n,
                "stacks": calls,
                "vectorized": bool(vectorized),
            }
            if remote is None:
                t1 = t0 + t_fetch
                t2 = t1 + t_kernel
                phases = (("fetch", t0, t1), ("native", t1, t2),
                          ("store", t2, t_done))
            else:
                args["remote_dispatch_us"] = round(
                    (t_fetch + t_store) * 1e6, 1
                )
                args["remote_kernel_us"] = round(t_kernel * 1e6, 1)
                args["ipc_us"] = round(ipc * 1e6, 1)
                t_body = max(t_send, t_recv - t_kernel)
                phases = (("ipc", t_send, t_recv),
                          ("native", t_body, t_recv),
                          ("store", t_recv, t_done))
            tracer.complete(
                kernel.name if n == 1 else f"{kernel.name}[x{n}]",
                "kernel", self.name, thread, t0, t_done, args,
            )
            key = self._frame_key(batch)
            for phase, start, end in phases:
                tracer.complete(phase, "phase", self.name, thread,
                                start, end, key=key)
        if kernel.self_advances or self.gc_fields:
            # Only these two act on a done event: an aged source's
            # self-advance and the retirement sweep.  For any other
            # claim it could dispatch nothing, and the worker loop's
            # decrement after the StoreEvents above keeps quiescence
            # exact without it.
            stored = np.zeros(n, dtype=bool)
            for _fname, _age, _regions, who in stores:
                if who is None:
                    stored[:] = True
                else:  # a position, or a shape class's positions
                    stored[who] = True
            self._post(
                InstanceDoneEvent(
                    batch, stored, kernel_time=t_kernel,
                    dispatch_time=dispatch,
                )
            )

    def _worker_loop(self, worker_id: int) -> None:
        """The one worker loop: claim this worker's share of the head
        same-kernel/same-age run (at least :attr:`batch` instances when
        there are that many) and hand it to the backend as one call;
        ``batch=1`` simply yields singletons.  A claim's wait in the
        ready queue is its ``queue`` span, in this worker's lane."""
        tracer = self.tracer
        thread = f"worker{worker_id}"
        running, sessions = self._running_ages, self._running_sessions
        session_of = self.session_of

        def hold(claim: Run) -> None:
            # under the queue lock: the claim's age is this worker's
            # before the queue stops counting it (age before session)
            if claim.age is not None:
                running[worker_id] = claim.age
                if session_of is not None:
                    sessions[worker_id] = session_of(claim)

        while True:
            batch, wait = self.ready.pop_batch(
                self.batch, self.workers, hold
            )
            if batch is None:
                return
            if tracer.enabled:
                now = time.perf_counter()
                tracer.complete("queue", "phase", self.name, thread,
                                now - wait, now, key=self._frame_key(batch))
            try:
                if not self._stop.is_set():
                    self.backend.execute_batch(batch, worker_id)
                else:
                    self._abandoned += len(batch)
            except BaseException as exc:  # noqa: BLE001
                self._fail(exc)
                return
            finally:
                self._running_ages.pop(worker_id, None)
                self._running_sessions.pop(worker_id, None)
                self._dec(len(batch))

    def _frame_key(self, inst: "KernelInstance | Run"):
        """The ``(session, age)`` frame ``inst`` (an instance or a
        claim) works for — the key of its spans — or ``None`` when it
        is unaged."""
        if inst.age is None:
            return None
        return (self.session_of(inst) if self.session_of else "", inst.age)

    # ------------------------------------------------------------------
    # Analyzer side
    # ------------------------------------------------------------------
    def _post(self, ev: Event) -> None:
        """Analyse a locally produced event, then hand a store / resize
        to the ``on_event`` tap — outside the lock, or two nodes
        forwarding to each other would deadlock."""
        self._analyze(ev)
        if self.on_event is not None and isinstance(
            ev, (StoreEvent, ResizeEvent)
        ):
            self.on_event(self, ev)

    def _dispatch(self, runs: list) -> None:
        """Enqueue the analyzer's runs: one counter increment, one
        ready-queue lock acquisition."""
        if not runs:
            return
        n = sum(len(run) for run in runs)
        self._inc(n)
        self.ready.push_runs(runs)
        if self.tracer.enabled:
            self.tracer.instant(
                "dispatch", "scheduler", self.name, "analyzer",
                args={"count": n},
            )

    def _analyze(self, ev: Event) -> None:
        """The one analysis step: ``ev`` through the dependency analyzer
        under the analysis lock, what it made runnable onto the ready
        queue.  The time under the lock is ``analyzer_time``; its trace
        lane is ``analyzer``.  ``_dead`` is read under the lock
        :meth:`wind_down` sets it under, so nothing is dispatched after
        the ready queue was drained.  An error ends the run instead of
        reaching the producing thread, and the analyzer, its state now
        suspect, analyses nothing more."""
        with self._analysis_lock:
            if self._dead:
                return
            t0 = time.perf_counter()
            try:
                if isinstance(ev, StoreEvent):
                    self._dispatch(self.analyzer.on_store(ev))
                elif isinstance(ev, ResizeEvent):
                    self._dispatch(self.analyzer.on_resize(ev))
                elif isinstance(ev, InstanceDoneEvent):
                    self._dispatch(self.analyzer.on_done(ev))
                    if self.gc_fields:
                        self._collect_garbage()
            except BaseException as exc:  # noqa: BLE001
                self._dead = True
                self._fail(exc)
            finally:
                t1 = time.perf_counter()
                self.instrumentation.add_analyzer_time(t1 - t0)
                tr = self.tracer
                if tr.enabled:
                    args = None
                    if isinstance(ev, StoreEvent):
                        args = {"field": ev.field, "age": ev.age,
                                "regions": 1 + len(ev.rest)}
                    elif isinstance(ev, ResizeEvent):
                        args = {"field": ev.field}
                    tr.complete(type(ev).__name__, "analyzer",
                                self.name, "analyzer", t0, t1, args)

    def live_floor(self, session: str | None = None, kernels=None):
        """The lowest age this node could still dispatch work for — its
        pending analyzer work, queued claims and the claims its workers
        hold (in hand from the pop on, :meth:`ReadyQueue.pop_batch`) —
        or ``None`` when nothing is live.  ``session`` (a fair queue's
        tenant) and ``kernels`` (kernel names) scope the probe to one
        tenant.  The ``gc_fields`` sweep calls it under the analysis
        lock; the stream :class:`~repro.stream.Retirer` calls it without,
        and a probe that races a mutation raises :class:`RuntimeError`
        (the retirer skips that sweep)."""
        live = [
            a for a in (self.analyzer.min_pending_age(kernels),
                        self.ready.min_age(session))
            if a is not None
        ]
        if session is None:
            live.extend(self._running_ages.values())
        else:
            # A worker publishes age before session; an entry whose
            # session is not visible yet counts as ours (conservative —
            # never over-frees).
            sessions = dict(self._running_sessions)
            live.extend(
                age for wid, age in list(self._running_ages.items())
                if sessions.get(wid, session) == session
            )
        return min(live) if live else None

    def _collect_garbage(self) -> None:
        """Retire field ages no pending/ready/running instance can reach."""
        live = self.live_floor()
        if live is None:
            return
        floor = live - self._max_back - self.keep_ages
        if floor > self._gc_floor:
            self._gc_floor = floor
            self._gc_bytes += self._retire_locked(floor)

    def retire(self, floor: int, fields=None, kernels=None) -> int:
        """Retire every age below ``floor``; returns field bytes freed.

        The one retirement routine, shared by ``gc_fields`` (from inside
        an analysis step, through :meth:`_retire_locked`) and the stream
        :class:`~repro.stream.Retirer` (which computes the floor —
        DESIGN.md §11 — and guarantees no queued, in-hand or running
        claim can fetch below it): free the field ages (a shared
        field's segments go to its pool, for later ages) and drop the
        analyzer's dispatch bookkeeping, both under the analysis lock.
        ``fields`` / ``kernels`` (name sets) scope the retirement to one
        session of a multi-tenant node.  Idempotent, so nodes sharing
        one field store may each be told.
        """
        with self._analysis_lock:
            return self._retire_locked(floor, fields, kernels)

    def _retire_locked(self, floor: int, fields=None, kernels=None) -> int:
        """:meth:`retire`'s body; the caller holds the analysis lock."""
        freed = self.fields.collect_below(floor, fields)
        self.analyzer.retire_below(floor, kernels)
        return freed

    # ------------------------------------------------------------------
    # Driving a run
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Dispatch initial instances and start the worker threads.
        Separated from :meth:`join` so a cluster can start all nodes
        before any of them may observe global quiescence."""
        if self._ran:
            raise RuntimeStateError(
                "ExecutionNode may only run once; build a new node to re-run"
            )
        self._ran = True
        # The backend allocates its resources (the process backend forks
        # its workers) before any thread of this run exists.
        self.backend.start(self)
        self._t0 = time.perf_counter()
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(i,), daemon=True,
                name=f"{self.name}-worker{i}",
            )
            for i in range(self.workers)
        ]
        # Under the lock: a cluster peer may already be delivering.
        with self._analysis_lock:
            self._dispatch(self.analyzer.initial_instances())
        for t in self._threads:
            t.start()

    def add_teardown_hook(self, hook) -> None:
        """Register a callable invoked (once, exceptions swallowed) at
        the start of teardown — before worker threads are joined.  The
        fault-injection layer uses this to release workers it is holding
        captive, so a stalled node can still be torn down cleanly."""
        self._teardown_hooks.append(hook)

    def _run_teardown_hooks(self) -> None:
        hooks, self._teardown_hooks = self._teardown_hooks, []
        for hook in hooks:
            try:
                hook()
            except Exception:  # noqa: BLE001 - teardown must not fail
                pass

    def backlog(self) -> int:
        """Ready instances not yet claimed (liveness heuristic for the
        heartbeat monitor; approximate — the queue moves concurrently)."""
        return len(self.ready)

    def wind_down(self) -> int:
        """Fail-stop this node and reclaim its outstanding work.

        The distributed recovery path calls this on a node declared dead:
        no further events are analysed (late transport deliveries are
        ignored), queued instances are abandoned instead of executed, and
        every abandoned unit retires its outstanding-work count so the
        cluster-wide quiescence counter stays consistent.  Blocks until
        the node's threads have exited; returns the number of abandoned
        instances (the work a replacement node must re-execute).

        Unlike :meth:`stop`, the shared counter is *not* poked — the
        other nodes of a cluster keep running.
        """
        with self._analysis_lock:
            self._dead = True
        self._stop.set()
        self._run_teardown_hooks()
        if not self._ran:
            return 0
        self.ready.push_sentinel(self.workers)
        for t in self._threads:
            t.join()
        # Dispatched before ``_dead`` and never claimed: retire it so
        # the counter reflects the abandoned work.
        leftovers = self.ready.drain()
        if leftovers:
            self._abandoned += leftovers
            self._dec(leftovers)
        # Shm hygiene: a wound-down node that *owns* its shared store has
        # no join() coming to unlink the segment names — release here or
        # they outlive the process in /dev/shm.  Cluster nodes share an
        # externally provided store; its owner releases it.
        if self._owns_fields and isinstance(self.fields, SharedFieldStore):
            self.fields.release()
        return self._abandoned

    def join(
        self,
        timeout: float | None = None,
        stall_timeout: float | None = None,
    ) -> RunResult:
        """Wait for quiescence (or timeout/stop/stall), tear down the
        threads and return the result.  Raises the wrapped exception if
        any kernel body failed, or :class:`StallError` when the stall
        watchdog fired (outstanding work, no progress)."""
        if not self._ran:
            raise RuntimeStateError("join() before start()")
        outcome = self._counter.wait(timeout, stall_timeout)
        # Close analysis before tearing down: a transport delivery
        # landing after quiescence would dispatch onto a queue no worker
        # drains and leak its counter units (hanging any other waiter on
        # a shared counter).
        with self._analysis_lock:
            self._dead = True
        reason = "idle"
        if outcome == "timeout":
            reason = "timeout"
            self._stop.set()
        elif outcome == "stalled":
            self._stop.set()
        elif outcome == "poked" and self._error is None:
            reason = "stopped"
        # Tear down: workers exit on their sentinel.  On a stall or
        # timeout a worker may be stuck *inside* a kernel body and never
        # see it — bound the join so the watchdog raises instead of
        # trading one hang for another (the stuck daemon thread is
        # abandoned).
        self._run_teardown_hooks()
        self.ready.push_sentinel(self.workers)
        limit = (
            None if outcome in ("idle", "poked")
            else self._TEARDOWN_JOIN_TIMEOUT
        )
        for t in self._threads:
            t.join(limit)
        self.backend.shutdown()
        if isinstance(self.fields, SharedFieldStore):
            # Unlink segment names; mappings stay readable so the
            # RunResult's fields can still be fetched.
            self.fields.release()
        if self._error is not None:
            raise self._error
        if outcome == "stalled":
            err = StallError(
                f"node {self.name!r}: no progress for {stall_timeout}s "
                f"with {self._counter.value()} outstanding work unit(s) "
                f"(backlog {self.backlog()}); a worker stopped draining "
                f"the ready queue",
                outstanding=self._counter.value(),
            )
            err.flight_path = dump_flight(
                self.tracer, reason=str(err),
                context={"node": self.name, "error": "StallError"},
            )
            raise err
        return RunResult(
            reason=reason,
            wall_time=time.perf_counter() - self._t0,
            instrumentation=self.instrumentation,
            fields=self.fields,
            ready_high_water=self.ready.max_depth,
            gc_bytes=self._gc_bytes,
            backend=self.backend.name,
            metrics=self.metrics,
            tracer=self.tracer if self.tracer.mode != "off" else None,
        )

    def snapshot(self) -> dict[str, dict]:
        """What this node holds, as a typed metrics snapshot, read live
        by its registry (DESIGN.md §9): the dispatch counters
        (:meth:`Instrumentation.snapshot`), the ready queue's
        (:meth:`ReadyQueue.snapshot`) and the node's own — abandoned
        instances, bytes ``gc_fields`` freed, live field bytes (one
        holder, two names), peak RSS and each timer's deadline misses.
        Nodes sharing a registry sum their counters; shared resources
        (the field store, the timers) are gauges, which take the max."""
        live = self.fields.live_bytes()
        out = {
            **self.instrumentation.snapshot(),
            **self.ready.snapshot(),
            "instances.abandoned": {"type": "counter",
                                    "value": self._abandoned},
            "fields.gc_bytes": {"type": "counter", "value": self._gc_bytes},
            "fields.bytes_live": {"type": "gauge", "value": live},
            "fields.live_bytes": {"type": "gauge", "value": live},
            "process.peak_rss_bytes": {"type": "gauge",
                                       "value": peak_rss_bytes()},
        }
        for name, timer in self.timers.as_mapping().items():
            out[f"deadline.misses.{name}"] = {"type": "gauge",
                                              "value": timer.misses}
        return out

    def run(
        self,
        timeout: float | None = None,
        stall_timeout: float | None = None,
    ) -> RunResult:
        """Execute the program to quiescence (:meth:`start` +
        :meth:`join`)."""
        self.start()
        return self.join(timeout, stall_timeout)

    def stop(self) -> None:
        """Ask a continuous program to stop; pending instances are
        abandoned and :meth:`run` returns with reason ``"stopped"``."""
        self._stop.set()
        self._counter.poke()


class _Lifecycle:
    """The one bring-up and wind-down order of a run (DESIGN.md §17),
    shared by :func:`run_program`, :class:`~repro.stream.SessionManager`
    and the cluster's run object: telemetry (tracer and registry
    attached, started) → every node → the ``services`` pair that
    watches the nodes (heartbeats, recovery manager) → stream drivers.
    :meth:`stop` undoes, newest first, whatever came up; :meth:`join`
    runs it in a ``finally`` and a failed :meth:`start` before
    re-raising, so no exporter, heartbeat, watcher or driver thread
    outlives its run.
    """

    def __init__(self, telemetry) -> None:
        if telemetry is not None and not isinstance(telemetry, Telemetry):
            raise TypeError(
                f"telemetry= takes a repro.obs.Telemetry or None, got "
                f"{type(telemetry).__name__}"
            )
        self.telemetry = telemetry
        self._stops: list = []

    def up(self, start, stop) -> None:
        """Run ``start`` now and ``stop`` when the run winds down."""
        start()
        self._stops.append(stop)

    def start(self, nodes, drivers=(), services=None) -> None:
        tel = self.telemetry
        started = []
        try:
            if tel is not None:
                # A run's nodes share one tracer — the frame timeline is
                # its sink — and one registry, so the first node's are
                # the run's.
                tel.attach_tracer(nodes[0].tracer)
                tel.exporter.registry = nodes[0].metrics
                self.up(tel.start, tel.stop)
            for node in nodes:
                node.start()
                started.append(node)
            if services is not None:
                self.up(*services)
            # One stream clock for every driver of the run: frame ``a``
            # of each stream is due at the same instant, not offset by
            # how long starting the threads before it took (a started
            # driver analyses its first frame at once, and the workers
            # it wakes can hold the next start back by several ms).
            epoch = drivers[0].timer.now() if drivers else None
            for driver in drivers:
                self.up(functools.partial(driver.start, epoch), driver.stop)
        except BaseException:
            self.stop()
            for node in started:
                node.wind_down()
            raise

    def stop(self) -> None:
        while self._stops:
            self._stops.pop()()

    def join(self, wait):
        """``wait()`` for the run to end; wind down either way."""
        try:
            return wait()
        finally:
            self.stop()


def run_program(
    program: Program,
    workers: int = 1,
    *,
    max_age: int | None = None,
    timeout: float | None = None,
    stall_timeout: float | None = None,
    gc_fields: bool = False,
    keep_ages: int = 1,
    backend: "str | ExecutionBackend" = "threads",
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
    stream=None,
    batch: int = 1,
    telemetry=None,
) -> RunResult:
    """One-shot convenience: build an :class:`ExecutionNode` and run it.

    ``stream`` (a :class:`~repro.stream.StreamBinding`, e.g. from
    :func:`~repro.workloads.build_mjpeg_stream`) turns the run into a
    live, unbounded pipeline: a driver thread paces frames from the
    binding's source into the running node under credit-based
    backpressure, retires drained ages so field memory stays bounded,
    and applies the configured QoS policy to late frames; the resulting
    :class:`~repro.stream.StreamReport` is attached to
    ``RunResult.stream``.

    ``batch`` is the body-call granularity (:class:`ExecutionNode`):
    ``batch=1`` dispatches one instance at a time — the paper's
    reference mode — and results are byte-identical at every size.

    ``telemetry`` (a :class:`~repro.obs.Telemetry` bundle) turns on the
    live telemetry layer: its frame timeline becomes a sink of the
    node's span stream (per-frame stage attribution), the run
    streams periodic metric snapshots through the bundle's exporter
    (JSONL / Prometheus endpoint), and tracks per-session SLO burn
    rate; the bundle is attached to ``RunResult.telemetry``.
    """
    life = _Lifecycle(telemetry)
    node = ExecutionNode(
        program,
        workers,
        max_age=max_age,
        gc_fields=gc_fields,
        keep_ages=keep_ages,
        backend=backend,
        tracer=tracer,
        metrics=metrics,
        batch=batch,
        timeline=telemetry.timeline if telemetry is not None else None,
    )
    drivers = []
    if stream is not None:
        from ..stream import StreamDriver

        drivers.append(StreamDriver(stream, node=node, telemetry=telemetry))
        node.add_teardown_hook(drivers[0].stop)
    life.start([node], drivers)
    result = life.join(
        lambda: node.join(timeout=timeout, stall_timeout=stall_timeout)
    )
    if drivers:
        result.stream = drivers[0].report()
    result.telemetry = telemetry
    return result
