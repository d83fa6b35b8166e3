"""Multi-tenant stream serving: one runtime, N concurrent sessions.

The PR 5 streaming runtime drives *one* live pipeline per program; a
production deployment (ROADMAP north-star, Nephele Streaming's setting)
multiplexes many independent streams over one worker pool so capacity
pools and QoS is enforced per stream.  This module adds that layer
without touching the execution model:

* **Namespacing** — each session's program is rewritten under a
  ``"<session>."`` prefix (:func:`namespace_program`) and every
  sessions' fields/kernels merge into one
  :class:`~repro.core.program.Program`.  Sessions share the *numeric*
  age space but never a field, so write-once isolation between tenants
  falls out of field-name disjointness (and, on the process backend,
  from per-field shared-memory segment names).
* **Fair dispatch** — the merged node runs the ready queue's ``"fair"``
  policy: per-session heaps with age priority inside a session and
  deficit round-robin across sessions (gold tiers get a larger
  quantum), so one hot tenant cannot starve the rest.
* **Per-session streaming state** — every session gets its own
  :class:`~repro.stream.StreamDriver` (hence its own credit gate, QoS
  policy, retirer frontier, metrics prefix and report), scoped to its
  namespaced subgraph.  One session ending — or being torn down — never
  closes another's gate or frees another's ages.
* **Admission control** — sessions past the capacity estimate are
  rejected (:class:`AdmissionError`) or queued until a running session
  drains, per the ``admission`` policy.
* **Tier-aware overload** — a ``"gold"`` session's
  :class:`~repro.stream.QosPolicy` never sheds; best-effort sessions
  shed as soon as frames are late, which is precisely what frees the
  shared capacity gold needs to stay inside its deadline.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace as dc_replace

from ..core.naming import NAME_SEP, validate_component
from ..core.program import Program
from ..core.runtime import ExecutionNode, RunResult, _Lifecycle
from .driver import StreamBinding, StreamDriver

__all__ = [
    "SESSION_SEP",
    "AdmissionError",
    "MultitenantReport",
    "SessionManager",
    "SessionSpec",
    "merge_sessions",
    "namespace_program",
    "session_of_name",
]

#: Separator between a session name and the names it owns.  A dot — not
#: a slash — because namespaced field names end up inside POSIX
#: shared-memory segment names (``p2g<run>_<field>_<serial>``), where ``/``
#: is illegal.  Shared with ``core.naming`` so operator-generated names
#: obey the same rules.
SESSION_SEP = NAME_SEP


def session_of_name(name: str) -> str:
    """The session prefix of a namespaced kernel/field name (``""`` for
    un-namespaced names)."""
    i = name.find(SESSION_SEP)
    return name[:i] if i > 0 else ""


def _check_session_name(name: str) -> None:
    validate_component(name, what="session name")


def namespace_program(program: Program, session: str) -> Program:
    """Rewrite ``program`` with every field/kernel/timer name prefixed
    by ``"<session>."``, suitable for merging with other sessions into
    one runtime.

    Fetch/store specs are rewritten to reference the namespaced fields;
    each store's ``key`` is pinned to the original ``emit_key`` so
    kernel *bodies* — which emit un-namespaced keys — run unchanged
    (bodies never see field names, only params and emit keys).
    Vectorized ``batch_body`` attachments survive: they too only touch
    fetch params and emit keys.
    """
    _check_session_name(session)
    p = session + SESSION_SEP
    fields = [
        dc_replace(f, name=p + f.name) for f in program.fields.values()
    ]
    kernels = [
        dc_replace(
            k,
            name=p + k.name,
            fetches=tuple(
                dc_replace(f, field=p + f.field) for f in k.fetches
            ),
            stores=tuple(
                dc_replace(s, field=p + s.field, key=s.emit_key)
                for s in k.stores
            ),
        )
        for k in program.kernels.values()
    ]
    return Program.build(
        fields,
        kernels,
        tuple(p + t for t in program.timers),
        name=p + program.name,
    )


class _NamespacedFields:
    """Field-store view that lets a session's un-namespaced binding
    glue (``store_frame``) address its own fields by their original
    names."""

    __slots__ = ("_store", "_prefix")

    def __init__(self, store, prefix: str) -> None:
        self._store = store
        self._prefix = prefix

    def __getitem__(self, name: str):
        return self._store[self._prefix + name]


def _namespace_binding(
    binding: StreamBinding, session: str
) -> StreamBinding:
    """A copy of ``binding`` whose ``store_frame`` writes through the
    session's namespaced fields and emits namespaced store events."""
    p = session + SESSION_SEP
    inner = binding.store_frame

    def store_frame(fields, age, frame):
        events = inner(_NamespacedFields(fields, p), age, frame)
        return [dc_replace(ev, field=p + ev.field) for ev in events]

    return dc_replace(binding, store_frame=store_frame)


def tier_weights(specs) -> dict[str, int]:
    """Default ready-queue quanta: gold draws twice the dispatch slots
    of best-effort under contention."""
    return {s.name: 2 if s.qos_class == "gold" else 1 for s in specs}


def session_driver(spec: "SessionSpec", **wiring) -> StreamDriver:
    """The :class:`StreamDriver` of one tenant of a merged program: the
    spec's binding namespaced, completions and retirement scoped to its
    sub-program.  ``wiring`` is the run's part (``node=`` or ``nodes=``,
    ``program=`` the merged program, ``telemetry=``, a cluster's
    ``inject=`` / ``on_grant=``)."""
    return StreamDriver(
        _namespace_binding(spec.binding, spec.name),
        session=spec.name,
        scope=namespace_program(spec.program, spec.name),
        **wiring,
    )


def merge_sessions(specs) -> Program:
    """Merge every spec's namespaced program into one and install the
    session-dispatching output handler.

    The dispatcher routes each output by the emitting kernel's session
    prefix to that session's *solo* handler (with the prefix stripped,
    so the handler sees its own kernel names).  The result is what a
    multi-tenant :class:`~repro.core.runtime.ExecutionNode` — or a
    :class:`~repro.dist.cluster.Cluster` — executes.
    """
    specs = list(specs)
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate session names in {names}")
    subs = {s.name: namespace_program(s.program, s.name) for s in specs}
    merged = Program.build(
        [f for sub in subs.values() for f in sub.fields.values()],
        [k for sub in subs.values() for k in sub.kernels.values()],
        tuple(t for sub in subs.values() for t in sub.timers),
        name="multitenant",
    )
    handlers = {s.name: s.program.output_handler for s in specs}

    def dispatch(kernel, age, index, key, value) -> None:
        session, _, rest = kernel.partition(SESSION_SEP)
        handler = handlers.get(session)
        if handler is None:
            raise RuntimeError(
                f"output {key!r} from kernel {kernel!r} has no session "
                f"handler (session {session!r})"
            )
        handler(rest, age, index, key, value)

    merged.set_output_handler(dispatch)
    return merged


class AdmissionError(RuntimeError):
    """A session was offered past the runtime's capacity estimate under
    the ``"reject"`` admission policy."""


@dataclass
class SessionSpec:
    """One tenant: a solo program (with its own output handler/sink
    attached) plus the stream binding that feeds it.

    The program and binding are exactly what a single-tenant
    ``run_program(stream=binding)`` would take — e.g. the
    ``(program, sink, binding)`` triple from
    :func:`~repro.workloads.build_mjpeg_stream` — which is what makes
    the per-session byte-identity property testable: the same spec runs
    solo or co-resident.
    """

    name: str
    program: Program
    binding: StreamBinding

    @property
    def qos_class(self) -> str:
        """The session's service tier (from its stream config)."""
        return self.binding.config.qos_class

    def __post_init__(self) -> None:
        _check_session_name(self.name)


@dataclass
class MultitenantReport:
    """Aggregate outcome of a multi-session run."""

    sessions: dict  #: session name -> :class:`StreamReport`
    workers: int
    backend: str
    capacity: int
    duration_s: float

    def by_class(self) -> dict:
        """Per-tier aggregates: sessions/offered/completed/shed/degraded
        counts and the worst (max) p99 latency."""
        out: dict = {}
        for rep in self.sessions.values():
            tier = rep.qos_class or "best-effort"
            agg = out.setdefault(
                tier,
                {
                    "sessions": 0,
                    "offered": 0,
                    "completed": 0,
                    "shed": 0,
                    "degraded": 0,
                    "p99_ms": 0.0,
                },
            )
            agg["sessions"] += 1
            agg["offered"] += rep.offered
            agg["completed"] += rep.completed
            agg["shed"] += rep.shed
            agg["degraded"] += rep.degraded
            p99 = rep.latency_ms.get("p99")
            if p99 is not None:
                agg["p99_ms"] = max(agg["p99_ms"], p99)
        return out

    def as_dict(self) -> dict:
        """JSON-ready view (CI uploads this as the run artifact)."""
        return {
            "workers": self.workers,
            "backend": self.backend,
            "capacity": self.capacity,
            "duration_s": self.duration_s,
            "by_class": self.by_class(),
            "sessions": {
                name: rep.as_dict()
                for name, rep in self.sessions.items()
            },
        }


class SessionManager:
    """Run N independent stream sessions over one shared worker pool.

    Parameters
    ----------
    specs:
        The tenants (:class:`SessionSpec`).  More can be added with
        :meth:`add_session` until :meth:`start`.
    workers / backend / batch / max_age / metrics / tracer:
        Forwarded to the single merged :class:`ExecutionNode`.
    max_sessions:
        Capacity estimate; defaults to ``4 * workers`` (a paced session
        spends most of its frame interval idle, so several multiplex
        per worker; the bench sweeps where the estimate actually
        saturates).  Sessions past it are rejected or queued.
    admission:
        ``"reject"`` (default) raises :class:`AdmissionError` for
        sessions past capacity; ``"queue"`` admits them into the merged
        program but defers their stream start until a running session
        drains and frees a slot.
    session_weights:
        Ready-queue deficit quanta per session; defaults to 2 for gold
        sessions and 1 for best-effort (gold gets twice the dispatch
        slots under contention).
    """

    def __init__(
        self,
        specs=(),
        *,
        workers: int = 1,
        backend="threads",
        batch: int = 1,
        max_age: int | None = None,
        max_sessions: int | None = None,
        admission: str = "reject",
        session_weights: "dict[str, int] | None" = None,
        metrics=None,
        tracer=None,
        telemetry=None,
    ) -> None:
        if admission not in ("reject", "queue"):
            raise ValueError(
                f"admission must be 'reject' or 'queue', got {admission!r}"
            )
        self.workers = workers
        self.backend = backend
        self.batch = batch
        self.max_age = max_age
        self.capacity = (
            max_sessions if max_sessions is not None
            else max(1, 4 * workers)
        )
        self.admission = admission
        self._weights = session_weights
        self._metrics = metrics
        self._tracer = tracer
        self._telemetry = telemetry
        self._life = _Lifecycle(self._telemetry)
        self._specs: dict[str, SessionSpec] = {}
        self._queued: list[str] = []  # admitted-but-deferred sessions
        self.drivers: dict[str, StreamDriver] = {}
        self.node: ExecutionNode | None = None
        self.result: RunResult | None = None
        self._started = False
        self._active: set[str] = set()
        self._lock = threading.Lock()
        self._watcher: threading.Thread | None = None
        self._watch_stop = threading.Event()
        for spec in specs:
            self.add_session(spec)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def add_session(self, spec: SessionSpec) -> bool:
        """Admit a session (before :meth:`start`).  Returns ``True``
        when the session will stream immediately, ``False`` when it was
        queued behind the capacity estimate; raises
        :class:`AdmissionError` under the ``"reject"`` policy."""
        if self._started:
            raise RuntimeError(
                "sessions must be admitted before start() — the merged "
                "program is fixed once the runtime is up"
            )
        if spec.name in self._specs:
            raise ValueError(f"duplicate session {spec.name!r}")
        immediate = (
            len(self._specs) - len(self._queued) < self.capacity
        )
        if not immediate:
            if self.admission == "reject":
                raise AdmissionError(
                    f"session {spec.name!r} rejected: "
                    f"{self.capacity} sessions already admitted "
                    f"(capacity estimate for {self.workers} workers; "
                    f"raise max_sessions or use admission='queue')"
                )
            self._queued.append(spec.name)
        self._specs[spec.name] = spec
        return immediate

    @property
    def sessions(self) -> list[str]:
        """Admitted session names, admission order."""
        return list(self._specs)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _build(self) -> None:
        merged = merge_sessions(self._specs.values())
        weights = self._weights
        if weights is None:
            weights = tier_weights(self._specs.values())
        self.node = ExecutionNode(
            merged,
            self.workers,
            max_age=self.max_age,
            backend=self.backend,
            batch=self.batch,
            scheduling="fair",
            session_weights=weights,
            metrics=self._metrics,
            tracer=self._tracer,
            name="tenant0",
            timeline=(
                self._telemetry.timeline
                if self._telemetry is not None else None
            ),
        )
        # First hook, so it runs before the drivers': a session whose
        # stream ends because the node is going down frees no slot.
        self.node.add_teardown_hook(self._watch_stop.set)
        for name, spec in self._specs.items():
            self.drivers[name] = session_driver(
                spec, node=self.node, program=merged,
                telemetry=self._telemetry,
            )
            self.node.add_teardown_hook(self.drivers[name].stop)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Build the merged runtime, start it, and start every
        non-queued session's stream.  Queued sessions start as slots
        free up (a background watcher promotes them)."""
        if self._started:
            raise RuntimeError("SessionManager may only start once")
        self._started = True
        self._build()
        immediate = [n for n in self._specs if n not in self._queued]
        self._active.update(immediate)
        self._life.start(
            [self.node], [self.drivers[n] for n in immediate]
        )
        if self._queued:
            self._watcher = threading.Thread(
                target=self._watch_queue, daemon=True,
                name="session-watcher",
            )
            self._life.up(self._watcher.start, self._stop_watcher)

    def _stop_watcher(self) -> None:
        self._watch_stop.set()
        self._watcher.join(1.0)

    def start_session(self, name: str) -> None:
        """Start one session's stream (idempotent)."""
        with self._lock:
            if name in self._active:
                return
            self._active.add(name)
        self.drivers[name].start()

    def stop_session(self, name: str) -> None:
        """End one session's stream: its gate closes and its quiescence
        token releases, while every other session keeps running.  The
        session's in-flight frames still drain (and free its fields)."""
        self.drivers[name].stop()

    def _session_done(self, name: str) -> bool:
        drv = self.drivers[name]
        with self._lock:
            started = name in self._active
        if not started:
            return False
        t = drv._thread
        return t is None or not t.is_alive()

    def _watch_queue(self) -> None:
        """Promote queued sessions as running ones finish offering."""
        while not self._watch_stop.is_set():
            with self._lock:
                queued = [
                    n for n in self._queued if n not in self._active
                ]
            if not queued:
                return
            done = sum(
                1 for n in self._specs
                if n not in queued and self._session_done(n)
            )
            with self._lock:
                active = len(self._active)
            slots = self.capacity - (active - done)
            for name in queued[:max(0, slots)]:
                self.start_session(name)
            self._watch_stop.wait(0.01)

    def join(
        self,
        timeout: float | None = None,
        stall_timeout: float | None = None,
    ) -> RunResult:
        """Wait for every session to drain and the runtime to go
        quiescent; returns the node's :class:`RunResult` with
        ``result.stream`` set to the :class:`MultitenantReport`."""
        if not self._started:
            raise RuntimeError("join() before start()")
        # A queued session that never got a slot must not hold its
        # quiescence token forever: once every startable session has
        # finished, the watcher promotes it; join just waits.
        result = self._life.join(
            lambda: self.node.join(
                timeout=timeout, stall_timeout=stall_timeout
            )
        )
        result.stream = self.report(duration_s=result.wall_time)
        result.telemetry = self._telemetry
        self.result = result
        return result

    def run(
        self,
        timeout: float | None = None,
        stall_timeout: float | None = None,
    ) -> RunResult:
        """:meth:`start` + :meth:`join`."""
        self.start()
        return self.join(timeout=timeout, stall_timeout=stall_timeout)

    def stop(self) -> None:
        """End every session's stream (the node then drains)."""
        self._watch_stop.set()
        for name in self.drivers:
            self.stop_session(name)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, duration_s: float | None = None) -> MultitenantReport:
        """Per-session reports under one envelope."""
        reports = {
            name: drv.report() for name, drv in self.drivers.items()
        }
        if duration_s is None:
            duration_s = max(
                (r.duration_s for r in reports.values()), default=0.0
            )
        backend = self.node.backend.name if self.node else str(self.backend)
        return MultitenantReport(
            sessions=reports,
            workers=self.workers,
            backend=backend,
            capacity=self.capacity,
            duration_s=duration_s,
        )
