"""Age retirement: bounded field memory on unbounded runs.

A batch run keeps every age alive until teardown; a live encoder would
grow without bound.  The :class:`Retirer` decides *which* ages have
drained; :meth:`ExecutionNode.retire
<repro.core.runtime.ExecutionNode.retire>` — the routine ``gc_fields``
uses too — frees them (:meth:`Field.collect_below`; a shared-memory
field hands their segments to its pool, and a later age is given one of
them, bytes and all, instead of a new segment) and drops the
analyzer's dispatch bookkeeping for those ages.

Invariant (DESIGN.md §11): **an age may be freed iff no queued, in-hand
or running claim can fetch it** — nor any claim dispatched later.  A
freed age's segment holds another age's bytes as soon as it is reused,
so the invariant is what keeps a claim from reading them.  Two
independent bounds enforce it:

* the *completion frontier* — ages at or below the highest contiguous
  completed age have delivered their output, and under the credit gate
  no new source age enters below the frontier, so only instances at
  ages above it can still be dispatched; backwards fetches reach at
  most ``max_back`` ages below their instance, giving the floor
  ``frontier + 1 − max_back − keep_ages``;
* the nodes' *live minima* — the lowest age among pending analyzer
  work, queued claims and the claims workers hold, observed directly
  (a worker's claim counts as in hand from inside the pop that takes
  it off the queue).  Redundant with the frontier argument, but it
  keeps the invariant true even for exotic bindings that complete ages
  out of band.
"""

from __future__ import annotations

import threading

from ..core.runtime import ExecutionNode

__all__ = ["Retirer"]


class Retirer:
    """Watches per-age completion and frees everything below the safe
    floor.

    Thread-safe: completions arrive from worker/pump threads while the
    driver thread sweeps.  The per-node probes read structures other
    threads mutate (analyzer pending map, ready-queue age counts, running
    ages); each is internally locked or read defensively — a probe that
    races a mutation just skips this sweep, never over-frees.
    """

    def __init__(
        self,
        nodes,
        *,
        max_back: int = 0,
        keep_ages: int = 1,
        field_names=None,
        kernel_names=None,
        session: str | None = None,
    ) -> None:
        self._nodes = list(nodes)
        self._max_back = max_back
        self._keep_ages = max(0, keep_ages)
        #: Multi-tenant scoping: with several sessions sharing one field
        #: store and numeric age space, a retirer frees only its own
        #: session's fields and probes only its own session's live ages
        #: (an unscoped probe would let a lagging co-tenant pin this
        #: session's memory; an unscoped free would unmap a co-tenant's
        #: live ages).  ``None`` everywhere = the single-tenant PR 5
        #: behaviour.
        self._field_names = (
            None if field_names is None else frozenset(field_names)
        )
        self._kernel_names = (
            None if kernel_names is None else frozenset(kernel_names)
        )
        self._session = session
        self._lock = threading.Lock()
        #: Serializes sweeps against migration windows: an elastic
        #: repartition pauses sweeping while the node set is in flux
        #: (probing a half-fenced node would under-report live ages).
        self._sweep_gate = threading.Lock()
        self._done: set[int] = set()
        self._frontier = -1
        #: Ages strictly below this have been freed.
        self.retired_through = 0
        #: Total field bytes reclaimed by sweeps.
        self.freed_bytes = 0

    def set_nodes(self, nodes, *, max_back: int | None = None) -> None:
        """Swap the probed node set after an elastic migration.

        The next sweep probes the new membership's nodes; ``max_back``
        may be re-derived from them (a replacement subprogram can have
        a different fetch horizon).
        """
        with self._lock:
            self._nodes = list(nodes)
            if max_back is not None:
                self._max_back = max_back

    def note_complete(self, age: int) -> None:
        """Record that ``age`` drained (output delivered, or shed)."""
        with self._lock:
            self._done.add(age)
            while self._frontier + 1 in self._done:
                self._done.discard(self._frontier + 1)
                self._frontier += 1

    def completed_through(self) -> int:
        """Highest contiguous completed age (−1 if none)."""
        with self._lock:
            return self._frontier

    def _live_floor(self) -> int | None:
        """Lowest age any node could still dispatch work for
        (:meth:`ExecutionNode.live_floor
        <repro.core.runtime.ExecutionNode.live_floor>`, scoped to this
        retirer's session), capped by the completion frontier; ``None``
        when a probe raced a concurrent mutation (skip the sweep — the
        next completion retries)."""
        with self._lock:
            floor = self._frontier + 1
        for node in self._nodes:
            try:
                # Through the class: the probe needs only a node's
                # analyzer, ready queue and running ages.
                live = ExecutionNode.live_floor(
                    node, self._session, self._kernel_names
                )
            except RuntimeError:  # dict mutated during iteration
                return None
            if live is not None and live < floor:
                floor = live
        return floor

    def pause(self) -> None:
        """Hold off sweeping for a migration window.

        Blocks until any in-flight sweep finishes, so after ``pause()``
        returns no probe of the outgoing node set is still running;
        completions arriving meanwhile are recorded but not swept (the
        first sweep after :meth:`resume` catches up).
        """
        self._sweep_gate.acquire()

    def resume(self) -> None:
        """Lift :meth:`pause`; the next completion sweeps normally."""
        self._sweep_gate.release()

    def sweep(self) -> int:
        """Free every age below the safe floor; returns bytes freed.

        Cheap when there is nothing to do (one lock, a few probes), so
        the driver calls it on every completion.  Returns 0 without
        sweeping while paused or while another sweep is in flight —
        the next completion retries.
        """
        if not self._sweep_gate.acquire(blocking=False):
            return 0
        try:
            return self._sweep_locked()
        finally:
            self._sweep_gate.release()

    def _sweep_locked(self) -> int:
        floor = self._live_floor()
        if floor is None:
            return 0
        floor -= self._max_back + self._keep_ages
        with self._lock:
            if floor <= self.retired_through:
                return 0
            # Claim the range under the lock so concurrent sweeps
            # (completions race) never double-free or interleave.
            self.retired_through = floor
        # Nodes of a cluster share one field store: the first frees it,
        # the rest report 0.
        freed = sum(
            node.retire(floor, self._field_names, self._kernel_names)
            for node in self._nodes
        )
        if freed:
            with self._lock:
                self.freed_bytes += freed
        return freed
