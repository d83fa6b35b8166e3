"""Runtime events.

P2G's prototype is "a push-based system using event subscriptions on
field operations" (section VI-B).  Kernel instances produce
:class:`StoreEvent`/:class:`ResizeEvent` on their store statements; the
dependency analyzer reacts to them by dispatching newly runnable
instances.  Inside an execution node an event is analysed on the thread
that produced it, under the node's analysis lock; between nodes it
travels over a :mod:`repro.dist.transport`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Sequence

from .fields import IndexExpr, RegionGroup, index_shape
from .kernels import KernelInstance, Run


@dataclass(frozen=True)
class Event:
    """Base class for runtime events."""


@dataclass(frozen=True)
class StoreEvent(Event):
    """One or more regions of a field were written at some age.

    The event stream is as coarse as the dispatch: a batch announces
    all the regions it stored to one (field, age) as a *group* — the
    first in ``region``, the others in ``rest`` (a tuple, or the tail
    of the batch's :class:`~repro.core.fields.RegionGroup`, which is
    carried as it is: count and size are read off it, and the regions
    are materialised only by a consumer that needs them one by one).  A
    single store is a group of one.  Every region's write-once metadata
    is committed before the event is posted.
    """

    field: str
    age: int
    region: IndexExpr  # normalized tuple of slices
    rest: Sequence[IndexExpr] = ()

    @property
    def regions(self) -> tuple[IndexExpr, ...]:
        """Every region of the group, in store order."""
        return (self.region, *self.rest)

    @property
    def elements(self) -> int:
        """Elements the group covers, without walking a region group."""
        rest = self.rest
        return math.prod(index_shape(self.region)) + (
            rest.elements if isinstance(rest, RegionGroup)
            else sum(math.prod(index_shape(r)) for r in rest)
        )

    @staticmethod
    def group(field: str, age: int, regions) -> "StoreEvent":
        """The event announcing ``regions`` (at least one)."""
        rest = regions[1:]
        return StoreEvent(
            field, age, regions[0],
            rest if isinstance(rest, RegionGroup) else tuple(rest),
        )


@dataclass(frozen=True)
class ResizeEvent(Event):
    """A store implicitly grew a field's extent."""

    field: str
    old_extent: tuple[int, ...]
    new_extent: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class InstanceDoneEvent(Event):
    """A dispatch finished executing: its ``claim`` — a
    :class:`~repro.core.kernels.Run` of one kernel definition and age —
    and ``stored``, one flag per member of the claim, in order.

    ``stored`` drives source self-advancement: an aged source kernel
    whose instance stored nothing has reached end-of-stream and is not
    re-dispatched for the next age.  The times are the dispatch's.
    """

    claim: Run
    stored: Sequence[bool]
    kernel_time: float = 0.0
    dispatch_time: float = 0.0

    @property
    def instance(self) -> KernelInstance:
        """The claim's first member (built on demand)."""
        return self.claim[0]


class WorkToken:
    """One unit of outstanding work on a quiescence counter, released
    at most once.

    The runtime detects completion by a shared counter reaching zero
    (inc-before-dec makes zero stable — see
    :class:`~repro.core.runtime.WorkCounter`).  Several subsystems pin
    the counter above zero across a window in which work is owned by no
    dispatchable instance: the recovery manager while a dead node's
    kernels have no owner, a stream driver until its last frame has been
    offered, and the cluster across startup and membership migrations.  Each of those
    windows used to hand-roll the same held-flag + lock + idempotent
    decrement; this class is that pattern, once.

    Construction increments the counter immediately; :meth:`release`
    decrements it exactly once no matter how many paths call it (normal
    teardown, error unwind, signal handlers).  Usable as a context
    manager for strictly scoped windows.
    """

    __slots__ = ("_counter", "_lock", "_held", "label")

    def __init__(self, counter, label: str = "") -> None:
        self._counter = counter
        self._lock = threading.Lock()
        self._held = False
        self.label = label
        counter.inc()
        self._held = True

    @property
    def held(self) -> bool:
        """Whether the token still pins the counter."""
        with self._lock:
            return self._held

    def release(self) -> bool:
        """Decrement the counter if this token still holds it.

        Idempotent and thread-safe; returns ``True`` only for the one
        call that actually released.
        """
        with self._lock:
            if not self._held:
                return False
            self._held = False
        self._counter.dec()
        return True

    def __enter__(self) -> "WorkToken":
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False
