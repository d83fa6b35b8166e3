"""Timers and deadline expressions (paper, section V-B).

The kernel language lets a program declare a global ``timer t1;`` which
kernel bodies can poll (``t1 + 100ms`` has it expired?) and update
(``t1 = now``).  A deadline miss typically steers the kernel down an
alternate code path that stores to a *different* field, creating new
dependencies and behaviour — e.g. an encoder that skips a frame whose
playback deadline has passed.

The clock is injectable so the discrete-event simulator and the tests
can drive timers deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

ClockFn = Callable[[], float]


class Timer:
    """A global, resettable program timer.

    All expressions are phrased in milliseconds to match the kernel
    language (``t1 + 100ms``).
    """

    def __init__(self, name: str, clock: ClockFn | None = None) -> None:
        self.name = name
        self._clock: ClockFn = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._mark = self._clock()
        #: Deadline checks that observed expiry (each ``expired`` poll
        #: returning True counts one miss — a kernel that keeps polling
        #: a blown deadline keeps steering down its fallback branch, and
        #: the count reflects every such steering decision).
        self.misses = 0

    def now(self) -> float:
        """Current clock value in seconds (whatever the clock defines)."""
        return self._clock()

    def reset(self, at: float | None = None) -> None:
        """``t1 = now`` — restart the timer (from ``at``, an earlier
        :meth:`now` reading, when given)."""
        with self._lock:
            self._mark = self._clock() if at is None else at

    def elapsed_ms(self) -> float:
        """Milliseconds since the last reset."""
        with self._lock:
            return (self._clock() - self._mark) * 1000.0

    def expired(self, deadline_ms: float) -> bool:
        """``t1 + <deadline_ms>`` — True when the deadline has passed."""
        missed = self.elapsed_ms() > deadline_ms
        if missed:
            with self._lock:
                self.misses += 1
        return missed

    def remaining_ms(self, deadline_ms: float) -> float:
        """Milliseconds until the deadline (negative when missed)."""
        return deadline_ms - self.elapsed_ms()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timer({self.name!r}, elapsed={self.elapsed_ms():.1f}ms)"


class TimerSet:
    """The program's timers by name, built from ``Program.timers``."""

    def __init__(
        self, names: tuple[str, ...] = (), clock: ClockFn | None = None
    ) -> None:
        self._clock = clock
        self._timers = {n: Timer(n, clock) for n in names}

    def __getitem__(self, name: str) -> Timer:
        return self._timers[name]

    def __contains__(self, name: str) -> bool:
        return name in self._timers

    def as_mapping(self) -> dict[str, Timer]:
        """Timers by name (the mapping handed to kernel contexts)."""
        return dict(self._timers)

    def reset_all(self) -> None:
        """Restart every timer (``t = now`` across the program)."""
        for t in self._timers.values():
            t.reset()

    def total_misses(self) -> int:
        """Deadline misses observed across every timer."""
        return sum(t.misses for t in self._timers.values())
