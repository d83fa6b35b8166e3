"""Instrumentation: per-kernel instance counts and timing.

Reproduces the measurements behind tables II and III of the paper: for
every kernel definition, the number of instances dispatched, the mean
*dispatch time* (per-instance overhead the framework adds: dependency
matching, fetch slicing, field allocation/reallocation and store
processing) and the mean *kernel time* (time inside the native block).

The same data feeds the LLS's adaptive granularity policy (a high
dispatch/kernel ratio means the decomposition is too fine — the K-means
``assign`` kernel in table III) and, in the distributed layer, the HLS's
instrumentation-weighted repartitioning.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field as dc_field
from typing import Iterable


@dataclass
class KernelStats:
    """Aggregated measurements for one kernel definition."""

    instances: int = 0
    dispatch_time: float = 0.0  #: total seconds of framework overhead
    kernel_time: float = 0.0  #: total seconds inside the native block
    ipc_time: float = 0.0  #: total seconds of cross-process transfer

    @property
    def mean_dispatch_us(self) -> float:
        """Mean dispatch overhead per instance, microseconds."""
        return 1e6 * self.dispatch_time / self.instances if self.instances else 0.0

    @property
    def mean_kernel_us(self) -> float:
        """Mean native-block time per instance, microseconds."""
        return 1e6 * self.kernel_time / self.instances if self.instances else 0.0

    @property
    def mean_ipc_us(self) -> float:
        """Mean cross-process transfer time per instance, microseconds.

        Zero on the ``threads`` backend, where no IPC happens.
        """
        return 1e6 * self.ipc_time / self.instances if self.instances else 0.0

    @property
    def dispatch_ratio(self) -> float:
        """dispatch / (dispatch + kernel) — the LLS's granularity signal."""
        total = self.dispatch_time + self.kernel_time
        return self.dispatch_time / total if total else 0.0

    def merged(self, other: "KernelStats") -> "KernelStats":
        """Sum of two stats records (cluster-wide merging)."""
        return KernelStats(
            self.instances + other.instances,
            self.dispatch_time + other.dispatch_time,
            self.kernel_time + other.kernel_time,
            self.ipc_time + other.ipc_time,
        )


class Instrumentation:
    """Thread-safe collector of per-kernel stats for one run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: dict[str, KernelStats] = {}
        self.analyzer_time = 0.0  #: seconds under the analysis lock
        self.wall_time = 0.0  #: wall-clock duration of the run
        self._t0: float | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Mark the start of the run (wall-clock origin)."""
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        """Freeze ``wall_time`` at the current clock."""
        if self._t0 is not None:
            self.wall_time = time.perf_counter() - self._t0

    def record(
        self,
        kernel: str,
        dispatch_time: float,
        kernel_time: float,
        ipc_time: float = 0.0,
        n: int = 1,
    ) -> None:
        """Account one dispatch covering ``n`` executed instances (a
        single instance is a batch of one): one lock acquisition, the
        dispatch's total seconds — so per-instance means like
        ``mean_dispatch_us`` stay comparable across batch sizes."""
        with self._lock:
            st = self._stats.get(kernel)
            if st is None:
                st = self._stats[kernel] = KernelStats()
            st.instances += n
            st.dispatch_time += dispatch_time
            st.kernel_time += kernel_time
            st.ipc_time += ipc_time

    def add_analyzer_time(self, seconds: float) -> None:
        """Accumulate time spent analysing events (under the node's
        analysis lock, on whichever thread produced them)."""
        with self._lock:
            self.analyzer_time += seconds

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, KernelStats]:
        """Snapshot of per-kernel stats."""
        with self._lock:
            return {
                k: KernelStats(
                    s.instances, s.dispatch_time, s.kernel_time, s.ipc_time
                )
                for k, s in self._stats.items()
            }

    def __getitem__(self, kernel: str) -> KernelStats:
        with self._lock:
            return self._stats.get(kernel, KernelStats())

    def total_instances(self) -> int:
        """Total instances recorded across all kernels."""
        with self._lock:
            return sum(s.instances for s in self._stats.values())

    def total_kernel_time(self) -> float:
        """Total native-block seconds across all kernels."""
        with self._lock:
            return sum(s.kernel_time for s in self._stats.values())

    def _scalars(self) -> tuple[float, float]:
        """Locked snapshot of the non-per-kernel accumulators."""
        with self._lock:
            return self.analyzer_time, self.wall_time

    def merged(self, other: "Instrumentation") -> "Instrumentation":
        """A new collector holding the sum of both runs.

        Thread-safe against concurrent :meth:`record` /
        :meth:`add_analyzer_time` on either operand: both per-kernel
        stats and the scalar accumulators are read as locked snapshots,
        so a merge taken mid-run is a consistent point-in-time view (the
        result itself is a fresh, unshared collector)."""
        out = Instrumentation()
        mine, theirs = self.stats(), other.stats()
        for k in set(mine) | set(theirs):
            s = mine.get(k, KernelStats()).merged(theirs.get(k, KernelStats()))
            out._stats[k] = s
        a, b = self._scalars(), other._scalars()
        out.analyzer_time = a[0] + b[0]
        out.wall_time = max(a[1], b[1])
        return out

    # ------------------------------------------------------------------
    def table(
        self, order: Iterable[str] | None = None, title: str | None = None
    ) -> str:
        """Render the paper's micro-benchmark table layout::

            Kernel         Instances  Dispatch Time  Kernel Time
            init                   1       69.00 us     18.00 us
        """
        stats = self.stats()
        names = list(order) if order is not None else sorted(stats)
        # The IPC column only appears when a process backend recorded
        # transfer time, so thread-mode tables keep the paper's layout.
        ipc = any(s.ipc_time > 0 for s in stats.values())
        lines = []
        if title:
            lines.append(title)
        header = (
            f"{'Kernel':<16}{'Instances':>12}{'Dispatch Time':>16}"
            f"{'Kernel Time':>16}"
        )
        if ipc:
            header += f"{'IPC Time':>16}"
        lines.append(header)
        for name in names:
            s = stats.get(name, KernelStats())
            row = (
                f"{name:<16}{s.instances:>12}"
                f"{s.mean_dispatch_us:>13.2f} us"
                f"{s.mean_kernel_us:>13.2f} us"
            )
            if ipc:
                row += f"{s.mean_ipc_us:>13.2f} us"
            lines.append(row)
        return "\n".join(lines)

    def as_rows(
        self, order: Iterable[str] | None = None
    ) -> list[tuple[str, int, float, float, float]]:
        """(kernel, instances, mean dispatch µs, mean kernel µs, mean
        IPC µs) rows.  The IPC column is 0.0 on the threads backend;
        consumers that predate it unpack with ``name, n, d, k, *_``."""
        stats = self.stats()
        names = list(order) if order is not None else sorted(stats)
        rows = []
        for n in names:
            s = stats.get(n, KernelStats())
            rows.append(
                (n, s.instances, s.mean_dispatch_us, s.mean_kernel_us,
                 s.mean_ipc_us)
            )
        return rows
