"""Instrumentation: per-kernel instance counts and timing.

Reproduces the measurements behind tables II and III of the paper: for
every kernel definition, the number of instances dispatched, the mean
*dispatch time* (per-instance overhead the framework adds: dependency
matching, fetch slicing, field allocation/reallocation and store
processing) and the mean *kernel time* (time inside the native block).

It is also the one holder of the run's dispatch counters — claims and
their sizes, fetches, stores, stacked instances and fallbacks — counted
under the lock each claim's record already takes, and read by the
node's metrics registry at snapshot time (:meth:`Instrumentation.snapshot`,
DESIGN.md §9).  In the distributed layer the per-kernel times weight the
HLS's repartitioning.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace
from typing import Iterable, Mapping


@dataclass
class KernelStats:
    """Aggregated measurements for one kernel definition."""

    instances: int = 0
    dispatch_time: float = 0.0  #: total seconds of framework overhead
    kernel_time: float = 0.0  #: total seconds inside the native block
    ipc_time: float = 0.0  #: total seconds of cross-process transfer
    claims: int = 0  #: dispatches, one per claim
    fetches: int = 0  #: fetch operations (instances x fetch specs)
    stores: int = 0  #: store regions written
    vectorized: int = 0  #: instances run by a stacked ``batch_body``
    #: claims / shape classes whose stacked call fell back to the
    #: scalar body
    fallbacks: int = 0
    claim_min: int = 0  #: smallest claim, in instances (0: no claim yet)
    claim_max: int = 0  #: largest claim, in instances

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
        """dispatch / (dispatch + kernel): the share of an instance the
        framework costs (high for the K-means ``assign`` kernel of
        table III)."""
        total = self.dispatch_time + self.kernel_time
        return self.dispatch_time / total if total else 0.0

    def merged(self, other: "KernelStats") -> "KernelStats":
        """Sum of two stats records (cluster-wide merging); claim sizes
        keep the smallest and largest of either."""
        out = KernelStats(*(
            getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        ))
        out.claim_min = min(
            (s.claim_min for s in (self, other) if s.claims), default=0
        )
        out.claim_max = max(self.claim_max, other.claim_max)
        return out


class Instrumentation:
    """Thread-safe collector of per-kernel stats for one run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: dict[str, KernelStats] = {}
        self.analyzer_time = 0.0  #: seconds under the analysis lock

    # ------------------------------------------------------------------
    def record(
        self, kernel: str, dispatch_time: float, kernel_time: float,
        ipc_time: float = 0.0, n: int = 1, fetches: int = 0,
        stores: int = 0, vectorized: int = 0, fallbacks: int = 0,
    ) -> None:
        """Account one dispatch — a claim of ``n`` executed instances (a
        single instance is a claim of one) — under one lock acquisition:
        the claim's total seconds, so per-instance means like
        ``mean_dispatch_us`` stay comparable across batch sizes, and its
        fetches, stored regions, stacked instances and fallbacks."""
        with self._lock:
            st = self._stats.get(kernel)
            if st is None:
                st = self._stats[kernel] = KernelStats()
            st.instances += n
            st.dispatch_time += dispatch_time
            st.kernel_time += kernel_time
            st.ipc_time += ipc_time
            st.claims += 1
            st.fetches += fetches
            st.stores += stores
            st.vectorized += vectorized
            st.fallbacks += fallbacks
            if n > st.claim_max:
                st.claim_max = n
            if n < st.claim_min or not st.claim_min:
                st.claim_min = n

    def add_analyzer_time(self, seconds: float) -> None:
        """Accumulate time spent analysing events (under the node's
        analysis lock, on whichever thread produced them)."""
        with self._lock:
            self.analyzer_time += seconds

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, KernelStats]:
        """Snapshot of per-kernel stats."""
        with self._lock:
            return {k: replace(s) for k, s in self._stats.items()}

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

    def merged(self, other: "Instrumentation") -> "Instrumentation":
        """A new collector holding the sum of both runs.

        Thread-safe against concurrent :meth:`record` /
        :meth:`add_analyzer_time` on either operand: per-kernel stats and
        analyzer time are read under each operand's lock, so a merge
        taken mid-run is a consistent point-in-time view (the result
        itself is a fresh, unshared collector)."""
        out = Instrumentation()
        mine, theirs = self.stats(), other.stats()
        for k in set(mine) | set(theirs):
            s = mine.get(k, KernelStats()).merged(theirs.get(k, KernelStats()))
            out._stats[k] = s
        for src in (self, other):
            with src._lock:
                out.analyzer_time += src.analyzer_time
        return out

    def snapshot(self) -> dict[str, dict]:
        """The dispatch counters, summed over kernels, as a typed metrics
        snapshot — what a node's registry reads (DESIGN.md §9).  Claim
        sizes are a histogram of count / sum / min / max, with no
        percentiles."""
        total = KernelStats()
        for s in self.stats().values():
            total = total.merged(s)
        out = {
            name: {"type": "counter", "value": value}
            for name, value in (
                ("instances.executed", total.instances),
                ("fields.fetches", total.fetches),
                ("fields.stores", total.stores),
                ("exec.vectorized_instances", total.vectorized),
                ("exec.vectorize_fallbacks", total.fallbacks),
                ("exec.claims", total.claims),
            )
        }
        out["exec.claim_size"] = dict(
            type="histogram", count=total.claims, sum=total.instances,
            min=total.claim_min, max=total.claim_max,
            mean=total.instances / total.claims if total.claims else 0.0,
        )
        return out

    # ------------------------------------------------------------------
    def table(
        self, order: Iterable[str] | None = None, title: str | None = None,
        paper: Mapping[str, tuple[int, float, float]] | None = None,
    ) -> str:
        """Render the paper's micro-benchmark table layout::

            Kernel         Instances  Dispatch Time  Kernel Time
            init                   1       69.00 us     18.00 us

        ``paper`` (kernel -> published instances, dispatch µs, kernel
        µs) adds the paper's row beside each measured one.
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
        if paper is not None:
            header += (
                f"  |{'Paper Instances':>16}{'Dispatch Time':>16}"
                f"{'Kernel Time':>16}"
            )
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
            if paper is not None:
                pn, pd, pk = paper.get(name, (0, 0.0, 0.0))
                row += f"  |{pn:>16}{pd:>13.2f} us{pk:>13.2f} us"
            lines.append(row)
        return "\n".join(lines)
