"""Metrics registry: counters, gauges and histograms with snapshots.

Where :mod:`repro.obs.tracing` keeps the timeline, this module keeps the
*state* a scheduler (the paper's LLS/HLS) or an operator would poll:
ready-queue depth and wait time, live field bytes, transport traffic,
deadline misses and recovery counts.  Most of it is not stored here:
each layer holds its own facts and the registry reads those *holders*
when it takes a snapshot (:meth:`MetricsRegistry.add_holder`, DESIGN.md
§9).  Three metric kinds:

* :class:`Counter` — monotonically increasing total;
* :class:`Gauge` — last-set value (with a ``set_max`` variant so
  several nodes reporting the same shared resource don't regress it);
* :class:`Histogram` — count/sum/min/max of observations (mean derived)
  plus a configurable quantile set (p50/p90/p99/p999 by default)
  estimated from a bounded, deterministically decimated sample buffer
  (the streaming runtime's latency accounting).

A snapshot is a plain ``{name: {"type": ..., ...}}`` dict: JSON-ready,
and the module-level :func:`delta`, :func:`merge`, :func:`flatten` and
:func:`render` give it the algebra the CLI and the cluster need —
deltas for rate windows, merges for cluster-wide aggregation, a flat
``name -> number`` view for machine consumers and a human table for
``--metrics``.
"""

from __future__ import annotations

import json
import math
import re
import sys
import threading
from typing import Callable, Mapping, Sequence

__all__ = [
    "Counter",
    "DEFAULT_QUANTILES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "delta",
    "flatten",
    "merge",
    "peak_rss_bytes",
    "percentile_keys",
    "quantile_key",
    "quantile_of_key",
    "render",
]

#: Quantiles every histogram reports by default (per-cent values).
DEFAULT_QUANTILES: tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)

#: Snapshot keys shaped like percentile estimates ("p50", "p999", ...).
_PERCENTILE_KEY_RE = re.compile(r"^p\d+$")


def quantile_key(q: float) -> str:
    """Snapshot key for quantile ``q``: 50 -> ``p50``, 99.9 -> ``p999``."""
    return "p" + f"{q:g}".replace(".", "")


def quantile_of_key(key: str) -> float:
    """Inverse of :func:`quantile_key` (``p999`` -> 99.9).  Digits past
    the integer part are decimals: a quantile is at most 100."""
    value = float(key[1:])
    while value > 100.0:
        value /= 10.0
    return value


def percentile_keys(snapshot_entry: Mapping[str, object]) -> list[str]:
    """The percentile keys present in one histogram snapshot entry,
    ordered by quantile (empty for pre-percentile snapshots)."""
    keys = [k for k in snapshot_entry if _PERCENTILE_KEY_RE.match(k)]
    return sorted(keys, key=quantile_of_key)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0) to the total."""
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if higher (used when several
        nodes report the same shared resource)."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Count/sum/min/max summary of a stream of observations, plus
    percentile estimates.

    Percentiles come from a bounded sample buffer decimated
    *deterministically*: every ``stride``-th observation is kept, and
    whenever the buffer fills the stride doubles and every other kept
    sample is dropped.  No randomness — two runs observing the same
    sequence report identical percentiles (the streaming QoS tests rely
    on this) — and memory stays O(:data:`_SAMPLE_CAP`) on unbounded
    runs.
    """

    __slots__ = (
        "_lock", "count", "total", "vmin", "vmax",
        "_samples", "_stride", "quantiles",
    )

    #: Sample-buffer bound; decimation keeps at most this many values.
    _SAMPLE_CAP = 4096

    def __init__(
        self,
        quantiles: Sequence[float] | None = None,
        lock: "threading.Lock | None" = None,
    ) -> None:
        #: A holder's own lock, when it records with :meth:`add`.
        self._lock = lock if lock is not None else threading.Lock()
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self._samples: list[float] = []
        self._stride = 1
        self.quantiles: tuple[float, ...] = tuple(
            DEFAULT_QUANTILES if quantiles is None else quantiles
        )

    def observe(self, value: float) -> None:
        with self._lock:
            self.add(value)

    def add(self, value: float) -> None:
        """:meth:`observe` for a caller that already holds the
        histogram's lock."""
        if self.count % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) >= self._SAMPLE_CAP:
                self._samples = self._samples[::2]
                self._stride *= 2
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile estimate over the retained samples
        (``q`` in 0–100; 0.0 with no observations)."""
        with self._lock:
            samples = list(self._samples)
        if not samples:
            return 0.0
        ordered = sorted(samples)
        rank = math.ceil(q / 100.0 * len(ordered))
        return ordered[min(len(ordered) - 1, max(0, rank - 1))]

    def snapshot(self) -> dict:
        with self._lock:
            if not self.count:
                out = {
                    "type": "histogram", "count": 0, "sum": 0.0,
                    "min": 0.0, "max": 0.0, "mean": 0.0,
                }
                for q in self.quantiles:
                    out[quantile_key(q)] = 0.0
                return out
            out = {
                "type": "histogram",
                "count": self.count,
                "sum": self.total,
                "min": self.vmin,
                "max": self.vmax,
                "mean": self.total / self.count,
            }
        for q in self.quantiles:
            out[quantile_key(q)] = self.percentile(q)
        return out


class MetricsRegistry:
    """Thread-safe name -> metric registry with get-or-create access,
    and the holders it reads.

    A fact a layer already keeps (dispatch counters, ready-queue and
    transport totals, frame counts) is not copied here: its holder is
    registered with :meth:`add_holder`, and :meth:`snapshot` merges the
    holders' typed snapshots with the registry's own metrics — the facts
    nothing else holds — through :func:`merge`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._holders: list[Callable[[], Mapping[str, dict]]] = []

    def _get(self, name: str, cls):
        with self._lock:
            m = self._metrics.get(name)
            if m is None:
                m = cls()
                self._metrics[name] = m
            elif not isinstance(m, cls):
                raise TypeError(
                    f"metric {name!r} is {type(m).__name__}, "
                    f"not {cls.__name__}"
                )
            return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  quantiles: Sequence[float] | None = None) -> Histogram:
        """Get-or-create a histogram.  ``quantiles`` configures the
        reported percentile set at creation time (an existing
        histogram's set is left alone so concurrent callers agree)."""
        with self._lock:
            m = self._metrics.get(name)
            if m is None:
                m = Histogram(quantiles)
                self._metrics[name] = m
            elif not isinstance(m, Histogram):
                raise TypeError(
                    f"metric {name!r} is {type(m).__name__}, "
                    f"not Histogram"
                )
            return m

    def add_holder(self, snapshot: Callable[[], Mapping[str, dict]]) -> None:
        """Read ``snapshot()`` — a holder's facts, typed as
        ``{name: {"type": ...}}`` — into every :meth:`snapshot`."""
        with self._lock:
            self._holders.append(snapshot)

    def snapshot(self) -> dict[str, dict]:
        """Typed snapshot of every metric and every holder, read now.
        A holder that raises contributes nothing to this snapshot."""
        with self._lock:
            metrics = dict(self._metrics)
            holders = list(self._holders)
        snaps = [{name: m.snapshot() for name, m in metrics.items()}]
        for holder in holders:
            try:
                snaps.append(holder())
            except Exception:  # noqa: BLE001 - snapshots must not fail
                continue
        return merge(*snaps)

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# Snapshot algebra
# ----------------------------------------------------------------------
def delta(new: Mapping[str, dict], old: Mapping[str, dict]) -> dict:
    """``new - old`` for rate windows: counters and histogram
    count/sum subtract; gauges and histogram min/max keep ``new``'s
    values.  Names only in ``new`` pass through unchanged."""
    out: dict[str, dict] = {}
    for name, s in new.items():
        prev = old.get(name)
        if prev is None or prev.get("type") != s.get("type"):
            out[name] = dict(s)
            continue
        if s["type"] == "counter":
            out[name] = {"type": "counter",
                         "value": s["value"] - prev["value"]}
        elif s["type"] == "histogram":
            count = s["count"] - prev["count"]
            total = s["sum"] - prev["sum"]
            out[name] = {
                "type": "histogram",
                "count": count,
                "sum": total,
                "min": s["min"],
                "max": s["max"],
                "mean": total / count if count else 0.0,
            }
            # Percentiles are not subtractable; the window keeps the
            # new snapshot's estimates (absent in pre-percentile
            # snapshots, so pass through whatever set is present).
            for key in percentile_keys(s):
                out[name][key] = s[key]
        else:
            out[name] = dict(s)
    return out


def merge(*snapshots: Mapping[str, dict]) -> dict:
    """Combine snapshots from several nodes: counters and histogram
    count/sum add, histogram min/max widen, gauges take the max (nodes
    reporting a shared resource must not double-count it)."""
    out: dict[str, dict] = {}
    for snap in snapshots:
        for name, s in snap.items():
            cur = out.get(name)
            if cur is None or cur.get("type") != s.get("type"):
                out[name] = dict(s)
                continue
            if s["type"] == "counter":
                cur["value"] += s["value"]
            elif s["type"] == "gauge":
                cur["value"] = max(cur["value"], s["value"])
            elif s["type"] == "histogram":
                if not s["count"]:
                    continue  # an empty summary's zeros are no bounds
                if not cur["count"]:
                    out[name] = dict(s)
                    continue
                count = cur["count"] + s["count"]
                total = cur["sum"] + s["sum"]
                cur.update(
                    count=count,
                    sum=total,
                    min=min(cur["min"], s["min"]),
                    max=max(cur["max"], s["max"]),
                    mean=total / count,
                )
                # Exact percentiles cannot be merged from summaries;
                # take the widest (max) estimate as a conservative
                # upper bound across nodes.  Quantile sets may differ
                # between nodes (old snapshots report fewer keys).
                for key in percentile_keys(s):
                    if key in cur:
                        cur[key] = max(cur[key], s[key])
                    else:
                        cur[key] = s[key]
    return dict(sorted(out.items()))


def flatten(snapshot: Mapping[str, dict]) -> dict[str, float]:
    """Flat ``name -> number`` view: histograms expand to
    ``name.count/.sum/.min/.max/.mean`` entries."""
    out: dict[str, float] = {}
    for name, s in snapshot.items():
        if s["type"] == "histogram":
            keys = ["count", "sum", "min", "max", "mean"]
            keys += percentile_keys(s)  # absent pre-percentile
            for key in keys:
                if key in s:
                    out[f"{name}.{key}"] = s[key]
        else:
            out[name] = s["value"]
    return dict(sorted(out.items()))


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process plus its reaped children,
    in bytes (0 where the ``resource`` module is unavailable).

    The children term covers a process-backend run's worker pool once
    the workers have been joined — sample after shutdown (a node's
    registry reads it at snapshot time, which is late enough).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    scale = 1 if sys.platform == "darwin" else 1024
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int((own + kids) * scale)


def render(snapshot: Mapping[str, dict], title: str | None = None) -> str:
    """Human-readable two-column table of a snapshot."""
    flat = flatten(snapshot)
    width = max((len(n) for n in flat), default=10)
    lines = [title] if title else []
    lines.append(f"{'metric':<{width}}  value")
    for name, value in flat.items():
        if isinstance(value, float) and not value.is_integer():
            text = f"{value:.6g}"
        else:
            text = f"{int(value)}"
        lines.append(f"{name:<{width}}  {text}")
    return "\n".join(lines)
