"""Live telemetry: periodic metric snapshots, JSONL / Prometheus
export, an optional scrape endpoint, and the SLO alert wiring.

The run-report path (``--metrics-json``) only speaks after the run is
over; production serving needs signals *while the run is alive*.  A
:class:`TelemetryExporter` samples the run's
:class:`~repro.obs.metrics.MetricsRegistry` — which reads every layer's
holder at that moment, so each tick is live — on a fixed interval and
keeps a bounded time-series ring.  Each tick can also append a JSONL
line, and an embedded stdlib HTTP server (``--telemetry-port``)
exposes:

* ``/metrics`` — Prometheus text exposition (counters and gauges map
  directly; histograms export as summaries with quantile labels);
* ``/snapshot.json`` — the latest snapshot, raw;
* one JSON page per registered :meth:`TelemetryExporter.page`
  (the stream wiring adds ``/slo.json`` and ``/stages.json``).

:class:`Telemetry` is the bundle the runtime wires through
``run_program`` / ``Cluster.run``: a
:class:`~repro.obs.timeline.TimelineRecorder`, an
:class:`~repro.obs.slo.SloTracker` whose default alert action logs,
drops a tracer instant and dumps a session-annotated flight
recording, and the exporter.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Mapping

from .flight import dump_flight
from .metrics import MetricsRegistry, flatten, percentile_keys, quantile_of_key
from .slo import SloAlert, SloTracker
from .timeline import TimelineRecorder

__all__ = [
    "Telemetry",
    "TelemetryConfig",
    "TelemetryExporter",
    "render_prometheus",
    "validate_prometheus_text",
]


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""  # first label
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"  # more labels
    r" [-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[Nn]a[Nn]|[-+]?[Ii]nf)$"
)


def _prom_name(name: str, prefix: str = "p2g") -> str:
    """A metric name valid under the Prometheus data model: dots and
    other separators become underscores, with a namespace prefix."""
    clean = _NAME_BAD.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return f"{prefix}_{clean}" if prefix else clean


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: Mapping[str, dict],
                      prefix: str = "p2g") -> str:
    """Render a metrics snapshot as Prometheus text exposition
    (version 0.0.4).  Counters and gauges map one-to-one; histograms
    become summaries — one ``{quantile="0.x"}`` sample per reported
    percentile plus ``_sum`` and ``_count`` series."""
    lines: list[str] = []
    for name in sorted(snapshot):
        s = snapshot[name]
        kind = s.get("type")
        pname = _prom_name(name, prefix)
        if kind == "counter":
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {_prom_value(s['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_prom_value(s['value'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {pname} summary")
            for key in percentile_keys(s):
                q = quantile_of_key(key) / 100.0
                lines.append(
                    f'{pname}{{quantile="{q:g}"}} {_prom_value(s[key])}'
                )
            lines.append(f"{pname}_sum {_prom_value(s['sum'])}")
            lines.append(f"{pname}_count {_prom_value(s['count'])}")
    return "\n".join(lines) + "\n"


def validate_prometheus_text(text: str) -> int:
    """Validate Prometheus text exposition; returns the number of
    sample lines.  Raises :class:`ValueError` on a malformed line or a
    sample whose family was never ``# TYPE``-declared."""
    samples = 0
    families: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 3 and parts[1] in ("TYPE", "HELP"):
                families.add(parts[2])
                continue
            raise ValueError(f"line {lineno}: malformed comment {line!r}")
        if not _METRIC_LINE.match(line):
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        base = re.sub(r"_(sum|count)$", "", name)
        if name not in families and base not in families:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no TYPE declaration"
            )
        samples += 1
    return samples


# ----------------------------------------------------------------------
# Exporter
# ----------------------------------------------------------------------
class _ScrapeHandler(BaseHTTPRequestHandler):
    exporter: "TelemetryExporter"  # set on the subclass per server

    def log_message(self, *_args) -> None:  # silence request logging
        pass

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        exp = self.exporter
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            body = exp.prometheus_text().encode()
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/snapshot.json":
            body = json.dumps(exp.latest() or {}).encode()
            ctype = "application/json"
        else:
            fn = exp._pages.get(path.strip("/"))
            if fn is None:
                self.send_response(404)
                self.end_headers()
                return
            try:
                body = json.dumps(fn()).encode()
            except Exception:  # noqa: BLE001 - scrape must not crash
                body = b"{}"
            ctype = "application/json"
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class TelemetryExporter:
    """Samples the run's metrics registry on an interval into a bounded
    ring, with optional JSONL append and an HTTP scrape endpoint.

    :attr:`registry` is bound by the run's lifecycle (its nodes share
    one); until then a tick samples an empty snapshot.  A holder that
    raises contributes nothing to that tick
    (:meth:`MetricsRegistry.snapshot`), so a dying node cannot kill
    telemetry.
    """

    def __init__(
        self,
        *,
        interval_s: float = 0.5,
        ring: int = 256,
        jsonl_path: "str | Path | None" = None,
        port: int | None = None,
    ) -> None:
        self.interval_s = max(0.05, float(interval_s))
        #: The registry each tick samples.
        self.registry: MetricsRegistry | None = None
        self._pages: dict[str, Callable[[], object]] = {}
        self._ring: deque = deque(maxlen=max(1, ring))
        self._jsonl_path = Path(jsonl_path) if jsonl_path else None
        self._jsonl_fh = None
        self._port = port
        self.http_port: int | None = None
        self._server: ThreadingHTTPServer | None = None
        self._server_thread: threading.Thread | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self.ticks = 0

    # -- wiring ---------------------------------------------------------
    def page(self, name: str, fn: Callable[[], object]) -> None:
        """Register a JSON page served at ``/<name>.json`` (and
        ``/<name>``)."""
        with self._lock:
            self._pages[name.removesuffix(".json")] = fn
            self._pages[f"{name.removesuffix('.json')}.json"] = fn

    # -- sampling -------------------------------------------------------
    def sample(self) -> dict:
        """Take one sample now (also called by the timer thread).
        Returns the snapshot."""
        registry = self.registry
        snap = registry.snapshot() if registry is not None else {}
        entry = {"t": time.time(), "metrics": snap}
        with self._lock:
            self._ring.append(entry)
            self.ticks += 1
            fh = self._jsonl_fh
            if fh is not None:
                line = json.dumps(
                    {"t": entry["t"], "metrics": flatten(snap)}
                )
                fh.write(line + "\n")
                fh.flush()
        return snap

    def latest(self) -> dict | None:
        with self._lock:
            return self._ring[-1]["metrics"] if self._ring else None

    def snapshots(self) -> list[dict]:
        with self._lock:
            return list(self._ring)

    def prometheus_text(self) -> str:
        snap = self.sample()
        return render_prometheus(snap)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        if self._jsonl_path is not None:
            self._jsonl_fh = self._jsonl_path.open("w")
        if self._port is not None:
            handler = type("Handler", (_ScrapeHandler,),
                           {"exporter": self})
            self._server = ThreadingHTTPServer(
                ("127.0.0.1", self._port), handler
            )
            self.http_port = self._server.server_address[1]
            self._server_thread = threading.Thread(
                target=self._server.serve_forever,
                name="telemetry-http", daemon=True,
            )
            self._server_thread.start()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="telemetry-sampler", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def stop(self) -> None:
        if self._thread is None and self._server is None:
            return
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.sample()  # final tick so short runs record something
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            if self._server_thread is not None:
                self._server_thread.join(timeout=5.0)
            self._server = None
            self._server_thread = None
        with self._lock:
            if self._jsonl_fh is not None:
                self._jsonl_fh.close()
                self._jsonl_fh = None


# ----------------------------------------------------------------------
# The bundle the runtime wires through
# ----------------------------------------------------------------------
@dataclass
class TelemetryConfig:
    """Knobs for one run's telemetry layer."""

    interval_s: float = 0.5      #: exporter sampling period
    ring: int = 256              #: snapshot ring capacity
    port: int | None = None      #: HTTP scrape port (0 = ephemeral)
    jsonl_path: str | None = None  #: append one JSON line per tick
    slo_burn_alert: float = 2.0  #: burn-rate alert threshold
    slo_min_frames: int = 10     #: samples required before alerting
    slo_cooldown_s: float = 5.0  #: per-session alert rate limit


class Telemetry:
    """Timeline + SLO tracker + exporter, wired together.

    Constructed once per run (``run_program(..., telemetry=...)`` /
    ``Cluster.run(..., telemetry=...)`` / ``SessionManager``), it owns
    the pieces the layers share: the frame :attr:`timeline` (attached
    as the frame sink of the run's tracer), the
    :attr:`slo` tracker whose default alert action logs the breach,
    drops a ``slo-breach`` tracer instant and dumps a flight recording
    annotated with the offending session, and the :attr:`exporter`.
    Telemetry off is no bundle (``telemetry=None``), not a disabled one.
    """

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        self.timeline = TimelineRecorder()
        self.slo = SloTracker(
            burn_alert=self.config.slo_burn_alert,
            min_frames=self.config.slo_min_frames,
            cooldown_s=self.config.slo_cooldown_s,
        )
        self.exporter = TelemetryExporter(
            interval_s=self.config.interval_s,
            ring=self.config.ring,
            jsonl_path=self.config.jsonl_path,
            port=self.config.port,
        )
        self.flight_paths: list[Path] = []
        self._tracer = None
        self._started = False
        self.slo.on_alert(self._default_alert)
        self.exporter.page("slo", self.slo.as_dict)
        self.exporter.page("stages", self.timeline.as_dict)

    # -- alert plumbing -------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Give the default alert action a tracer to annotate (the run
        wiring calls this with the run's tracer)."""
        self._tracer = tracer

    def _default_alert(self, alert: SloAlert) -> None:
        label = alert.session or "stream"
        print(
            f"[slo] {label} ({alert.tier}): error budget burning "
            f"{alert.burn_rate:.1f}x too fast "
            f"({alert.window_misses}/{alert.window_frames} misses in "
            f"window, deadline {alert.deadline_ms:g}ms)",
            file=sys.stderr,
        )
        tracer = self._tracer
        if tracer is None or tracer.mode == "off":
            return
        tracer.instant(
            "slo-breach", "slo", "stream", label, args=alert.as_dict()
        )
        path = dump_flight(
            tracer,
            reason="slo-breach",
            context={
                "session": alert.session,
                "tier": alert.tier,
                "burn_rate": round(alert.burn_rate, 3),
                "deadline_ms": alert.deadline_ms,
            },
        )
        if path is not None:
            self.flight_paths.append(path)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if not self._started:
            self._started = True
            self.exporter.start()

    def stop(self) -> None:
        if self._started:
            self._started = False
            self.exporter.stop()

    # -- reporting ------------------------------------------------------
    def as_dict(self) -> dict:
        out = self.slo.as_dict()
        out["timeline"] = self.timeline.as_dict()
        out["snapshots"] = len(self.exporter.snapshots())
        if self.exporter.http_port is not None:
            out["http_port"] = self.exporter.http_port
        if self.flight_paths:
            out["flight_paths"] = [str(p) for p in self.flight_paths]
        return out
