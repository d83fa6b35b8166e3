"""Observability: tracing, metrics, telemetry and the flight recorder.

The measurement substrate the ROADMAP's performance work rests on.  It
imports nothing from :mod:`repro.core` or :mod:`repro.dist`, which both
build on it:

* :mod:`repro.obs.tracing` — per-instance lifecycle spans and runtime
  events as Chrome trace-event JSON (``--trace out.json``, Perfetto);
* :mod:`repro.obs.metrics` — counters, gauges, histograms and the
  registry that reads each layer's holder at snapshot time, with
  delta/merge algebra (``--metrics`` / ``--metrics-json``);
* :mod:`repro.obs.timeline` — per-frame stage spans and their
  critical-path latency partition;
* :mod:`repro.obs.slo` — per-session error-budget burn and alerts;
* :mod:`repro.obs.telemetry` — the live exporter (JSONL, Prometheus
  endpoint) and the :class:`Telemetry` bundle a run is wired with;
* :mod:`repro.obs.flight` — a bounded ring of recent events dumped
  when a run dies, next to the chaos repro artifact.
"""

from .flight import FLIGHT_DIR_ENV, dump_flight, flight_dir
from .metrics import (
    DEFAULT_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    delta,
    flatten,
    merge,
    peak_rss_bytes,
    percentile_keys,
    quantile_key,
    quantile_of_key,
    render,
)
from .slo import SloAlert, SloTracker
from .telemetry import (
    Telemetry,
    TelemetryConfig,
    TelemetryExporter,
    render_prometheus,
    validate_prometheus_text,
)
from .timeline import (
    BUCKETS,
    TimelineRecorder,
    attribute_spans,
    stage_summary,
)
from .tracing import (
    NULL_TRACER,
    TraceSchemaError,
    Tracer,
    validate_chrome_trace,
)

__all__ = [
    "BUCKETS",
    "Counter",
    "DEFAULT_QUANTILES",
    "FLIGHT_DIR_ENV",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "SloAlert",
    "SloTracker",
    "Telemetry",
    "TelemetryConfig",
    "TelemetryExporter",
    "TimelineRecorder",
    "TraceSchemaError",
    "Tracer",
    "attribute_spans",
    "delta",
    "dump_flight",
    "flatten",
    "flight_dir",
    "merge",
    "peak_rss_bytes",
    "percentile_keys",
    "quantile_key",
    "quantile_of_key",
    "render",
    "render_prometheus",
    "stage_summary",
    "validate_chrome_trace",
    "validate_prometheus_text",
]
