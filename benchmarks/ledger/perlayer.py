"""The traced invocation: per-layer metrics, tables II/III, waterfall.

``--trace 1`` spends the run on three things, in this order: the
micro-loops of :mod:`layers`; the workload once untraced and once
traced, each for a third of ``--seconds`` (their difference is the
tracing overhead; the end-to-end numbers of both are discarded); and,
on ``mjpeg_live_paced`` only, once more with the system's own telemetry
on and no harness wrapper, which prices telemetry by itself.

Layer numbers come from three places, all outside ``src/``: the public
result objects a run returns anyway (``RunResult.instrumentation`` and
``.metrics``, ``StreamReport``), the spans of :class:`spans.Recorder`
around each layer's public methods, and the micro-loops.  A metric that
has no meaning on a workload (IPC on a thread backend, stream stages of
a batch job) reads 0 there.
"""

from __future__ import annotations

import statistics
from functools import reduce
from pathlib import Path

import numpy as np

import layers
from spans import WAIT_SPANS, Recorder
from workloads import WORKERS, Outcome, Workload, measure

STAGES = ("gate", "queue", "compute", "ipc", "transport", "store")

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _overhead_pct(w: Workload, base: Outcome, other: Outcome) -> float:
    """How much worse ``other``'s primary metric is than ``base``'s."""
    a, b = base.primary(w.primary), other.primary(w.primary)
    return 100.0 * (_ratio(a, b) - 1.0 if w.primary == "fps"
                    else _ratio(b, a) - 1.0)


def _metric_sum(snaps, name: str, key: str = "value") -> float:
    return float(sum(s.get(name, {}).get(key, 0) for s in snaps))


def _stage_means(reports: dict) -> dict[str, float]:
    """Per-stage mean ms per frame over all sessions (the stages
    partition each frame's window, so these sum to the mean latency)."""
    out = {}
    for bucket in STAGES + ("other",):
        snaps = [
            rep.stages[bucket] for rep in reports.values()
            if bucket in rep.stages
        ]
        out[bucket] = _ratio(
            sum(s["mean"] * s["count"] for s in snaps),
            sum(s["count"] for s in snaps),
        )
    return out


def assemble(w: Workload, micro: dict, base: Outcome, tr: Outcome,
             tel: Outcome | None, rec: Recorder):
    """Every per-layer metric of ``BENCHMARK.json`` for the traced run
    ``tr``, by name."""
    spans = rec.aggregate()
    counts = rec.counts()
    inst = reduce(
        lambda a, b: a.merged(b), (r.instrumentation for r in tr.results)
    )
    stats = inst.stats()
    instances = sum(s.instances for s in stats.values())
    dispatch = sum(s.dispatch_time for s in stats.values())
    kernel = sum(s.kernel_time for s in stats.values())
    ipc = sum(s.ipc_time for s in stats.values())
    wall = sum(r.wall_time for r in tr.results)
    snaps = [r.metrics.snapshot() for r in tr.results]
    units = tr.cpu_units

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    def span_mean_ms(name: str) -> float:
        return 1e3 * _ratio(span(name, "total_s"), span(name, "count"))

    m = dict(micro)
    m["core.analyzer.busy_s"] = inst.analyzer_time
    m["core.analyzer.utilisation"] = _ratio(inst.analyzer_time, wall)
    m["core.analyzer.events"] = counts["analyzer.events"]
    m["core.analyzer.useful_event_ratio"] = _ratio(
        counts["analyzer.useful"], counts["analyzer.events"]
    )
    m["core.runtime.dispatch_us_per_inst"] = 1e6 * _ratio(dispatch, instances)
    m["core.runtime.dispatch_ratio"] = _ratio(dispatch, dispatch + kernel)
    m["core.runtime.ready_depth_max"] = max(
        r.ready_high_water for r in tr.results
    )
    m["core.runtime.mean_batch_size"] = _ratio(
        instances, _metric_sum(snaps, "ready.wait_s", "count")
    )
    # ``ready.wait_s`` observes one value per pop: under batched
    # dispatch that is the sum over the batch's members, so the median
    # is brought back to one instance by the mean batch size.
    m["core.runtime.ready_wait_ms_p50"] = 1e3 * _ratio(
        statistics.median(
            s.get("ready.wait_s", {}).get("p50", 0.0) for s in snaps
        ),
        m["core.runtime.mean_batch_size"],
    )
    m["core.runtime.instances_per_s"] = _ratio(instances, wall)
    m["core.runtime.teardown_s"] = tr.teardown_s
    m["core.runtime.overhead_x"] = _ratio(
        _ratio(wall, units), tr.ref_s_per_unit
    )
    m["core.fields.stores"] = _metric_sum(snaps, "fields.stores")
    m["core.fields.fetches"] = _metric_sum(snaps, "fields.fetches")
    m["core.fields.busy_s"] = sum(
        span(f"core.fields.{op}", "total_s")
        for op in ("store", "fetch", "mark_written_many")
    )
    live = bool(tr.reports)
    m["core.fields.peak_live_bytes"] = max(
        [rep.peak_live_bytes for rep in tr.reports.values()]
        if live else
        [s.get("fields.bytes_live", {}).get("value", 0) for s in snaps]
    )
    m["core.fields.freed_bytes"] = sum(
        [rep.freed_bytes for rep in tr.reports.values()]
        if live else [r.gc_bytes for r in tr.results]
    )
    m["core.backends.ipc_us_per_inst"] = 1e6 * _ratio(ipc, instances)
    m["core.backends.ipc_share"] = _ratio(ipc, WORKERS * wall)
    m["core.backends.failed"] = sum(
        counts[f"core.backends.{op}.raised"]
        for op in ("execute", "execute_batch")
    )
    m["core.vectorize.fallbacks"] = counts["vectorize.fallbacks"]
    m["core.vectorize.vectorized_share"] = _ratio(
        counts["instances.batch_body"]
        - counts["vectorize.fallback_instances"],
        instances,
    )
    m["media.kernel_us_per_inst"] = 1e6 * _ratio(kernel, instances)
    m["stream.gate.blocked_s"] = sum(
        rep.blocked_s for rep in tr.reports.values()
    )
    m["stream.driver.store_frame_ms"] = span_mean_ms(
        "stream.driver.store_frame"
    )
    # How late the pacing thread reached the gate against the schedule:
    # the health of the load generator, not of the pipeline.
    late = [
        1e3 * (t - tr.due[key])
        for key, t in rec.starts("stream.gate.admit").items()
        if key in tr.due
    ] if w.paced else []
    m["stream.driver.lateness_ms_p90"] = (
        float(np.percentile(late, 90)) if late else 0.0
    )
    m["stream.retire.sweep_ms"] = span_mean_ms("stream.retire.sweep")
    m["stream.qos.shed"] = sum(rep.shed for rep in tr.reports.values())
    m["stream.qos.degraded"] = sum(
        rep.degraded for rep in tr.reports.values()
    )
    p50s = [
        statistics.median(v) for v in tr.by_session_ms.values() if v
    ]
    m["stream.multitenant.fairness"] = (
        _ratio(min(p50s), max(p50s)) if p50s else 0.0
    )
    gold = [
        x for name, rep in tr.reports.items()
        if rep.qos_class == "gold" for x in tr.by_session_ms.get(name, ())
    ]
    m["stream.multitenant.gold_p90_ms"] = (
        float(np.percentile(gold, 90)) if gold else 0.0
    )
    stages = _stage_means(tr.reports)
    for bucket in STAGES:
        m[f"stream.stage.{bucket}_ms"] = stages[bucket]
    ops = w.kind == "transcode"
    m["ops.instances_per_frame"] = _ratio(instances, units) if ops else 0.0
    m["ops.intermediate_peak_bytes"] = (
        m["core.fields.peak_live_bytes"] if ops else 0.0
    )
    m["obs.trace_overhead_pct"] = _overhead_pct(w, base, tr)
    m["obs.telemetry_overhead_pct"] = (
        _overhead_pct(w, base, tel) if tel is not None else 0.0
    )
    return m, inst, spans, stages


def waterfall(w: Workload, tr: Outcome, spans: dict, stages: dict) -> str:
    """Where a live frame's wall time goes.

    The first block is the system's own critical-path attribution (a
    ``telemetry=True`` run): it partitions each frame's window, so its
    rows add up to the measured latency.  The second block is harness
    span self time per frame; those run concurrently with the first
    block's stages (the analyzer has its own thread), so they are shown
    beside it, not added to it.
    """
    frames = len(tr.all_ms)
    mean_ms = statistics.fmean(tr.all_ms)
    lines = [f"-- per-frame waterfall ({w.name}, {frames} frames) --",
             f"{'stage':<34}{'us/frame':>12}{'% of wall':>11}"]
    for label, bucket in (
        ("gate (pacing slip + credit wait)", "gate"),
        ("ready queue", "queue"),
        ("dispatch/IPC", "ipc"),
        ("kernel", "compute"),
        ("source + fetch/store commit", "store"),
        ("transport", "transport"),
        ("unattributed", "other"),
    ):
        ms = stages[bucket]
        lines.append(
            f"{label:<34}{1e3 * ms:>12.1f}{100 * _ratio(ms, mean_ms):>10.1f}%"
        )
    total = sum(stages.values())
    lines.append(
        f"{'sum of stages':<34}{1e3 * total:>12.1f}"
        f"{100 * _ratio(total, mean_ms):>10.1f}%"
    )
    lines.append(
        f"{'measured latency (due -> emit)':<34}{1e3 * mean_ms:>12.1f}"
        f"{100.0:>10.1f}%   stage sum off by "
        f"{100 * abs(_ratio(total, mean_ms) - 1):.2f} %"
    )
    lines.append("  harness spans, self time per frame (concurrent):")
    for label, names in (
        ("source (store_frame)", ["stream.driver.store_frame"]),
        ("analyzer", [f"core.analyzer.{e}"
                      for e in ("on_store", "on_done", "on_resize")]),
        ("ready queue push", ["core.runtime.push"]),
        ("backend execute (+ worker wait)", ["core.backends.execute",
                                           "core.backends.execute_batch"]),
        ("field store/fetch/commit", [
            f"core.fields.{op}"
            for op in ("store", "fetch", "mark_written_many")]),
        ("retire sweep", ["stream.retire.sweep"]),
        ("sink", ["sink.emit"]),
    ):
        self_s = sum(spans.get(k, {}).get("self_s", 0.0) for k in names)
        ms = 1e3 * self_s / frames
        lines.append(
            f"  {label:<32}{1e3 * ms:>12.1f}{100 * _ratio(ms, mean_ms):>10.1f}%"
        )
    waits = sum(spans.get(k, {}).get("total_s", 0.0) for k in WAIT_SPANS)
    lines.append(
        f"  {'blocked (worker pop + gate admit)':<32}"
        f"{1e6 * waits / frames:>12.1f}"
    )
    return "\n".join(lines)


def traced(w: Workload, seed: int, seconds: float, size: str,
           trace_path: Path, meta: dict):
    """Run the traced invocation; returns ``(metrics, outcomes, text)``."""
    micro = layers.run_all(seed)
    third = seconds / 3.0
    base = measure(w, seed, third, size)
    tel = (
        measure(w, seed, third, size, telemetry=True)
        if w.name == "mjpeg_live_paced" else None
    )
    rec = Recorder()
    rec.install()
    tr = measure(w, seed, third, size, telemetry=True, rec=rec)
    written = rec.write_chrome_trace(trace_path, meta)
    metrics, inst, spans, stages = assemble(w, micro, base, tr, tel, rec)
    # This repo's own tables II/III: per kernel, instances and mean
    # dispatch / kernel / IPC microseconds.
    text = [inst.table(title=f"-- per-kernel dispatch vs kernel time "
                             f"({w.name}; PAPER.md tables II/III) --")]
    if tr.reports:
        text.append(waterfall(w, tr, spans, stages))
    if w.paced:
        late = metrics["stream.driver.lateness_ms_p90"]
        limit = statistics.median(tr.latencies_ms) / 10.0
        text.append(
            f"generator health: pacing threads reached the gate "
            f"{late:.2f} ms late (p90); a tenth of the latency median is "
            f"{limit:.2f} ms - {'ok' if late <= limit else 'LATE GENERATOR'}"
        )
    text.append(f"chrome trace: {trace_path} ({written} spans)")
    outcomes = [o for o in (base, tel, tr) if o is not None]
    return metrics, outcomes, "\n".join(text)
