"""Command-line interface: ``python -m repro <command>``.

Mirrors the paper's tooling surface: the P2G compiler "works also as a
compiler driver … and produces complete binaries for programs that run
directly on the target system" (section VI-A).  Here the driver
compiles ``.p2g`` sources and runs them on the execution-node runtime;
further subcommands expose the graphs, the workloads and the simulator.

Commands
--------
run       compile a .p2g file and execute it
graph     emit a program's dependency graphs (ascii or DOT)
mjpeg     encode a YUV file (or the synthetic clip) to MJPEG via P2G
kmeans    run the K-means workload and print the centroid trajectory
simulate  sweep simulated worker counts for a paper workload model
tables    print the paper's evaluation: tables I-III, the simulated
          figures 9/10 and figure 9 measured on this host
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


class _Obs:
    """The CLI's observability surface (``--trace``/``--metrics``/
    ``--metrics-json``), shared by every execute-style subcommand.

    ``finish()`` runs in a ``finally`` so a failing run still writes its
    trace — the timeline of a failure is worth more than a success's.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        from .obs import MetricsRegistry, Tracer

        self.trace_path: str | None = args.trace
        self.show_metrics: bool = args.metrics
        self.metrics_path: str | None = args.metrics_json
        self.tracer = Tracer(mode="full") if self.trace_path else None
        self.metrics = MetricsRegistry()
        self.slo_path: str | None = args.slo_json
        self.telemetry = None
        if (
            args.telemetry
            or args.telemetry_port is not None
            or args.telemetry_jsonl is not None
            or self.slo_path is not None
        ):
            from .obs import Telemetry, TelemetryConfig

            self.telemetry = Telemetry(TelemetryConfig(
                port=args.telemetry_port, jsonl_path=args.telemetry_jsonl,
            ))

    def finish(self) -> None:
        from .obs import render

        if self.tracer is not None and self.trace_path:
            n = self.tracer.write(self.trace_path)
            print(f"trace: {n} events -> {self.trace_path} "
                  f"(open in https://ui.perfetto.dev)")
        if self.metrics_path:
            Path(self.metrics_path).write_text(
                self.metrics.to_json() + "\n"
            )
            print(f"metrics -> {self.metrics_path}")
        if self.show_metrics:
            print(render(self.metrics.snapshot(), title="metrics"))
        tel = self.telemetry
        if tel is not None:
            tel.stop()  # idempotent; the runtime usually stopped it
            if tel.exporter.http_port is not None:
                print(f"telemetry: {tel.exporter.ticks} samples "
                      f"(scraped on port {tel.exporter.http_port})")
            else:
                print(f"telemetry: {tel.exporter.ticks} samples")
            if tel.config.jsonl_path:
                print(f"telemetry samples -> {tel.config.jsonl_path}")
            for path in tel.flight_paths:
                print(f"SLO-breach flight recording -> {path}")
            if self.slo_path:
                import json

                Path(self.slo_path).write_text(
                    json.dumps(tel.slo.as_dict(), indent=2) + "\n"
                )
                print(f"slo report -> {self.slo_path}")


def _positive_int(text: str) -> int:
    """argparse type for sizes that must simulate something."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("observability")
    g.add_argument("--trace", metavar="PATH", default=None,
                   help="write a Chrome trace-event JSON timeline "
                        "(view in Perfetto: https://ui.perfetto.dev)")
    g.add_argument("--metrics", action="store_true",
                   help="print the metrics-registry snapshot as a table")
    g.add_argument("--metrics-json", metavar="PATH", default=None,
                   help="write the metrics-registry snapshot as JSON")
    g.add_argument("--telemetry", action="store_true",
                   help="arm frame-path telemetry: per-frame stage "
                        "timelines (gate/queue/compute/ipc/transport/"
                        "store latency attribution), the per-tenant SLO "
                        "burn tracker, and the live metrics exporter")
    g.add_argument("--telemetry-port", type=int, default=None,
                   metavar="PORT",
                   help="serve live telemetry over HTTP on 127.0.0.1 "
                        "(Prometheus text at /metrics, JSON at "
                        "/snapshot.json /slo.json /stages.json; 0 picks "
                        "a free port; implies --telemetry)")
    g.add_argument("--telemetry-jsonl", metavar="PATH", default=None,
                   help="append one flattened metrics snapshot per "
                        "sample tick as a JSONL line (implies "
                        "--telemetry)")
    g.add_argument("--slo-json", metavar="PATH", default=None,
                   help="write the per-session SLO summary (tiers, "
                        "misses, burn rates, alerts) as JSON (implies "
                        "--telemetry)")


def _add_run_args(p: argparse.ArgumentParser, workers: int,
                  timeout: float) -> None:
    p.add_argument("-w", "--workers", type=int, default=workers)
    p.add_argument("-t", "--timeout", type=float, default=timeout)
    p.add_argument("--backend", choices=("threads", "processes"),
                   default="threads",
                   help="execution backend for kernel bodies")


def _add_batch_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("batched dispatch")
    g.add_argument("--batch", type=int, default=32, metavar="N",
                   help="least instances of one kernel+age a dispatch "
                        "holds (default 32). With N > 1 a worker claims "
                        "a ready run (at least N) as one dispatch, whole "
                        "while every worker has a queued run of its own, "
                        "else its share of it, and runs it as one "
                        "vectorized body call; 1 = one instance per "
                        "dispatch, the paper's reference mode. Output is "
                        "byte-identical at any size.")


def _add_stream_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("live streaming")
    g.add_argument("--live", action="store_true",
                   help="run as a live encoder: a paced source injects "
                        "frames into the running pipeline under "
                        "credit-based backpressure and age retirement "
                        "(--fps paces the source; --frames bounds it "
                        "unless --duration is given)")
    g.add_argument("--duration", type=float, default=None, metavar="S",
                   help="stream seconds to run the live source for "
                        "(overrides --frames as the bound)")
    g.add_argument("--lag-window", type=int, default=8, metavar="N",
                   help="backpressure credit window: admit frame a only "
                        "once frame a-N has fully drained (default 8)")
    g.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                   help="per-frame end-to-end budget; frames already "
                        "late on admission are shed or degraded "
                        "(default: no shedding)")
    g.add_argument("--degrade-ratio", type=float, default=0.5, metavar="R",
                   help="fraction of late frames frozen (previous frame "
                        "repeated) instead of dropped (default 0.5)")
    g.add_argument("--shed-seed", type=int, default=0,
                   help="seed of the deterministic shed/degrade split")
    g.add_argument("--stream-json", metavar="PATH", default=None,
                   help="write the stream report (latency histogram, "
                        "shed ages, memory peaks) as JSON")
    g.add_argument("--sessions", type=int, default=1, metavar="N",
                   help="with --live, run N independent sessions "
                        "multiplexed over one runtime (namespaced "
                        "pipelines, per-session backpressure/QoS, fair "
                        "cross-tenant dispatch); each session writes "
                        "OUTPUT with its name suffixed")
    g.add_argument("--tier", default=None, metavar="gold:K",
                   help="run K of the N sessions at the gold QoS tier "
                        "(never shed under overload; the best-effort "
                        "rest absorb it), e.g. --tier gold:2")
    g.add_argument("--source", metavar="PATH.yuv", default=None,
                   help="with --live, loop a planar I420 .yuv clip as "
                        "the frame source (FileLoopSource) instead of "
                        "the synthetic camera")
    g.add_argument("--source-glob", metavar="GLOB", default=None,
                   help="with --live, a glob of I420 .yuv clips; "
                        "camera/session i loops file i mod N")


def _print_stream_report(args: argparse.Namespace, rep) -> None:
    if rep is None:
        return
    lat = rep.latency_ms
    print(f"live stream: {rep.offered} offered, {rep.admitted} admitted, "
          f"{rep.completed} completed, {rep.shed} shed, "
          f"{rep.degraded} degraded in {rep.duration_s:.2f}s")
    print(f"latency p50 {lat['p50']:.1f}ms p99 {lat['p99']:.1f}ms "
          f"max {lat['max']:.1f}ms; deadline misses "
          f"{rep.deadline_misses}; peak live {rep.peak_live_bytes} B "
          f"(retired {rep.freed_bytes} B); "
          f"source blocked {rep.blocked_s:.2f}s")
    if rep.stages:
        from .obs import stage_summary

        print("stage breakdown (frame-path latency attribution):")
        for line in stage_summary(rep.stages).splitlines():
            print(f"  {line}")
    if rep.slo:
        print(f"slo [{rep.slo.get('tier')}]: {rep.slo.get('misses')} "
              f"misses / {rep.slo.get('frames')} frames, burn "
              f"{rep.slo.get('burn_rate', 0.0):.2f}x, "
              f"{rep.slo.get('alerts', 0)} alert(s)")
    _write_stream_json(args, rep)


def _write_stream_json(args: argparse.Namespace, rep) -> None:
    if args.stream_json:
        import json

        Path(args.stream_json).write_text(
            json.dumps(rep.as_dict(), indent=2) + "\n"
        )
        print(f"stream report -> {args.stream_json}")


def _live_sources(args: argparse.Namespace, width: int, height: int,
                  count: int):
    """Resolve ``--source`` / ``--source-glob`` into ``count`` looping
    file sources, or ``None`` when neither flag was given (callers fall
    back to the synthetic camera)."""
    from .stream import FileLoopSource

    paths = None
    if getattr(args, "source_glob", None):
        import glob as _glob

        paths = sorted(_glob.glob(args.source_glob))
        if not paths:
            raise SystemExit(
                f"--source-glob matched no files: {args.source_glob!r}"
            )
    elif getattr(args, "source", None):
        paths = [args.source]
    if paths is None:
        return None
    return [
        FileLoopSource(paths[i % len(paths)], width, height)
        for i in range(count)
    ]


def _parse_tier(spec: str | None, sessions: int) -> int:
    """``gold:K`` -> K (clamped to the session count)."""
    if not spec:
        return 0
    cls, _, k = spec.partition(":")
    if cls != "gold" or not k:
        raise SystemExit(
            f"--tier must look like gold:K, got {spec!r}"
        )
    try:
        n = int(k)
    except ValueError:
        raise SystemExit(f"--tier count must be an integer, got {k!r}")
    return max(0, min(n, sessions))


def _print_multitenant_report(args: argparse.Namespace, rep) -> None:
    if rep is None:
        return
    print(f"multitenant: {len(rep.sessions)} sessions on "
          f"{rep.workers} workers ({rep.backend}), capacity "
          f"{rep.capacity}, {rep.duration_s:.2f}s")
    for name, r in sorted(rep.sessions.items()):
        tier = r.qos_class or "best-effort"
        lat = r.latency_ms
        p50, p99 = lat.get("p50"), lat.get("p99")
        line = (f"  {name} [{tier}]: {r.offered} offered, "
                f"{r.completed} completed, {r.shed} shed, "
                f"{r.degraded} degraded")
        if p50 is not None and p99 is not None:
            line += f", p50 {p50:.1f}ms p99 {p99:.1f}ms"
        if r.slo:
            line += (f", slo burn {r.slo.get('burn_rate', 0.0):.2f}x "
                     f"({r.slo.get('alerts', 0)} alert(s))")
        print(line)
        if r.stages:
            from .obs import stage_summary

            for sline in stage_summary(r.stages).splitlines():
                print(f"    {sline}")
    for tier, agg in sorted(rep.by_class().items()):
        print(f"  tier {tier}: {agg['sessions']} session(s), "
              f"{agg['offered']} offered, {agg['shed']} shed, "
              f"worst p99 {agg['p99_ms']:.1f}ms")
    _write_stream_json(args, rep)


def _stream_config(args: argparse.Namespace):
    from .stream import StreamConfig

    return StreamConfig(
        fps=args.fps,
        duration=args.duration,
        max_frames=None if args.duration is not None else args.frames,
        lag_window=args.lag_window,
        deadline_ms=args.deadline_ms,
        shed_seed=args.shed_seed,
        degrade_ratio=args.degrade_ratio,
    )


def _run_node(args: argparse.Namespace, program, **kw):
    """``run_program`` under the subcommand's run, batch and
    observability flags (``kw``: what only this subcommand passes)."""
    from .core import run_program

    obs = _Obs(args)
    try:
        return run_program(
            program, workers=args.workers, timeout=args.timeout,
            backend=args.backend, tracer=obs.tracer, metrics=obs.metrics,
            batch=args.batch, telemetry=obs.telemetry, **kw,
        )
    finally:
        obs.finish()


def _run_sessions(args: argparse.Namespace, build_one, write_one):
    """``--live --sessions N [--tier gold:K]``: N namespaced pipelines
    multiplexed over one runtime.  ``build_one(i, stream_config)``
    returns session i's ``(program, binding, sink)``; after the run
    ``write_one(name, sink, path)`` writes its output — OUTPUT with the
    session name suffixed — and returns the line to print."""
    from dataclasses import replace as dc_replace

    from .stream import SessionManager, SessionSpec

    gold = _parse_tier(args.tier, args.sessions)
    scfg = _stream_config(args)
    specs, sinks = [], {}
    for i in range(args.sessions):
        tier = "gold" if i < gold else "best-effort"
        program, binding, sinks[f"s{i}"] = build_one(
            i, dc_replace(scfg, qos_class=tier)
        )
        specs.append(SessionSpec(f"s{i}", program, binding))
    obs = _Obs(args)
    mgr = SessionManager(
        specs, workers=args.workers, backend=args.backend,
        batch=args.batch, admission="queue",
        metrics=obs.metrics, tracer=obs.tracer,
        telemetry=obs.telemetry,
    )
    try:
        result = mgr.run(timeout=args.timeout)
    finally:
        obs.finish()
    _print_multitenant_report(args, result.stream)
    out = Path(args.output)
    for name, sink in sinks.items():
        path = out.with_name(f"{out.stem}.{name}{out.suffix}")
        print("  " + write_one(name, sink, path))
    return result


def _cmd_run(args: argparse.Namespace) -> int:
    from .lang import compile_file

    program = compile_file(args.source)
    result = _run_node(args, program, max_age=args.max_age)
    print(f"program {program.name!r}: {result.reason} in "
          f"{result.wall_time:.3f}s")
    order = list(program.kernels)
    print(result.instrumentation.table(order=order))
    return 0 if result.reason == "idle" else 1


def _cmd_graph(args: argparse.Namespace) -> int:
    from .core.graph import (
        ascii_graph,
        dc_dag,
        final_graph,
        intermediate_graph,
    )
    from .lang import compile_file

    program = compile_file(args.source)
    if args.view == "intermediate":
        g = intermediate_graph(program)
    elif args.view == "final":
        g = final_graph(program)
    else:
        g = dc_dag(program, args.max_age)
    if args.dot:
        print(g.to_dot(program.name))
    else:
        print(ascii_graph(g, f"{program.name}: {args.view} graph"))
    return 0


def _mjpeg_live_sources(args: argparse.Namespace, count: int) -> list:
    """One frame source per live session: ``-i`` looped, else the
    ``--source`` / ``--source-glob`` files, else ``None`` (the synthetic
    camera)."""
    if args.input:
        from .stream import FileLoopSource

        return [
            FileLoopSource(args.input, args.width, args.height)
            for _ in range(count)
        ]
    return (
        _live_sources(args, args.width, args.height, count)
        or [None] * count
    )


def _cmd_mjpeg_sessions(args: argparse.Namespace) -> int:
    """``mjpeg --live --sessions N``: each encoder session writes its
    own output file."""
    from .workloads import MJPEGConfig, build_mjpeg_stream

    sources = _mjpeg_live_sources(args, args.sessions)
    total = 0

    def build_one(i: int, scfg):
        cfg = MJPEGConfig(
            width=args.width, height=args.height, frames=args.frames,
            quality=args.quality, dct_method=args.dct, seed=1234 + i,
        )
        program, sink, binding = build_mjpeg_stream(cfg, scfg, sources[i])
        return program, binding, sink

    def write_one(name: str, sink, path: Path) -> str:
        nonlocal total
        data = sink.stream()
        path.write_bytes(data)
        total += len(data)
        return (f"{name}: {sink.frame_count()} frames -> {path} "
                f"({len(data)} bytes)")

    result = _run_sessions(args, build_one, write_one)
    print(f"encoded {args.sessions} sessions ({total} bytes total) in "
          f"{result.wall_time:.2f}s ({args.workers} workers)")
    return 0


def _cmd_mjpeg(args: argparse.Namespace) -> int:
    from .media import read_yuv_file, synthetic_sequence
    from .workloads import MJPEGConfig, build_mjpeg

    if args.live and args.sessions > 1:
        return _cmd_mjpeg_sessions(args)
    cfg = MJPEGConfig(
        width=args.width, height=args.height, frames=args.frames,
        quality=args.quality, dct_method=args.dct,
    )
    binding = None
    if args.live:
        from .workloads import build_mjpeg_stream

        program, sink, binding = build_mjpeg_stream(
            cfg, _stream_config(args), _mjpeg_live_sources(args, 1)[0],
        )
    else:
        if args.input:
            frames = list(read_yuv_file(args.input, cfg.width, cfg.height,
                                        max_frames=cfg.frames))
        else:
            frames = synthetic_sequence(cfg.frames, cfg.width, cfg.height)
        program, sink = build_mjpeg(frames, cfg)
    result = _run_node(args, program, stream=binding)
    _print_stream_report(args, result.stream)
    if args.output.endswith(".avi"):
        from .media import split_frames, write_avi

        jpegs = split_frames(sink.stream())
        stream = write_avi(args.output, jpegs, cfg.width, cfg.height,
                           fps=args.fps or 25.0)
    else:
        stream = sink.stream()
        Path(args.output).write_bytes(stream)
    print(f"encoded {sink.frame_count()} frames -> {args.output} "
          f"({len(stream)} bytes) in {result.wall_time:.2f}s "
          f"({args.workers} workers)")
    order = ["ydct", "udct", "vdct", "vlc"]
    if not args.live:
        order.insert(0, "read")
    print(result.instrumentation.table(order=order))
    return 0


def _ops_config(args: argparse.Namespace):
    """The scenario config for ``repro ops <scenario>``."""
    if args.scenario == "mosaic":
        from .workloads import MosaicConfig

        return MosaicConfig(
            cams=args.cams, width=args.width, height=args.height,
            frames=args.frames, seed=args.seed,
        )
    if args.scenario == "motion":
        from .workloads import MotionConfig

        return MotionConfig(
            width=args.width, height=args.height, frames=args.frames,
            region=args.region, slots=args.slots, seed=args.seed,
        )
    from .workloads import TranscodeConfig

    return TranscodeConfig(
        width=args.width, height=args.height, frames=args.frames,
        quality_in=args.quality_in, quality_out=args.quality_out,
        factor=args.factor, seed=args.seed,
    )


def _ops_build_stream(args, cfg, scfg, seed_shift: int = 0):
    """Build one live pipeline for the scenario, resolving
    ``--source``/``--source-glob`` into looping file sources."""
    from dataclasses import replace as dc_replace

    if seed_shift:
        cfg = dc_replace(cfg, seed=cfg.seed + seed_shift)
    if args.scenario == "mosaic":
        from .workloads import build_mosaic_stream

        sources = _live_sources(args, cfg.width, cfg.height, cfg.cams)
        return build_mosaic_stream(cfg, stream=scfg, sources=sources)
    if args.scenario == "motion":
        from .workloads import build_motion_stream

        sources = _live_sources(args, cfg.width, cfg.height, 1)
        return build_motion_stream(
            cfg, stream=scfg,
            source=sources[0] if sources else None,
        )
    from .media import encode_jpeg
    from .workloads import build_transcode_stream

    source = None
    file_sources = _live_sources(args, cfg.width, cfg.height, 1)
    if file_sources:
        # A .yuv clip feeds the transcode by encoding each frame at
        # the input quality first (the capture side of the chain).
        from .media import read_yuv_file
        from .stream import CycleSource

        clip = read_yuv_file(
            file_sources[0].path, cfg.width, cfg.height
        )
        source = CycleSource(
            [encode_jpeg(f, cfg.quality_in) for f in clip]
        )
    return build_transcode_stream(cfg, stream=scfg, source=source)


def _ops_write_output(args, path: Path, pipe, cfg) -> str:
    """Write the sink's collected results; returns a summary line."""
    values = pipe.collector().values()
    if args.scenario == "mosaic":
        data = b"".join(f.tobytes() for f in values)
        path.write_bytes(data)
        return (f"mosaic {cfg.cams} cams: {len(values)} frames -> "
                f"{path} ({len(data)} bytes)")
    if args.scenario == "motion":
        import json as _json

        samples = [
            {
                "age": age,
                "sad": int(v["m"][..., 0].sum()),
                "ssd": int(v["m"][..., 1].sum()),
                "zones": v["z"].tolist(),
            }
            for age, v in zip(pipe.collector().ages, values)
        ]
        payload = {
            "width": cfg.width, "height": cfg.height,
            "region": cfg.region, "slots": cfg.slots,
            "samples": samples,
        }
        path.write_text(_json.dumps(payload, indent=2) + "\n")
        return (f"motion: {len(values)} windowed samples -> {path}")
    data = b"".join(values)
    path.write_bytes(data)
    return (f"transcode /{cfg.factor}: {len(values)} frames -> "
            f"{path} ({len(data)} bytes)")


def _print_fused(pipe) -> None:
    """One line per chain of operators the compiler lowered to a single
    kernel (the answer to "where did ``yidct`` go?")."""
    for kernel, chain in pipe.fused.items():
        print(f"fused {' -> '.join(chain)} into kernel {kernel!r}")


def _cmd_ops(args: argparse.Namespace) -> int:
    """``repro ops {mosaic,motion,transcode}``: run an operator-algebra
    scenario, batch or live."""
    cfg = _ops_config(args)
    if args.live and args.sessions > 1:
        def build_one(i: int, scfg):
            pipe = _ops_build_stream(args, cfg, scfg, seed_shift=1000 * i)
            if i == 0:  # every session compiles the same graph
                _print_fused(pipe)
            return pipe.program, pipe.binding, pipe

        result = _run_sessions(
            args, build_one,
            lambda _name, pipe, path: _ops_write_output(
                args, path, pipe, cfg
            ),
        )
        print(f"{args.scenario}: {args.sessions} sessions in "
              f"{result.wall_time:.2f}s ({args.workers} workers)")
        return 0
    if args.live:
        pipe = _ops_build_stream(args, cfg, _stream_config(args))
    else:
        from .workloads import (
            build_mosaic,
            build_motion,
            build_transcode,
        )

        builder = {
            "mosaic": build_mosaic,
            "motion": build_motion,
            "transcode": build_transcode,
        }[args.scenario]
        pipe = builder(cfg)
    _print_fused(pipe)
    result = _run_node(args, pipe.program, stream=pipe.binding)
    _print_stream_report(args, result.stream)
    print(_ops_write_output(args, Path(args.output), pipe, cfg))
    print(f"{result.reason} in {result.wall_time:.2f}s "
          f"({args.workers} workers)")
    return 0


def _cmd_kmeans(args: argparse.Namespace) -> int:
    from .workloads import build_kmeans

    program, sink = build_kmeans(
        n=args.n, k=args.k, iterations=args.iterations,
        granularity=args.granularity,
    )
    result = _run_node(args, program)
    print(f"k-means n={args.n} K={args.k} x{args.iterations}: "
          f"{result.reason} in {result.wall_time:.2f}s")
    print(result.instrumentation.table(
        order=["init", "assign", "refine", "print"]))
    final = sink.final_centroids()
    for i, row in enumerate(final[: args.show]):
        print(f"centroid {i}: {[round(float(v), 3) for v in row]}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .core import RuntimeStateError
    from .dist import (
        Cluster,
        ElasticityConfig,
        FaultInjector,
        FaultSchedule,
        FaultSpec,
    )
    from .dist.recovery import RecoveryConfig

    if args.workload == "mjpeg":
        from .media import synthetic_sequence
        from .workloads import MJPEGConfig, build_mjpeg

        cfg = MJPEGConfig(width=args.width, height=args.height,
                          frames=args.frames)
        clip = synthetic_sequence(cfg.frames, cfg.width, cfg.height,
                                  cfg.seed)
        program, sink = build_mjpeg(clip, cfg)
        max_age = None
        summarize = lambda: f"{sink.frame_count()} frames, " \
                            f"{len(sink.stream())} bytes"
    elif args.workload == "kmeans":
        from .workloads import build_kmeans

        program, sink = build_kmeans(n=args.n, k=args.k,
                                     iterations=args.iterations)
        max_age = None
        summarize = lambda: f"{len(sink.final_centroids())} centroids"
    else:
        from .workloads import build_mulsum

        program, sink = build_mulsum()
        max_age = args.max_age if args.max_age is not None else 3
        summarize = lambda: f"{len(sink)} ages"

    nodes = {f"node{i}": args.workers for i in range(args.nodes)}
    specs = [FaultSpec.parse(s) for s in args.fail_node]
    if args.chaos_seed is not None and not specs:
        schedule = FaultSchedule.random(
            sorted(nodes), args.chaos_seed, kinds=("kill",),
            n_faults=args.chaos_faults,
        )
    else:
        schedule = FaultSchedule(specs)
    faults = FaultInjector(schedule) if len(schedule) else None
    recovery = None
    if faults is not None or args.recover:
        recovery = RecoveryConfig(
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            progress_timeout=args.progress_timeout,
            max_restarts=args.max_restarts,
        )
    elastic = None
    if (args.scale_at is None) != (args.target_nodes is None):
        print("--scale-at and --target-nodes must be given together",
              file=sys.stderr)
        return 2
    if args.scale_at is not None:
        # Time-trigger mode: the load policy is disabled (dead-band
        # thresholds) so exactly one deterministic rescale happens.
        elastic = ElasticityConfig(
            interval=0.05, cooldown=0.0,
            scale_at=args.scale_at, target_nodes=args.target_nodes,
            max_nodes=max(args.nodes, args.target_nodes),
            queue_high=float("inf"), queue_low=-1.0,
        )
    elif args.elastic:
        elastic = ElasticityConfig()
    # A joined node is named node<k> too (the first name never held).
    reachable = {f"node{i}" for i in range(
        max(args.nodes, elastic.max_nodes if elastic else 0)
    )}
    for text, spec in zip(args.fail_node, specs):
        if spec.node.split("~", 1)[0] not in reachable:
            raise RuntimeStateError(
                f"fault spec {text!r}: no node {spec.node!r} in a "
                f"{args.nodes}-node cluster"
            )
    obs = _Obs(args)
    try:
        result = Cluster(program, nodes).run(
            max_age=max_age, timeout=args.timeout,
            stall_timeout=args.stall_timeout,
            faults=faults, recovery=recovery,
            tracer=obs.tracer, metrics=obs.metrics,
            batch=args.batch,
            telemetry=obs.telemetry,
            elastic=elastic,
        )
    except BaseException as exc:
        flight = getattr(exc, "flight_path", None)
        if flight is not None:
            print(f"flight recording -> {flight}", file=sys.stderr)
        raise
    finally:
        obs.finish()
    print(f"cluster {args.workload} on {args.nodes} node(s): "
          f"{result.reason} in {result.wall_time:.2f}s "
          f"({result.transport.messages} cross-node messages)")
    print(f"output: {summarize()}")
    for rec in result.recoveries:
        print(f"recovered {rec.failed} -> {rec.replacement} on {rec.host} "
              f"(attempt {rec.attempt}, {rec.replayed} replayed, "
              f"{rec.recovery_s * 1e3:.0f} ms): "
              f"{rec.reason}")
    for mig in result.migrations:
        print(f"migrated [{mig.reason}] epoch {mig.epoch}: "
              f"{mig.moved_kernels} kernel(s) moved, "
              f"fenced {list(mig.fenced)}, built {list(mig.built)}, "
              f"{mig.replayed} replayed, "
              f"{mig.migration_s * 1e3:.0f} ms")
    if result.membership is not None:
        print(f"membership epoch {result.membership['epoch']}: "
              f"{result.membership['nodes']}")
    if faults is not None and not result.recoveries and schedule.specs:
        print("no scheduled fault fired (triggers beyond the run's "
              "instance counts)")
    return 0 if result.reason == "idle" else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .bench.experiments import sweep_series
    from .bench.plots import ascii_chart, format_sweep
    from .sim import MACHINES, paper_kmeans_model, paper_mjpeg_model

    model = (paper_mjpeg_model(args.frames) if args.workload == "mjpeg"
             else paper_kmeans_model())
    series = sweep_series(
        model,
        [MACHINES[name] for name in args.machines],
        range(1, args.max_workers + 1),
    )
    title = f"simulated {args.workload} execution time"
    print(format_sweep(series, title))
    print(ascii_chart(series, title))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    """The paper's evaluation: table I, tables II/III from live runs,
    the simulated figures 9/10 (``--frames`` sizes figure 9), then
    figure 9 measured on this host — nonzero if a live run fails a
    check of :func:`~repro.bench.experiments.micro_tables` or
    :func:`~repro.bench.experiments.fig9_measured`."""
    from .bench import (
        fig9_measured,
        fig9_mjpeg_scaling,
        fig10_kmeans_scaling,
        micro_tables,
        table1_machines,
    )
    from .core import RuntimeStateError

    for artifact in (
        table1_machines(),
        *micro_tables(),
        fig9_mjpeg_scaling(frames=args.frames).render(),
        fig10_kmeans_scaling().render(),
    ):
        print(artifact, end="\n\n", flush=True)
    try:
        print(fig9_measured().render())
    except RuntimeStateError as exc:
        print(f"repro tables: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="P2G reproduction command-line driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="compile and run a .p2g program")
    p.add_argument("source", help="kernel-language source file")
    p.add_argument("-a", "--max-age", type=int, default=None,
                   help="age bound for non-terminating programs")
    _add_run_args(p, workers=4, timeout=300.0)
    _add_batch_args(p)
    _add_obs_args(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("graph", help="print a program's dependency graphs")
    p.add_argument("source")
    p.add_argument("--view", choices=("intermediate", "final", "dcdag"),
                   default="final")
    p.add_argument("--max-age", type=int, default=3,
                   help="unroll depth for the DC-DAG view")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("mjpeg", help="encode MJPEG through the P2G pipeline")
    p.add_argument("output", help="output .mjpeg path")
    p.add_argument("-i", "--input", help="planar I420 .yuv input "
                   "(defaults to the synthetic clip)")
    p.add_argument("--width", type=int, default=352)
    p.add_argument("--height", type=int, default=288)
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--quality", type=int, default=75)
    p.add_argument("--dct", choices=("naive", "matrix", "aan"),
                   default="matrix")
    p.add_argument("--fps", type=float, default=25.0,
                   help="frame rate stamped into .avi output; with "
                        "--live, also the source pacing rate (0 = "
                        "unpaced)")
    _add_run_args(p, workers=4, timeout=1800.0)
    _add_stream_args(p)
    _add_batch_args(p)
    _add_obs_args(p)
    p.set_defaults(fn=_cmd_mjpeg)

    p = sub.add_parser(
        "ops",
        help="run an operator-algebra scenario: multi-camera mosaic, "
             "windowed motion stats, or MJPEG transcode "
             "(pipelines from repro.ops compiled to fields+kernels)")
    p.add_argument("scenario", choices=("mosaic", "motion", "transcode"))
    p.add_argument("output",
                   help="output path (.yuv mosaic, .json motion, "
                        ".mjpeg transcode; --sessions N suffixes .sN)")
    p.add_argument("--cams", type=int, default=4,
                   help="mosaic cameras (perfect square, default 4)")
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--region", type=int, default=16,
                   help="motion: statistics tile size (default 16)")
    p.add_argument("--slots", type=int, default=4,
                   help="motion: keyed-partition zones (default 4)")
    p.add_argument("--quality-in", type=int, default=80,
                   help="transcode: input JPEG quality (default 80)")
    p.add_argument("--quality-out", type=int, default=60,
                   help="transcode: re-encode quality (default 60)")
    p.add_argument("--factor", type=int, default=2,
                   help="transcode: downscale factor (default 2)")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--fps", type=float, default=25.0,
                   help="with --live, the source pacing rate "
                        "(0 = unpaced)")
    _add_run_args(p, workers=4, timeout=1800.0)
    _add_stream_args(p)
    _add_batch_args(p)
    _add_obs_args(p)
    p.set_defaults(fn=_cmd_ops)

    p = sub.add_parser("kmeans", help="run the K-means workload")
    p.add_argument("-n", type=int, default=400)
    p.add_argument("-k", type=int, default=20)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--granularity", choices=("pair", "point"),
                   default="point")
    p.add_argument("--show", type=int, default=5,
                   help="centroids to print")
    _add_run_args(p, workers=4, timeout=1800.0)
    _add_batch_args(p)
    _add_obs_args(p)
    p.set_defaults(fn=_cmd_kmeans)

    p = sub.add_parser(
        "cluster",
        help="run a workload across in-process cluster nodes, optionally "
             "with fault injection and recovery",
    )
    p.add_argument("workload", choices=("mulsum", "kmeans", "mjpeg"))
    p.add_argument("--nodes", type=int, default=3,
                   help="number of execution nodes")
    p.add_argument("-w", "--workers", type=int, default=2,
                   help="worker threads per node")
    p.add_argument("--fail-node", action="append", default=[],
                   metavar="NODE[:KIND[:AFTER]]",
                   help="inject a fault: kind is kill|stall|drop, AFTER "
                        "is the executed-instance trigger (repeatable), "
                        "e.g. --fail-node node1:kill:5")
    p.add_argument("--chaos-seed", type=int, default=None,
                   help="generate a seeded random kill schedule instead "
                        "of explicit --fail-node specs")
    p.add_argument("--chaos-faults", type=int, default=1,
                   help="fault count for --chaos-seed schedules")
    p.add_argument("--recover", action="store_true",
                   help="enable heartbeats/recovery even without faults")
    p.add_argument("--heartbeat-interval", type=float, default=0.02,
                   help="liveness beacon period, seconds")
    p.add_argument("--heartbeat-timeout", type=float, default=0.25,
                   help="silence before a node is declared dead, seconds")
    p.add_argument("--max-restarts", type=int, default=2,
                   help="per-node replacement budget")
    p.add_argument("--progress-timeout", type=float, default=None,
                   help="declare a node stalled when its heartbeats show "
                        "no progress with work outstanding for this many "
                        "seconds (needed to detect :stall faults)")
    p.add_argument("--stall-timeout", type=float, default=None,
                   help="raise StallError if no progress for this many "
                        "seconds (default: wait forever)")
    p.add_argument("-a", "--max-age", type=int, default=None,
                   help="age bound (mulsum defaults to 3)")
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("-n", type=int, default=120)
    p.add_argument("-k", type=int, default=8)
    p.add_argument("--iterations", type=int, default=4)
    p.add_argument("-t", "--timeout", type=float, default=300.0)
    p.add_argument("--elastic", action="store_true",
                   help="dynamic membership: epoch-stamped routing, "
                        "event-log retention, and load-driven "
                        "scale-out/in via the elasticity driver")
    p.add_argument("--scale-at", type=float, default=None,
                   help="deterministic trigger: rescale at this many "
                        "seconds on the run clock (implies --elastic; "
                        "needs --target-nodes)")
    p.add_argument("--target-nodes", type=int, default=None,
                   help="node count --scale-at rescales to")
    _add_batch_args(p)
    _add_obs_args(p)
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser("simulate",
                       help="figure 9/10-style simulated worker sweep")
    p.add_argument("workload", choices=("mjpeg", "kmeans"))
    p.add_argument("--frames", type=_positive_int, default=50)
    p.add_argument("--max-workers", type=_positive_int, default=8)
    p.add_argument("--machines", nargs="+",
                   choices=("core_i7", "opteron"),
                   default=["core_i7", "opteron"])
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser(
        "tables",
        help="print tables I-III (II/III from live runs), the simulated "
             "figures 9/10 and figure 9 measured on this host",
    )
    p.add_argument("--frames", type=_positive_int, default=50,
                   help="frames of the simulated figure 9")
    p.set_defaults(fn=_cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
