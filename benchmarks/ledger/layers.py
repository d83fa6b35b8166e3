"""Micro-loops: the localising half of the ledger.

One seeded, single-purpose loop per layer operation, each timing one
public call with ``perf_counter`` for at least 0.5 s in total (five
batches of at least 0.1 s; the median batch is reported).  They run in
the traced invocation only, before any wrapper is installed, and do not
depend on the workload — a per-layer regression shows here even when the
end-to-end workloads hide it in noise.

The three ``core.backends`` loops and the spawn measurement run a real
(tiny) program and read what the backend reports about itself
(``KernelStats``), because a backend's ``execute`` cannot be called
without a node behind it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core import (
    AgeExpr,
    DependencyAnalyzer,
    Dim,
    ExecutionNode,
    FetchSpec,
    FieldDef,
    FieldStore,
    KernelDef,
    KernelInstance,
    Program,
    StoreSpec,
)
from repro.core.events import StoreEvent
from repro.core.fields import Field, normalize_index
from repro.core.graph import final_graph
from repro.core.runtime import ReadyQueue
from repro.core.vectorize import BatchKernelContext
from repro.dist.partition import partition_graph
from repro.dist.transport import InProcTransport
from repro.media.bitstream import BitWriter
from repro.media.dct import dct2_blocks
from repro.media.huffman import STD_AC_LUMA, STD_DC_LUMA, encode_block
from repro.media.jpeg import (
    encode_from_quantized,
    pad_plane,
    qtables_for_quality,
    quantize_plane,
)
from repro.media.quant import quantize
from repro.media.yuv import synthetic_sequence
from repro.stream import CreditGate, SessionSpec, StreamConfig, merge_sessions
from repro.workloads import (
    MJPEGConfig,
    TranscodeConfig,
    build_mjpeg_stream,
    build_transcode,
    make_input_jpegs,
    mjpeg_baseline,
)

BATCHES = 5
BATCH_MIN_S = 0.1

#: CIF luma plane: the field geometry every MJPEG-shaped loop uses.
H, W = 288, 352
BLOCKS = [
    (slice(y, y + 8), slice(x, x + 8))
    for y in range(0, H, 8) for x in range(0, W, 8)
]


def micro(chunk) -> float:
    """Median seconds per call.  ``chunk()`` prepares fresh state
    (untimed) and returns ``(run, calls)``; ``run()`` makes ``calls``
    calls in a tight loop and is what gets timed."""
    per_call = []
    for _ in range(BATCHES):
        spent = 0.0
        calls = 0
        while spent < BATCH_MIN_S:
            run, n = chunk()
            t0 = time.perf_counter()
            run()
            spent += time.perf_counter() - t0
            calls += n
        per_call.append(spent / calls)
    return statistics.median(per_call)


# ----------------------------------------------------------------------
# core.analyzer / core.runtime / core.fields
# ----------------------------------------------------------------------
def _analyzer_on_store():
    """Store events against a per-element consumer (the K-means shape:
    every event makes exactly one instance runnable)."""
    n = 512
    consumer = KernelDef(
        "per", lambda ctx: None, has_age=True, index_vars=("x",),
        fetches=(FetchSpec("v", "a", dims=(Dim.of("x"),), scalar=True),),
    )
    prog = Program.build([FieldDef("a", shape=(n,))], [consumer])
    fields = FieldStore(prog.fields.values())
    an = DependencyAnalyzer(prog, fields)
    events = []
    for i in range(n):
        idx = normalize_index(i, 1)
        fields["a"].store(0, idx, i)
        events.append(StoreEvent("a", 0, idx))

    def run():
        on_store = an.on_store
        for ev in events:
            on_store(ev)

    return run, n


def _instances(names, per_name: int, age: int = 0):
    kernels = [
        KernelDef(name, lambda ctx: None, has_age=True, index_vars=("i",),
                  domain={"i": per_name})
        for name in names
    ]
    return [
        KernelInstance(k, age, (i,))
        for i in range(per_name) for k in kernels
    ]


def _queue_push_pop(policy: str, names):
    insts = _instances(names, 256 // len(names))

    def chunk():
        q = ReadyQueue(policy)

        def run():
            for inst in insts:
                q.push(inst)
            for _ in insts:
                q.pop()

        return run, len(insts)

    return chunk


def _pop_batch():
    insts = _instances(["k"], 1024)
    q = ReadyQueue("age")
    for inst in insts:
        q.push(inst)

    def run():
        for _ in range(len(insts) // 32):
            q.pop_batch(32)

    return run, len(insts)


def _field_store():
    f = Field(FieldDef("f", "int32", 2, shape=(H, W)))
    block = np.arange(64, dtype=np.int32).reshape(8, 8)

    def run():
        store = f.store
        for region in BLOCKS:
            store(0, region, block)

    return run, len(BLOCKS)


def _field_fetch():
    f = Field(FieldDef("f", "uint8", 2, shape=(H, W)))
    f.store(0, (slice(0, H), slice(0, W)), np.zeros((H, W), np.uint8))
    regions = [normalize_index(r, 2) for r in BLOCKS]

    def run():
        fetch = f.fetch
        for region in regions:
            fetch(0, region)

    return run, len(regions)


def _mark_written_many():
    f = Field(FieldDef("f", "int32", 2, shape=(H, W)))
    runs = [BLOCKS[i:i + 32] for i in range(0, len(BLOCKS), 32)]

    def run():
        for regions in runs:
            f.mark_written_many(0, regions)

    return run, len(BLOCKS)


# ----------------------------------------------------------------------
# core.backends (a real no-op program; the backend reports on itself)
# ----------------------------------------------------------------------
def _noop_program(n: int) -> Program:
    """``n`` independent no-op instances at age 0: one 1-element fetch
    and one 1-element store each, so the full fetch -> body -> store
    routine runs with a body that costs nothing."""
    def src_body(ctx):
        ctx.emit("a", np.zeros(n, np.int32))

    def noop_body(ctx):
        ctx.emit("b", 0)

    age0 = AgeExpr.const(0)
    src = KernelDef("src", src_body, stores=(StoreSpec("a", age=age0),))
    noop = KernelDef(
        "noop", noop_body, index_vars=("x",),
        fetches=(FetchSpec("v", "a", age=age0, dims=(Dim.of("x"),)),),
        stores=(StoreSpec("b", age=age0, dims=(Dim.of("x"),)),),
    )
    return Program.build(
        [
            FieldDef("a", "int32", 1, aging=False, shape=(n,)),
            FieldDef("b", "int32", 1, aging=False, shape=(n,)),
        ],
        [src, noop],
        name="noop",
    )


def _backend_per_inst(backend: str, batch: int, n: int, field: str):
    """Seconds per no-op instance as the backend accounts it: ``ipc``
    (pipe + pickle round trip, remote work excluded) or ``execute``
    (dispatch + kernel: the whole in-thread routine)."""
    samples = []
    for _ in range(BATCHES):
        node = ExecutionNode(_noop_program(n), 1, backend=backend, batch=batch)
        st = node.run(timeout=60).instrumentation.stats()["noop"]
        if st.instances != n:
            raise RuntimeError(f"noop program ran {st.instances}/{n}")
        total = (
            st.ipc_time if field == "ipc"
            else st.dispatch_time + st.kernel_time
        )
        samples.append(total / n)
    return statistics.median(samples)


def _worker_spawn_s() -> float:
    """``ExecutionNode.start()`` on the processes backend with two
    workers: fork, pipes and the resource tracker."""
    samples = []
    for _ in range(BATCHES):
        node = ExecutionNode(_noop_program(8), 2, backend="processes")
        t0 = time.perf_counter()
        node.start()
        samples.append(time.perf_counter() - t0)
        node.join(timeout=60)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# core.vectorize / media
# ----------------------------------------------------------------------
def _media_inputs(seed: int):
    cfg = MJPEGConfig(width=W, height=H, frames=1, seed=seed)
    frame = synthetic_sequence(1, W, H, seed)[0]
    qy, qc = qtables_for_quality(cfg.quality)
    grids = (
        quantize_plane(pad_plane(frame.y, 16), qy, cfg.dct_method),
        quantize_plane(pad_plane(frame.u, 8), qc, cfg.dct_method),
        quantize_plane(pad_plane(frame.v, 8), qc, cfg.dct_method),
    )
    return cfg, frame, qy, qc, grids


def _batch_body(cfg, frame):
    program, _sink, _binding = build_mjpeg_stream(cfg, StreamConfig())
    body = program.kernels["ydct"].batch_body
    stack = np.stack([frame.y[r] for r in BLOCKS[:32]])
    imaps = [{"by": i, "bx": 0} for i in range(32)]

    def chunk():
        def run():
            for _ in range(8):
                body(BatchKernelContext(0, imaps, {"block": stack}))

        return run, 8 * 32

    return chunk


def _dct_quant_block(frame, qy):
    blocks = [frame.y[r] for r in BLOCKS[:256]]

    def chunk():
        def run():
            for b in blocks:
                quantize(
                    dct2_blocks(b.astype(np.float64) - 128.0, "matrix"), qy
                )

        return run, len(blocks)

    return chunk


def _huffman_block(seed: int):
    rng = np.random.default_rng(seed)
    zz = np.zeros(64, dtype=np.int64)
    zz[:16] = rng.integers(-100, 100, 16)

    def chunk():
        def run():
            for _ in range(64):
                w = BitWriter()
                encode_block(w, zz, 0, STD_DC_LUMA, STD_AC_LUMA)
                w.flush()

        return run, 64

    return chunk


# ----------------------------------------------------------------------
# stream / ops / dist
# ----------------------------------------------------------------------
def _gate_admit_grant():
    gate = CreditGate(8)

    def run():
        for age in range(1024):
            gate.admit(age)
            gate.grant(age)

    return run, 1024


def _merge_sessions(seed: int):
    cfg = MJPEGConfig(width=176, height=144, frames=1, seed=seed)
    specs = []
    for i in range(4):
        program, _sink, binding = build_mjpeg_stream(cfg, StreamConfig())
        specs.append(SessionSpec(f"s{i}", program, binding))
    return lambda: ((lambda: merge_sessions(specs)), 1)


def _transport_publish():
    bus = InProcTransport()
    bus.subscribe("t", "b", lambda msg: None)
    ev = StoreEvent("f", 0, (slice(0, 8),))

    def run():
        publish = bus.publish
        for _ in range(512):
            publish("t", "a", ev, 64)

    return run, 512


def _partition_plan(cfg):
    program, _sink, _binding = build_mjpeg_stream(cfg, StreamConfig())
    graph = final_graph(program)
    for name in graph.nodes():
        graph.node(name)["weight"] = program.kernels[name].cost_hint
    caps = {"n0": 1.0, "n1": 1.0}
    return lambda: ((lambda: partition_graph(graph, caps)), 1)


# ----------------------------------------------------------------------
def run_all(seed: int) -> dict[str, float]:
    """Every micro-loop metric, by its ``BENCHMARK.json`` name."""
    cfg, frame, qy, qc, grids = _media_inputs(seed)
    tcfg = TranscodeConfig(W, H, frames=8, seed=seed)
    jpegs = make_input_jpegs(tcfg)
    pipeline = build_transcode(tcfg, jpegs)
    us, ms = 1e6, 1e3
    return {
        "core.analyzer.on_store_us": us * micro(_analyzer_on_store),
        "core.runtime.queue_push_pop_us.age": us * micro(
            _queue_push_pop("age", ["k"])
        ),
        "core.runtime.queue_push_pop_us.fair": us * micro(
            _queue_push_pop("fair", [f"s{i}.k" for i in range(4)])
        ),
        "core.runtime.pop_batch_us_per_inst": us * micro(_pop_batch),
        "core.fields.store_us": us * micro(_field_store),
        "core.fields.fetch_us": us * micro(_field_fetch),
        "core.fields.mark_written_many_us_per_slot": us * micro(
            _mark_written_many
        ),
        "core.backends.ipc_roundtrip_us": us * _backend_per_inst(
            "processes", 1, 600, "ipc"
        ),
        "core.backends.ipc_batch32_us_per_inst": us * _backend_per_inst(
            "processes", 32, 4096, "ipc"
        ),
        "core.backends.thread_execute_us": us * _backend_per_inst(
            "threads", 1, 1500, "execute"
        ),
        "core.backends.worker_spawn_s": _worker_spawn_s(),
        "core.vectorize.batch_body_us_per_inst": us * micro(
            _batch_body(cfg, frame)
        ),
        "media.reference_frame_ms": ms * micro(
            lambda: ((lambda: mjpeg_baseline([frame], cfg)), 1)
        ),
        "media.dct_quant_block_us": us * micro(_dct_quant_block(frame, qy)),
        "media.huffman_block_us": us * micro(_huffman_block(seed)),
        "media.vlc_frame_ms": ms * micro(
            lambda: (
                (lambda: encode_from_quantized(*grids, W, H, qy, qc)), 1
            )
        ),
        "stream.gate.admit_grant_us": us * micro(_gate_admit_grant),
        "stream.multitenant.merge_s": micro(_merge_sessions(seed)),
        "ops.compile_s": micro(
            lambda: ((lambda: build_transcode(tcfg, jpegs)), 1)
        ),
        "ops.kernels": float(len(pipeline.program.kernels)),
        "dist.transport.publish_us": us * micro(_transport_publish),
        "dist.partition.plan_ms": ms * micro(_partition_plan(cfg)),
    }
