#!/usr/bin/env python3
"""The same pipeline in Nornir-style KPN and in P2G (sections II–III).

Implements a 3-stage stream transform twice:

* as a Kahn process network — every channel wired by hand (a bounded
  blocking FIFO per edge), an explicit end-of-stream token forwarded
  stage by stage;
* as a P2G program — fetch/store statements on aging fields, with data
  parallelism (per-element instances) the KPN version simply does not
  express without manually multiplying processes.

Both produce identical output; the point is the programming-model
comparison the paper argues from, plus the automatic data parallelism
P2G extracts (visible in the instance counts).

Run:  python examples/kpn_vs_p2g.py [elements] [generations]
"""

import queue
import sys
import threading

import numpy as np

from repro.core import (
    AgeExpr,
    Dim,
    FetchSpec,
    FieldDef,
    KernelDef,
    Program,
    StoreSpec,
    run_program,
)

CLOSED = object()  # end-of-stream token, forwarded down the pipeline


def run_kpn(values: list[int], generations: int) -> list[list[int]]:
    """mul2 -> plus5 over `generations` rounds, with manual channels:
    one thread per process, one bounded blocking FIFO per edge (all the
    comparison needs of a Kahn network)."""
    out: list[list[int]] = []
    channels = [queue.Queue(maxsize=4) for _ in range(3)]

    def source(outq):
        data = list(values)
        for _ in range(generations):
            for v in data:
                outq.put(v)
            data = [v * 2 + 5 for v in data]
        outq.put(CLOSED)

    def stage(fn):
        def process(inq, outq):
            while (v := inq.get()) is not CLOSED:
                outq.put(fn(v))
            outq.put(CLOSED)

        return process

    def sink(inq):
        current: list[int] = []
        while (v := inq.get()) is not CLOSED:
            current.append(v)
            if len(current) == len(values):
                out.append([v - 5 for v in current])  # undo +5: report mul2 output
                current = []

    threads = [
        threading.Thread(target=source, args=(channels[0],)),
        threading.Thread(target=stage(lambda v: v * 2),
                         args=(channels[0], channels[1])),
        threading.Thread(target=stage(lambda v: v + 5),
                         args=(channels[1], channels[2])),
        threading.Thread(target=sink, args=(channels[2],)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "KPN pipeline did not terminate"
    print(f"  KPN: 4 processes, 3 hand-wired channels, "
          f"{len(channels) * len(values) * generations} messages")
    return out


def run_p2g(values: list[int], generations: int) -> list[list[int]]:
    collected: dict[int, np.ndarray] = {}
    init_values = np.array(values, dtype=np.int32)

    def init_body(ctx):
        ctx.emit("m_data", init_values)

    def mul2_body(ctx):
        ctx.emit("p_data", ctx["value"] * 2)

    def plus5_body(ctx):
        ctx.emit("m_data", ctx["value"] + 5)

    def sink_body(ctx):
        collected[ctx.age] = ctx["p"].copy()

    program = Program.build(
        fields=[FieldDef("m_data", "int32", 1), FieldDef("p_data", "int32", 1)],
        kernels=[
            KernelDef("init", init_body,
                      stores=(StoreSpec("m_data", age=AgeExpr.const(0)),)),
            KernelDef("mul2", mul2_body, has_age=True, index_vars=("x",),
                      fetches=(FetchSpec("value", "m_data",
                                         dims=(Dim.of("x"),), scalar=True),),
                      stores=(StoreSpec("p_data", dims=(Dim.of("x"),)),)),
            KernelDef("plus5", plus5_body, has_age=True, index_vars=("x",),
                      fetches=(FetchSpec("value", "p_data",
                                         dims=(Dim.of("x"),), scalar=True),),
                      stores=(StoreSpec("m_data", age=AgeExpr.var(1),
                                        dims=(Dim.of("x"),)),)),
            KernelDef("sink", sink_body, has_age=True,
                      fetches=(FetchSpec("p", "p_data"),)),
        ],
        name="pipeline",
    )
    result = run_program(program, workers=4, max_age=generations - 1,
                         timeout=60)
    counts = {k: v.instances for k, v in sorted(result.stats.items())}
    print(f"  P2G: no channels declared; automatic per-element data "
          f"parallelism, instances: {counts}")
    return [collected[a].tolist() for a in sorted(collected)]


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    generations = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    values = list(range(10, 10 + n))

    print("KPN (Nornir-style):")
    kpn_out = run_kpn(values, generations)
    print("P2G:")
    p2g_out = run_p2g(values, generations)

    print(f"\noutputs identical: {kpn_out == p2g_out}")
    for i, row in enumerate(p2g_out):
        print(f"  generation {i}: {row}")


if __name__ == "__main__":
    main()
