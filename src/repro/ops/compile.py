"""Lowering: operator graph → ``Program`` of fields and kernels.

Lowering rules (DESIGN.md §16):

========== =========================================================
operator    lowers to
========== =========================================================
source      one :class:`~repro.core.fields.FieldDef` per port; in
            batch mode also a self-advancing aged source kernel that
            stores each age's payload (and stops storing at end of
            stream); in live mode no kernel — the
            :class:`~repro.stream.StreamDriver` injects frames through
            the compiled :class:`~repro.stream.StreamBinding`.
map         a maximal fusable chain of maps → one kernel, named after
            the chain's tail (a lone map is a chain of one).  Each input
            of the head becomes a fetch (whole-field, or
            ``Dim.of("i<j>", block)`` leading dims under
            :meth:`~repro.ops.algebra.Handle.block`, the block scaled to
            the tail's granularity), each out port of the tail a field +
            store spec keyed by the port name; ports inside the chain
            get no field (see *Fusion* below).
window(n)   no kernel of its own: the consumer's fetch for that input
            expands into ``n`` fetches at ``AgeExpr.var(skew + k)``,
            params ``"port@k"`` — an age-range fetch.
merge       a map with several inputs; per-input ``skew`` gives the
            explicit age-alignment policy (lockstep when 0).
keyed_      a kernel with ``index_vars=("slot",)`` and an explicit
partition   ``domain`` — one instance per slot per age; the out fields
            gain a leading ``slots`` axis and each instance stores its
            slot's slice (``Dim.of("slot")`` leading store dim).
multicast   one copy kernel whose store specs fan each input port out
            to ``n`` branch fields (distinct emit keys — write-once
            forbids aliasing one buffer to many consumers).
sink        a kernel with fetches and *no* stores: it delivers
            ``fn(age, values)`` out-of-band via ``ctx.output`` and the
            pipeline's :class:`OpsCollector` gathers results in the
            parent process on every backend.
========== =========================================================

Fusion.  ``A → B`` fuse when every input of ``B`` is a port of ``A`` and
``B`` is the only consumer of every port of ``A`` (no sink, multicast or
second operator on them), the edge carries no ``window`` / ``skew``, and
the two agree in granularity: both whole-field, or both blocked with
``B``'s fetch block an integer multiple ``r`` per axis of ``A``'s store
block and the port's declared extent a multiple of ``B``'s block.
Whether a chain fuses is a property of the graph — there is no switch.
The fused kernel runs one instance per *tail* instance: it fetches the
head's block scaled by the product of the ratios downstream, re-tiles
it, and runs every stage's ``fn`` on its own sub-instances
(:mod:`repro.core.fusion`); when every stage was given a ``stack=``
function its ``batch_body`` is those array functions chained.
:attr:`CompiledPipeline.fused` says which operators each fused kernel
absorbed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Any, Mapping, Sequence

import numpy as np

from ..core.fields import DTYPES, FieldDef
from ..core.fusion import Pipe, Stage, fused_batch_body, fused_body
from ..core.kernels import AgeExpr, Dim, FetchSpec, KernelDef, StoreSpec
from ..core.program import Program
from .algebra import Handle, InputRef, OpNode

__all__ = ["CompiledPipeline", "OpsCollector", "compile_ops"]


class OpsCollector:
    """Gathers one sink's out-of-band results, ordered by age."""

    def __init__(self, name: str, key: str) -> None:
        self.name = name
        self.key = key
        self.results: dict[int, Any] = {}

    def add(self, age: int, value: Any) -> None:
        self.results[age] = value

    @property
    def ages(self) -> list[int]:
        return sorted(self.results)

    def values(self) -> list[Any]:
        """Collected results in age order."""
        return [self.results[a] for a in self.ages]

    def __len__(self) -> int:
        return len(self.results)


@dataclass
class CompiledPipeline:
    """The lowered pipeline: a runnable program plus its collectors.

    ``binding`` is ``None`` for batch compilations; live compilations
    carry the :class:`~repro.stream.StreamBinding` to pass as
    ``run_program(..., stream=binding)`` (or wrap in a
    :class:`~repro.stream.SessionSpec` for multi-tenant serving).
    ``fused`` maps each kernel that stands for a chain of map operators
    to the operators it absorbed, head first (its own name is the
    tail's): ``{"ydct": ("yidct", "yscale", "ydct")}``.
    """

    program: Program
    collectors: dict[str, OpsCollector]
    binding: Any = None
    sources: tuple[OpNode, ...] = ()
    sinks: tuple[OpNode, ...] = ()
    fused: dict[str, tuple[str, ...]] = dc_field(default_factory=dict)

    def collector(self, name: str | None = None) -> OpsCollector:
        """The named sink's collector (default: the first sink)."""
        if name is None:
            name = self.sinks[0].name
        return self.collectors[name]


# ----------------------------------------------------------------------
# Graph walking
# ----------------------------------------------------------------------
def _gather(handles: Sequence[Handle]) -> list[OpNode]:
    """All nodes reachable from the given handles, in construction
    order (deterministic: ``OpNode.seq``)."""
    seen: dict[int, OpNode] = {}

    def visit(node: OpNode) -> None:
        if id(node) in seen:
            return
        seen[id(node)] = node
        for ref in node.inputs:
            visit(ref.node)

    for h in handles:
        visit(h.node)
    return sorted(seen.values(), key=lambda n: n.seq)


# ----------------------------------------------------------------------
# Per-kind lowering
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=256)
def _block_dims(block: tuple[int, ...], ndim: int) -> tuple[Dim, ...]:
    lead = tuple(Dim.of(f"i{j}", b) for j, b in enumerate(block))
    return lead + tuple(Dim.all() for _ in range(ndim - len(block)))


def _index_dims(
    block: tuple[int, ...], ndim: int, *, ctx: str
) -> tuple[Dim, ...]:
    if len(block) > ndim:
        raise ValueError(
            f"{ctx}: block has {len(block)} axes but the port is "
            f"{ndim}-dimensional"
        )
    return _block_dims(block, ndim)


def _lower_fetches(
    node: OpNode, scale: tuple[int, ...] = (),
) -> tuple[tuple[FetchSpec, ...], tuple[str, ...]]:
    """``node``'s inputs as fetch specs; ``scale`` multiplies the blocks
    per axis (the head of a fused chain fetches at the tail's
    granularity)."""
    fetches = []
    index_vars: list[str] = []
    for ref in node.inputs:
        ndim = len(ref.spec.shape)
        if ref.block is None:
            dims: tuple[Dim, ...] = ()
        else:
            grow = scale + (1,) * (len(ref.block) - len(scale))
            dims = _index_dims(
                tuple(b * g for b, g in zip(ref.block, grow)), ndim,
                ctx=f"operator {node.name!r}, input {ref.param!r}",
            )
            for j in range(len(ref.block)):
                var = f"i{j}"
                if var not in index_vars:
                    index_vars.append(var)
        fetches.append(
            FetchSpec(
                ref.param, ref.field,
                age=AgeExpr.var(ref.skew), dims=dims,
            )
        )
    return tuple(fetches), tuple(index_vars)


def _source_body(node: OpNode):
    payloads = node.payloads
    ports = tuple(node.ports)
    dtypes = {p: DTYPES[s.dtype] for p, s in node.ports.items()}
    if callable(payloads):
        get = payloads
    else:
        seq = list(payloads)

        def get(age: int):
            return seq[age] if 0 <= age < len(seq) else None

    def body(ctx) -> None:
        payload = get(ctx.age)
        if payload is None:
            return  # end of stream: storing nothing stops the source
        for port in ports:
            ctx.emit(port, np.asarray(payload[port], dtypes[port]))

    return body


def _multicast_body(node: OpNode):
    in_ports = tuple(ref.param for ref in node.inputs)
    n = node.branches

    def body(ctx) -> None:
        for port in in_ports:
            value = ctx.fetched[port]
            for i in range(n):
                ctx.emit(f"{port}_b{i}", value)

    return body


def _sink_body(node: OpNode):
    params = tuple(ref.param for ref in node.inputs)
    fn = node.fn
    key = node.output_key

    def body(ctx) -> None:
        values = {p: ctx.fetched[p] for p in params}
        if fn is not None:
            result = fn(ctx.age, values)
        elif len(params) == 1:
            result = values[params[0]]
        else:
            result = values
        ctx.output(key, result)

    return body


def _store_spec(node: OpNode, port: str) -> StoreSpec:
    """The store of a map's out port (elided inside a fused chain)."""
    out_block = node.out_block.get(port)
    if out_block is None:
        dims: tuple[Dim, ...] = ()
    else:
        dims = _index_dims(
            out_block, len(node.ports[port].shape),
            ctx=f"operator {node.name!r}, out port {port!r}",
        )
    return StoreSpec(node.field_of(port), dims=dims, key=port)


# ----------------------------------------------------------------------
# Fusion: maximal linear chains of maps
# ----------------------------------------------------------------------
def _edge_ratio(a: OpNode, b: OpNode) -> tuple[int, ...] | None:
    """How many instances of map ``a`` one instance of its sole consumer
    ``b`` covers, per index variable — ``()`` between two whole-field
    maps — or ``None`` when ``b`` cannot run inside ``a``'s kernel (the
    fusability rule of the module docstring)."""
    if a.kind != "map" or b.kind != "map":
        return None
    for ref in b.inputs:
        if ref.node is not a or ref.window != 1 or ref.skew:
            return None
    if sorted(ref.port for ref in b.inputs) != sorted(a.ports):
        return None
    # A's instances per age along each index variable: its blocked
    # inputs must span them all, tile their ports exactly, and agree.
    rank = max((len(ref.block or ()) for ref in a.inputs), default=0)
    counts: list[int | None] = [None] * rank
    for ref in a.inputs:
        if ref.block is None:
            continue
        if not len(ref.block) == rank <= len(ref.spec.shape):
            return None  # (an over-long block: the lowering reports it)
        for j, size in enumerate(ref.block):
            n, rem = divmod(ref.spec.shape[j], size)
            if rem or counts[j] not in (None, n):
                return None
            counts[j] = n
    ratio = None
    for ref in b.inputs:
        fetch = ref.block or ()
        store = a.out_block.get(ref.port, ())
        if not len(fetch) == len(store) == rank <= len(ref.spec.shape):
            return None
        for n, count, s, f in zip(ref.spec.shape, counts, store, fetch):
            # A's stores tile the port, B's fetches re-tile it
            if n != count * s or f % s or n % f:
                return None
        per_axis = tuple(f // s for f, s in zip(fetch, store))
        if ratio not in (None, per_axis):
            return None  # one sub-instance count per edge, not per port
        ratio = per_axis
    return ratio


def _chains(nodes: Sequence[OpNode]):
    """Partition the graph into maximal fusable chains, in construction
    order of their heads: ``(operators, per-edge ratios)`` — one
    operator and no edge for everything that does not fuse."""
    consumers: dict[OpNode, list[OpNode]] = {}
    for node in nodes:
        for ref in node.inputs:
            consumers.setdefault(ref.node, []).append(node)
    follows: dict[OpNode, tuple[OpNode, tuple[int, ...]]] = {}
    inside = set()
    for a, users in consumers.items():
        b = users[0]
        if all(u is b for u in users):
            ratio = _edge_ratio(a, b)
            if ratio is not None:
                follows[a] = (b, ratio)
                inside.add(b)
    for node in nodes:
        if node in inside:
            continue
        chain, ratios = [node], []
        while chain[-1] in follows:
            b, ratio = follows[chain[-1]]
            chain.append(b)
            ratios.append(ratio)
        yield chain, ratios


def _lower_maps(
    chain: Sequence[OpNode], ratios: Sequence[tuple[int, ...]],
) -> KernelDef:
    """One kernel for a chain of maps: the head's fetches, the tail's
    stores and name, every stage's ``fn`` in between."""
    head, tail = chain[0], chain[-1]
    stores = tuple(_store_spec(tail, port) for port in tail.ports)
    if len(chain) == 1:
        fetches, index_vars = _lower_fetches(head)
        return KernelDef(
            name=head.name,
            body=head.fn,
            fetches=fetches,
            stores=stores,
            has_age=True,
            index_vars=index_vars,
            batch_body=head.batch_body,
            stack=head.stack,
        )
    # grids[i]: instances of stage i inside one instance of the tail
    grids = [tuple(1 for _ in ratios[-1])]
    for ratio in reversed(ratios):
        grids.insert(0, tuple(g * r for g, r in zip(grids[0], ratio)))
    fetches, index_vars = _lower_fetches(head, grids[0])
    stages = []
    for node, grid, after in zip(chain, grids, (*chain[1:], None)):
        pipes = {}
        for ref in after.inputs if after is not None else ():
            spec = node.ports[ref.port]
            block = node.out_block.get(ref.port, ())
            pipes[ref.port] = Pipe(
                ref.param, _store_spec(node, ref.port),
                DTYPES[spec.dtype], len(spec.shape),
                tile=block + spec.shape[len(block):],
            )
        stages.append(Stage(
            name=node.name,
            body=node.fn,
            params=tuple(r.param for r in node.inputs),
            stores=tuple(node.ports) if after is None else (),
            pipes=pipes,
            grid={
                f"i{j}": g for j, g in enumerate(grid)
            } if any(g > 1 for g in grid) else {},
            shared=frozenset(
                r.param for r in node.inputs if r.block is None
            ),
            stack=node.stack,
        ))
    return KernelDef(
        name=tail.name,
        body=fused_body(stages),
        fetches=fetches,
        stores=stores,
        has_age=True,
        index_vars=index_vars,
        cost_hint=float(len(chain)),
        batch_body=fused_batch_body(stages),
    )


def _lower_node(node: OpNode, mode: str) -> KernelDef | None:
    if node.kind == "source":
        if mode == "live":
            return None  # the StreamDriver injects; no source kernel
        if node.payloads is None:
            raise ValueError(
                f"source {node.name!r} has no batch payloads "
                f"(frames=...); cannot compile in batch mode"
            )
        return KernelDef(
            name=node.name,
            body=_source_body(node),
            stores=tuple(
                StoreSpec(node.field_of(p), key=p) for p in node.ports
            ),
            has_age=True,
        )

    if node.kind == "keyed_partition":
        for ref in node.inputs:
            if ref.block is not None:
                raise ValueError(
                    f"keyed_partition {node.name!r}: inputs are fetched "
                    f"whole (drop .block())"
                )
        fetches, _ = _lower_fetches(node)
        stores = tuple(
            StoreSpec(
                node.field_of(port),
                dims=(Dim.of("slot"),)
                + tuple(Dim.all() for _ in spec.shape[1:]),
                key=port,
            )
            for port, spec in node.ports.items()
        )
        return KernelDef(
            name=node.name,
            body=node.fn,
            fetches=fetches,
            stores=stores,
            has_age=True,
            index_vars=("slot",),
            domain={"slot": node.slots},
        )

    if node.kind == "multicast":
        fetches, _ = _lower_fetches(node)
        return KernelDef(
            name=node.name,
            body=_multicast_body(node),
            fetches=fetches,
            stores=tuple(
                StoreSpec(node.field_of(p), key=p) for p in node.ports
            ),
            has_age=True,
        )

    if node.kind == "sink":
        fetches, index_vars = _lower_fetches(node)
        if index_vars:
            raise ValueError(
                f"sink {node.name!r}: inputs are fetched whole "
                f"(drop .block())"
            )
        return KernelDef(
            name=node.name,
            body=_sink_body(node),
            fetches=fetches,
            stores=(),
            has_age=True,
        )

    raise ValueError(f"unknown operator kind {node.kind!r}")


# ----------------------------------------------------------------------
# Live glue
# ----------------------------------------------------------------------
def _live_binding(sources, completion_key, stream):
    from ..core.events import StoreEvent
    from ..stream.driver import StreamBinding, StreamConfig
    from ..stream.sources import MultiSource

    for node in sources:
        if node.live is None:
            raise ValueError(
                f"source {node.name!r} has no live FrameSource "
                f"(live=...); cannot compile in live mode"
            )
    multi = len(sources) > 1
    frame_source = (
        MultiSource([n.live for n in sources])
        if multi
        else sources[0].live
    )
    specs = [
        (
            node,
            node.adapter,
            {p: (node.field_of(p), DTYPES[s.dtype])
             for p, s in node.ports.items()},
        )
        for node in sources
    ]

    def store_frame(fields, age: int, frame: Any) -> list:
        bundle = frame if multi else (frame,)
        events = []
        for (node, adapt, ports), item in zip(specs, bundle):
            payload = adapt(item)
            for port, (fname, np_dtype) in ports.items():
                arr = np.asarray(payload[port], np_dtype)
                region = tuple(slice(0, n) for n in arr.shape)
                fields[fname].store(age, region, arr)
                events.append(StoreEvent(fname, age, region))
        return events

    return StreamBinding(
        source=frame_source,
        store_frame=store_frame,
        completion_key=completion_key,
        config=stream if stream is not None else StreamConfig(),
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def compile_ops(
    sinks: Handle | Sequence[Handle],
    *,
    name: str = "ops",
    mode: str = "batch",
    stream=None,
) -> CompiledPipeline:
    """Lower an operator graph (given by its sink handles) to a
    :class:`~repro.core.program.Program`.

    ``mode="batch"`` compiles sources to self-advancing kernels over
    their ``frames`` payloads; ``mode="live"`` compiles no source
    kernels and returns a :class:`~repro.stream.StreamBinding` instead
    (N live sources zip into one
    :class:`~repro.stream.MultiSource`-paced session).  The first sink
    is the completion sink — its per-age delivery drives the live
    credit gate and retirement frontier.
    """
    if isinstance(sinks, Handle):
        sinks = [sinks]
    if not sinks:
        raise ValueError("compile_ops needs at least one sink handle")
    for h in sinks:
        if h.node.kind != "sink":
            raise ValueError(
                f"compile_ops terminals must be sinks; got "
                f"{h.node.kind!r} operator {h.node.name!r}"
            )
    if mode not in ("batch", "live"):
        raise ValueError(f"unknown compile mode {mode!r}")

    nodes = _gather(sinks)
    sink_nodes = tuple(n for n in nodes if n.kind == "sink")
    source_nodes = tuple(n for n in nodes if n.kind == "source")
    if not source_nodes:
        raise ValueError("pipeline has no source operator")

    # Sink output keys must be distinct: the collectors (and the live
    # completion watch) route on them.
    keys = [n.output_key for n in sink_nodes]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate sink output keys: {keys}")

    fields, kernels, fused = [], [], {}
    for chain, ratios in _chains(nodes):
        tail = chain[-1]
        if tail.kind == "map":
            kernel = _lower_maps(chain, ratios)
            if len(chain) > 1:
                fused[tail.name] = tuple(n.name for n in chain)
        else:
            kernel = _lower_node(tail, mode)
        if kernel is not None:
            kernels.append(kernel)
        # ports inside a chain are handed on in the kernel: no field
        fields.extend(
            FieldDef(
                tail.field_of(port),
                dtype=spec.dtype,
                ndim=len(spec.shape),
                aging=True,
                shape=spec.shape,
            )
            for port, spec in tail.ports.items()
        )

    collectors = {
        n.name: OpsCollector(n.name, n.output_key) for n in sink_nodes
    }
    by_key = {c.key: c for c in collectors.values()}

    def handler(kernel, age, index, key, value):
        collector = by_key.get(key)
        if collector is not None and age is not None:
            collector.add(age, value)

    program = Program.build(
        fields, kernels, name=name, output_handler=handler
    )

    binding = None
    if mode == "live":
        completion_key = sinks[0].node.output_key
        binding = _live_binding(source_nodes, completion_key, stream)
    return CompiledPipeline(
        program=program,
        collectors=collectors,
        binding=binding,
        sources=source_nodes,
        sinks=sink_nodes,
        fused=fused,
    )
