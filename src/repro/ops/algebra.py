"""Composable stream-operator algebra over the P2G model.

Every workload so far is a hand-written program (``build_mjpeg``,
``build_kmeans``, …): the author picks field names, writes
:class:`~repro.core.kernels.FetchSpec`/:class:`~repro.core.kernels.StoreSpec`
tuples and wires ages by hand.  This module gives the same power a
declarative surface: a pipeline is a graph of **operators** —

``source`` → ``map`` / ``window`` / ``keyed_partition`` / ``merge`` /
``multicast`` → ``sink``

— and :func:`repro.ops.compile_ops` lowers the graph onto the existing
model (fields + kernels), so every operator pipeline inherits the whole
runtime for free: dependency-analysis scheduling, batched dispatch and
vectorization, live streaming with QoS, multi-tenancy, elastic
clusters.

Age semantics (the part that is not obvious from the names):

* every operator emits one value per **age**; ages are the stream clock
  shared by the whole pipeline;
* ``window(n)`` makes a downstream operator at age ``a`` fetch its
  input at ages ``a .. a+n-1`` — windows look *forward*, so age 0 is
  well-defined from the first frame and no negative ages ever appear
  (the output stream is simply ``n-1`` ages shorter than its input);
* ``skew(k)`` shifts an input forward by ``k`` ages — the merge
  alignment knob: ``merge(..., [a, b.skew(1)])`` combines ``a@t`` with
  ``b@t+1``;
* ``merge`` is lockstep by default: output age ``t`` waits for *all*
  inputs at ``t`` (plus skew), so a stalled or slower source stalls the
  merged stream rather than emitting partial data, and an *exhausted*
  source ends it — the dependency analyzer never dispatches an
  instance whose inputs cannot complete.

Naming: an operator named ``op`` with output port ``p`` owns field
``"op.p"`` and kernel ``"op"``.  Operator and port names are validated
by :func:`repro.core.naming.validate_component` (no ``.``, no ``/``,
non-empty) because they end up in shared-memory segment paths and under
multi-tenant session prefixes.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field as dc_field, replace as dc_replace
from typing import Any, Callable, Mapping, Sequence

from ..core.errors import DefinitionError
from ..core.naming import NAME_SEP, validate_component

__all__ = [
    "Handle",
    "OpNode",
    "PortSpec",
    "merge",
    "sink",
    "slot_of",
    "source",
]

#: Monotonic operator creation counter; gives compilation a
#: deterministic node order that matches construction order.
_SEQ = itertools.count()


def slot_of(key: Any, slots: int) -> int:
    """Deterministic key→slot assignment for ``keyed_partition``.

    Hash-based (blake2b over ``repr(key)``), stable across processes
    and Python runs — unlike ``hash()``, which is salted — so the same
    key lands in the same slot on every backend and node.
    """
    if slots <= 0:
        raise ValueError(f"slots must be positive, got {slots}")
    digest = hashlib.blake2b(
        repr(key).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % slots


@dataclass(frozen=True)
class PortSpec:
    """One output port: element dtype + declared extent."""

    dtype: str
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))


def _port_specs(out: Mapping[str, tuple]) -> dict[str, PortSpec]:
    specs: dict[str, PortSpec] = {}
    for port, spec in out.items():
        validate_component(port, what="port name")
        if isinstance(spec, PortSpec):
            specs[port] = spec
        else:
            dtype, shape = spec
            specs[port] = PortSpec(dtype, tuple(shape))
    if not specs:
        raise ValueError("operator must declare at least one output port")
    return specs


@dataclass(frozen=True)
class InputRef:
    """One resolved input of an operator: which upstream field feeds
    which body param, over what window/skew, at what block granularity.

    ``block`` is ``None`` for whole-field fetches, else per-axis block
    sizes for the leading axes (remaining axes fetch whole).
    """

    node: "OpNode"
    port: str
    field: str
    spec: PortSpec
    param: str
    window: int = 1
    skew: int = 0
    block: tuple[int, ...] | None = None


@dataclass(eq=False)  # identity hash/eq: nodes are graph vertices
class OpNode:
    """One operator in the graph.

    ``kind`` is one of ``source / map / keyed_partition / multicast /
    sink``; ``window`` and ``merge`` are not nodes — a window is a
    property of an *input edge* (:class:`InputRef`), and a merge is
    simply a map with several inputs.
    """

    kind: str
    name: str
    ports: dict[str, PortSpec]
    inputs: tuple[InputRef, ...] = ()
    #: map/keyed_partition/sink: the kernel body or sink function.
    fn: Callable | None = None
    #: map: per-out-port leading store-block sizes.
    out_block: dict[str, tuple[int, ...]] = dc_field(default_factory=dict)
    #: map: the stacked form — a ``stack -> stack`` array function (one
    #: blocked input, one out port), or a general ``batch_body``.
    stack: Callable | None = None
    batch_body: Callable | None = None
    #: keyed_partition: number of slots (leading field axis).
    slots: int | None = None
    #: multicast: fan-out width.
    branches: int | None = None
    #: source: batch payloads — sequence of per-port dicts, or a
    #: callable ``age -> dict | None`` (None = end of stream).
    payloads: Any = None
    #: source: live FrameSource + frame→payload adapter.
    live: Any = None
    adapter: Callable[[Any], Mapping[str, Any]] | None = None
    #: sink: the ``ctx.output`` key (defaults to the op name).
    output_key: str | None = None
    #: construction order (deterministic compilation order).
    seq: int = dc_field(default_factory=lambda: next(_SEQ))

    def field_of(self, port: str) -> str:
        return f"{self.name}{NAME_SEP}{port}"


def _default_adapter(ports: dict[str, PortSpec]):
    """Frame → per-port payload when no adapter is given: YUV frames map
    to their ``y/u/v`` planes, mappings pass through, and a single-port
    source accepts the raw array."""

    def adapt(frame):
        if isinstance(frame, Mapping):
            return frame
        planes = {
            p: getattr(frame, p)
            for p in ("y", "u", "v")
            if hasattr(frame, p)
        }
        if planes:
            return planes
        if len(ports) == 1:
            return {next(iter(ports)): frame}
        raise TypeError(
            f"cannot adapt frame of type {type(frame).__name__} to ports "
            f"{sorted(ports)}; pass an explicit adapter"
        )

    return adapt


@dataclass(frozen=True)
class Handle:
    """A stream handle: a selection of one operator's output ports, plus
    pending ``window``/``skew``/``block`` modifiers that apply when the
    handle becomes another operator's input.

    Handles are immutable; every modifier returns a new handle.
    """

    node: OpNode
    #: (port, field) pairs in declaration order.  The field is carried
    #: separately because a multicast branch exposes logical port ``p``
    #: backed by branch field ``"mc.p_b0"``.
    port_fields: tuple[tuple[str, str], ...]
    window_size: int = 1
    skew_ages: int = 0
    block_sizes: tuple[int, ...] | None = None

    # -- modifiers ----------------------------------------------------
    def select(self, *ports: str) -> "Handle":
        """Restrict the handle to the named ports (order as given)."""
        have = dict(self.port_fields)
        missing = [p for p in ports if p not in have]
        if missing:
            raise KeyError(
                f"operator {self.node.name!r} has no port(s) {missing}; "
                f"available: {[p for p, _ in self.port_fields]}"
            )
        return dc_replace(
            self, port_fields=tuple((p, have[p]) for p in ports)
        )

    def __getitem__(self, port: str) -> "Handle":
        return self.select(port)

    def window(self, n: int) -> "Handle":
        """Fetch ``n`` consecutive ages per output age (forward: output
        age ``a`` sees input ages ``a .. a+n-1``)."""
        if n < 1:
            raise ValueError(f"window size must be >= 1, got {n}")
        return dc_replace(self, window_size=int(n))

    def skew(self, k: int) -> "Handle":
        """Shift this input forward by ``k`` ages (merge alignment)."""
        if k < 0:
            raise ValueError(
                f"skew must be >= 0 (windows/skews look forward), got {k}"
            )
        return dc_replace(self, skew_ages=int(k))

    def block(self, *sizes: int) -> "Handle":
        """Fetch in blocks of the given per-axis sizes (data-parallel
        instances) instead of whole-field."""
        if not sizes:
            raise ValueError("block() needs at least one axis size")
        return dc_replace(
            self, block_sizes=tuple(int(s) for s in sizes)
        )

    # -- inputs -------------------------------------------------------
    def _refs(self, *, qualify: bool) -> list[InputRef]:
        refs = []
        for port, fname in self.port_fields:
            # The node-level port backing this handle port: usually the
            # same name, but a multicast branch exposes logical ``p``
            # backed by node port ``p_b<i>`` (field ``"mc.p_b<i>"``).
            node_port = fname.split(NAME_SEP, 1)[1]
            spec = self.node.ports[node_port]
            param = fname if qualify else port
            if self.window_size > 1:
                for k in range(self.window_size):
                    refs.append(
                        InputRef(
                            self.node, port, fname, spec,
                            f"{param}@{k}",
                            window=self.window_size,
                            skew=self.skew_ages + k,
                            block=self.block_sizes,
                        )
                    )
            else:
                refs.append(
                    InputRef(
                        self.node, port, fname, spec, param,
                        window=1, skew=self.skew_ages,
                        block=self.block_sizes,
                    )
                )
        return refs

    # -- downstream operators -----------------------------------------
    def map(
        self,
        name: str,
        fn: Callable,
        out: Mapping[str, tuple],
        out_block: Mapping[str, Sequence[int]] | None = None,
        stack: Callable | None = None,
        batch_body: Callable | None = None,
    ) -> "Handle":
        """Apply a kernel body to this handle's ports.

        ``fn`` receives a :class:`~repro.core.kernels.KernelContext`;
        fetch params are the port names (``"p@k"`` under a window) and
        it must ``ctx.emit`` each out-port name.  ``out`` declares the
        output ports (``{port: (dtype, shape)}``); ``out_block`` gives
        per-port leading store-block sizes when the input is fetched
        with :meth:`block` (the store's index space must mirror the
        fetch's).  ``stack`` / ``batch_body`` give the map its stacked
        form, as on :class:`~repro.core.kernels.KernelDef`: ``stack`` a
        ``(N, *block) -> (N, *out)`` array function for a map of one
        blocked input and one out port (a chain of those fuses into one
        stacked call), ``batch_body`` the general form.
        """
        return _map_node(
            name, self._refs(qualify=False), fn, out, out_block, stack,
            batch_body,
        )

    def keyed_partition(
        self,
        name: str,
        slots: int,
        fn: Callable,
        out: Mapping[str, tuple],
    ) -> "Handle":
        """Partition this stream into ``slots`` keyed groups.

        The lowered kernel runs one instance per ``slot`` per age
        (``index_vars=("slot",)`` with an explicit domain); ``fn`` reads
        ``ctx.index["slot"]``, fetches the input ports whole, and emits
        each out port's *per-slot* value — the declared ``out`` shapes
        are per slot; the backing field gains a leading ``slots`` axis.
        Use :func:`slot_of` for the deterministic key→slot assignment.
        """
        validate_component(name, what="operator name")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        # The declared shapes are per slot; the backing fields gain the
        # leading ``slots`` axis, and that is what downstream sees.
        slotted = {
            port: (spec.dtype, (int(slots),) + spec.shape)
            for port, spec in _port_specs(out).items()
        }
        node = OpNode(
            kind="keyed_partition",
            name=name,
            ports=_port_specs(slotted),
            inputs=tuple(self._refs(qualify=False)),
            fn=fn,
            slots=int(slots),
        )
        return _handle(node)

    def multicast(self, name: str, n: int) -> tuple["Handle", ...]:
        """Fan this stream out to ``n`` independent branches.

        Lowers to one copy kernel whose store specs fan out each port to
        ``n`` branch fields (write-once forbids two consumers sharing a
        mutable buffer; fan-out stores give each branch its own field).
        Returns one handle per branch.
        """
        validate_component(name, what="operator name")
        if n < 1:
            raise ValueError(f"multicast width must be >= 1, got {n}")
        if self.window_size != 1 or self.skew_ages:
            raise ValueError(
                "multicast input cannot carry window/skew; apply them "
                "on the branch consumers instead"
            )
        ports = {
            f"{port}_b{i}": self.node.ports[port]
            for port, _ in self.port_fields
            for i in range(n)
        }
        node = OpNode(
            kind="multicast",
            name=name,
            ports=ports,
            inputs=tuple(self._refs(qualify=False)),
            branches=int(n),
        )
        branch_handles = []
        for i in range(n):
            branch_handles.append(
                Handle(
                    node,
                    tuple(
                        (port, node.field_of(f"{port}_b{i}"))
                        for port, _ in self.port_fields
                    ),
                )
            )
        return tuple(branch_handles)

    def sink(
        self,
        name: str,
        fn: Callable | None = None,
        key: str | None = None,
    ) -> "Handle":
        """Terminate this stream in an out-of-band collector (see
        :func:`sink` for the multi-input form)."""
        return sink(name, [self], fn=fn, key=key)


def _handle(node: OpNode) -> Handle:
    return Handle(
        node, tuple((p, node.field_of(p)) for p in node.ports)
    )


def _map_node(name, refs, fn, out, out_block, stack, batch_body) -> Handle:
    """The node behind :meth:`Handle.map` and :func:`merge`."""
    validate_component(name, what="operator name")
    ports = _port_specs(out)
    if stack is not None and (
        batch_body is not None or len(ports) != 1
        or len(refs) != 1 or refs[0].block is None
    ):
        raise DefinitionError(
            f"operator {name!r}: stack= is the stacked form of a map "
            f"with one blocked input, one out port and no batch_body=; "
            f"this one needs batch_body="
        )
    node = OpNode(
        kind="map",
        name=name,
        ports=ports,
        inputs=tuple(refs),
        fn=fn,
        out_block={
            p: tuple(int(s) for s in b)
            for p, b in (out_block or {}).items()
        },
        stack=stack,
        batch_body=batch_body,
    )
    return _handle(node)


# ----------------------------------------------------------------------
# Module-level constructors
# ----------------------------------------------------------------------
def source(
    name: str,
    out: Mapping[str, tuple],
    frames: Any = None,
    live: Any = None,
    adapter: Callable[[Any], Mapping[str, Any]] | None = None,
) -> Handle:
    """Declare a stream source with the given output ports.

    ``frames`` drives **batch** compilation: a sequence of per-port
    payload dicts, or a callable ``age -> dict | None`` (``None`` ends
    the stream).  ``live`` drives **live** compilation: a
    :class:`~repro.stream.FrameSource` whose frames are turned into
    per-port payloads by ``adapter`` (default: YUV planes / mappings /
    raw single-port arrays).  A source may carry both and the compile
    mode picks.
    """
    validate_component(name, what="operator name")
    ports = _port_specs(out)
    node = OpNode(
        kind="source",
        name=name,
        ports=ports,
        payloads=frames,
        live=live,
        adapter=adapter or _default_adapter(ports),
    )
    return _handle(node)


def merge(
    name: str,
    inputs: Sequence[Handle],
    fn: Callable,
    out: Mapping[str, tuple],
    out_block: Mapping[str, Sequence[int]] | None = None,
    batch_body: Callable | None = None,
) -> Handle:
    """Combine several streams into one kernel (lockstep by default).

    Output age ``t`` fetches every input at age ``t + skew`` (apply
    :meth:`Handle.skew` / :meth:`Handle.window` per input for explicit
    alignment).  Body fetch params are the inputs' *field* names
    (``"cam0.y"``) since port names may collide across inputs;
    ``batch_body`` is the kernel's stacked form (see :meth:`Handle.map`).
    """
    if not inputs:
        raise ValueError("merge needs at least one input handle")
    refs: list[InputRef] = []
    for h in inputs:
        refs.extend(h._refs(qualify=True))
    params = [r.param for r in refs]
    if len(set(params)) != len(params):
        raise ValueError(
            f"merge {name!r}: duplicate input params {params} (the same "
            f"port of the same operator appears twice; multicast it)"
        )
    return _map_node(name, refs, fn, out, out_block, None, batch_body)


def sink(
    name: str,
    inputs: Sequence[Handle],
    fn: Callable | None = None,
    key: str | None = None,
) -> Handle:
    """Terminate one or more streams in an out-of-band collector.

    The lowered kernel fetches every input whole per age and delivers
    ``fn(age, values)`` via ``ctx.output`` under ``key`` (default: the
    sink's name) — collected by the compiled pipeline's
    :class:`~repro.ops.compile.OpsCollector` in the parent process on
    every backend.  ``values`` maps fetch params (port names for a
    single input, field names otherwise) to arrays; with ``fn=None``
    a single-param sink passes the value through, a multi-param sink
    passes the dict.
    """
    validate_component(name, what="operator name")
    if not inputs:
        raise ValueError("sink needs at least one input handle")
    qualify = len(inputs) > 1
    refs: list[InputRef] = []
    for h in inputs:
        refs.extend(h._refs(qualify=qualify))
    if key is not None:
        validate_component(key, what="sink output key")
    node = OpNode(
        kind="sink",
        name=name,
        ports={},
        inputs=tuple(refs),
        fn=fn,
        output_key=key or name,
    )
    return Handle(node, ())
