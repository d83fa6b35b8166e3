"""Kernel definitions, fetch/store specifications and kernel instances.

A *kernel definition* (paper, section V-B) describes a unit of sequential
code together with the slices of global fields it fetches and stores.  At
run time the dependency analyzer expands a definition into *kernel
instances* — one per valid combination of the kernel's ``age`` and
``index`` variables — and dispatches an instance exactly once, when every
slice it fetches has been completely written (write-once semantics make
"completely written" a stable property).

The objects here are deliberately declarative: a :class:`KernelDef` is
plain data plus a Python callable for the native block, so the same
definitions drive the threaded runtime (:mod:`repro.core.runtime`), the
static dependency graphs (:mod:`repro.core.graph`), kernel fusion
(:mod:`repro.core.fusion`) and the discrete-event simulator
(:mod:`repro.sim`).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field as dc_field
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DefinitionError
from .fields import Field, IndexExpr, LocalField, RegionGroup
from .vectorize import StackBody, StackFn


# ----------------------------------------------------------------------
# Age expressions:  a, a+1, a-1, or a literal constant (e.g. 0)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AgeExpr:
    """Age expression of a fetch/store: ``kernel_age + offset`` or a
    literal constant age.

    Examples from figure 5: ``m_data(a)`` → ``AgeExpr(offset=0)``;
    ``m_data(a+1)`` → ``AgeExpr(offset=1)``; ``m_data(0)`` →
    ``AgeExpr(literal=0)``.
    """

    offset: int = 0
    literal: int | None = None

    @staticmethod
    def var(offset: int = 0) -> "AgeExpr":
        """Age expression ``a + offset``."""
        return AgeExpr(offset=offset)

    @staticmethod
    def const(value: int) -> "AgeExpr":
        """Literal age expression (e.g. ``m_data(0)``)."""
        return AgeExpr(literal=value)

    @property
    def is_literal(self) -> bool:
        """Whether the expression is a constant age."""
        return self.literal is not None

    def resolve(self, kernel_age: int | None) -> int:
        """Concrete field age for a kernel instance at ``kernel_age``."""
        if self.literal is not None:
            return self.literal
        if kernel_age is None:
            raise DefinitionError(
                "age expression references the kernel age, but the kernel "
                "declares no age variable"
            )
        return kernel_age + self.offset

    def solve(self, field_age: int) -> int | None:
        """Kernel age such that :meth:`resolve` yields ``field_age``.

        Returns ``None`` when the expression is a literal that does not
        match (no kernel age is implied) or the solution is negative.
        """
        if self.literal is not None:
            return None
        age = field_age - self.offset
        return age if age >= 0 else None

    def matches_literal(self, field_age: int) -> bool:
        """Whether a literal expression equals ``field_age``."""
        return self.literal is not None and self.literal == field_age

    def __str__(self) -> str:
        if self.literal is not None:
            return str(self.literal)
        if self.offset == 0:
            return "a"
        sign = "+" if self.offset > 0 else "-"
        return f"a{sign}{abs(self.offset)}"


# ----------------------------------------------------------------------
# Per-dimension index patterns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Dim:
    """Index pattern of one dimension of a fetch/store.

    Two kinds exist:

    * ``Dim.all()`` — the whole dimension (``fetch m = m_data(a)``).
    * ``Dim.var("x", block=b)`` — blocks of size ``b`` indexed by the
      kernel's index variable ``x`` (``b = 1`` is the per-element fetch of
      figure 5; ``b = 8`` fetches 8-wide stripes, which is how the MJPEG
      DCT kernels grab 8x8 macro-blocks).

    The block size is the data granularity a program is written at;
    the LLS coarsens it at run time (figure 4, Age 1 → Age 2) by handing
    a worker a *claim* of many instances, not by rewriting ``block``.

    A variable dimension may also carry an ``offset`` — a *stencil*
    fetch (``fetch left = f(a)[x-1]``), the neighbour-access pattern
    behind the paper's intra-prediction motivation.  The selected region
    shifts by ``offset`` elements; what happens at the field border is
    the ``boundary`` policy:

    * ``"clamp"`` (default) — the region is clamped into the extent
      preserving its width (image-processing edge replication: at
      ``x = 0``, ``[x-1]`` reads element 0);
    * ``"shrink"`` — the region is intersected with the extent and may
      become *empty*; an empty region is trivially satisfied and the
      kernel body receives a zero-length array.  This expresses
      "neighbour if available" dependencies — exactly H.264-style
      intra prediction, where block (0,0) has no left/top neighbour and
      the dependency pattern forms a wavefront.

    Offsets are fetch-only; a store with holes would break write-once
    coverage.
    """

    kind: str  # "all" | "var"
    var: str | None = None
    block: int = 1
    offset: int = 0
    boundary: str = "clamp"  # "clamp" | "shrink"

    @staticmethod
    def all() -> "Dim":
        """The whole-dimension pattern (``[:]``)."""
        return Dim("all")

    @staticmethod
    def of(
        var: str, block: int = 1, offset: int = 0, boundary: str = "clamp"
    ) -> "Dim":
        """A variable dimension: blocks of ``block``, optional stencil offset."""
        if block < 1:
            raise DefinitionError(f"block size must be >= 1, got {block}")
        if boundary not in ("clamp", "shrink"):
            raise DefinitionError(
                f"unknown boundary policy {boundary!r}; expected 'clamp' "
                f"or 'shrink'"
            )
        return Dim("var", var, block, offset, boundary)

    @property
    def is_all(self) -> bool:
        """Whether this is the whole-dimension pattern."""
        return self.kind == "all"

    def count(self, extent: int) -> int:
        """Number of distinct values of the index variable this dimension
        admits at the given extent (1 for ``all``).  Offsets clamp, so
        they do not change the domain."""
        if self.is_all:
            return 1
        return max(0, math.ceil(extent / self.block))

    def region(self, value: int, extent: int) -> slice:
        """Concrete slice selected for index-variable value ``value``."""
        if self.is_all:
            return slice(0, extent)
        start = value * self.block + self.offset
        stop = start + self.block
        if self.offset == 0:
            # plain partitioning: the last block may be ragged
            return slice(start, min(stop, extent))
        if self.boundary == "shrink":
            # intersect with the extent; possibly empty
            lo = max(0, start)
            hi = max(lo, min(stop, extent))
            return slice(lo, hi)
        # clamp: pull into the extent *preserving the block width* where
        # possible (edge replication at the boundaries)
        if start < 0:
            start, stop = 0, min(self.block, extent)
        if stop > extent:
            stop = extent
            start = max(0, stop - self.block)
        return slice(start, max(start, stop))

    def span(
        self, values: np.ndarray, extent: int
    ) -> "tuple[np.ndarray, int] | None":
        """:meth:`region` of a variable dimension for a (non-empty)
        column of index-variable values at once: the start column and
        the common width of the selected regions, or ``None`` when they
        are not all of one positive width (a ragged trailing block among
        full ones, an absent shrink-boundary neighbour).  Plain dims are
        arithmetic on the column; a stencil dim clamps or shrinks value
        by value through :meth:`region`."""
        if self.offset:
            regions = [self.region(v, extent) for v in values.tolist()]
            starts = np.array([r.start for r in regions], dtype=np.intp)
            widths = np.array([r.stop for r in regions]) - starts
        else:
            starts = values * self.block
            if starts.max() + self.block <= extent:
                return starts, self.block  # every block whole
            widths = self.widths(values, extent)
        width = int(widths[0])
        if width <= 0 or (widths != width).any():
            return None
        return starts, width

    def widths(self, values: np.ndarray, extent: int) -> np.ndarray:
        """The width of :meth:`region` for each of a column of
        index-variable values (0 for an absent shrink-boundary
        neighbour)."""
        if self.offset:
            regions = [self.region(v, extent) for v in values.tolist()]
            return np.array(
                [r.stop - r.start for r in regions], dtype=np.intp
            )
        starts = values * self.block
        return np.minimum(starts + self.block, extent) - starts

    def candidates(self, region: slice, extent: int) -> range:
        """Index-variable values whose region intersects ``region``."""
        if self.is_all:
            return range(1)
        # exact for plain partitions; conservatively widened for stencil
        # dims so boundary-clamped regions are always covered
        pad = 0 if self.offset == 0 else abs(self.offset) + self.block
        lo = max(0, (region.start - pad) // self.block)
        hi = min(
            math.ceil((region.stop + pad) / self.block),
            self.count(extent),
        )
        return range(lo, max(lo, hi))

    def __str__(self) -> str:
        if self.is_all:
            return ":"
        out = str(self.var)
        if self.offset:
            out += f"+{self.offset}" if self.offset > 0 else str(self.offset)
        if self.block != 1:
            out += f":{self.block}"
        return out


def _fmt_dims(dims: Sequence[Dim]) -> str:
    if all(d.is_all for d in dims):
        return ""
    return "[" + "][".join(str(d) for d in dims) + "]"


# ----------------------------------------------------------------------
# Fetch / store specifications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FetchSpec:
    """``fetch <param> = <field>(<age>)[<dims>...]``.

    ``param`` names the value inside the kernel body (``ctx.fetched``
    key).  ``scalar`` asks the runtime to deliver a Python scalar instead
    of a 0-d/1-element array when the selected region has exactly one
    element (matches ``fetch value = m_data(a)[x]``).
    """

    param: str
    field: str
    age: AgeExpr = dc_field(default_factory=AgeExpr)
    dims: tuple[Dim, ...] = ()
    scalar: bool = False
    #: Whether a dimension carries a stencil offset — only then can an
    #: instance's region be empty.
    stencil: bool = dc_field(init=False, repr=False, compare=False)
    # What :meth:`vars` / :meth:`whole_field` answer, derived once here:
    # the scalar loop (:mod:`repro.core.execute`) asks per instance and
    # the analyzer per event.
    _vars: tuple[str, ...] = dc_field(init=False, repr=False, compare=False)
    _whole: bool = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dims = self.dims
        set_ = object.__setattr__
        set_(self, "stencil", any(d.offset for d in dims if not d.is_all))
        set_(self, "_vars", tuple(d.var for d in dims if not d.is_all))
        set_(self, "_whole", all(d.is_all for d in dims))

    def vars(self) -> tuple[str, ...]:
        """Index variables this fetch binds, in dimension order."""
        return self._vars

    def whole_field(self) -> bool:
        """Whether every dimension is ``all`` (fetches the entire field)."""
        return self._whole

    def region(
        self, index: Mapping[str, int], extent: tuple[int, ...]
    ) -> IndexExpr:
        """Concrete region for an instance's index-variable assignment."""
        return tuple([
            d.region(0 if d.is_all else index[d.var], n)
            for d, n in zip(self.dims, extent)
        ])

    def group(
        self, columns: Mapping[str, np.ndarray], n: int,
        extent: tuple[int, ...],
    ) -> RegionGroup | None:
        """:meth:`region` for a whole batch: the group of regions
        selected by ``n`` instances whose index variables are the
        ``columns``, or ``None`` when their shapes diverge (the batch
        cannot be fetched as one stack)."""
        starts = np.zeros((n, len(self.dims)), dtype=np.intp)
        shape = []
        for k, (d, size) in enumerate(zip(self.dims, extent)):
            if d.is_all:
                if size <= 0:
                    return None
                shape.append(size)
                continue
            span = d.span(columns[d.var], size)
            if span is None:
                return None
            starts[:, k], width = span
            shape.append(width)
        return RegionGroup(starts, shape)

    def counts(self, extent: tuple[int, ...]) -> dict[str, int]:
        """Per-index-variable instance counts at the given field extent."""
        out: dict[str, int] = {}
        for d, n in zip(self.dims, extent):
            if not d.is_all:
                c = d.count(n)
                out[d.var] = min(out.get(d.var, c), c)
        return out

    def __str__(self) -> str:
        return (
            f"fetch {self.param} = {self.field}({self.age})"
            f"{_fmt_dims(self.dims)}"
        )


@dataclass(frozen=True)
class StoreSpec:
    """``store <field>(<age>)[<dims>...] = <key>``.

    ``key`` is the name the kernel body emits the value under
    (``ctx.emit(key, value)``); it defaults to the field name.  A body
    that does not emit the key skips the store — this is how source
    kernels signal end-of-stream (MJPEG's read kernel at EOF) and how
    deadline-triggered alternate code paths store to different fields.
    """

    field: str
    age: AgeExpr = dc_field(default_factory=AgeExpr)
    dims: tuple[Dim, ...] = ()
    key: str | None = None
    #: The key the kernel body must ``emit`` to feed this store.
    emit_key: str = dc_field(init=False, repr=False, compare=False)
    # What :meth:`vars` answers, derived once (as :class:`FetchSpec`'s).
    _vars: tuple[str, ...] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        set_(self, "emit_key", self.field if self.key is None else self.key)
        set_(self, "_vars", tuple(d.var for d in self.dims if not d.is_all))

    def vars(self) -> tuple[str, ...]:
        """Index variables this store uses, in dimension order."""
        return self._vars

    def region(
        self,
        index: Mapping[str, int],
        value_shape: tuple[int, ...],
    ) -> IndexExpr:
        """Concrete store region: variable dims start at ``var*block``,
        ``all`` dims start at 0; the value's shape defines the stops
        (ragged trailing blocks and implicit resizes both fall out of
        this)."""
        if len(value_shape) != len(self.dims):
            raise DefinitionError(
                f"store to {self.field!r}: value has {len(value_shape)} "
                f"dimension(s), spec has {len(self.dims)}"
            )
        region = []
        for d, n in zip(self.dims, value_shape):
            start = 0 if d.is_all else index[d.var] * d.block
            region.append(slice(start, start + n))
        return tuple(region)

    def group(
        self, columns: Mapping[str, np.ndarray], n: int,
        value_shape: tuple[int, ...],
    ) -> RegionGroup:
        """:meth:`region` for a whole batch storing ``n`` values of one
        ``value_shape``: the same starts, as index columns."""
        if len(value_shape) != len(self.dims):
            raise DefinitionError(
                f"store to {self.field!r}: value has {len(value_shape)} "
                f"dimension(s), spec has {len(self.dims)}"
            )
        starts = np.zeros((n, len(self.dims)), dtype=np.intp)
        for k, d in enumerate(self.dims):
            if not d.is_all:
                starts[:, k] = columns[d.var] * d.block
        return RegionGroup(starts, value_shape)

    def __str__(self) -> str:
        return f"store {self.field}({self.age}){_fmt_dims(self.dims)}"


# ----------------------------------------------------------------------
# Kernel definitions
# ----------------------------------------------------------------------
BodyFn = Callable[["KernelContext"], None]
BatchBodyFn = Callable[[Any], None]  # receives a BatchKernelContext


@dataclass
class KernelDef:
    """A kernel definition: native block + declarations + fetch/store
    specs.

    Parameters
    ----------
    name:
        Unique kernel name.
    body:
        The native block: a callable receiving a :class:`KernelContext`.
    fetches / stores:
        Field interaction specs; these define the implicit dependency
        graph.
    has_age:
        Whether the kernel declares an ``age`` variable.  Ageless kernels
        with no fetches run exactly once (figure 5's ``init``); aged
        kernels with no fetches are *sources* that self-advance one age at
        a time until they stop storing (MJPEG's ``read``).
    index_vars:
        Declared index variables, in declaration order (the instance's
        index tuple follows this order).
    domain:
        Optional explicit per-variable instance counts for index
        variables that appear in no fetch (rare; sources with data
        parallelism).
    cost_hint:
        Optional relative cost used by the simulator/LLS when no
        instrumentation exists yet.
    age_limit:
        Optional per-kernel age bound: no instance with ``age >
        age_limit`` is ever dispatched.  This is how a program expresses
        a fixed iteration count (the paper's K-means "is not run until
        convergence, but with 10 iterations").
    batch_body:
        Optional *stacked* native block operating on a whole batch of
        same-age instances in one call, on a
        :class:`~repro.core.vectorize.BatchKernelContext`; it must store
        the bytes ``body`` would.  ``None`` means the runtime calls
        ``body`` per instance — setting it to ``None`` on a built
        kernel strips the stacked form.
    stack:
        The stacked form of a block map — one region fetch, one store —
        as a ``stack -> stack`` array function: ``(N, *block)`` in,
        row ``i`` of the result what ``body`` emits for row ``i``.  A
        constructor argument only: it becomes ``batch_body`` (a
        :class:`~repro.core.vectorize.StackBody`), and a fused kernel
        chains its stages' functions (:mod:`repro.core.fusion`).  Given
        to a kernel of another structure, or together with
        ``batch_body``, it is a
        :class:`~repro.core.errors.DefinitionError`.
    """

    name: str
    body: BodyFn
    fetches: tuple[FetchSpec, ...] = ()
    stores: tuple[StoreSpec, ...] = ()
    has_age: bool = False
    index_vars: tuple[str, ...] = ()
    domain: Mapping[str, int] | None = None
    cost_hint: float = 1.0
    age_limit: int | None = None
    batch_body: BatchBodyFn | None = None
    stack: InitVar[StackFn | None] = None

    def __post_init__(self, stack: StackFn | None) -> None:
        self.fetches = tuple(self.fetches)
        self.stores = tuple(self.stores)
        self.index_vars = tuple(self.index_vars)
        self._validate()
        if stack is not None:
            if (
                self.batch_body is not None
                or len(self.fetches) != 1
                or len(self.stores) != 1
                or self.fetches[0].whole_field()
            ):
                raise DefinitionError(
                    f"kernel {self.name!r}: stack= is the stacked form of "
                    f"a kernel with one region fetch, one store and no "
                    f"batch_body=; this one needs batch_body="
                )
            self.batch_body = StackBody(
                self.fetches[0].param, self.stores[0].emit_key, stack
            )

    def _validate(self) -> None:
        if not self.name:
            raise DefinitionError("kernel name must be non-empty")
        seen_params: set[str] = set()
        for f in self.fetches:
            if f.param in seen_params:
                raise DefinitionError(
                    f"kernel {self.name!r}: duplicate fetch param {f.param!r}"
                )
            seen_params.add(f.param)
            for v in f.vars():
                if v not in self.index_vars:
                    raise DefinitionError(
                        f"kernel {self.name!r}: fetch {f.param!r} uses "
                        f"undeclared index variable {v!r}"
                    )
            if (f.age.literal is None or f.age.offset) and not self.has_age:
                if f.age.literal is None:
                    raise DefinitionError(
                        f"kernel {self.name!r}: fetch {f.param!r} references "
                        f"the age variable, but the kernel declares no age"
                    )
        keys: set[str] = set()
        for s in self.stores:
            if s.emit_key in keys:
                raise DefinitionError(
                    f"kernel {self.name!r}: duplicate store key "
                    f"{s.emit_key!r}"
                )
            keys.add(s.emit_key)
            for d in s.dims:
                if not d.is_all and d.offset:
                    raise DefinitionError(
                        f"kernel {self.name!r}: store to {s.field!r} uses "
                        f"an index offset; offsets are fetch-only (a "
                        f"shifted store leaves write-once holes)"
                    )
            for v in s.vars():
                if v not in self.index_vars:
                    raise DefinitionError(
                        f"kernel {self.name!r}: store to {s.field!r} uses "
                        f"undeclared index variable {v!r}"
                    )
            if s.age.literal is None and not self.has_age:
                raise DefinitionError(
                    f"kernel {self.name!r}: store to {s.field!r} references "
                    f"the age variable, but the kernel declares no age"
                )
        bound = set()
        for f in self.fetches:
            bound.update(f.vars())
        if self.domain:
            bound.update(self.domain)
        for v in self.index_vars:
            if v not in bound:
                raise DefinitionError(
                    f"kernel {self.name!r}: index variable {v!r} appears in "
                    f"no fetch and has no explicit domain; its instance "
                    f"count would be undefined"
                )

    # ------------------------------------------------------------------
    @property
    def is_source(self) -> bool:
        """True when the kernel has no fetches (dispatch is not driven by
        field stores)."""
        return not self.fetches

    @property
    def run_once(self) -> bool:
        """True for ageless sources — dispatched exactly once at start."""
        return self.is_source and not self.has_age

    @property
    def self_advances(self) -> bool:
        """True for aged sources — the kernels whose finished instance
        ``a`` dispatches instance ``a + 1`` (MJPEG's ``read``).  The only
        kernels whose done events the analyzer acts on outside the
        retirement sweep."""
        return self.is_source and self.has_age

    def fetched_fields(self) -> tuple[str, ...]:
        """Distinct fields fetched, in declaration order."""
        return tuple(dict.fromkeys(f.field for f in self.fetches))

    def stored_fields(self) -> tuple[str, ...]:
        """Distinct fields stored to, in declaration order."""
        return tuple(dict.fromkeys(s.field for s in self.stores))

    def index_counts(
        self, extent_of: Callable[[str], tuple[int, ...]]
    ) -> dict[str, int]:
        """Instance count per index variable, given field extents.

        A variable bound by several fetches gets the *minimum* count — an
        instance must be satisfiable by every fetch.
        """
        counts: dict[str, int] = dict(self.domain or {})
        for f in self.fetches:
            for var, c in f.counts(extent_of(f.field)).items():
                counts[var] = min(counts.get(var, c), c)
        return counts

    def describe(self) -> str:
        """Kernel-language-style rendering (used in graph dumps/tests)."""
        lines = [f"{self.name}:"]
        if self.has_age:
            lines.append("  age a;")
        for v in self.index_vars:
            lines.append(f"  index {v};")
        for f in self.fetches:
            lines.append(f"  {f};")
        lines.append("  %{ ... %}")
        for s in self.stores:
            lines.append(f"  {s};")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"KernelDef({self.name!r})"


# ----------------------------------------------------------------------
# Kernel instances and the execution context
# ----------------------------------------------------------------------
InstanceKey = tuple[str, int | None, tuple[int, ...]]


@dataclass(frozen=True)
class KernelInstance:
    """One dispatchable unit: a kernel definition bound to concrete age
    and index-variable values.  Dispatched at most once (write-once
    semantics make re-dispatch meaningless)."""

    kernel: KernelDef
    age: int | None = None
    index: tuple[int, ...] = ()

    @property
    def key(self) -> InstanceKey:
        """Hashable identity used for dispatch-once bookkeeping."""
        return (self.kernel.name, self.age, self.index)

    def index_map(self) -> dict[str, int]:
        """Index-variable name -> value for this instance."""
        return dict(zip(self.kernel.index_vars, self.index))

    def __str__(self) -> str:
        parts = []
        if self.age is not None:
            parts.append(f"age={self.age}")
        parts.extend(
            f"{v}={i}" for v, i in zip(self.kernel.index_vars, self.index)
        )
        return f"{self.kernel.name}({', '.join(parts)})"


class Run:
    """Instances of one kernel definition at one age, as one index
    array: the unit the runtime carries from the analyzer to the worker
    and back (DESIGN.md §12).

    ``rows`` is the ``(n, len(kernel.index_vars))`` intp array of the
    instances' index values, one row each.  The analyzer releases runs,
    the ready queue hands out *claims* — slices of a run's rows, or the
    rows of successor runs concatenated — and a backend ships a claim's
    rows as they are.  A run is a sequence of :class:`KernelInstance`,
    each built only when it is asked for (``run[i]``, iteration); the
    runtime reads ``kernel``, ``age``, ``rows`` and :meth:`index`.
    """

    __slots__ = ("kernel", "age", "rows")

    def __init__(
        self, kernel: KernelDef, age: int | None, rows: np.ndarray
    ) -> None:
        self.kernel = kernel
        self.age = age
        self.rows = rows

    @staticmethod
    def join(parts: Sequence["Run"]) -> "Run":
        """Successor runs of one kernel definition and age as one."""
        head = parts[0]
        return Run(head.kernel, head.age,
                   np.concatenate([p.rows for p in parts]))

    def index(self, i: int) -> tuple[int, ...]:
        """Element ``i``'s index values, as Python ints."""
        return tuple(self.rows[i].tolist())

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Run(self.kernel, self.age, self.rows[i])
        return KernelInstance(self.kernel, self.age, self.index(i))

    def __iter__(self) -> Iterator[KernelInstance]:
        kernel, age = self.kernel, self.age
        return (
            KernelInstance(kernel, age, tuple(row))
            for row in self.rows.tolist()
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (Run, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Run({self.kernel.name!r}, age={self.age}, n={len(self)})"


class KernelContext:
    """Execution context handed to a kernel body.

    Attributes
    ----------
    age:
        The instance's age (``None`` for ageless kernels).
    index:
        Mapping from index-variable name to its value.
    fetched:
        Mapping from fetch param name to the fetched value (scalar or
        NumPy array, per the spec's ``scalar`` flag).
    timers:
        Mapping of program timers (see :mod:`repro.core.deadlines`);
        empty when the program declares none.
    """

    __slots__ = (
        "age", "index", "fetched", "timers", "_emitted", "_outputs", "node",
    )

    def __init__(
        self,
        age: int | None = None,
        index: Mapping[str, int] | None = None,
        fetched: Mapping[str, Any] | None = None,
        timers: Mapping[str, Any] | None = None,
        node: Any = None,
    ) -> None:
        self.age = age
        self.index = dict(index or {})
        self.fetched = dict(fetched or {})
        self.timers = dict(timers or {})
        self.node = node
        self._emitted: dict[str, Any] = {}
        self._outputs: list[tuple[str, Any]] = []

    def reset(
        self,
        age: int | None,
        index: Mapping[str, int],
        fetched: Mapping[str, Any],
    ) -> "KernelContext":
        """Rebind this context to another instance, clearing emissions.

        The batched dispatch path pools one context per worker and
        resets it between instances instead of allocating a fresh
        object per call; ``timers`` and ``node`` are batch-invariant and
        keep their bindings.
        """
        self.age = age
        self.index = index if isinstance(index, dict) else dict(index)
        self.fetched = fetched if isinstance(fetched, dict) else (
            dict(fetched)
        )
        self._emitted = {}
        self._outputs = []
        return self

    def emit(self, key: str, value: Any) -> None:
        """Provide the value for the store spec whose ``emit_key`` is
        ``key``.  Emitting the same key twice is a write-once violation
        at the kernel level and raises immediately."""
        if key in self._emitted:
            raise DefinitionError(
                f"kernel body emitted {key!r} twice in one instance"
            )
        self._emitted[key] = value

    @property
    def emitted(self) -> dict[str, Any]:
        """Values the body emitted, by store key."""
        return self._emitted

    def output(self, key: str, value: Any) -> None:
        """Emit an *out-of-band* result (not a field store).

        Sink-style kernels (MJPEG's ``vlc``, K-means' ``print``) produce
        values that leave the field model — encoded frames, centroid
        snapshots.  Routing them through ``output`` instead of mutating a
        closure keeps kernel bodies location-transparent: the runtime
        delivers each ``(key, value)`` pair to the program's registered
        output handler *in the parent process*, whichever execution
        backend ran the body.  Values must be picklable under the
        ``processes`` backend.
        """
        self._outputs.append((key, value))

    @property
    def outputs(self) -> list[tuple[str, Any]]:
        """Out-of-band results the body produced, in emission order."""
        return self._outputs

    def local(self, dtype: str = "int32", ndim: int = 1) -> LocalField:
        """Create a kernel-local growable field (``local int32[] v;``)."""
        return LocalField(dtype, ndim)

    def __getitem__(self, param: str) -> Any:
        return self.fetched[param]


def coerce_store_value(
    value: Any, np_dtype: np.dtype, field_ndim: int, spec: StoreSpec
) -> tuple[np.ndarray, StoreSpec]:
    """Normalize an emitted value for a store spec.

    Returns the value as an array aligned to the field's rank, plus the
    effective spec (dimension-less specs become explicit whole-field
    specs).  Shared by every execution backend so the threads and
    processes paths store byte-identical payloads.
    """
    arr = np.asarray(value, dtype=np_dtype)
    if arr.ndim == 0:
        arr = arr.reshape((1,) * field_ndim)
    elif arr.ndim < field_ndim and spec.dims:
        # Align a lower-rank value to the store's dims: unit axes are
        # inserted at block-1 variable dimensions (a row store
        # ``f(a)[c][:] = row`` takes a 1-d row), trailing otherwise.
        shape = list(arr.shape)
        missing = field_ndim - arr.ndim
        for axis, d in enumerate(spec.dims):
            if missing and not d.is_all and d.block == 1:
                shape.insert(axis, 1)
                missing -= 1
        shape.extend([1] * missing)
        arr = arr.reshape(shape)
    elif arr.ndim != field_ndim:
        arr = arr.reshape(arr.shape + (1,) * (field_ndim - arr.ndim))
    eff = spec if spec.dims else StoreSpec(
        field=spec.field, age=spec.age, key=spec.key,
        dims=tuple(Dim.all() for _ in range(field_ndim)),
    )
    return arr, eff


def make_kernel(
    name: str,
    *,
    fetches: Sequence[FetchSpec] = (),
    stores: Sequence[StoreSpec] = (),
    age: bool = False,
    index: Sequence[str] = (),
    domain: Mapping[str, int] | None = None,
    cost_hint: float = 1.0,
    stack: StackFn | None = None,
) -> Callable[[BodyFn], KernelDef]:
    """Decorator sugar for defining kernels in plain Python::

        @make_kernel("mul2", age=True, index=["x"],
                     fetches=[FetchSpec("value", "m_data", dims=(Dim.of("x"),),
                                        scalar=True)],
                     stores=[StoreSpec("p_data", dims=(Dim.of("x"),))],
                     stack=lambda v: v.reshape(len(v)) * 2)
        def mul2(ctx):
            ctx.emit("p_data", ctx["value"] * 2)
    """

    def wrap(body: BodyFn) -> KernelDef:
        return KernelDef(
            name=name,
            body=body,
            fetches=tuple(fetches),
            stores=tuple(stores),
            has_age=age,
            index_vars=tuple(index),
            domain=domain,
            cost_hint=cost_hint,
            stack=stack,
        )

    return wrap
