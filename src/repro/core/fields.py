"""Multi-dimensional, aging, write-once fields.

Fields are P2G's central data abstraction (paper, section III): globally
visible multi-dimensional arrays with *write-once* semantics per element
and per *age*.  Aging adds a virtual dimension that lets cyclic programs
(e.g. the ``mul2``/``plus5`` loop of figure 5 or K-means' assign/refine
loop) keep write-once semantics: storing to the same position is legal as
long as the age increases.

Fields support *implicit resizing* (section V-C): a store beyond the
current extent grows the field, and the new extent propagates to every
age.  The runtime turns resizes into events so the dependency analyzer
can dispatch the additional kernel instances the larger extent implies.

The backing arrays are NumPy (the reproduction's stand-in for blitz++),
with a parallel boolean *written* mask per age used both to enforce
write-once semantics and to answer the analyzer's completeness queries.

Two storage flavours exist:

* :class:`Field` / :class:`FieldStore` — process-private NumPy arrays,
  used by the default ``threads`` execution backend.
* :class:`SharedField` / :class:`SharedFieldStore` — the per-age payload
  lives in a POSIX ``multiprocessing.shared_memory`` segment, so worker
  *processes* (the ``processes`` execution backend) fetch and store
  zero-copy views of the same physical pages.  The parent process owns
  the segment lifecycle and keeps the write-once masks and counters
  private; workers only read/write payload bytes.  A segment is not an
  age's: a collected age's segment goes to its field's pool and serves
  the next new age (section IX, "reuse buffers"), so a live run settles
  on about one segment per live age per field, created once and
  unlinked at teardown.  Shared fields require a declared shape —
  implicit resizing would need cross-process reallocation.
"""

from __future__ import annotations

import math
import secrets
import threading
from dataclasses import dataclass, field as dc_field
from multiprocessing import shared_memory
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AgeError,
    CollectedAgeError,
    DefinitionError,
    ExtentError,
    WriteOnceViolation,
)

#: Kernel-language type name -> NumPy dtype.  Matches the scalar types the
#: paper's C-like kernel language exposes.
DTYPES: Mapping[str, np.dtype] = {
    "int8": np.dtype(np.int8),
    "uint8": np.dtype(np.uint8),
    "int16": np.dtype(np.int16),
    "uint16": np.dtype(np.uint16),
    "int32": np.dtype(np.int32),
    "uint32": np.dtype(np.uint32),
    "int64": np.dtype(np.int64),
    "uint64": np.dtype(np.uint64),
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}

IndexExpr = tuple  # normalized tuple of slice objects, one per dimension


@dataclass(frozen=True)
class FieldDef:
    """Static definition of a field (name, element type, dimensionality).

    Corresponds to a field-definition line in the kernel language, e.g.
    ``int32[] m_data age;`` -> ``FieldDef("m_data", "int32", 1, aging=True)``.

    Parameters
    ----------
    name:
        Global field name; unique within a program.
    dtype:
        One of the kernel-language scalar type names in :data:`DTYPES`.
    ndim:
        Number of (non-age) dimensions.
    aging:
        Whether the field carries the age dimension.  Non-aging fields
        behave like aging fields restricted to age 0.
    shape:
        Optional declared extent.  An undeclared field grows by implicit
        resizing, which leaves "the whole field" momentarily ambiguous
        while element-wise writers are still extending it — harmless for
        fields established by a single whole-field store (figure 5's
        ``init``), but racy for a field grown one element at a time and
        fetched whole (K-means' ``distances``).  Declaring the shape
        fixes the extent up front, making whole-field completeness
        exact and deterministic.
    """

    name: str
    dtype: str = "int32"
    ndim: int = 1
    aging: bool = True
    shape: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.dtype not in DTYPES:
            raise DefinitionError(
                f"field {self.name!r}: unknown dtype {self.dtype!r}; "
                f"expected one of {sorted(DTYPES)}"
            )
        if self.ndim < 1:
            raise DefinitionError(
                f"field {self.name!r}: ndim must be >= 1, got {self.ndim}"
            )
        if self.shape is not None:
            object.__setattr__(self, "shape", tuple(self.shape))
            if len(self.shape) != self.ndim:
                raise DefinitionError(
                    f"field {self.name!r}: shape {self.shape} does not "
                    f"match ndim {self.ndim}"
                )
            if any(n < 0 for n in self.shape):
                raise DefinitionError(
                    f"field {self.name!r}: negative extent in {self.shape}"
                )

    @property
    def np_dtype(self) -> np.dtype:
        """The NumPy dtype backing this field's elements."""
        return DTYPES[self.dtype]


def normalize_index(index: Any, ndim: int) -> IndexExpr:
    """Normalize a user-facing index into a tuple of ``slice`` objects.

    Accepts a scalar int (1-d), a slice, or a tuple mixing ints and
    slices.  Integers become unit slices.  Slices must have explicit,
    non-negative ``start``/``stop`` and step 1 (``None`` start means 0).

    Raises :class:`ExtentError` for negative indices, wrong arity, or
    stepped slices — none of which the P2G model defines.

    A tuple that is already normalized — what the runtime builds
    (``FetchSpec.region`` / ``StoreSpec.region``) — is returned as it is
    after one validating pass; anything that pass does not accept takes
    the general route below, which raises what it always raised.
    """
    if type(index) is tuple and len(index) == ndim:
        for part in index:
            if not (
                type(part) is slice
                and part.step is None
                and type(part.start) is int
                and type(part.stop) is int
                and 0 <= part.start <= part.stop
            ):
                break
        else:
            return index
    if not isinstance(index, tuple):
        index = (index,)
    if len(index) != ndim:
        raise ExtentError(
            f"index {index!r} has {len(index)} dimension(s); field has {ndim}"
        )
    out = []
    for dim, part in enumerate(index):
        if isinstance(part, (int, np.integer)):
            if part < 0:
                raise ExtentError(f"negative index {part} in dimension {dim}")
            out.append(slice(int(part), int(part) + 1))
        elif isinstance(part, slice):
            start = 0 if part.start is None else int(part.start)
            if part.stop is None:
                raise ExtentError(
                    f"open-ended slice in dimension {dim}; P2G slices must "
                    f"have explicit stops (use fetch-all for whole fields)"
                )
            stop = int(part.stop)
            step = 1 if part.step is None else int(part.step)
            if step != 1:
                raise ExtentError(f"stepped slice in dimension {dim}")
            if start < 0 or stop < start:
                raise ExtentError(
                    f"invalid slice [{start}:{stop}] in dimension {dim}"
                )
            out.append(slice(start, stop))
        else:
            raise ExtentError(
                f"unsupported index component {part!r} in dimension {dim}"
            )
    return tuple(out)


def index_shape(index: IndexExpr) -> tuple[int, ...]:
    """Shape of the region selected by a normalized index."""
    return tuple([s.stop - s.start for s in index])


class RegionGroup:
    """``n`` equal-shape regions of one (field, age): what a batched
    dispatch fetches or stores through one spec.

    ``starts`` is an ``(n, ndim)`` integer array — one index column per
    dimension — and ``shape`` the common block shape.  The group is a
    sequence of the normalized slice tuples it replaces (``len``,
    indexing, iteration; a slice of it is a group), so every consumer of
    a region list takes one; consumers that know the type read the
    columns instead and move the whole group in one NumPy operation.

    That one operation is a reshape: when the group *tiles* an array —
    every start a multiple of the block shape, the extent a multiple
    too, every block inside — the array viewed as a grid of blocks is
    indexed by the block coordinates (:meth:`tiles`).  When the members
    are moreover one contiguous raster run of a 1-D or 2-D block grid
    (:meth:`raster`) — what a claim's share of a wavefront is — no
    index is built at all: the run is at most three strided views of
    the array (:func:`_raster_pieces`).  Groups that do not tile
    (stencil offsets, a ragged trailing block, a store past a growable
    extent) take the per-region loop; the choice is made from the
    regions themselves.  Either way a group is stored all or nothing:
    :meth:`Field._commit` checks every member before it marks or copies
    any.
    """

    __slots__ = ("starts", "shape", "_tiles", "_raster")

    def __init__(self, starts: Any, shape: Sequence[int]) -> None:
        self.shape = tuple(int(b) for b in shape)
        self.starts = np.asarray(starts, dtype=np.intp).reshape(
            -1, len(self.shape)
        )
        self._tiles: tuple | None = None
        self._raster: tuple | None = None

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self):
        shape = self.shape
        for row in self.starts.tolist():
            yield tuple(slice(a, a + b) for a, b in zip(row, shape))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RegionGroup(self.starts[i], self.shape)
        return tuple(
            slice(a, a + b)
            for a, b in zip(self.starts[i].tolist(), self.shape)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegionGroup):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(
            self.starts, other.starts
        )

    __hash__ = None  # mutable array inside; compare by value only

    def __reduce__(self):
        # the columns as raw bytes: a worker's reply carries one group
        # per store spec, and pickling an ndarray costs ten times this
        return RegionGroup._from_bytes, (self.starts.tobytes(), self.shape)

    @staticmethod
    def _from_bytes(data: bytes, shape: tuple[int, ...]) -> "RegionGroup":
        return RegionGroup(np.frombuffer(data, dtype=np.intp), shape)

    def __repr__(self) -> str:
        return f"RegionGroup(n={len(self)}, shape={self.shape})"

    @property
    def elements(self) -> int:
        """Total elements covered (members counted separately)."""
        return len(self.starts) * math.prod(self.shape)

    def tiles(self, extent: tuple[int, ...]) -> np.ndarray | None:
        """The ``(n, ndim)`` block coordinates of the members in an array
        of ``extent`` cut into blocks of :attr:`shape`, or ``None`` when
        the group does not tile it.  Doubles as the bounds check: a
        tiling group lies inside the extent.  The last answer is kept —
        producer and consumer usually ask about the same extent."""
        memo = self._tiles
        if memo is not None and memo[0] == extent:
            return memo[1]
        shape = self.shape
        coords = None
        if len(extent) == len(shape) and all(
            b > 0 and n % b == 0 for n, b in zip(extent, shape)
        ):
            # one contiguous column per dimension, against Python ints:
            # NumPy's inner loops then run over the members
            cols = self.starts.T.copy()
            for col, n, b in zip(cols, extent, shape):
                q = col // b
                if len(q) and (
                    (q * b != col).any() or q.min() < 0 or q.max() >= n // b
                ):
                    break
                col[:] = q
            else:
                coords = cols.T
        self._tiles = (extent, coords)
        return coords

    def raster(self, extent: tuple[int, ...]) -> tuple[int, int] | None:
        """``(a, b)`` when the members are the blocks ``a .. b - 1`` of
        a 1-D or 2-D ``extent`` cut into blocks of :attr:`shape`,
        counted in raster order, in that order — a run, which repeats
        no block — else ``None``.  Memoized like :meth:`tiles`."""
        memo = self._raster
        if memo is not None and memo[0] == extent:
            return memo[1]
        coords = self.tiles(extent)
        run = None
        if coords is not None and len(coords) and len(self.shape) <= 2:
            flat = coords[:, -1]
            if len(self.shape) == 2:
                flat = coords[:, 0] * (extent[1] // self.shape[1]) + flat
            a = int(flat[0])
            if (flat - np.arange(len(flat)) == a).all():
                run = (a, a + len(flat))
        self._raster = (extent, run)
        return run


def _block_grid(arr: np.ndarray, group: RegionGroup):
    """``(arr viewed as a grid of blocks, key selecting the group's
    blocks)`` — ``grid[key]`` has shape ``(n, *group.shape)`` — or
    ``None`` when the group does not tile ``arr``."""
    coords = group.tiles(arr.shape)
    if coords is None or not arr.flags.c_contiguous:
        return None
    grid = arr.reshape(
        [x for n, b in zip(arr.shape, group.shape) for x in (n // b, b)]
    )
    # Index arrays separated by slices: NumPy puts the broadcast index
    # axis first, then the sliced (within-block) axes in order.
    key = tuple(x for col in coords.T for x in (col, slice(None)))
    return grid, key


def _raster_pieces(arr: np.ndarray, group: RegionGroup):
    """A raster run's blocks of ``arr`` as at most three strided views —
    the partial first block row, the whole rows, the partial last row —
    each ``(lo, hi, view)``: members ``lo .. hi - 1`` of the group,
    ``view`` of shape ``(rows, cols, *block)`` (a 1-D block is
    ``(1, bx)``), in member order.  ``None`` when the group is not one
    run of ``arr``'s block grid (:meth:`RegionGroup.raster`)."""
    run = group.raster(arr.shape)
    if run is None or not arr.flags.c_contiguous:
        return None
    a, b = run
    if arr.ndim == 1:
        (bx,) = group.shape
        by, gx = 1, arr.shape[0] // bx
        grid = arr.reshape(1, 1, gx, bx)
    else:
        by, bx = group.shape
        gx = arr.shape[1] // bx
        grid = arr.reshape(arr.shape[0] // by, by, gx, bx)
    grid = grid.transpose(0, 2, 1, 3)  # (block row, block col, by, bx)
    r0, c0 = divmod(a, gx)
    r1, c1 = divmod(b, gx)  # the run ends before block (r1, c1)
    if r0 == r1:
        return [(0, b - a, grid[r0:r0 + 1, c0:c1])]
    pieces = []
    if c0:
        pieces.append((0, gx - c0, grid[r0:r0 + 1, c0:]))
        r0 += 1
    if r1 > r0:
        lo = r0 * gx - a
        pieces.append((lo, lo + (r1 - r0) * gx, grid[r0:r1]))
    if c1:
        pieces.append((r1 * gx - a, b - a, grid[r1:r1 + 1, :c1]))
    return pieces


def gather(arr: np.ndarray, group: RegionGroup) -> np.ndarray:
    """The group's regions of ``arr`` as one ``(n, *shape)`` stack (a
    copy): at most three strided copies when the group is a raster run
    of ``arr``'s blocks, one indexing operation when it otherwise tiles
    ``arr``, the per-region loop otherwise.  No bounds or completeness
    check."""
    pieces = _raster_pieces(arr, group)
    if pieces is not None:
        out = np.empty((len(group),) + group.shape, dtype=arr.dtype)
        for lo, hi, view in pieces:
            out[lo:hi].reshape(view.shape)[...] = view
        return out
    tiled = _block_grid(arr, group)
    if tiled is not None:
        return tiled[0][tiled[1]]
    out = np.empty((len(group),) + group.shape, dtype=arr.dtype)
    for i, region in enumerate(group):
        out[i] = arr[region]
    return out


def _written_views(mask: np.ndarray, group: RegionGroup) -> list:
    """What to count to tell whether every element of ``group`` is set
    in ``mask``: a raster run's strided views, else its gathered
    stack."""
    pieces = _raster_pieces(mask, group)
    if pieces is None:
        return [gather(mask, group)]
    return [view for _lo, _hi, view in pieces]


def scatter(arr: np.ndarray, group: RegionGroup, values: Any) -> None:
    """``arr[region_i] = values[i]`` for the whole group (``values`` may
    be a scalar): the inverse of :func:`gather`, same selection."""
    pieces = _raster_pieces(arr, group)
    if pieces is not None:
        if np.ndim(values) == 0:
            for _lo, _hi, view in pieces:
                view[...] = values
            return
        stack = np.broadcast_to(values, (len(group),) + group.shape)
        for lo, hi, view in pieces:
            view[...] = stack[lo:hi].reshape(view.shape)
        return
    tiled = _block_grid(arr, group)
    if tiled is not None:
        tiled[0][tiled[1]] = values
        return
    stack = np.broadcast_to(values, (len(group),) + group.shape)
    for region, value in zip(group, stack):
        arr[region] = value


@dataclass
class ResizeInfo:
    """Describes an implicit resize triggered by a store."""

    field: str
    old_extent: tuple[int, ...]
    new_extent: tuple[int, ...]


class _AgeSlot:
    """Backing storage for a single age of a field."""

    __slots__ = ("data", "written", "store_count")

    def __init__(self, extent: tuple[int, ...], dtype: np.dtype) -> None:
        self.data = np.zeros(extent, dtype=dtype)
        self.written = np.zeros(extent, dtype=bool)
        self.store_count = 0

    def grow(self, extent: tuple[int, ...]) -> None:
        """Reallocate to a larger extent, preserving data and masks."""
        if extent == self.data.shape:
            return
        data = np.zeros(extent, dtype=self.data.dtype)
        written = np.zeros(extent, dtype=bool)
        old = tuple(slice(0, n) for n in self.data.shape)
        data[old] = self.data
        written[old] = self.written
        self.data = data
        self.written = written

    def free(self) -> None:
        """Release the slot's storage (GC); arrays become empty."""
        self.data = np.zeros((0,) * self.data.ndim, dtype=self.data.dtype)
        self.written = np.zeros((0,) * self.written.ndim, dtype=bool)


def segment_name(run_id: str, field: str, serial: int) -> str:
    """The shared-memory segment name of ``field``'s ``serial``-th
    segment.

    A field numbers the segments it creates; which age a segment holds
    changes as retired ages hand theirs on (:class:`SharedField`), so
    the parent names the segment of each (field, age) a claim touches in
    the claim's message and the worker attaches by this name.
    """
    return f"p2g{run_id}_{field}_{serial}"


class _SharedAgeSlot(_AgeSlot):
    """An age slot whose payload is a view of a shared-memory segment,
    the ``serial``-th of its field.

    The ``written`` mask and counters stay process-private (only the
    owning runtime's analyzer consults them); only the payload bytes are
    shared with worker processes.  The segment outlives the slot: a
    collected age's goes back to the field's pool, bytes and all — a
    fresh mask hides them, since a fetch of an unwritten region raises.
    """

    __slots__ = ("shm", "serial")

    def __init__(
        self, shm, serial: int, extent: tuple[int, ...], dtype: np.dtype
    ) -> None:
        self.shm = shm
        self.serial = serial
        self.data = np.ndarray(extent, dtype=dtype, buffer=shm.buf)
        self.written = np.zeros(extent, dtype=bool)
        self.store_count = 0

    def grow(self, extent: tuple[int, ...]) -> None:
        if extent == self.data.shape:
            return
        raise ExtentError(
            "shared-memory fields cannot grow; declare the field shape"
        )


def _unlink(shm) -> None:
    try:
        shm.unlink()
    except FileNotFoundError:  # released before
        pass


class Field:
    """A live field instance: per-age NumPy storage plus write-once masks.

    Thread safety: every mutation (payload, masks, counters, extent)
    happens under the field's lock, every store's in the one critical
    section of :meth:`_commit`.
    A fetch checks under the lock and copies outside it: the region is
    complete, and write-once semantics make a complete region
    immutable.  The lock is a plain ``Lock`` — no method re-enters.
    """

    def __init__(self, fdef: FieldDef) -> None:
        self.fdef = fdef
        self._dtype = fdef.np_dtype
        self._lock = threading.Lock()
        self._extent: tuple[int, ...] = (
            fdef.shape if fdef.shape is not None else (0,) * fdef.ndim
        )
        #: the live ages' storage; a retired age's slot is dropped
        self._ages: dict[int, _AgeSlot] = {}
        #: every age below this is retired (:meth:`collect_below`) ...
        self._floor = 0
        #: ... and so are these, at or above it (:meth:`collect_age`)
        self._gone: set[int] = set()
        self._max_stored_age = -1
        #: total elements ever written (across ages); instrumentation.
        self.elements_written = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The field's global name."""
        return self.fdef.name

    @property
    def ndim(self) -> int:
        """Number of (non-age) dimensions."""
        return self.fdef.ndim

    @property
    def extent(self) -> tuple[int, ...]:
        """Current global extent (shared by all ages, grows monotonically)."""
        return self._extent

    @property
    def max_stored_age(self) -> int:
        """Highest age that has received at least one store (-1 if none)."""
        return self._max_stored_age

    def ages(self) -> list[int]:
        """Sorted list of ages holding (non-collected) data."""
        with self._lock:
            return sorted(self._ages)

    def live_bytes(self) -> int:
        """Bytes held by non-collected ages (data + masks)."""
        with self._lock:
            return sum(
                s.data.nbytes + s.written.nbytes for s in self._ages.values()
            )

    def _retired(self, age: int) -> bool:
        """Whether ``age`` was collected (its slot is gone for good)."""
        return age < self._floor or age in self._gone

    # ------------------------------------------------------------------
    # Stores (write-once, implicit resize)
    # ------------------------------------------------------------------
    def _check_age(self, age: int) -> None:
        if age < 0:
            raise AgeError(f"field {self.name!r}: negative age {age}")
        if not self.fdef.aging and age != 0:
            raise AgeError(
                f"field {self.name!r} is not aging; only age 0 is valid "
                f"(got {age})"
            )

    def _new_slot(self, age: int) -> _AgeSlot:
        """Allocate backing storage for one age (hook for shared memory)."""
        return _AgeSlot(self._extent, self.fdef.np_dtype)

    def _slot(self, age: int, create: bool) -> _AgeSlot | None:
        slot = self._ages.get(age)
        if slot is None:
            if self._retired(age):
                raise CollectedAgeError(self.name, age)
            if not create:
                return None
            slot = self._new_slot(age)
            self._ages[age] = slot
        elif slot.data.shape != self._extent:
            slot.grow(self._extent)
        return slot

    def _raise_write_once(self, age: int, idx: IndexExpr, region) -> None:
        flat = np.argwhere(region)[0]
        offending = tuple(int(s.start + o) for s, o in zip(idx, flat))
        raise WriteOnceViolation(self.name, age, offending)

    def _check_unwritten(
        self, age: int, slot: _AgeSlot, group: RegionGroup
    ) -> None:
        """Raise :class:`WriteOnceViolation` naming an element of
        ``group`` that is already written at ``age`` or that two members
        both cover.  Lock held; the group tiles the extent, so two
        members overlap exactly when they are the same block — which a
        raster run never repeats, so its check is its strided views'."""
        pieces = _raster_pieces(slot.written, group)
        if pieces is None or any(v.any() for _lo, _hi, v in pieces):
            hit = gather(slot.written, group)
            if hit.any():
                i, *offset = np.argwhere(hit)[0].tolist()
                start = group.starts[i].tolist()
                raise WriteOnceViolation(
                    self.name, age,
                    tuple(a + o for a, o in zip(start, offset)),
                )
        if pieces is None and len(group) > 1:
            extent = self._extent
            blocks = np.ravel_multi_index(
                group.tiles(extent).T,
                [n // b for n, b in zip(extent, group.shape)],
            )
            _, first = np.unique(blocks, return_index=True)
            if len(first) < len(group):
                # the first member that repeats an earlier one
                repeat = np.ones(len(group), dtype=bool)
                repeat[first] = False
                i = int(np.argmax(repeat))
                raise WriteOnceViolation(
                    self.name, age, tuple(group.starts[i].tolist())
                )

    def _count_written(self, age: int, slot: _AgeSlot, count: int) -> None:
        """Account ``count`` newly written elements (lock held)."""
        slot.store_count += count
        self.elements_written += count
        if age > self._max_stored_age:
            self._max_stored_age = age

    def _payload(self, value: Any, shape: tuple[int, ...]) -> np.ndarray:
        """``value`` as an array of this field's dtype and ``shape`` (a
        scalar or a broadcastable array is broadcast)."""
        if (
            type(value) is np.ndarray
            and value.shape == shape
            and value.dtype == self._dtype
        ):
            return value
        arr = np.asarray(value, dtype=self._dtype)
        if arr.shape == shape:
            return arr
        try:
            return np.broadcast_to(arr, shape)
        except ValueError:
            raise ExtentError(
                f"field {self.name!r}: value shape {arr.shape} does not "
                f"match store region {shape}"
            ) from None

    def _reach(self, stops: Sequence[int], payload: bool) -> ResizeInfo | None:
        """Make the extent cover ``stops`` (each dimension's largest
        stop): a payload grows a field with no declared shape (implicit
        resize); anything else past the extent is an
        :class:`ExtentError`.  Lock held."""
        extent = self._extent
        if all(m <= n for m, n in zip(stops, extent)):
            return None
        if not payload or self.fdef.shape is not None:
            raise ExtentError(
                f"field {self.name!r}: store reaching {tuple(stops)} "
                f"exceeds extent {extent}"
            )
        self._extent = tuple([max(n, m) for n, m in zip(extent, stops)])
        return ResizeInfo(self.name, extent, self._extent)

    def store(
        self, age: int, index: Any, value: Any, recover: bool = False
    ) -> ResizeInfo | None:
        """Store ``value`` into ``self[age][index]`` (:meth:`_commit`):
        ``index`` one region, a :class:`RegionGroup` with ``value`` its
        ``(n, *shape)`` stack, or a list of regions with one array each.
        Returns a :class:`ResizeInfo` when the store grew the field."""
        return self._commit(age, index, value, recover)

    def mark_written_many(
        self, age: int, regions: "RegionGroup | Sequence[Any]",
        recover: bool = False,
    ) -> None:
        """Commit a worker process's store report for one (field, age)
        — it already wrote the payload bytes into the shared-memory
        segment — as one :meth:`_commit` without a payload."""
        self._commit(
            age,
            regions if isinstance(regions, RegionGroup) else list(regions),
            None, recover,
        )

    def _commit(
        self, age: int, regions: Any, values: Any = None,
        recover: bool = False,
    ) -> ResizeInfo | None:
        """The write-once commit of every store, on both backends.

        ``regions`` is one index, a :class:`RegionGroup` or a list of
        regions; ``values`` the payload, or ``None`` when a worker
        process has written the bytes.  Under one hold of the lock the
        extent is resolved (:meth:`_reach`), every region is checked —
        collected age, written mask, the call's other regions — and only
        then is anything marked or copied, so completeness becomes
        visible with the bytes and a violating call commits nothing.  A
        tiling group is checked and committed in one NumPy operation
        each (at most three strided views for a raster run); any other
        input, and every input under ``recover``, region by region, the
        marks cleared again on a violation
        (each was unwritten when marked, so the mask is restored
        exactly).  With ``recover`` a region that is already complete
        is skipped — its dead predecessor committed the same bytes
        (write-once determinism) — and a partly written one raises.
        Copying outside the lock with a re-check at commit moved no
        threaded or live benchmark workload by more than ≈ 2 %, so there
        is one protocol for every size.
        """
        self._check_age(age)
        payload = values is not None
        group = regions if isinstance(regions, RegionGroup) else None
        one = group is None and type(regions) is not list
        if one:
            idx = normalize_index(regions, self.fdef.ndim)
            if payload:
                values = self._payload(values, index_shape(idx))
        elif group is not None:
            # A fresh group's tiles and raster run, probed before the
            # lock so that inside it they are memo lookups: computed
            # under the lock they cost `ops_transcode` ≈ 5 % of its fps
            # (two worker threads on one CPU).
            group.raster(self._extent)
            if payload:
                values = self._payload(values, (len(group),) + group.shape)
        else:
            idxs = [normalize_index(r, self.fdef.ndim) for r in regions]
            if payload:
                values = [self._payload(v, index_shape(i))
                          for i, v in zip(idxs, values, strict=True)]
        with self._lock:
            if one:  # every store of a scalar claim: no list, no rollback
                resize = None
                for s, n in zip(idx, self._extent):
                    if s.stop > n:
                        resize = self._reach([s.stop for s in idx], payload)
                        break
                slot = self._slot(age, create=True)
                region = slot.written[idx]
                hit = np.count_nonzero(region)  # see fetch()
                if hit:
                    if recover and hit == region.size:
                        return resize
                    self._raise_write_once(age, idx, region)
                if payload:
                    slot.data[idx] = values
                slot.written[idx] = True
                self._count_written(age, slot, region.size)
                return resize
            if group is not None and not recover and (
                group.tiles(self._extent) is not None  # so in bounds
            ):
                slot = self._slot(age, create=True)
                self._check_unwritten(age, slot, group)
                if payload:
                    scatter(slot.data, group, values)
                scatter(slot.written, group, True)
                self._count_written(age, slot, group.elements)
                return None
            if group is not None:
                idxs = [normalize_index(r, self.fdef.ndim) for r in group]
            resize = self._reach(
                [max(s.stop for s in dim) for dim in zip(*idxs)], payload
            )
            slot = self._slot(age, create=True)
            written = slot.written
            if recover:  # what the predecessor completed drops out
                keep = [not written[i].all() for i in idxs]
                idxs = [i for i, k in zip(idxs, keep) if k]
                if payload:
                    values = [v for v, k in zip(values, keep) if k]
            marked = 0
            try:
                for idx in idxs:
                    region = written[idx]
                    if region.any():
                        self._raise_write_once(age, idx, region)
                    written[idx] = True
                    marked += 1
            except WriteOnceViolation:
                for idx in idxs[:marked]:
                    written[idx] = False
                raise
            if payload:
                for idx, value in zip(idxs, values):
                    slot.data[idx] = value
            self._count_written(
                age, slot, sum(math.prod(index_shape(i)) for i in idxs)
            )
            return resize

    # ------------------------------------------------------------------
    # Fetches and completeness
    # ------------------------------------------------------------------
    def fetch(self, age: int, index: Any | None = None) -> np.ndarray:
        """Fetch a copy of ``self[age][index]`` (whole field if ``index``
        is ``None``).

        The caller is responsible for only fetching complete regions (the
        dependency analyzer guarantees this for dispatched instances); an
        incomplete fetch raises :class:`ExtentError` to surface scheduler
        bugs rather than silently returning zeros.

        ``index`` may be a :class:`RegionGroup`: the result is its
        ``(n, *shape)`` stack, bounds and completeness checked for every
        member — at most three strided views for a raster run, one
        NumPy operation each when the group otherwise tiles the extent,
        region by region otherwise (:func:`gather`).
        """
        self._check_age(age)
        group = index if isinstance(index, RegionGroup) else None
        with self._lock:
            slot = self._ages.get(age)
            if slot is None and self._retired(age):
                raise CollectedAgeError(self.name, age)
            if group is not None:
                if group.tiles(self._extent) is None and not (
                    len(group.shape) == self.ndim
                    and (group.starts >= 0).all()
                    and (group.starts + group.shape <= self._extent).all()
                ):
                    raise ExtentError(
                        f"field {self.name!r}: fetch of {group!r} exceeds "
                        f"extent {self._extent}"
                    )
            elif index is None:
                idx = tuple(slice(0, n) for n in self._extent)
            else:
                idx = normalize_index(index, self.fdef.ndim)
                for s, n in zip(idx, self._extent):
                    if s.stop > n:
                        raise ExtentError(
                            f"field {self.name!r}: fetch region {idx} "
                            f"exceeds extent {self._extent}"
                        )
            if slot is not None and slot.data.shape != self._extent:
                slot.grow(self._extent)
            # count_nonzero, not .all(): a third of the cost on the unit
            # regions a scalar claim fetches
            if slot is None or not all(
                np.count_nonzero(w) == w.size
                for w in (
                    (slot.written[idx],) if group is None
                    else _written_views(slot.written, group)
                )
            ):
                raise ExtentError(
                    f"field {self.name!r}: fetch of incomplete region "
                    f"age={age} index={idx if group is None else group}"
                )
            data = slot.data
        # The copy happens outside the lock: the region is complete, and
        # write-once semantics make complete regions immutable (concurrent
        # stores touch other elements; grow() swaps in a new array without
        # mutating the one referenced here).
        if group is not None:
            return gather(data, group)
        return data[idx].copy()

    def peek(self, age: int, index: Any | None = None) -> np.ndarray | None:
        """Like :meth:`fetch` but returns ``None`` for incomplete regions."""
        try:
            return self.fetch(age, index)
        except (ExtentError, CollectedAgeError):
            return None

    def is_complete(self, age: int, index: Any | None = None) -> bool:
        """Whether every element of the region is written at ``age``.

        ``index=None`` means the whole field at its *current* extent; the
        region must be non-empty (an untouched field is never complete).
        """
        if age < 0 or (not self.fdef.aging and age != 0):
            return False
        with self._lock:
            slot = self._ages.get(age)
            if slot is None:
                return False
            if index is None:
                if any(n == 0 for n in self._extent):
                    return False
                # Write-once makes store_count an exact element count, so
                # whole-field completeness is an O(1) comparison — vital
                # when millions of store events each probe a whole-field
                # fetch (K-means' refine).
                total = 1
                for n in self._extent:
                    total *= n
                return slot.store_count == total
            else:
                try:
                    idx = normalize_index(index, self.fdef.ndim)
                except ExtentError:
                    return False
                for s, n in zip(idx, self._extent):
                    if s.stop > n or s.stop == s.start:
                        return False
            if slot.data.shape != self._extent:
                slot.grow(self._extent)
            written = slot.written[idx]
            return np.count_nonzero(written) == written.size  # see fetch()

    def members_complete(self, age: int, group: RegionGroup) -> np.ndarray:
        """:meth:`is_complete` for every member of ``group`` at once: one
        flag per member, read from the written mask in one
        :func:`gather` under the lock.  As there, an empty region, a
        region past the extent or an age with no slot is not
        complete."""
        out = np.zeros(len(group), dtype=bool)
        if age < 0 or (not self.fdef.aging and age != 0) or (
            not all(group.shape)
        ):
            return out
        with self._lock:
            slot = self._ages.get(age)
            if slot is None:
                return out
            extent = self._extent
            starts = group.starts
            inside = slice(None)
            if starts.min() < 0 or (
                starts.max(axis=0) + group.shape > extent
            ).any():
                inside = (
                    (starts >= 0) & (starts + group.shape <= extent)
                ).all(axis=1)
                if not inside.any():
                    return out
                group = RegionGroup(starts[inside], group.shape)
            if slot.data.shape != extent:
                slot.grow(extent)
            hit = gather(slot.written, group)
        out[inside] = hit.reshape(len(group), -1).all(axis=1)
        return out

    def written_count(self, age: int) -> int:
        """Number of elements written at ``age``."""
        with self._lock:
            slot = self._ages.get(age)
            return 0 if slot is None else slot.store_count

    # ------------------------------------------------------------------
    # Garbage collection (section IX: reuse buffers / collect old ages)
    # ------------------------------------------------------------------
    def _free_locked(self, age: int) -> int:
        """Drop ``age``'s slot and free its storage (a shared field pools
        its segment instead); bytes reclaimed."""
        slot = self._ages.pop(age)
        freed = slot.data.nbytes + slot.written.nbytes
        slot.free()
        return freed

    def collect_age(self, age: int) -> int:
        """Free the storage of ``age``; returns bytes reclaimed.

        Subsequent fetches of the age raise :class:`CollectedAgeError`,
        and so does a store (no silent resurrection).  Idempotent;
        collecting an age with no storage is a no-op.
        """
        with self._lock:
            if age not in self._ages:
                return 0
            if age >= self._floor:
                self._gone.add(age)
            return self._free_locked(age)

    def collect_below(self, min_live_age: int) -> int:
        """Collect every age strictly below ``min_live_age``: their
        slots leave the field and the floor rises, so what walks the
        ages (this sweep, :meth:`live_bytes`, :meth:`ages`) costs the
        live window, not every age the run has had."""
        with self._lock:
            freed = sum(
                self._free_locked(a)
                for a in [a for a in self._ages if a < min_live_age]
            )
            if min_live_age > self._floor:
                self._floor = min_live_age
                self._gone = {a for a in self._gone if a >= min_live_age}
            return freed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Field({self.name!r}, dtype={self.fdef.dtype}, "
            f"extent={self._extent}, ages={self.ages()})"
        )


class LocalField:
    """A kernel-local growable array (``local int32[] values;``).

    Local fields live only for the duration of a kernel instance and have
    ordinary (not write-once) semantics; they exist so kernel bodies can
    build up a value of initially unknown extent before storing it to a
    global field, which is how implicit resizing enters the program
    (figure 5's ``init`` kernel).
    """

    def __init__(self, dtype: str = "int32", ndim: int = 1) -> None:
        if dtype not in DTYPES:
            raise DefinitionError(f"unknown dtype {dtype!r}")
        self._dtype = DTYPES[dtype]
        self._ndim = ndim
        self._data = np.zeros((0,) * ndim, dtype=self._dtype)

    @property
    def data(self) -> np.ndarray:
        """The local field's backing array (what a store of it writes)."""
        return self._data

    def put(self, value: Any, *index: int) -> None:
        """``put(values, v, i, ...)`` — store value at index, growing."""
        if len(index) != self._ndim:
            raise ExtentError(
                f"local field put: got {len(index)} indices, need {self._ndim}"
            )
        if any(i < 0 for i in index):
            raise ExtentError(f"negative index {index}")
        needed = tuple(
            max(cur, i + 1) for cur, i in zip(self._data.shape, index)
        )
        if needed != self._data.shape:
            data = np.zeros(needed, dtype=self._dtype)
            old = tuple(slice(0, n) for n in self._data.shape)
            data[old] = self._data
            self._data = data
        self._data[index] = value

    def get(self, *index: int) -> Any:
        """``get(values, i, ...)`` — read one element."""
        return self._data[tuple(index)]

    def extent(self, dim: int = 0) -> int:
        """``extent(values, dim)`` — size along a dimension."""
        return self._data.shape[dim]

    def from_array(self, arr: Any) -> "LocalField":
        """Replace contents wholesale (used when a fetch targets a local)."""
        self._data = np.asarray(arr, dtype=self._dtype)
        return self


class FieldStore:
    """All live fields of a running program, by name."""

    def __init__(self, defs: Iterable[FieldDef] = ()) -> None:
        self._fields: dict[str, Field] = {}
        for fdef in defs:
            self.add(fdef)

    def _make_field(self, fdef: FieldDef) -> Field:
        """Field construction hook (overridden by the shared-memory store)."""
        return Field(fdef)

    def add(self, fdef: FieldDef) -> Field:
        """Create and register a new field; rejects duplicates."""
        if fdef.name in self._fields:
            raise DefinitionError(f"duplicate field {fdef.name!r}")
        f = self._make_field(fdef)
        self._fields[fdef.name] = f
        return f

    def __getitem__(self, name: str) -> Field:
        try:
            return self._fields[name]
        except KeyError:
            raise DefinitionError(f"unknown field {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __iter__(self):
        return iter(self._fields.values())

    def names(self) -> list[str]:
        """Sorted field names."""
        return sorted(self._fields)

    def live_bytes(self) -> int:
        """Bytes held by all fields' non-collected ages."""
        return sum(f.live_bytes() for f in self._fields.values())

    def collect_below(self, min_live_age: int, fields=None) -> int:
        """GC every aging field below the given age; returns bytes freed.

        ``fields`` (an iterable of field names) scopes the collection —
        the per-session retirement path frees only one tenant's fields,
        never a co-resident session's live ages.
        """
        names = None if fields is None else set(fields)
        return sum(
            f.collect_below(min_live_age)
            for f in self._fields.values()
            if f.fdef.aging and (names is None or f.name in names)
        )


class SharedField(Field):
    """A field whose per-age payload lives in shared-memory segments.

    Used by the ``processes`` execution backend.  The parent runtime
    owns every segment: it gives an age one when the age is first
    stored or dispatched to (before a worker could touch it), takes it
    back into the field's pool when the age is collected — the next new
    age takes a pooled segment before a new one is created — and unlinks
    them all at teardown.  Workers attach by :func:`segment_name` of the
    serial a claim's message carries (:meth:`segment`) and read/write
    zero-copy views.  Requires a declared shape — shared payloads cannot
    grow, so every segment of a field has the same size.
    """

    def __init__(self, fdef: FieldDef, run_id: str) -> None:
        if fdef.shape is None:
            raise DefinitionError(
                f"field {fdef.name!r}: shared-memory fields require a "
                f"declared shape (implicit resizing cannot cross process "
                f"boundaries); declare the extent or use the threads "
                f"backend"
            )
        super().__init__(fdef)
        self.run_id = run_id
        #: collected ages' segments, ``(serial, shm)``, for new ages
        self._pool: list[tuple[int, Any]] = []
        #: segments this field has created (serials ``0 .. n - 1``)
        self.segments_created = 0

    def _new_slot(self, age: int) -> _AgeSlot:
        if self._pool:
            serial, shm = self._pool.pop()
        else:
            serial = self.segments_created
            shm = shared_memory.SharedMemory(
                name=segment_name(self.run_id, self.name, serial),
                create=True,
                size=max(1, math.prod(self._extent) * self._dtype.itemsize),
            )
            self.segments_created += 1
        return _SharedAgeSlot(shm, serial, self._extent, self._dtype)

    def _free_locked(self, age: int) -> int:
        slot = self._ages.pop(age)
        self._pool.append((slot.serial, slot.shm))
        return slot.data.nbytes + slot.written.nbytes

    def ensure_age(self, age: int) -> int:
        """Give ``age`` a segment if it has none yet; returns its serial
        (the parent calls this for a claim's store targets before it
        dispatches the claim, so the worker's attach can never race
        segment creation)."""
        self._check_age(age)
        with self._lock:
            return self._slot(age, create=True).serial

    def segment(self, age: int) -> int | None:
        """The serial of ``age``'s segment (named :func:`segment_name`
        of it), ``None`` while the age has none or after it was
        collected."""
        with self._lock:
            slot = self._ages.get(age)
            return None if slot is None else slot.serial

    def release_segments(self) -> None:
        """Unlink every segment — the live ages' names only (their
        mappings are kept so the parent can still fetch results), the
        pooled ones closed too.  Idempotent; called at run teardown."""
        with self._lock:
            for slot in self._ages.values():
                _unlink(slot.shm)
            for _serial, shm in self._pool:
                _unlink(shm)
                try:
                    shm.close()
                except BufferError:  # pragma: no cover - a view escaped
                    pass
            self._pool.clear()


class SharedFieldStore(FieldStore):
    """A :class:`FieldStore` backed by shared memory (process backend).

    ``run_id`` namespaces the segment names so concurrent runs (or a
    crashed predecessor's leftovers) can never collide.
    """

    def __init__(
        self, defs: Iterable[FieldDef] = (), run_id: str | None = None
    ) -> None:
        self.run_id = run_id if run_id is not None else secrets.token_hex(4)
        super().__init__(defs)

    def _make_field(self, fdef: FieldDef) -> Field:
        return SharedField(fdef, self.run_id)

    def release(self) -> None:
        """Unlink all segments (teardown; mappings stay readable)."""
        for f in self:
            if isinstance(f, SharedField):
                f.release_segments()
