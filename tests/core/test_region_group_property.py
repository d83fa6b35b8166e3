"""Property-based equivalence: a region group moves, commits and fails
exactly like the per-region loop it replaces.

Random extents, block shapes and index sets — duplicates, out-of-range
and negative starts, pre-written cells, collected ages, shapes that do
not tile — against references that go one region at a time.  The group
path may only ever be *faster*: same payload bytes, same mask and
counters, the same exception type; and a violating group commits
nothing.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import FieldDef
from repro.core.backends import _NodeFields
from repro.core.errors import (
    CollectedAgeError,
    ExtentError,
    WriteOnceViolation,
)
from repro.core.events import StoreEvent
from repro.core.fields import (
    Field,
    FieldStore,
    RegionGroup,
    _raster_pieces,
    gather,
    scatter,
)


@st.composite
def layouts(draw, in_bounds=False):
    """``(extent, shape, starts)``: a field extent, a block shape and
    ``n`` block starts — mostly aligned blocks of a tiling extent, with
    every way of not being that mixed in."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    grid = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    ragged = draw(st.booleans())
    extent = tuple(
        g * b + (draw(st.integers(0, b - 1)) if ragged else 0)
        for g, b in zip(grid, shape)
    )
    n = draw(st.integers(1, 8))
    aligned = draw(st.booleans())
    starts = []
    for _ in range(n):
        row = []
        for g, b, size in zip(grid, shape, extent):
            if in_bounds:
                lo, hi = 0, size - b
            else:
                lo, hi = -b, size + b
            v = draw(st.integers(lo, hi))
            row.append(v - v % b if aligned and v >= 0 else v)
        starts.append(row)
    return extent, shape, starts


def _state(field, age):
    """Mask (an untouched age is all-unwritten), element count and the
    field-wide counters."""
    slot = field._ages.get(age)
    return (
        np.zeros(field.extent, bool) if slot is None
        else slot.written.copy(),
        0 if slot is None else slot.store_count,
        field.elements_written,
        field.max_stored_age,
    )


def _same_state(a, b):
    return np.array_equal(a[0], b[0]) and a[1:] == b[1:]


def _outcome(fn):
    try:
        return fn(), None
    except (ExtentError, CollectedAgeError, WriteOnceViolation) as exc:
        return None, exc


class TestGatherScatter:
    @given(layouts(in_bounds=True), st.integers(0, 2**32 - 1))
    @settings(max_examples=3 * settings.default.max_examples // 2,
              deadline=None)
    def test_one_operation_equals_the_loop(self, layout, seed):
        extent, shape, starts = layout
        group = RegionGroup(starts, shape)
        rng = np.random.default_rng(seed)
        arr = rng.integers(0, 1000, extent)
        stack = gather(arr, group)
        assert stack.shape == (len(starts),) + shape
        assert np.array_equal(stack, np.stack([arr[r] for r in group]))
        # a member's values are a function of where it starts, so
        # members that coincide agree and assignment order is moot
        values = np.stack([
            np.full(shape, 1 + sum(k * s for k, s in enumerate(row, 7)))
            for row in starts
        ])
        got, want = np.zeros(extent, int), np.zeros(extent, int)
        scatter(got, group, values)
        for region, value in zip(group, values):
            want[region] = value
        assert np.array_equal(got, want)
        scatter(got, group, -1)  # scalar broadcast, both selections
        for region in group:
            want[region] = -1
        assert np.array_equal(got, want)

    @given(layouts())
    @settings(max_examples=settings.default.max_examples,
              deadline=None)
    def test_a_group_is_the_slice_tuples_it_replaces(self, layout):
        extent, shape, starts = layout
        group = RegionGroup(starts, shape)
        regions = [
            tuple(slice(a, a + b) for a, b in zip(row, shape))
            for row in starts
        ]
        assert list(group) == regions
        assert [group[i] for i in range(len(group))] == regions
        assert list(group[1:]) == regions[1:]
        assert group.elements == len(starts) * int(np.prod(shape))
        coords = group.tiles(extent)
        tiles = all(
            size % b == 0 for size, b in zip(extent, shape)
        ) and all(
            0 <= a <= size - b and a % b == 0
            for row in starts for a, b, size in zip(row, shape, extent)
        )
        assert (coords is not None) == tiles
        if tiles:
            assert (coords * shape == group.starts).all()
        assert group == RegionGroup(np.array(starts), list(shape))
        assert group != RegionGroup(np.array(starts) + 1, shape)


class TestCommitEquivalence:
    """``Field.mark_written_many``: group and list inputs against a
    model that validates every region, then checks and marks one at a
    time on a scratch mask."""

    @staticmethod
    def _model(field, age, regions):
        """Expected ``(mask, exception type)``."""
        extent = field.extent
        for r in regions:
            if any(s.start < 0 or s.stop > n for s, n in zip(r, extent)):
                return None, ExtentError
        if field._retired(age):
            return None, CollectedAgeError
        slot = field._ages.get(age)
        mask = (
            np.zeros(extent, bool) if slot is None else slot.written.copy()
        )
        for r in regions:
            if mask[r].any():
                return None, WriteOnceViolation
            mask[r] = True
        return mask, None

    @given(
        layouts(),
        st.lists(st.integers(0, 63), max_size=4),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=3 * settings.default.max_examples,
              deadline=None)
    def test_group_and_list_commit_like_the_loop(
        self, layout, prewritten, collected, as_list
    ):
        extent, shape, starts = layout
        field = Field(FieldDef("f", "int32", len(extent), shape=extent))
        field.mark_written_many(1, [tuple(slice(0, n) for n in extent)])
        for flat in prewritten:
            cell = np.unravel_index(flat % int(np.prod(extent)), extent)
            if not field.is_complete(0, tuple(int(c) for c in cell)):
                field.mark_written_many(0, [tuple(int(c) for c in cell)])
        if collected:
            field.collect_age(0)
        group = RegionGroup(starts, shape)
        regions = list(group)
        before = _state(field, 0)
        mask, expected = self._model(field, 0, regions)
        _, exc = _outcome(
            lambda: field.mark_written_many(
                0, regions if as_list else group
            )
        )
        assert type(exc) is (expected or type(None))
        after = _state(field, 0)
        if exc is not None:
            # all or nothing: a failing call leaves no trace
            assert _same_state(before, after)
            if isinstance(exc, WriteOnceViolation):
                # ...and names an element that really is contested
                cell = exc.index
                covering = sum(
                    all(s.start <= c < s.stop for s, c in zip(r, cell))
                    for r in regions
                )
                was = before[0][cell]
                assert covering >= 1 and (was or covering >= 2)
        else:
            added = len(starts) * int(np.prod(shape))
            assert np.array_equal(after[0], mask)
            assert after[1] == before[1] + added
            assert after[2] == before[2] + added
            assert after[3] == max(before[3], 0)


class TestAdapterEquivalence:
    """The thread adapter's group store/fetch against the same adapter
    fed one region at a time (what the stacked path did before)."""

    @staticmethod
    def _adapter(extent, fixed, prewritten):
        fdef = FieldDef(
            "f", "int64", len(extent), shape=extent if fixed else None
        )
        events = []
        node = SimpleNamespace(
            fields=FieldStore([fdef]), recover=False, _post=events.append
        )
        field = node.fields["f"]
        whole = tuple(slice(0, n) for n in extent)
        field.store(1, whole, np.zeros(extent))  # establishes the extent
        for flat in prewritten:
            cell = tuple(
                int(c) for c in
                np.unravel_index(flat % int(np.prod(extent)), extent)
            )
            if not field.is_complete(0, cell):
                field.store(0, cell, -5)
        return _NodeFields(node), field, events

    @given(
        layouts(in_bounds=True),
        st.lists(st.integers(0, 63), max_size=3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=2 * settings.default.max_examples,
              deadline=None)
    def test_group_write_then_read_equals_per_region(
        self, layout, prewritten, fixed, seed
    ):
        extent, shape, starts = layout
        group = RegionGroup(starts, shape)
        stack = np.random.default_rng(seed).integers(
            0, 1000, (len(starts),) + shape
        )
        mem_g, field_g, events_g = self._adapter(extent, fixed, prewritten)
        mem_l, field_l, events_l = self._adapter(extent, fixed, prewritten)
        before = _state(field_g, 0)

        def loop_write():
            for region, arr in zip(group, stack):
                mem_l.write(field_l, 0, region, arr)

        _, exc_g = _outcome(lambda: mem_g.write(field_g, 0, group, stack))
        _, exc_l = _outcome(loop_write)
        assert type(exc_g) is type(exc_l)
        if exc_g is not None:
            # a violating group commits nothing, tiling or not
            assert _same_state(before, _state(field_g, 0))
            assert not events_g
            return
        assert _same_state(_state(field_g, 0), _state(field_l, 0))
        assert np.array_equal(field_g._ages[0].data, field_l._ages[0].data)
        # the adapter commits; the claim's commit tail announces stores
        # (test_batch.py::TestScalarClaims), so neither posts a store event
        assert not any(
            isinstance(ev, StoreEvent) for ev in events_g + events_l
        )
        got, exc_g = _outcome(lambda: mem_g.read(field_g, 0, group))
        want, exc_l = _outcome(
            lambda: np.stack([mem_l.read(field_l, 0, r) for r in group])
        )
        assert exc_g is None and exc_l is None
        assert np.array_equal(got, want) and np.array_equal(got, stack)

    @given(layouts(in_bounds=True), st.booleans())
    @settings(max_examples=settings.default.max_examples,
              deadline=None)
    def test_incomplete_group_fetch_raises_like_the_loop(
        self, layout, fixed
    ):
        extent, shape, starts = layout
        group = RegionGroup(starts, shape)
        mem, field, _events = self._adapter(extent, fixed, [])
        mem.write(field, 0, group[0], np.ones(shape))
        got, exc_g = _outcome(lambda: mem.read(field, 0, group))
        want, exc_l = _outcome(
            lambda: np.stack([mem.read(field, 0, r) for r in group])
        )
        assert type(exc_g) is type(exc_l)
        if exc_g is None:
            assert np.array_equal(got, want)

    def test_field_stores_ragged_groups_whole(self):
        ragged = RegionGroup([[0], [4]], (4,))  # 10 is not a multiple
        # a group that does not tile is stored whole ...
        field = Field(FieldDef("f", "int64", 1, shape=(10,)))
        field.store(0, ragged, np.arange(8).reshape(2, 4))
        assert field.written_count(0) == 8
        assert field.fetch(0, slice(0, 8)).tolist() == list(range(8))
        # ... and, violating, commits nothing
        field.store(1, 5, -1)
        with pytest.raises(WriteOnceViolation):
            field.store(1, ragged, np.zeros((2, 4)))
        assert field.written_count(1) == 1
        assert not field._ages[1].data[:5].any()
        # a fetch only needs the group inside the extent
        field = Field(FieldDef("f", "int64", 1, shape=(10,)))
        field.store(0, slice(0, 10), np.arange(10))
        assert field.fetch(0, ragged).tolist() == [[0, 1, 2, 3],
                                                   [4, 5, 6, 7]]
        with pytest.raises(ExtentError, match="exceeds extent"):
            field.fetch(0, RegionGroup([[0], [8]], (4,)))
        with pytest.raises(ExtentError, match="exceeds extent"):
            field.fetch(0, RegionGroup([[-4], [4]], (4,)))


@st.composite
def raster_runs(draw):
    """``(extent, shape, starts, (a, b))``: a 2-D extent cut into blocks
    of ``shape`` and the starts of its blocks ``a .. b - 1`` in raster
    order — one block, a run inside one block row, a run starting or
    ending anywhere, whole block rows, or the whole field."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    gy, gx = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    extent = (gy * shape[0], gx * shape[1])
    kind = draw(st.sampled_from(["block", "in_row", "any", "rows", "all"]))
    if kind == "block":
        a = draw(st.integers(0, gy * gx - 1))
        b = a + 1
    elif kind == "in_row":
        row = draw(st.integers(0, gy - 1)) * gx
        c0 = draw(st.integers(0, gx - 1))
        a, b = row + c0, row + draw(st.integers(c0 + 1, gx))
    elif kind == "any":
        a = draw(st.integers(0, gy * gx - 1))
        b = draw(st.integers(a + 1, gy * gx))
    elif kind == "rows":
        r0 = draw(st.integers(0, gy - 1))
        a, b = r0 * gx, draw(st.integers(r0 + 1, gy)) * gx
    else:
        a, b = 0, gy * gx
    k = np.arange(a, b)
    starts = np.stack([k // gx * shape[0], k % gx * shape[1]], axis=1)
    return extent, shape, starts, (a, b)


def _general(fn):
    """``fn()`` with raster runs unrecognized: the general path, which
    is the reference."""
    with mock.patch.object(RegionGroup, "raster", lambda self, extent: None):
        return _outcome(fn)


def _cells(extent, flats):
    return {
        tuple(int(c) for c in np.unravel_index(f % int(np.prod(extent)),
                                               extent))
        for f in flats
    }


def _same_exc(a, b):
    return type(a) is type(b) and getattr(a, "index", None) == getattr(
        b, "index", None)


class TestRasterRuns:
    """A contiguous raster run of blocks moves, commits, checks and
    fails through at most three strided views exactly as the general
    path (``_block_grid``'s index, the overlap check) and the
    per-region loop do."""

    @given(raster_runs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=2 * settings.default.max_examples,
              deadline=None)
    def test_a_run_moves_like_the_loop(self, run, seed):
        extent, shape, starts, bounds = run
        group = RegionGroup(starts, shape)
        assert group.raster(extent) == bounds
        rng = np.random.default_rng(seed)
        arr = rng.integers(0, 1000, extent)
        assert 1 <= len(_raster_pieces(arr, group)) <= 3
        stack = gather(arr, group)
        assert np.array_equal(stack, np.stack([arr[r] for r in group]))
        values = rng.integers(0, 1000, (len(group),) + shape)
        got, want = np.zeros(extent, int), np.zeros(extent, int)
        scatter(got, group, values)
        for region, value in zip(group, values):
            want[region] = value
        assert np.array_equal(got, want)
        scatter(got, group, -1)
        for region in group:
            want[region] = -1
        assert np.array_equal(got, want)
        # a stack that is not C-contiguous, and one row broadcast
        scatter(got, group, values.transpose(0, 2, 1).copy().transpose(
            0, 2, 1))
        for region, value in zip(group, values):
            want[region] = value
        assert np.array_equal(got, want)
        scatter(got, group, values[:1])
        for region in group:
            want[region] = values[0]
        assert np.array_equal(got, want)

    @given(
        raster_runs(),
        st.lists(st.integers(0, 399), max_size=3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=3 * settings.default.max_examples,
              deadline=None)
    def test_a_run_commits_and_fails_like_the_general_path(
        self, run, prewritten, seed
    ):
        extent, shape, starts, _bounds = run
        group = RegionGroup(starts, shape)
        cells = _cells(extent, prewritten)
        stack = np.random.default_rng(seed).integers(
            0, 1000, (len(group),) + shape)

        def field():
            f = Field(FieldDef("f", "int64", 2, shape=extent))
            for cell in cells:
                f.store(0, cell, -5)
            return f

        # the write-once check: the same element named
        f_run, f_gen = field(), field()
        _, exc_run = _outcome(lambda: f_run._check_unwritten(
            0, f_run._ages[0], group) if cells else None)
        _, exc_gen = _general(lambda: f_gen._check_unwritten(
            0, f_gen._ages[0], group) if cells else None)
        assert _same_exc(exc_run, exc_gen)
        # the per-region loop: the first member holding a written cell,
        # its first such cell in row-major order
        written = np.zeros(extent, bool)
        for cell in cells:
            written[cell] = True
        first = next((
            tuple(s.start + int(o) for s, o in zip(r, np.argwhere(
                written[r])[0]))
            for r in group if written[r].any()
        ), None)
        assert (exc_run is None) == (first is None)
        if first is not None:
            assert isinstance(exc_run, WriteOnceViolation)
            assert exc_run.index == first
        # mark_written_many and Field.store of the group
        for op in (
            lambda f: f.mark_written_many(0, group),
            lambda f: f.store(0, group, stack),
        ):
            f_run, f_gen = field(), field()
            _, exc_run = _outcome(lambda: op(f_run))
            _, exc_gen = _general(lambda: op(f_gen))
            assert _same_exc(exc_run, exc_gen)
            assert _same_state(_state(f_run, 0), _state(f_gen, 0))
            assert np.array_equal(f_run._ages[0].data, f_gen._ages[0].data)
        # fetch and peek: of the stored group, and of a part-written one
        f_run = field()
        if not cells:
            f_run.store(0, group, stack)
            assert np.array_equal(f_run.fetch(0, group), stack)
        for f in (f_run, field()):
            got, exc_run = _outcome(lambda: f.fetch(0, group))
            want, exc_gen = _general(lambda: f.fetch(0, group))
            assert _same_exc(exc_run, exc_gen)
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got, want)
                assert np.array_equal(got, np.stack([
                    f.fetch(0, r) for r in group]))
            peeked = f.peek(0, group)
            assert (peeked is None) == (got is None)

    @given(
        raster_runs(),
        st.sampled_from(["gapped", "reversed", "repeated"]),
        st.data(),
    )
    @settings(max_examples=2 * settings.default.max_examples,
              deadline=None)
    def test_other_tiling_groups_take_the_general_path(
        self, run, how, data
    ):
        extent, shape, starts, _bounds = run
        n = len(starts)
        if how == "gapped":
            assume(n >= 3)
            gap = data.draw(st.integers(1, n - 2))
            starts = np.delete(starts, gap, axis=0)
        elif how == "reversed":
            assume(n >= 2)
            starts = starts[::-1]
        else:
            twice = data.draw(st.integers(0, n - 1))
            starts = np.insert(starts, data.draw(st.integers(twice + 1, n)),
                               starts[twice], axis=0)
        group = RegionGroup(starts, shape)
        assert group.tiles(extent) is not None
        assert group.raster(extent) is None
        assert _raster_pieces(np.zeros(extent), group) is None
        field = Field(FieldDef("f", "int64", 2, shape=extent))
        mask, expected = TestCommitEquivalence._model(field, 0, list(group))
        _, exc = _outcome(lambda: field.mark_written_many(0, group))
        assert type(exc) is (expected or type(None))
        if how == "repeated":
            # the first member that repeats an earlier one is named
            seen, repeat = set(), None
            for row in starts.tolist():
                if tuple(row) in seen:
                    repeat = tuple(row)
                    break
                seen.add(tuple(row))
            assert exc.index == repeat
            assert field.written_count(0) == 0
        else:
            assert np.array_equal(field._ages[0].written, mask)
