"""Unit tests for write-once, aging, multi-dimensional fields."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AgeError,
    CollectedAgeError,
    DefinitionError,
    ExtentError,
    FieldDef,
    FieldStore,
    LocalField,
    WriteOnceViolation,
    normalize_index,
)
from repro.core.fields import Field, RegionGroup, index_shape


def make(name="f", dtype="int32", ndim=1, aging=True, shape=None) -> Field:
    return Field(FieldDef(name, dtype, ndim, aging, shape))


def group_of(regions) -> RegionGroup:
    """The group of equal-shape normalized ``regions``."""
    return RegionGroup(
        [[s.start for s in r] for r in regions], index_shape(regions[0])
    )


class TestFieldDef:
    def test_rejects_unknown_dtype(self):
        with pytest.raises(DefinitionError):
            FieldDef("f", "complex128", 1)

    def test_rejects_zero_dims(self):
        with pytest.raises(DefinitionError):
            FieldDef("f", "int32", 0)

    def test_shape_must_match_ndim(self):
        with pytest.raises(DefinitionError):
            FieldDef("f", "int32", 2, shape=(3,))

    def test_shape_rejects_negative(self):
        with pytest.raises(DefinitionError):
            FieldDef("f", "int32", 1, shape=(-1,))

    def test_np_dtype(self):
        assert FieldDef("f", "float32", 1).np_dtype == np.float32


class TestNormalizeIndex:
    def test_scalar_becomes_unit_slice(self):
        assert normalize_index(3, 1) == (slice(3, 4),)

    def test_tuple_mixed(self):
        idx = normalize_index((2, slice(0, 4)), 2)
        assert idx == (slice(2, 3), slice(0, 4))

    def test_none_start_defaults_to_zero(self):
        assert normalize_index(slice(None, 5), 1) == (slice(0, 5),)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ExtentError):
            normalize_index((1, 2), 1)

    def test_rejects_negative(self):
        with pytest.raises(ExtentError):
            normalize_index(-1, 1)

    def test_rejects_open_ended(self):
        with pytest.raises(ExtentError):
            normalize_index(slice(2, None), 1)

    def test_rejects_step(self):
        with pytest.raises(ExtentError):
            normalize_index(slice(0, 4, 2), 1)

    def test_index_shape(self):
        assert index_shape((slice(2, 5), slice(0, 3))) == (3, 3)


class TestWriteOnce:
    def test_store_then_fetch(self):
        f = make()
        f.store(0, 2, 7)
        assert f.fetch(0, 2).item() == 7

    def test_double_store_same_element_raises(self):
        f = make()
        f.store(0, 1, 5)
        with pytest.raises(WriteOnceViolation) as e:
            f.store(0, 1, 6)
        assert e.value.field == "f"
        assert e.value.age == 0
        assert e.value.index == (1,)

    def test_overlapping_region_raises(self):
        f = make()
        f.store(0, slice(0, 4), [1, 2, 3, 4])
        with pytest.raises(WriteOnceViolation):
            f.store(0, slice(3, 6), [9, 9, 9])

    def test_same_position_different_age_is_fine(self):
        f = make()
        f.store(0, 0, 1)
        f.store(1, 0, 2)
        assert f.fetch(0, 0).item() == 1
        assert f.fetch(1, 0).item() == 2

    def test_non_aging_rejects_age(self):
        f = make(aging=False)
        f.store(0, 0, 1)
        with pytest.raises(AgeError):
            f.store(1, 0, 1)

    def test_negative_age_rejected(self):
        with pytest.raises(AgeError):
            make().store(-1, 0, 1)


class TestGroupCommitIsAllOrNothing:
    """A violating ``mark_written_many`` call — or group store — leaves
    the field as it found it: it used to commit region by region and
    raise mid-way, leaving regions marked written that no store event
    would ever announce."""

    BLOCKS = [(slice(y, y + 2), slice(x, x + 2))
              for y in (0, 2) for x in (0, 2, 4)]

    @staticmethod
    def _snapshot(f, age=3):
        return (f._ages[age].written.copy(), f.written_count(age),
                f.elements_written, f.max_stored_age)

    def _field(self):
        f = make(ndim=2, shape=(4, 6))
        f.mark_written_many(3, [self.BLOCKS[4]])  # one already written
        return f

    @pytest.mark.parametrize("as_group", [False, True],
                             ids=["list", "group"])
    @pytest.mark.parametrize("bad", ["prewritten", "overlap"])
    def test_violating_call_commits_nothing(self, as_group, bad):
        f = self._field()
        regions = self.BLOCKS[:4] + (
            [self.BLOCKS[4]] if bad == "prewritten" else [self.BLOCKS[1]]
        )
        before = self._snapshot(f)
        with pytest.raises(WriteOnceViolation) as e:
            f.mark_written_many(
                3, group_of(regions) if as_group else regions
            )
        after = self._snapshot(f)
        assert np.array_equal(before[0], after[0])
        assert before[1:] == after[1:] == (4, 4, 3)
        # the named element is in the offending block
        offending = regions[-1]
        assert all(s.start <= i < s.stop
                   for s, i in zip(offending, e.value.index))
        # and the rest of the group is still storable afterwards
        f.mark_written_many(3, regions[:4])
        assert f.written_count(3) == 20

    def test_list_with_partial_overlap_rolls_back(self):
        # not expressible as a tiling group: the second region straddles
        f = self._field()
        before = self._snapshot(f)
        with pytest.raises(WriteOnceViolation):
            f.mark_written_many(
                3, [(slice(0, 2), slice(0, 2)), (slice(1, 3), slice(1, 3))]
            )
        assert np.array_equal(before[0], self._snapshot(f)[0])
        assert f.written_count(3) == 4 and f.max_stored_age == 3

    def test_violating_group_store_writes_no_payload(self):
        f = make(ndim=2, shape=(4, 6))
        f.store(0, self.BLOCKS[4], np.full((2, 2), 9))
        group = group_of(self.BLOCKS[:5])
        with pytest.raises(WriteOnceViolation):
            f.store(0, group, np.ones((5, 2, 2)))
        assert f.written_count(0) == 4 and f.elements_written == 4
        assert not f._ages[0].data[:2].any()  # nothing copied either
        f.store(0, group_of(self.BLOCKS[:4]), np.ones((4, 2, 2)))
        assert f.fetch(0, group_of(self.BLOCKS[:5])).tolist() == (
            [[[1, 1], [1, 1]]] * 4 + [[[9, 9], [9, 9]]]
        )

    @pytest.mark.parametrize("op", ["store", "mark"])
    def test_violating_ragged_group_commits_nothing(self, op):
        """A group that does not tile its field — blocks of 4 over 10
        elements — is checked region by region, and a violation clears
        what the check had marked: the group commits nothing."""
        f = make(shape=(10,))
        f.store(3, 5, 7)
        ragged = RegionGroup([[0], [4]], (4,))  # 5 is in the second
        commit = {
            "store": lambda g: f.store(3, g, np.ones((len(g), 4))),
            "mark": lambda g: f.mark_written_many(3, g),
        }[op]
        before = self._snapshot(f)
        with pytest.raises(WriteOnceViolation) as e:
            commit(ragged)
        after = self._snapshot(f)
        assert np.array_equal(before[0], after[0])
        assert before[1:] == after[1:] == (1, 1, 3)
        assert e.value.index == (5,)
        assert not f._ages[3].data[:4].any()  # nothing copied either
        commit(ragged[:1])  # the member that did not violate still commits
        assert f.written_count(3) == 5

    @pytest.mark.parametrize("bad_at", [0, 395, 791])
    @pytest.mark.parametrize("shape", ["group", "stacks"])
    def test_violation_anywhere_in_a_claim_commits_nothing(self, bad_at,
                                                           shape):
        """A claim is hundreds of regions — half a CIF luma plane — and
        commits as one call: a single tiling group, or (a claim that ran
        stack by stack) its per-stack groups merged into one list.  One
        pre-written block, wherever it sits, and none of the other 791
        is marked."""
        f = make(ndim=2, shape=(144, 352))  # 18 x 44 blocks of 8 x 8
        blocks = [(slice(y, y + 8), slice(x, x + 8))
                  for y in range(0, 144, 8) for x in range(0, 352, 8)]
        f.mark_written_many(0, [blocks[bad_at]])
        claim = group_of(blocks)
        if shape == "stacks":
            claim = [r for lo in range(0, 792, 32)
                     for r in claim[lo:lo + 32]]
        before = self._snapshot(f, 0)
        with pytest.raises(WriteOnceViolation) as e:
            f.mark_written_many(0, claim)
        after = self._snapshot(f, 0)
        assert np.array_equal(before[0], after[0])
        assert before[1:] == after[1:] == (64, 64, 0)
        assert all(s.start <= i < s.stop
                   for s, i in zip(blocks[bad_at], e.value.index))
        # the same claim without the offender still commits whole
        rest = blocks[:bad_at] + blocks[bad_at + 1:]
        f.mark_written_many(0, group_of(rest))
        assert f.is_complete(0)


def first_repeat_by_set(group):
    """The member check as a set walk, the reference the one-operation
    check must agree with: the start of the first member, in group
    order, that repeats an earlier one (``None`` when all differ)."""
    seen = set()
    for row in map(tuple, group.starts.tolist()):
        if row in seen:
            return row
        seen.add(row)
    return None


@st.composite
def tiling_groups_with_repeats(draw):
    """(extent, group) — a group of blocks tiling ``extent``, in random
    order, with up to four members repeated at random positions."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    grid = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.stack(
        np.unravel_index(np.arange(int(np.prod(grid))), grid), axis=1
    )
    members = rng.permutation(cells)[: int(rng.integers(1, len(cells) + 1))]
    for _ in range(draw(st.integers(0, 4))):
        at = int(rng.integers(0, len(members) + 1))
        twin = members[int(rng.integers(0, len(members)))]
        members = np.insert(members, at, twin, axis=0)
    extent = tuple(b * g for b, g in zip(shape, grid))
    return extent, RegionGroup(members * shape, shape)


class TestRecoverMode:
    """``recover`` (a successor re-running its dead predecessor's
    stores): a region already complete is skipped — neither marked nor
    copied — while a partly written one still raises and the call
    commits nothing, for every shape of input and with or without a
    payload."""

    # (regions, payload, elements new past the predecessor's 0:5);
    # every first member covers element 2
    CASES = {
        "one": (slice(0, 5), np.zeros(5), 0),
        "tiling": (RegionGroup([[0], [5]], (5,)), np.full((2, 5), 7), 5),
        "ragged": (RegionGroup([[1], [5]], (4,)), np.full((2, 4), 7), 4),
        "list": ([(slice(1, 3),), (slice(6, 9),)],
                 [np.zeros(2), np.full(3, 7)], 3),
    }

    @staticmethod
    def _commit(f, regions, values, op):
        if op == "store":
            return f.store(0, regions, values, recover=True)
        return f.mark_written_many(
            0, [regions] if isinstance(regions, slice) else regions,
            recover=True)

    @pytest.mark.parametrize("op", ["store", "mark"])
    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_a_complete_region_is_skipped(self, kind, op):
        regions, values, fresh = self.CASES[kind]
        f = make(shape=(10,))
        f.store(0, slice(0, 5), np.full(5, 9))  # the predecessor's
        self._commit(f, regions, values, op)
        assert f.written_count(0) == f.elements_written == 5 + fresh
        assert f.fetch(0, slice(0, 5)).tolist() == [9] * 5
        if fresh and op == "store":
            assert (f._ages[0].data[5:] == 7).sum() == fresh

    @pytest.mark.parametrize("op", ["store", "mark"])
    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_a_partly_written_region_still_raises(self, kind, op):
        regions, values, _fresh = self.CASES[kind]
        f = make(shape=(10,))
        f.store(0, 2, 9)
        with pytest.raises(WriteOnceViolation) as e:
            self._commit(f, regions, values, op)
        assert e.value.index == (2,)
        assert f.written_count(0) == 1
        assert f._ages[0].data.tolist() == [0, 0, 9] + [0] * 7


class TestDuplicateMembers:
    """A stacked commit finds two members on one block with one NumPy
    operation, and names the element the set walk named."""

    @given(tiling_groups_with_repeats(), st.sampled_from(["store", "mark"]))
    @settings(max_examples=60, deadline=None)
    def test_names_the_first_repeat_like_the_set_walk(self, case, entry):
        extent, group = case
        f = make(ndim=len(extent), shape=extent)
        want = first_repeat_by_set(group)

        def commit():
            if entry == "store":
                f.store(2, group, np.ones((len(group),) + group.shape))
            else:
                f.mark_written_many(2, group)

        if want is None:
            commit()
            assert f.written_count(2) == group.elements
            return
        with pytest.raises(WriteOnceViolation) as e:
            commit()
        assert (e.value.field, e.value.age, e.value.index) == ("f", 2, want)
        assert f.written_count(2) == 0


class TestImplicitResize:
    def test_store_grows_extent(self):
        f = make()
        assert f.extent == (0,)
        info = f.store(0, 4, 1)
        assert f.extent == (5,)
        assert info is not None
        assert info.old_extent == (0,)
        assert info.new_extent == (5,)

    def test_no_resize_within_extent(self):
        f = make()
        f.store(0, 9, 1)
        assert f.store(0, 3, 1) is None

    def test_resize_preserves_other_ages(self):
        f = make()
        f.store(0, slice(0, 3), [1, 2, 3])
        f.store(1, 7, 9)  # grows to 8; age 0 data must survive
        assert f.fetch(0, slice(0, 3)).tolist() == [1, 2, 3]

    def test_2d_resize(self):
        f = make(ndim=2)
        f.store(0, (slice(0, 2), slice(0, 3)), np.ones((2, 3)))
        assert f.extent == (2, 3)
        f.store(0, (slice(2, 4), slice(0, 5)), np.ones((4, 5))[:2])
        assert f.extent == (4, 5)

    def test_declared_shape_fixes_extent(self):
        f = make(shape=(6,))
        assert f.extent == (6,)
        f.store(0, 5, 1)
        with pytest.raises(ExtentError):
            f.store(0, 6, 1)

    def test_value_shape_mismatch(self):
        f = make()
        with pytest.raises(ExtentError):
            f.store(0, slice(0, 3), [1, 2])

    def test_scalar_broadcast_into_region(self):
        f = make()
        f.store(0, slice(0, 3), 7)
        assert f.fetch(0, slice(0, 3)).tolist() == [7, 7, 7]


class TestCompleteness:
    def test_incomplete_whole_field(self):
        f = make()
        f.store(0, slice(0, 2), [1, 2])
        f.store(0, 3, 4)  # gap at index 2
        assert not f.is_complete(0)

    def test_complete_whole_field(self):
        f = make()
        f.store(0, slice(0, 4), [1, 2, 3, 4])
        assert f.is_complete(0)

    def test_untouched_field_never_complete(self):
        assert not make().is_complete(0)
        f = make(shape=(0,))
        assert not f.is_complete(0)

    def test_region_completeness(self):
        f = make()
        f.store(0, slice(2, 5), [1, 2, 3])
        assert f.is_complete(0, slice(2, 5))
        assert f.is_complete(0, slice(3, 4))
        assert not f.is_complete(0, slice(0, 3))

    def test_region_beyond_extent(self):
        f = make()
        f.store(0, slice(0, 2), [1, 2])
        assert not f.is_complete(0, slice(0, 5))

    def test_declared_shape_not_complete_until_all_written(self):
        f = make(shape=(4,))
        f.store(0, 0, 1)
        assert not f.is_complete(0)
        f.store(0, slice(1, 4), [2, 3, 4])
        assert f.is_complete(0)

    def test_fetch_incomplete_raises(self):
        f = make()
        f.store(0, 0, 1)
        with pytest.raises(ExtentError):
            f.fetch(0, slice(0, 3))

    def test_peek_returns_none_for_incomplete(self):
        f = make()
        assert f.peek(0) is None
        f.store(0, slice(0, 2), [1, 2])
        assert f.peek(0).tolist() == [1, 2]

    def test_written_count(self):
        f = make()
        f.store(0, slice(0, 3), [1, 2, 3])
        assert f.written_count(0) == 3
        assert f.written_count(1) == 0

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                           st.integers(0, 1)), max_size=20),
        st.lists(st.tuples(st.integers(-2, 6), st.integers(-2, 6)),
                 min_size=1, max_size=10),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-1, 2),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_members_complete_is_is_complete_per_member(
        self, cells, starts, shape, age, collect
    ):
        """One flag per member, as :meth:`Field.is_complete` answers for
        the member's region — members past the extent or before it,
        empty block shapes, ages with no slot and collected ages
        included."""
        f = Field(FieldDef("g", "int32", 2))  # grows to what is stored
        for x, y, a in cells:
            if not f.is_complete(a, (x, y)):
                f.store(a, (x, y), 1)
        if collect:
            f.collect_age(0)
        group = RegionGroup(np.array(starts, dtype=np.intp), shape)
        want = [
            f.is_complete(age, tuple(
                slice(a, a + b) for a, b in zip(row, shape)))
            for row in starts
        ]
        assert f.members_complete(age, group).tolist() == want


#: Field extents for the spelling property: large enough that drawn
#: regions range from one element to several hundred.
_SHAPES = {1: (720,), 2: (24, 30)}


@st.composite
def _spelled_ops(draw):
    """A field (1-d or 2-d, declared shape or growable) and a sequence
    of stores / fetches / collections on it, each spelled twice: as the
    runtime builds a region (a tuple of explicit unit-step ``slice``s of
    Python ints, an ndarray payload of the region's shape and the
    field's dtype) and as a user writes it (ints, ``None`` starts, NumPy
    integers, a bare slice, list payloads, a broadcast scalar).  Some
    regions are malformed or out of bounds on purpose; both spellings
    carry the same defect."""
    ndim = draw(st.sampled_from([1, 2]))
    shape = _SHAPES[ndim] if draw(st.booleans()) else None
    bound = _SHAPES[ndim]
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["store"] * 3 + ["fetch"] * 2
                                    + ["collect"]))
        age = draw(st.integers(0, 2))
        if kind == "collect":
            ops.append((kind, age, None, None, None, None))
            continue
        lean, user = [], []
        for n in bound:
            lo = draw(st.integers(0, n))
            hi = min(lo + draw(st.integers(0, n)), n + 2)  # may pass n
            defect = draw(st.sampled_from(
                [None] * 8 + ["negative", "stepped", "open"]))
            if defect == "negative":
                lean.append(slice(-1, hi))
                user.append(-1)
            elif defect == "stepped":
                lean.append(slice(lo, hi, 2))
                user.append(slice(lo, hi, 2))
            elif defect == "open":
                lean.append(slice(lo, None))
                user.append(slice(lo, None))
            else:
                lean.append(slice(lo, hi))
                form = draw(st.sampled_from(["int", "none", "numpy",
                                             "plain"]))
                if form == "int" and hi == lo + 1:
                    user.append(lo)
                elif form == "none" and lo == 0:
                    user.append(slice(None, hi))
                elif form == "numpy":
                    user.append(slice(np.int64(lo), np.int64(hi)))
                else:
                    user.append(slice(lo, hi))
        lean = tuple(lean)
        user = tuple(user) if ndim > 1 or draw(st.booleans()) else user[0]
        # the payload a runtime would build for the lean region, taken
        # literally (a negative start widens it: a lean path that let
        # it through would find a payload that fits)
        region_shape = tuple(
            0 if s.stop is None else max(0, s.stop - s.start) for s in lean
        )
        payload = draw(st.sampled_from(["array", "list", "scalar"]))
        ops.append((kind, age, lean, user, region_shape, payload))
    return ndim, shape, ops


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return ("raised", type(exc))


def _state(f):
    return (
        f.extent, f.elements_written, f.max_stored_age,
        {
            age: (slot.data.tobytes(), slot.data.shape,
                  slot.written.tobytes(), slot.store_count)
            for age, slot in sorted(f._ages.items())
        },
        f._floor, sorted(f._gone),
    )


class TestLeanPathIsTheGeneralPath:
    """A region the runtime builds — already a tuple of explicit,
    non-negative, unit-step slices, with a payload of the region's shape
    and the field's dtype — takes ``Field.store`` / ``Field.fetch``'s
    cheap path; any other spelling of the same region takes the general
    one.  The two must be indistinguishable: same bytes, masks,
    ``store_count`` and ``ResizeInfo``, and the same exception type for
    every defect, for unit and large regions alike."""

    @given(_spelled_ops())
    @settings(max_examples=150, deadline=None)
    def test_runtime_and_user_spellings_agree(self, case):
        ndim, shape, ops = case
        lean_f = make(ndim=ndim, shape=shape)
        user_f = make(ndim=ndim, shape=shape)
        for step, (kind, age, lean, user, rshape, payload) in enumerate(ops):
            if kind == "collect":
                assert lean_f.collect_age(age) == user_f.collect_age(age)
                continue
            if kind == "fetch":
                got = [_outcome(lambda f=f, r=r: f.fetch(age, r).tobytes())
                       for f, r in ((lean_f, lean), (user_f, user))]
                assert got[0] == got[1]
                continue
            arr = np.full(rshape, step + 1, dtype=np.int32)
            if payload == "array":
                arr = (np.arange(arr.size, dtype=np.int32)
                       .reshape(rshape) + step)
            if payload == "scalar":
                value = step + 1  # broadcast into the region
            else:
                # (a list drops the shape of an empty region)
                value = arr.tolist() if arr.size else arr.astype(np.int64)
            got = [
                _outcome(lambda: lean_f.store(age, lean, arr)),
                _outcome(lambda: user_f.store(age, user, value)),
            ]
            assert got[0] == got[1]
            assert _state(lean_f) == _state(user_f)
        assert _state(lean_f) == _state(user_f)

    @pytest.mark.parametrize("fixed", [True, False],
                             ids=["declared", "growable"])
    @pytest.mark.parametrize("block", [1, 600], ids=["unit", "large"])
    def test_concurrent_stores_and_a_polling_reader(self, block, fixed):
        """Four threads store disjoint regions of one age while a reader
        polls ``fetch``: ``store_count`` ends exact, and no region reads
        complete before its bytes are there."""
        per_thread = 120 if block == 1 else 3
        total = 4 * per_thread * block
        f = make(dtype="int64", shape=(total,) if fixed else None)
        done = threading.Event()
        seen_bad: list = []

        def writer(w):
            for j in range(per_thread):
                lo = (j * 4 + w) * block
                f.store(0, (slice(lo, lo + block),),
                        np.arange(lo + 1, lo + block + 1, dtype=np.int64))

        def reader():
            rng = np.random.default_rng(0)
            while not done.is_set():
                lo = int(rng.integers(0, total // block)) * block
                try:
                    got = f.fetch(0, (slice(lo, lo + block),))
                except ExtentError:
                    continue  # not complete (or not grown) yet
                if got[0] != lo + 1 or got[-1] != lo + block:
                    seen_bad.append((lo, got[0], got[-1]))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            polling = threading.Thread(target=reader)
            writers = [threading.Thread(target=writer, args=(w,))
                       for w in range(4)]
            polling.start()
            for t in writers:
                t.start()
            for t in writers:
                t.join(timeout=60)
            done.set()
            polling.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in writers + [polling])
        assert seen_bad == []
        assert f.written_count(0) == total == f.elements_written
        assert f.fetch(0).tolist() == list(range(1, total + 1))


class TestGarbageCollection:
    def test_collect_age_frees_and_blocks_fetch(self):
        f = make()
        f.store(0, slice(0, 128), np.arange(128))
        freed = f.collect_age(0)
        assert freed > 0
        with pytest.raises(CollectedAgeError):
            f.fetch(0, 0)
        assert not f.is_complete(0)

    def test_collect_is_idempotent(self):
        f = make()
        f.store(0, 0, 1)
        f.collect_age(0)
        assert f.collect_age(0) == 0

    def test_collect_below(self):
        f = make()
        for age in range(4):
            f.store(age, 0, age)
        f.collect_below(2)
        with pytest.raises(CollectedAgeError):
            f.fetch(1, 0)
        assert f.fetch(2, 0).item() == 2

    def test_store_to_collected_age_raises(self):
        f = make()
        f.store(0, 0, 1)
        f.collect_age(0)
        with pytest.raises(CollectedAgeError):
            f.store(0, 1, 2)

    def test_ages_excludes_collected(self):
        f = make()
        f.store(0, 0, 1)
        f.store(1, 0, 1)
        f.collect_age(0)
        assert f.ages() == [1]

    @pytest.mark.parametrize("shared", [False, True])
    def test_retired_ages_leave_the_field(self, shared):
        """A stream retires every age behind a window: the field keeps
        only the window's slots (what a sweep, ``live_bytes`` and
        ``ages`` walk), yet a retired age answers as a collected one —
        below the floor and a single ``collect_age`` above it alike."""
        from repro.core import SharedFieldStore

        fdef = FieldDef("f", "int32", 1, shape=(4,))
        store = SharedFieldStore([fdef]) if shared else None
        f = store["f"] if shared else Field(fdef)
        window, frames = 3, 200
        try:
            for age in range(frames):
                f.store(age, slice(0, 4), np.arange(4) + age)
                f.collect_below(age - window + 1)
                assert len(f._ages) <= window
            assert f.ages() == list(range(frames - window, frames))
            assert f.live_bytes() == window * 4 * (4 + 1)
            f.collect_age(frames - 2)  # a single age above the floor
            assert len(f._ages) == window - 1
            for age in (0, frames // 2, frames - window - 1, frames - 2):
                with pytest.raises(CollectedAgeError):
                    f.fetch(age)
                with pytest.raises(CollectedAgeError):
                    f.store(age, 0, 1)  # no silent resurrection
                with pytest.raises(CollectedAgeError):
                    f.mark_written_many(age, [(slice(0, 1),)])
                if shared:
                    with pytest.raises(CollectedAgeError):
                        f.ensure_age(age)
                assert not f.is_complete(age)
                assert not f.is_complete(age, slice(0, 1))
                assert f.peek(age) is None
            assert len(f._ages) == window - 1
            assert f.fetch(frames - 1).tolist() == [199, 200, 201, 202]
        finally:
            if shared:
                f.collect_below(frames)
                store.release()


    def test_recycled_segment_hides_its_old_bytes(self):
        """A new age takes a collected age's segment as it is — the
        payload is not zeroed — and its fresh write-once mask is what
        keeps the old bytes unobservable: a fetch of an unwritten
        region raises."""
        from repro.core import SharedFieldStore

        store = SharedFieldStore([FieldDef("f", "int32", 1, shape=(4,))])
        f = store["f"]
        try:
            f.store(0, slice(0, 4), [10, 11, 12, 13])
            serial = f.segment(0)
            f.collect_below(1)
            assert f.segment(0) is None
            f.store(1, slice(0, 2), [7, 8])
            assert f.segment(1) == serial  # age 0's segment, reused
            assert f.segments_created == 1
            assert f._ages[1].data.tolist() == [7, 8, 12, 13]
            for region in (None, slice(2, 4), slice(1, 3), 3):
                with pytest.raises(ExtentError):
                    f.fetch(1, region)
                assert f.peek(1, region) is None
                assert not f.is_complete(1, region)
            assert f.fetch(1, slice(0, 2)).tolist() == [7, 8]
            f.store(1, slice(2, 4), [9, 9])  # not a write-once violation
            assert f.fetch(1).tolist() == [7, 8, 9, 9]
        finally:
            f.collect_below(2)
            store.release()


class TestLocalField:
    def test_put_grows(self):
        lf = LocalField("int32", 1)
        for i in range(5):
            lf.put(i + 10, i)
        assert lf.data.tolist() == [10, 11, 12, 13, 14]
        assert lf.extent(0) == 5

    def test_put_is_rewritable(self):
        lf = LocalField()
        lf.put(1, 0)
        lf.put(2, 0)  # locals are not write-once
        assert lf.get(0) == 2

    def test_2d(self):
        lf = LocalField("float64", 2)
        lf.put(3.5, 1, 2)
        assert lf.extent(0) == 2 and lf.extent(1) == 3
        assert lf.get(1, 2) == 3.5

    def test_wrong_arity(self):
        with pytest.raises(ExtentError):
            LocalField(ndim=2).put(1, 0)

    def test_from_array(self):
        lf = LocalField().from_array([1, 2, 3])
        assert lf.data.tolist() == [1, 2, 3]


class TestFieldStore:
    def test_add_and_lookup(self):
        fs = FieldStore([FieldDef("a"), FieldDef("b")])
        assert "a" in fs and "b" in fs
        assert fs["a"].name == "a"
        assert fs.names() == ["a", "b"]

    def test_duplicate_rejected(self):
        fs = FieldStore([FieldDef("a")])
        with pytest.raises(DefinitionError):
            fs.add(FieldDef("a"))

    def test_unknown_lookup(self):
        with pytest.raises(DefinitionError):
            FieldStore()["missing"]

    def test_live_bytes_and_collect(self):
        fs = FieldStore([FieldDef("a")])
        fs["a"].store(0, slice(0, 64), np.zeros(64))
        before = fs.live_bytes()
        assert before > 0
        fs.collect_below(1)
        assert fs.live_bytes() < before
