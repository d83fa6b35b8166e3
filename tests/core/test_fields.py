"""Unit tests for write-once, aging, multi-dimensional fields."""

import numpy as np
import pytest

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
