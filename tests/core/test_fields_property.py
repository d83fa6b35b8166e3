"""Property-based tests (hypothesis) for field invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import FieldDef, WriteOnceViolation
from repro.core.fields import Field


def segments(draw, total: int):
    """Split [0, total) into random disjoint segments."""
    cuts = draw(
        st.lists(st.integers(0, total), max_size=6, unique=True)
    )
    points = sorted(set(cuts) | {0, total})
    return list(zip(points[:-1], points[1:]))


@st.composite
def partitioned_field(draw):
    total = draw(st.integers(1, 40))
    segs = segments(draw, total)
    order = draw(st.permutations(segs))
    return total, list(order)


class TestWriteOnceProperties:
    @given(partitioned_field())
    @settings(max_examples=3 * settings.default.max_examples // 5)
    def test_disjoint_segments_never_violate(self, case):
        """Storing any disjoint partition of the field, in any order,
        succeeds and ends complete."""
        total, segs = case
        f = Field(FieldDef("f", "int64", 1))
        for lo, hi in segs:
            if hi > lo:
                f.store(0, slice(lo, hi), np.arange(lo, hi))
        assert f.is_complete(0, slice(0, total)) or total == 0
        got = f.fetch(0, slice(0, total))
        assert got.tolist() == list(range(total))

    @given(
        st.integers(0, 30),
        st.integers(1, 10),
        st.integers(0, 30),
        st.integers(1, 10),
    )
    @settings(max_examples=4 * settings.default.max_examples // 5)
    def test_overlap_always_raises(self, a_lo, a_len, b_lo, b_len):
        """Any two overlapping stores to one age conflict; disjoint ones
        do not."""
        f = Field(FieldDef("f", "int64", 1))
        a = (a_lo, a_lo + a_len)
        b = (b_lo, b_lo + b_len)
        f.store(0, slice(*a), np.zeros(a_len))
        overlaps = a[0] < b[1] and b[0] < a[1]
        if overlaps:
            try:
                f.store(0, slice(*b), np.zeros(b_len))
                raised = False
            except WriteOnceViolation:
                raised = True
            assert raised
        else:
            f.store(0, slice(*b), np.zeros(b_len))

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=20))
    @settings(max_examples=3 * settings.default.max_examples // 5)
    def test_store_count_equals_unique_elements(self, indices):
        """store_count counts exactly the distinct elements written."""
        f = Field(FieldDef("f", "int64", 1))
        written = set()
        for i in indices:
            if i in written:
                continue
            f.store(0, i, i)
            written.add(i)
        assert f.written_count(0) == len(written)

    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.data(),
    )
    @settings(max_examples=2 * settings.default.max_examples // 5)
    def test_2d_roundtrip(self, h, w, data):
        """A field stored in random rectangular tiles reads back exactly."""
        f = Field(FieldDef("f", "float64", 2))
        ref = np.arange(h * w, dtype=float).reshape(h, w)
        # store row by row with random column splits
        for r in range(h):
            cut = data.draw(st.integers(0, w))
            if cut:
                f.store(0, (r, slice(0, cut)), ref[r, :cut])
            if cut < w:
                f.store(0, (r, slice(cut, w)), ref[r, cut:])
        assert f.is_complete(0, (slice(0, h), slice(0, w)))
        assert np.array_equal(f.fetch(0, (slice(0, h), slice(0, w))), ref)

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=2 * settings.default.max_examples // 5)
    def test_aging_isolation(self, age_a, age_b):
        """Writes to one age are never visible at another."""
        f = Field(FieldDef("f", "int64", 1))
        f.store(age_a, 0, 111)
        if age_b != age_a:
            assert not f.is_complete(age_b, slice(0, 1))
            f.store(age_b, 0, 222)
            assert f.fetch(age_b, 0).item() == 222
        assert f.fetch(age_a, 0).item() == 111
