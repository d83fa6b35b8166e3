"""Property tests for the dependency analyzer.

The core claim: the *set* of dispatched instances is a pure function of
what has been stored — never of the order the store events arrived in
(permutation invariance), and each instance is dispatched exactly once
(dispatch-once under any interleaving).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (
    AgeExpr,
    DependencyAnalyzer,
    Dim,
    FetchSpec,
    FieldDef,
    FieldStore,
    KernelDef,
    Program,
    StoreSpec,
)
from repro.core.events import StoreEvent
from repro.core.fields import normalize_index
from tests.conftest import flatten_runs


def nop(ctx):
    pass


def make_program(n: int):
    """Three consumers of one field: per-element, blocked, whole."""
    per = KernelDef(
        "per", nop, has_age=True, index_vars=("x",),
        fetches=(FetchSpec("v", "data", dims=(Dim.of("x"),),
                           scalar=True),),
    )
    blocked = KernelDef(
        "blocked", nop, has_age=True, index_vars=("b",),
        fetches=(FetchSpec("v", "data", dims=(Dim.of("b", 4),)),),
    )
    whole = KernelDef(
        "whole", nop, has_age=True, fetches=(FetchSpec("v", "data"),),
    )
    stencil = KernelDef(
        "stencil", nop, has_age=True, index_vars=("x",),
        fetches=(
            FetchSpec("l", "data", dims=(Dim.of("x", offset=-1),),
                      scalar=True),
            FetchSpec("r", "data", dims=(Dim.of("x", offset=1),),
                      scalar=True),
        ),
    )
    return Program.build(
        [FieldDef("data", "int64", 1, shape=(n,))],
        [per, blocked, whole, stencil],
    )


def dispatch_all(program, n, order, ages):
    """Apply single-element stores in the given order; return the
    dispatched instance keys."""
    fields = FieldStore(program.fields.values())
    an = DependencyAnalyzer(program, fields)
    dispatched = set()
    for age in range(ages):
        for i in order:
            idx = normalize_index(i, 1)
            fields["data"].store(age, idx, i)
            for inst in flatten_runs(
                    an.on_store(StoreEvent("data", age, idx))):
                assert inst.key not in dispatched, "double dispatch"
                dispatched.add(inst.key)
    return dispatched


class TestPermutationInvariance:
    @given(
        st.integers(3, 12),
        st.permutations(list(range(12))),
        st.integers(1, 3),
    )
    @settings(max_examples=2 * settings.default.max_examples // 5,
              deadline=None)
    def test_dispatch_set_is_order_independent(self, n, perm, ages):
        program = make_program(n)
        order = [i for i in perm if i < n]
        baseline = dispatch_all(program, n, list(range(n)), ages)
        shuffled = dispatch_all(make_program(n), n, order, ages)
        assert baseline == shuffled

    @given(st.integers(3, 12), st.integers(1, 3))
    @settings(max_examples=settings.default.max_examples // 5,
              deadline=None)
    def test_complete_field_dispatches_everything(self, n, ages):
        program = make_program(n)
        dispatched = dispatch_all(program, n, list(range(n)), ages)
        per = {k for k in dispatched if k[0] == "per"}
        blocked = {k for k in dispatched if k[0] == "blocked"}
        whole = {k for k in dispatched if k[0] == "whole"}
        stencil = {k for k in dispatched if k[0] == "stencil"}
        assert len(per) == n * ages
        assert len(blocked) == -(-n // 4) * ages
        assert len(whole) == ages
        assert len(stencil) == n * ages

    @given(
        st.integers(4, 10),
        st.data(),
    )
    @settings(max_examples=3 * settings.default.max_examples // 10,
              deadline=None)
    def test_partial_stores_dispatch_only_satisfied(self, n, data):
        """With a strict subset stored, whole-field must not fire and
        per-element fires exactly on the stored subset."""
        program = make_program(n)
        subset = data.draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)
        )
        fields = FieldStore(program.fields.values())
        an = DependencyAnalyzer(program, fields)
        dispatched = set()
        for i in sorted(subset):
            idx = normalize_index(i, 1)
            fields["data"].store(0, idx, i)
            for inst in flatten_runs(
                    an.on_store(StoreEvent("data", 0, idx))):
                dispatched.add(inst.key)
        per = {k[2][0] for k in dispatched if k[0] == "per"}
        assert per == subset
        assert not any(k[0] == "whole" for k in dispatched)
        # stencil instances need x-1, x and x+1 (clamped): exactly those
        # x whose clamped neighbourhood is inside the stored subset
        stencil = {k[2][0] for k in dispatched if k[0] == "stencil"}
        expected = {
            x for x in range(n)
            if max(0, x - 1) in subset and min(n - 1, x + 1) in subset
        }
        assert stencil == expected
