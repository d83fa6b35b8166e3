"""ReadyQueue edge coverage: session-scoped ``min_age`` and fair-policy
heap behaviour when a session's heap is empty or a session stops
mid-run (its heap drains and the survivors keep dispatching); and the
run-entry heap — handed out ``max_n`` at a time or in share-sized
claims — against a per-instance reference under every policy."""

import heapq
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernels import KernelDef, Run
from repro.core.runtime import KernelInstance, ReadyQueue


def inst(session, age, i=0):
    k = KernelDef(name=f"{session}.k", body=lambda ctx: None,
                  has_age=True, index_vars=("x",), domain={"x": 4})
    return KernelInstance(k, age=age, index=(i,))


class TestMinAgeSession:
    def test_unknown_session_is_none(self):
        q = ReadyQueue(scheduling="fair")
        q.push(inst("a", 3))
        assert q.min_age("ghost") is None

    def test_empty_queue_is_none(self):
        q = ReadyQueue(scheduling="fair")
        assert q.min_age() is None
        assert q.min_age("a") is None

    def test_scoped_bound_ignores_other_sessions(self):
        q = ReadyQueue(scheduling="fair")
        q.push(inst("a", 7))
        q.push(inst("b", 2))
        assert q.min_age("a") == 7
        assert q.min_age("b") == 2
        assert q.min_age() == 2  # unscoped: global minimum

    def test_bound_tracks_pops(self):
        q = ReadyQueue(scheduling="fair")
        for age in (4, 6):
            q.push(inst("a", age))
        q.push(inst("b", 1))
        popped = {q.pop_timed()[0].age for _ in range(2)}
        # one a-instance and the b-instance went (round-robin)
        assert popped == {4, 1}
        assert q.min_age("a") == 6
        assert q.min_age("b") is None

    def test_emptied_session_heap_returns_none_then_recovers(self):
        q = ReadyQueue(scheduling="fair")
        q.push(inst("a", 5))
        q.pop_timed()
        assert q.min_age("a") is None  # heap exists but is empty
        q.push(inst("a", 9))
        assert q.min_age("a") == 9


class TestFairEmptyHeaps:
    def test_round_robin_skips_empty_session(self):
        """A session whose heap drained must not stall the rotation."""
        q = ReadyQueue(scheduling="fair")
        q.push(inst("a", 0))
        q.pop_timed()  # session "a" heap now empty but still registered
        for age in range(3):
            q.push(inst("b", age))
        ages = [q.pop_timed()[0].age for _ in range(3)]
        assert ages == [0, 1, 2]

    def test_session_stopping_midrun_leaves_survivors_dispatchable(self):
        """A stopped session's drained heap lingers in the rotation;
        every remaining session still gets its turns, in age order."""
        q = ReadyQueue(scheduling="fair", session_weights={"gold": 2})
        for age in range(2):
            q.push(inst("stopper", age))
            q.push(inst("gold", age))
            q.push(inst("be", age))
        # "stopper" session ends mid-run: its queued work drains first.
        got = []
        while q.min_age("stopper") is not None:
            item, _ = q.pop_timed()
            got.append(item)
            # put back anything that wasn't the stopping session's
        survivors = [i for i in got
                     if not i.kernel.name.startswith("stopper.")]
        for item in survivors:
            q.push(item)
        remaining = [q.pop_timed()[0] for _ in range(4)]
        names = {i.kernel.name.split(".")[0] for i in remaining}
        assert names == {"gold", "be"}
        for session in ("gold", "be"):
            ages = [i.age for i in remaining
                    if i.kernel.name.startswith(session + ".")]
            assert ages == sorted(ages)  # age order per survivor
        assert len(q) == 0

    def test_sentinel_only_after_all_heaps_empty(self):
        q = ReadyQueue(scheduling="fair")
        q.push(inst("a", 0))
        q.push_sentinel()
        item, _ = q.pop_timed()
        assert item is not None  # work before shutdown marker
        assert q.pop_timed()[0] is None

    def test_drain_clears_every_session(self):
        q = ReadyQueue(scheduling="fair")
        q.push(inst("a", 1))
        q.push(inst("b", 2))
        q.push_sentinel()
        assert q.drain() == 2  # rows, not sentinels
        assert len(q) == 0
        assert q.min_age("a") is None and q.min_age("b") is None


# ----------------------------------------------------------------------
# Run entries against a per-instance reference
# ----------------------------------------------------------------------
class _PerInstanceQueue:
    """The queue as it was before run entries: one heap entry, one
    sequence number and one round of age/session accounting per
    instance.  Non-blocking (callers pop only what is there).  Each
    entry remembers how long the stretch it was pushed in was and which
    push it came from — all the model needs to size a claim."""

    def __init__(self, scheduling, session_weights=None):
        self.scheduling = scheduling
        self.fair = scheduling == "fair"
        self.quantum = {
            s: max(1, int(w)) for s, w in (session_weights or {}).items()
        }
        self.heaps, self.order, self.deficit = {}, [], {}
        self.rr = 0
        self.seq = itertools.count()
        self.stretches = itertools.count()

    def _session(self, inst):
        name = inst.kernel.name
        return name[:name.find(".")] if self.fair and "." in name else ""

    def push_runs(self, runs):
        for run in runs:
            stretch = (len(run), next(self.stretches))
            for inst in run:
                self._push(inst, stretch)

    def push(self, inst):
        self._push(inst, (1, next(self.stretches)))

    def _push(self, inst, stretch):
        seq = next(self.seq)
        age = -1 if inst.age is None else inst.age
        key = {"fifo": (0, seq), "lifo": (0, -seq)}.get(
            self.scheduling, (age, seq)
        )
        session = self._session(inst)
        if session not in self.heaps:
            self.heaps[session] = []
            self.order.append(session)
            self.deficit[session] = self.quantum.get(session, 1)
        heapq.heappush(self.heaps[session], (key, inst, stretch))

    def depth(self):
        return sum(len(h) for h in self.heaps.values())

    def _pick(self):
        n = len(self.order)
        for _ in range(2 * n):
            s = self.order[self.rr % n]
            if not self.heaps[s]:
                self.rr += 1
            elif self.deficit[s] <= 0:
                self.deficit[s] = self.quantum.get(s, 1)
                self.rr += 1
            else:
                return s
        raise AssertionError("depth/heap mismatch")

    def runs_queued(self):
        """Distinct pushed stretches with an instance still queued."""
        return len({
            stretch for heap in self.heaps.values()
            for _key, _inst, stretch in heap
        })

    def pop_batch(self, max_n, workers=0):
        session = self._pick()
        heap = self.heaps[session]
        if workers and max_n > 1:
            size = heap[0][2][0]
            if self.runs_queued() < workers:
                size = -(-size // workers)
            max_n = max(max_n, size)
        batch = [heapq.heappop(heap)[1]]
        while (
            len(batch) < max_n and heap
            and heap[0][1].kernel is batch[0].kernel
            and heap[0][1].age == batch[0].age
        ):
            batch.append(heapq.heappop(heap)[1])
        self.deficit[session] -= len(batch)
        return batch

    def min_age(self, session=None):
        ages = [
            inst.age
            for s, heap in self.heaps.items() if session in (None, s)
            for _key, inst, _run in heap
            if inst.age is not None
        ]
        return min(ages) if ages else None

    def drain(self):
        items = [inst for h in self.heaps.values() for _key, inst, _r in h]
        for h in self.heaps.values():
            h.clear()
        return items


_KERNELS = [
    KernelDef(name=name, body=lambda ctx: None, has_age=True,
              index_vars=("x",), domain={"x": 64})
    for name in ("a.k", "a.j", "b.k", "plain")
]

_instances = st.builds(
    KernelInstance,
    st.sampled_from(_KERNELS),
    st.one_of(st.none(), st.integers(0, 3)),
    st.tuples(st.integers(0, 63)),
)


def _run(kernel, age, xs):
    return Run(kernel, age, np.array(xs, np.intp).reshape(len(xs), 1))


def _key(inst):
    return inst.kernel.name, inst.age, inst.index


def _queued(q):
    """The rows ``q`` holds, as a ``(kernel, age, index)`` multiset."""
    return Counter(
        _key(inst)
        for heap in q._heaps.values()
        for _key_, _seq, (run, pos, *_rest) in heap
        for inst in run[pos:]
    )


_ages = st.one_of(st.none(), st.integers(0, 3))
_ops = st.lists(
    st.one_of(
        # analyzer-shaped pushes: runs of consecutive rows...
        st.tuples(
            st.just("push_runs"),
            st.lists(
                st.builds(lambda k, age, n: _run(k, age, range(n)),
                          st.sampled_from(_KERNELS), _ages,
                          st.integers(1, 6)),
                max_size=3,
            ),
        ),
        # ...and arbitrary rows (empty runs included)
        st.tuples(
            st.just("push_runs"),
            st.lists(
                st.builds(_run, st.sampled_from(_KERNELS), _ages,
                          st.lists(st.integers(0, 63), max_size=6)),
                max_size=3,
            ),
        ),
        st.tuples(st.just("push"), _instances),
        st.tuples(st.just("pop_batch"), st.integers(1, 5)),
        # the worker loop's claim: (batch, workers)
        st.tuples(st.just("claim"),
                  st.tuples(st.integers(1, 5), st.integers(1, 4))),
        st.tuples(st.just("min_age"),
                  st.sampled_from([None, "", "a", "b", "ghost"])),
        st.tuples(st.just("drain"), st.none()),
    ),
    max_size=40,
)


class TestRunEntriesEqualPerInstanceHeap:
    @given(
        st.sampled_from(["age", "fifo", "lifo", "fair"]),
        st.sampled_from([None, {"a": 3}, {"a": 2, "b": 4, "": 1}]),
        _ops,
    )
    # four times the profile's budget: 400 by default, 4000 under the
    # CI property job's ``deep`` profile (tests/conftest.py)
    @settings(max_examples=4 * settings.default.max_examples,
              deadline=None)
    def test_same_sequences_under_every_policy(self, policy, weights, ops):
        q = ReadyQueue(policy, session_weights=weights)
        ref = _PerInstanceQueue(policy, weights)
        pushed = popped = 0
        waited = 0.0
        for op, arg in ops:
            if op in ("pop_batch", "claim"):
                if not ref.depth():
                    continue  # would block
                args = (arg,) if op == "pop_batch" else arg
                batch, wait = q.pop_batch(*args)
                # the next instances of the per-instance order: the
                # concatenation of claims *is* that order
                assert batch == ref.pop_batch(*args)
                if op == "pop_batch" or arg[0] == 1:
                    assert len(batch) <= args[0]  # as the ledger calls it
                assert wait >= 0.0
                popped += len(batch)
                waited += wait
            elif op == "drain":
                items = ref.drain()
                assert _queued(q) == Counter(map(_key, items))
                assert q.drain() == len(items)
            elif op == "min_age":
                assert q.min_age(arg) == ref.min_age(arg)
            else:
                getattr(q, op)(arg)
                getattr(ref, op)(arg)
                pushed += sum(map(len, arg)) if op == "push_runs" else 1
            assert len(q) == ref.depth()
            assert (q.pushes, q.pops) == (pushed, popped)
            assert q.wait.snapshot()["sum"] == pytest.approx(waited)
            assert q.min_age() == ref.min_age()
            if policy == "fair":
                assert q._deficit == ref.deficit
        # what is left comes out in the reference's order too
        while ref.depth():
            assert q.pop_batch(3)[0] == ref.pop_batch(3)
        assert len(q) == 0 and q.min_age() is None


class TestShareSizedClaims:
    """``pop_batch(batch, workers)``: the worker loop's claim."""

    @staticmethod
    def _runs(kernel, n, age=0):
        return [_run(kernel, age, range(n))]

    def test_a_run_goes_out_in_one_claim_per_worker(self):
        """The share is of the run as it was pushed, not of what is
        left: the later workers get the other thirds, not a third of
        two thirds."""
        q = ReadyQueue()
        q.push_runs(self._runs(_KERNELS[3], 100))
        sizes = []
        while len(q):
            sizes.append(len(q.pop_batch(8, 3)[0]))
        assert sizes == [34, 34, 32]

    def test_never_less_than_batch_and_batch_1_is_a_singleton(self):
        q = ReadyQueue()
        q.push_runs(self._runs(_KERNELS[3], 20))
        assert len(q.pop_batch(8, 4)[0]) == 8  # ceil(20 / 4) < batch
        assert len(q.pop_batch(1, 4)[0]) == 1
        assert len(q.pop_batch(8)[0]) == 8     # no workers: max_n rules
        assert len(q) == 3

    def test_four_equal_tenants_get_equal_service(self):
        """Under ``"fair"`` a claim never spans sessions and charges the
        deficit by instances taken: with every tenant offering the same
        runs, claims rotate a, b, c, d, a, ... — no tenant is served
        twice before another is served once.  While two or more runs
        are queued a claim is a whole run, so the served gap is one run;
        the last run, alone in the queue, goes out in two shares."""
        tenants = "abcd"
        kernels = {
            t: KernelDef(name=f"{t}.dct", body=lambda ctx: None,
                         has_age=True, index_vars=("x",),
                         domain={"x": 48})
            for t in tenants
        }
        q = ReadyQueue("fair")
        for age in range(5):
            for t in tenants:
                q.push_runs(self._runs(kernels[t], 48, age))
        served = {t: 0 for t in tenants}
        order = []
        while len(q):
            claim, _wait = q.pop_batch(8, 2)
            sessions = {inst.kernel.name[0] for inst in claim}
            assert len(sessions) == 1            # never spans sessions
            assert len({inst.age for inst in claim}) == 1
            (t,) = sessions
            order.append(t)
            served[t] += len(claim)
            assert max(served.values()) - min(served.values()) <= 48
        assert set(served.values()) == {5 * 48}
        assert order == list(tenants) * 5 + ["d"]

    def test_a_saturated_queue_hands_out_whole_runs(self):
        """With at least ``workers`` runs queued the claim is the whole
        head run; once fewer are left, a run is split again."""
        q = ReadyQueue()
        q.push_runs([_run(_KERNELS[0], 0, range(100)),
                     _run(_KERNELS[1], 0, range(60)),
                     _run(_KERNELS[3], 0, range(40))])
        sizes = []
        while len(q):
            sizes.append(len(q.pop_batch(8, 2)[0]))
        assert sizes == [100, 60, 20, 20]

    def test_fewer_runs_than_workers_share_the_run_as_pushed(self):
        """Two runs for three workers: a third of the run as it was
        pushed, whatever is left of it."""
        q = ReadyQueue()
        q.push_runs([_run(_KERNELS[0], 0, range(90)),
                     _run(_KERNELS[1], 0, range(30))])
        sizes = []
        while len(q):
            sizes.append(len(q.pop_batch(8, 3)[0]))
        assert sizes == [30, 30, 30, 10, 10, 10]

    def test_a_split_runs_remainder_goes_out_whole_behind_other_runs(self):
        q = ReadyQueue()
        q.push_runs([_run(_KERNELS[0], 0, range(100))])
        assert len(q.pop_batch(8, 4)[0]) == 25   # alone: a quarter
        q.push_runs([_run(k, 0, range(10)) for k in _KERNELS[1:]])
        claim, _wait = q.pop_batch(8, 4)         # four runs queued
        assert claim.kernel is _KERNELS[0]
        assert claim.rows[:, 0].tolist() == list(range(25, 100))

    def test_other_sessions_runs_count_but_a_claim_never_spans_them(self):
        """Under ``"fair"`` the threshold counts every session's runs,
        yet a claim is still one session's: tenant a's lone run goes out
        whole because b has a run queued, and b's (then alone) in
        halves."""
        a, b = (KernelDef(name=f"{t}.k", body=lambda ctx: None,
                          has_age=True, index_vars=("x",),
                          domain={"x": 64}) for t in "ab")
        q = ReadyQueue("fair")
        q.push_runs([_run(a, 0, range(40)), _run(b, 0, range(40))])
        claims = []
        while len(q):
            claim, _wait = q.pop_batch(8, 2)
            claims.append((claim.kernel.name, len(claim)))
        assert claims == [("a.k", 40), ("b.k", 20), ("b.k", 20)]

    def test_singletons_and_workerless_pops_are_unchanged(self):
        """``pop_batch(1, w)`` is a singleton and ``pop_batch(n)`` takes
        ``n``, however many runs are queued."""
        q = ReadyQueue()
        q.push_runs([_run(k, 0, range(20)) for k in _KERNELS])
        assert len(q.pop_batch(1, 2)[0]) == 1
        assert len(q.pop_batch(8)[0]) == 8
        assert len(q.pop_batch(1, 4)[0]) == 1
        assert len(q.pop_batch(8)[0]) == 8
        assert len(q) == 80 - 18
