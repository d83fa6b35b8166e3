"""Unit tests for the runtime's event records and work tokens."""

import numpy as np

from repro.core import InstanceDoneEvent, KernelDef, StoreEvent
from repro.core.kernels import KernelInstance, Run


class TestEventRecords:
    def test_store_event_is_frozen(self):
        ev = StoreEvent("f", 0, (slice(0, 1),))
        assert ev.field == "f"
        assert ev == StoreEvent("f", 0, (slice(0, 1),))
        # frozen dataclass: attributes immutable
        try:
            ev.age = 5
            mutated = True
        except AttributeError:
            mutated = False
        assert not mutated

    def test_store_event_group(self):
        """One event announces a group of regions; a single store is a
        group of one and the positional three-argument form."""
        a, b, c = (slice(0, 8),), (slice(8, 16),), (slice(16, 20),)
        single = StoreEvent("f", 2, a)
        assert single.rest == () and single.regions == (a,)
        assert StoreEvent.group("f", 2, [a]) == single
        ev = StoreEvent.group("f", 2, [a, b, c])
        assert (ev.field, ev.age, ev.region) == ("f", 2, a)
        assert ev.regions == (a, b, c)

    def test_done_event_members(self):
        """A done event carries every member of its claim, in order,
        with one stored flag each; ``instance`` is the first, built on
        demand from the claim's rows."""
        k = KernelDef("k", lambda ctx: None, index_vars=("x",),
                      domain={"x": 2})
        i0, i1 = KernelInstance(k, None, (0,)), KernelInstance(k, None, (1,))
        ev = InstanceDoneEvent(Run(k, None, np.array([[0]], np.intp)), [True])
        assert list(zip(ev.claim, ev.stored)) == [(i0, True)]
        ev = InstanceDoneEvent(
            Run(k, None, np.array([[0], [1]], np.intp)), [True, False]
        )
        assert ev.instance == i0
        assert list(zip(ev.claim, ev.stored)) == [(i0, True), (i1, False)]

    def test_done_event_defaults(self):
        k = KernelDef("k", lambda ctx: None)
        ev = InstanceDoneEvent(
            Run(k, None, np.zeros((1, 0), np.intp)), [False]
        )
        assert ev.kernel_time == 0.0
        assert not ev.stored[0]


class TestWorkToken:
    """The shared quiescence-token helper behind the recovery fence,
    the replan swap and the stream-driver lifetime."""

    def _counter(self):
        from repro.core import WorkCounter

        return WorkCounter()

    def test_acquire_on_construction(self):
        from repro.core import WorkToken

        c = self._counter()
        tok = WorkToken(c, label="t")
        assert tok.held
        assert c.value() == 1

    def test_release_is_idempotent(self):
        from repro.core import WorkToken

        c = self._counter()
        tok = WorkToken(c)
        assert tok.release() is True
        assert c.value() == 0
        assert not tok.held
        # double release must not drive the counter negative
        assert tok.release() is False
        assert c.value() == 0

    def test_context_manager(self):
        from repro.core import WorkToken

        c = self._counter()
        with WorkToken(c, label="ctx") as tok:
            assert c.value() == 1
            assert tok.held
        assert c.value() == 0
        assert not tok.held

    def test_release_inside_context_is_safe(self):
        from repro.core import WorkToken

        c = self._counter()
        with WorkToken(c) as tok:
            tok.release()
        assert c.value() == 0

    def test_token_blocks_quiescence(self):
        import threading

        from repro.core import WorkToken

        c = self._counter()
        tok = WorkToken(c)
        done = threading.Event()
        out = []

        def waiter():
            out.append(c.wait(timeout=5))
            done.set()

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        assert not done.wait(0.05)  # held token pins the run
        tok.release()
        assert done.wait(5)
        assert out == ["idle"]

    def test_concurrent_release_decrements_once(self):
        import threading

        from repro.core import WorkToken

        c = self._counter()
        c.inc()  # guard: counter must end at exactly 1
        tok = WorkToken(c)
        barrier = threading.Barrier(4)

        def racer():
            barrier.wait()
            tok.release()

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 1
