"""Retirer unit tests against stub fields/nodes: the safe floor tracks
both the completion frontier and the nodes' live minima, and sweeps
never double-free."""

from repro.stream import Retirer


class StubFields:
    def __init__(self) -> None:
        self.calls: list[int] = []

    def collect_below(self, age: int) -> int:
        self.calls.append(age)
        return 100  # pretend each sweep frees 100 bytes


class StubAnalyzer:
    def __init__(self) -> None:
        self.pending = None

    def min_pending_age(self, kernels=None):
        return self.pending


class StubReady:
    def __init__(self) -> None:
        self.queued = None

    def min_age(self, session=None):
        return self.queued


class StubNode:
    def __init__(self, fields=None) -> None:
        self.fields = fields if fields is not None else StubFields()
        self.analyzer = StubAnalyzer()
        self.ready = StubReady()
        self._in_hand = {}
        self.retired: list[int] = []

    def retire(self, floor: int, fields=None, kernels=None) -> int:
        """``ExecutionNode.retire`` against the stub parts (the real
        one is covered in tests/core/test_runtime.py)."""
        self.retired.append(floor)
        return self.fields.collect_below(floor)


def make(max_back=0, keep_ages=0):
    fields = StubFields()
    node = StubNode(fields)
    r = Retirer([node], max_back=max_back, keep_ages=keep_ages)
    return r, fields, node


def test_frontier_advances_contiguously():
    r, _, _ = make()
    r.note_complete(0)
    r.note_complete(2)  # gap at 1
    assert r.completed_through() == 0
    r.note_complete(1)
    assert r.completed_through() == 2


def test_sweep_frees_below_frontier():
    r, fields, node = make()
    for age in range(5):
        r.note_complete(age)
    freed = r.sweep()
    assert freed == 100
    # frontier 4 -> floor 5: ages 0..4 freed
    assert fields.calls == [5]
    assert node.retired == [5]
    assert r.retired_through == 5
    assert r.freed_bytes == 100


def test_keep_ages_and_max_back_lower_the_floor():
    r, fields, _ = make(max_back=2, keep_ages=1)
    for age in range(10):
        r.note_complete(age)
    r.sweep()
    assert fields.calls == [10 - 2 - 1]


def test_live_node_work_holds_back_retirement():
    r, fields, node = make()
    for age in range(8):
        r.note_complete(age)
    node.analyzer.pending = 3  # a pending fetch at age 3: floor <= 3
    r.sweep()
    assert fields.calls == [3]
    node.analyzer.pending = None
    node.ready.queued = 5
    r.sweep()
    assert fields.calls == [3, 5]
    node.ready.queued = None
    node._in_hand = {0: (6, None), 1: (None, None)}
    r.sweep()
    assert fields.calls == [3, 5, 6]


def test_sweep_is_idempotent():
    r, fields, _ = make()
    for age in range(4):
        r.note_complete(age)
    assert r.sweep() == 100
    assert r.sweep() == 0  # nothing new below the floor
    assert fields.calls == [4]


def test_racing_probe_skips_sweep():
    class RacyNode(StubNode):
        def __init__(self, fields) -> None:
            super().__init__(fields)

            class Racy:
                def min_pending_age(self, kernels=None):
                    raise RuntimeError("dict changed size during iteration")

            self.analyzer = Racy()

    fields = StubFields()
    r = Retirer([RacyNode(fields)])
    for age in range(4):
        r.note_complete(age)
    assert r.sweep() == 0
    assert fields.calls == []  # probe raced: sweep skipped, not forced


def test_sweep_tells_each_analyzer_through_its_event_queue():
    """Bookkeeping retires with the ages: every node is told the floor
    once, scoped like ``min_pending_age`` — ``ExecutionNode.retire``
    hands it to its analyzer under the analysis lock."""

    class RecordingNode(StubNode):
        def __init__(self) -> None:
            super().__init__()
            self.calls = []

        def retire(self, floor, fields=None, kernels=None) -> int:
            self.calls.append((floor, fields, kernels))
            return 100

    node = RecordingNode()
    r = Retirer([node, StubNode()], keep_ages=1,
                field_names={"s.f"}, kernel_names={"s.k"})
    for age in range(4):
        r.note_complete(age)
    r.sweep()
    assert node.calls == [(3, {"s.f"}, {"s.k"})]
    r.sweep()  # nothing new below the floor: nothing re-sent
    assert len(node.calls) == 1
