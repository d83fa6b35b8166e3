"""Unit tests for frame-path latency attribution (repro.obs.timeline)."""

import math
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    BUCKETS,
    SPAN_BUCKETS,
    Histogram,
    TimelineRecorder,
    attribute_spans,
    stage_summary,
)


def _total(parts: dict) -> float:
    return sum(parts.values())


class TestAttributeSpans:
    def test_empty_spans_all_other(self):
        parts = attribute_spans([], 0.0, 1.0)
        assert parts["other"] == pytest.approx(1.0)
        assert _total(parts) == pytest.approx(1.0)

    def test_exact_partition_no_overlap(self):
        spans = [("gate", 0.0, 0.2), ("queue", 0.2, 0.5),
                 ("compute", 0.5, 0.9)]
        parts = attribute_spans(spans, 0.0, 1.0)
        assert parts["gate"] == pytest.approx(0.2)
        assert parts["queue"] == pytest.approx(0.3)
        assert parts["compute"] == pytest.approx(0.4)
        assert parts["other"] == pytest.approx(0.1)
        assert _total(parts) == pytest.approx(1.0)

    def test_overlap_charges_highest_priority(self):
        # compute overlaps queue: the overlapping instant goes to
        # compute (critical path), never double-counted.
        spans = [("queue", 0.0, 1.0), ("compute", 0.4, 0.6)]
        parts = attribute_spans(spans, 0.0, 1.0)
        assert parts["compute"] == pytest.approx(0.2)
        assert parts["queue"] == pytest.approx(0.8)
        assert _total(parts) == pytest.approx(1.0)

    def test_priority_order_matches_buckets(self):
        # Every pair: the earlier bucket in BUCKETS wins the overlap.
        for hi, lo in zip(BUCKETS, BUCKETS[1:]):
            if lo == "other":
                continue
            parts = attribute_spans(
                [(lo, 0.0, 1.0), (hi, 0.0, 1.0)], 0.0, 1.0
            )
            assert parts[hi] == pytest.approx(1.0), (hi, lo)
            assert parts[lo] == 0.0

    def test_spans_clipped_to_window(self):
        spans = [("compute", -5.0, 0.5), ("store", 0.5, 99.0)]
        parts = attribute_spans(spans, 0.0, 1.0)
        assert parts["compute"] == pytest.approx(0.5)
        assert parts["store"] == pytest.approx(0.5)
        assert _total(parts) == pytest.approx(1.0)

    def test_unknown_bucket_loses_to_known_and_falls_to_other(self):
        parts = attribute_spans(
            [("warp", 0.0, 1.0), ("queue", 0.0, 0.5)], 0.0, 1.0
        )
        # Unknown buckets rank below every known one and have no
        # accumulator of their own: uncovered time lands in "other".
        assert parts["queue"] == pytest.approx(0.5)
        assert parts["other"] == pytest.approx(0.5)

    def test_degenerate_window(self):
        parts = attribute_spans([("compute", 0.0, 1.0)], 1.0, 1.0)
        assert _total(parts) == 0.0

    def test_sum_invariant_under_dense_overlap(self):
        spans = [
            (BUCKETS[i % 6], i * 0.01, i * 0.01 + 0.3)
            for i in range(50)
        ]
        parts = attribute_spans(spans, 0.0, 0.7)
        assert _total(parts) == pytest.approx(0.7, abs=1e-9)


class TestTimelineRecorder:
    """The frame sink: a ``gate`` span opens a frame, ``finish`` closes
    it, and span names reach buckets through ``SPAN_BUCKETS``."""

    def test_finish_returns_ms_breakdown(self):
        tl = TimelineRecorder()
        tl.span("gate", ("s0", 1), 10.0, 10.1)
        tl.span("native", ("s0", 1), 10.1, 10.4)
        parts = tl.finish(("s0", 1), 10.5)
        assert parts["gate"] == pytest.approx(100.0)
        assert parts["compute"] == pytest.approx(300.0)
        assert parts["other"] == pytest.approx(100.0)
        assert sum(parts.values()) == pytest.approx(500.0)
        assert tl.frames("s0") == 1
        assert tl.in_flight() == 0

    def test_span_without_begin_is_dropped(self):
        # Non-stream runs record frame-keyed spans but no driver opens
        # a frame: the recorder must stay empty.
        tl = TimelineRecorder()
        for i in range(100):
            tl.span("native", ("", i), 0.0, 1.0)
        assert tl.in_flight() == 0
        assert tl.finish(("", 0), 2.0) is None

    def test_in_flight_bounded(self):
        tl = TimelineRecorder()
        for i in range(tl.MAX_IN_FLIGHT + 10):
            tl.span("gate", ("", i), float(i), float(i))
        assert tl.in_flight() == tl.MAX_IN_FLIGHT

    def test_stages_rollup_and_sessions(self):
        tl = TimelineRecorder()
        for age in range(4):
            tl.span("gate", ("a", age), 0.0, 0.0)
            tl.span("native", ("a", age), 0.0, 0.010)
            tl.finish(("a", age), 0.010)
        tl.span("gate", ("b", 0), 0.0, 0.0)
        tl.finish(("b", 0), 0.001)
        assert tl.sessions() == ["a", "b"]
        stages = tl.stages("a")
        assert stages["compute"]["count"] == 4
        assert stages["compute"]["mean"] == pytest.approx(10.0, rel=1e-3)
        assert "p50" in stages["compute"] and "p99" in stages["compute"]
        doc = tl.as_dict()
        assert doc["frames"] == {"a": 4, "b": 1}
        assert set(doc["stages"]) == {"a", "b"}

    def test_stage_summary_renders_nonempty_buckets_only(self):
        tl = TimelineRecorder()
        tl.span("gate", ("", 0), 0.0, 0.0)
        tl.span("native", ("", 0), 0.0, 0.004)
        tl.finish(("", 0), 0.005)
        text = stage_summary(tl.stages(""))
        assert "compute" in text and "p50" in text and "p99" in text
        assert "ipc" not in text  # bucket with zero observations

    def test_reconciles_with_e2e_window(self):
        # The acceptance property, in miniature: bucket sums equal the
        # end-to-end window for every frame, so the means reconcile.
        tl = TimelineRecorder()
        e2e = []
        for age in range(16):
            t0, t1 = age * 1.0, age * 1.0 + 0.050 + age * 0.001
            tl.span("gate", ("", age), t0, t0 + 0.010)
            tl.span("native", ("", age), t0 + 0.015, t1 - 0.005)
            tl.finish(("", age), t1)
            e2e.append((t1 - t0) * 1000.0)
        stages = tl.stages("")
        bucket_mean_sum = sum(s["mean"] for s in stages.values())
        e2e_mean = sum(e2e) / len(e2e)
        assert math.isclose(bucket_mean_sum, e2e_mean, rel_tol=1e-6)

    def test_bucket_table_is_the_only_mapping(self):
        # Every span name the table lists lands in its bucket; any other
        # name is not attributed, even on an open frame.
        for name, bucket in SPAN_BUCKETS.items():
            tl = TimelineRecorder()
            tl.span("gate", ("", 0), 0.0, 0.0)
            tl.span(name, ("", 0), 0.0, 1.0)
            parts = tl.finish(("", 0), 1.0)
            assert parts[bucket] == pytest.approx(1000.0), name
        tl = TimelineRecorder()
        tl.span("gate", ("", 0), 0.0, 0.0)
        tl.span("mul2", ("", 0), 0.0, 1.0)  # a kernel span: not a stage
        assert tl.finish(("", 0), 1.0)["other"] == pytest.approx(1000.0)
        assert set(SPAN_BUCKETS.values()) == set(BUCKETS) - {"other"}

    def test_as_dict_is_one_consistent_read(self, monkeypatch):
        """``/stages.json`` must not tear: a frame finishing while the
        page is read is in both its counts and its stages, or in
        neither.  Deterministic interleaving: the page's first histogram
        snapshot lets another thread finish a frame of the same session
        (waiting up to 0.2 s for it) before the snapshot is taken."""
        tl = TimelineRecorder()
        tl.span("gate", ("a", 0), 0.0, 0.0)
        tl.finish(("a", 0), 0.001)
        tl.span("gate", ("a", 1), 0.0, 0.0)

        orig = Histogram.snapshot
        raced = []

        def snapshot(self):
            if not raced:
                t = threading.Thread(
                    target=lambda: tl.finish(("a", 1), 0.002)
                )
                raced.append(t)
                t.start()
                t.join(0.2)
            return orig(self)

        monkeypatch.setattr(Histogram, "snapshot", snapshot)
        doc = tl.as_dict()
        raced[0].join()
        counts = {b: s["count"] for b, s in doc["stages"]["a"].items()}
        assert set(counts.values()) == {doc["frames"]["a"]}, (doc, counts)
        assert tl.frames("a") == 2


def _attribute_reference(spans, t_start, t_end):
    """The brute-force partition :func:`attribute_spans` must equal:
    every elementary interval between span endpoints goes to the
    highest-priority span covering its midpoint."""
    out = dict.fromkeys(BUCKETS, 0.0)
    if t_end <= t_start:
        return out
    prio = {name: i for i, name in enumerate(BUCKETS)}
    clipped, points = [], {t_start, t_end}
    for bucket, s, e in spans:
        s, e = max(s, t_start), min(e, t_end)
        if e <= s:
            continue
        clipped.append((prio.get(bucket, len(BUCKETS)), s, e))
        points.update((s, e))
    edges = sorted(points)
    for lo, hi in zip(edges, edges[1:]):
        mid = (lo + hi) / 2.0
        best = min((p for p, s, e in clipped if s <= mid < e), default=None)
        bucket = (
            BUCKETS[best]
            if best is not None and best < len(BUCKETS) else "other"
        )
        out[bucket] += hi - lo
    return out


_times = st.floats(-0.2, 1.2, allow_nan=False).map(lambda t: round(t, 3))
_spans = st.lists(
    st.tuples(st.sampled_from(BUCKETS + ("warp",)), _times, _times),
    max_size=40,
)


class TestSweepMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(spans=_spans, window=st.tuples(_times, _times))
    def test_each_bucket_equal_and_sum_is_window(self, spans, window):
        t_start, t_end = window
        got = attribute_spans(spans, t_start, t_end)
        assert got == _attribute_reference(spans, t_start, t_end)
        assert sum(got.values()) == pytest.approx(
            max(0.0, t_end - t_start), abs=1e-9
        )

    def test_sweep_scales(self):
        # O(n log n): 10 000 overlapping spans in well under a second
        # (the brute force took minutes at this size).
        import random
        import time

        rng = random.Random(7)
        spans = []
        for _ in range(10_000):
            s = rng.random()
            spans.append((rng.choice(BUCKETS), s, s + rng.random() * 0.01))
        t0 = time.perf_counter()
        parts = attribute_spans(spans, 0.0, 1.0)
        assert time.perf_counter() - t0 < 1.0
        assert sum(parts.values()) == pytest.approx(1.0)
