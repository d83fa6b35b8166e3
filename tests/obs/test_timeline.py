"""Unit tests for frame-path latency attribution (repro.obs.timeline)."""

import math

import pytest

from repro.obs import (
    BUCKETS,
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
    def test_finish_returns_ms_breakdown(self):
        tl = TimelineRecorder()
        tl.begin("s0", 1, 10.0)
        tl.span("s0", 1, "gate", 10.0, 10.1)
        tl.span("s0", 1, "compute", 10.1, 10.4)
        parts = tl.finish("s0", 1, 10.5)
        assert parts["gate"] == pytest.approx(100.0)
        assert parts["compute"] == pytest.approx(300.0)
        assert parts["other"] == pytest.approx(100.0)
        assert sum(parts.values()) == pytest.approx(500.0)
        assert tl.frames("s0") == 1
        assert tl.in_flight() == 0

    def test_span_without_begin_is_dropped(self):
        # Non-stream runs hit the hook points with no driver begin():
        # the recorder must stay empty.
        tl = TimelineRecorder()
        for i in range(100):
            tl.span("", i, "compute", 0.0, 1.0)
        assert tl.in_flight() == 0
        assert tl.finish("", 0, 2.0) is None

    def test_discard_forgets_frame(self):
        tl = TimelineRecorder()
        tl.begin("", 0, 0.0)
        tl.discard("", 0)
        assert tl.in_flight() == 0
        assert tl.finish("", 0, 1.0) is None

    def test_in_flight_bounded(self):
        tl = TimelineRecorder()
        for i in range(tl.MAX_IN_FLIGHT + 10):
            tl.begin("", i, float(i))
        assert tl.in_flight() == tl.MAX_IN_FLIGHT

    def test_stages_rollup_and_sessions(self):
        tl = TimelineRecorder()
        for age in range(4):
            tl.begin("a", age, 0.0)
            tl.span("a", age, "compute", 0.0, 0.010)
            tl.finish("a", age, 0.010)
        tl.begin("b", 0, 0.0)
        tl.finish("b", 0, 0.001)
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
        tl.begin("", 0, 0.0)
        tl.span("", 0, "compute", 0.0, 0.004)
        tl.finish("", 0, 0.005)
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
            tl.begin("", age, t0)
            tl.span("", age, "gate", t0, t0 + 0.010)
            tl.span("", age, "compute", t0 + 0.015, t1 - 0.005)
            tl.finish("", age, t1)
            e2e.append((t1 - t0) * 1000.0)
        stages = tl.stages("")
        bucket_mean_sum = sum(s["mean"] for s in stages.values())
        e2e_mean = sum(e2e) / len(e2e)
        assert math.isclose(bucket_mean_sum, e2e_mean, rel_tol=1e-6)
