"""Tests for a simulated node — a `SimCluster` of one, as
`sweep_workers` builds it — including the figure 9/10 shape assertions
the reproduction stands on.  Multi-node cases and the bit-exact goldens
are in `test_simcluster.py`."""

import pytest

from repro.core import run_program
from repro.sim import (
    CORE_I7_860,
    OPTERON_8218,
    StageSpec,
    WorkloadModel,
    model_from_instrumentation,
    paper_kmeans_model,
    paper_mjpeg_model,
    sweep_workers,
)


def simulate(model, machine, workers, **kwargs):
    """One run of a single-node cluster."""
    (result,) = sweep_workers(model, machine, [workers], **kwargs)
    return result


def tiny_model(instances=100, kernel_us=100.0, dispatch_us=1.0, ages=2):
    return WorkloadModel(
        "tiny", ages,
        (
            StageSpec("init", 1, 10.0, 10.0, ages=1),
            StageSpec("work", instances, kernel_us, dispatch_us,
                      deps=(("init", 0), ("work", -1))),
        ),
    )


class TestMechanics:
    def test_all_instances_execute(self):
        r = simulate(tiny_model(), OPTERON_8218, 4)
        assert r.stages["work"].instances == 200
        assert r.stages["init"].instances == 1

    def test_conservation(self):
        """Total busy time is bounded by thread-count x makespan (the
        invariant that holds exactly under the sampled-speed model)."""
        for w in (1, 3, 8):
            r = simulate(tiny_model(), OPTERON_8218, w)
            (worker_busy,) = r.node_busy.values()
            (analyzer_busy,) = r.node_analyzer_busy.values()
            assert r.workers == w
            assert (worker_busy + analyzer_busy
                    <= (w + 1) * r.makespan + 1e-6)
            assert worker_busy <= w * r.makespan + 1e-6
            assert analyzer_busy <= r.makespan + 1e-6

    def test_serial_time_close_to_total_work(self):
        model = tiny_model(dispatch_us=0.0)
        r = simulate(model, OPTERON_8218, 1, contention=0.0)
        # 1 worker + idle analyzer: makespan >= work / speed(threads)
        work = model.total_kernel_seconds()
        assert r.makespan >= work / OPTERON_8218.capacity(1) * 0.5
        assert r.makespan <= work / OPTERON_8218.per_thread_speed(2) * 1.5

    def test_deterministic(self):
        a = simulate(tiny_model(), CORE_I7_860, 3)
        b = simulate(tiny_model(), CORE_I7_860, 3)
        assert a.makespan == b.makespan

    def test_deadlock_detected(self):
        bad = WorkloadModel(
            "bad", 1,
            (StageSpec("a", 1, 1.0, 1.0, deps=(("b", 0),)),
             StageSpec("b", 1, 1.0, 1.0, deps=(("a", 0),))),
        )
        with pytest.raises(ValueError, match="'bad' deadlocked.*'a', 0"):
            simulate(bad, OPTERON_8218, 1)
        # ... also when some other stage was free to start
        stuck = WorkloadModel(
            "stuck", 1, (StageSpec("free", 1, 1.0, 1.0),) + bad.stages
        )
        with pytest.raises(ValueError, match="'stuck' deadlocked.*'a', 0"):
            simulate(stuck, OPTERON_8218, 1)

    def test_needs_a_worker(self):
        with pytest.raises(ValueError, match="at least one worker"):
            simulate(tiny_model(), OPTERON_8218, 0)

    def test_bad_analyzer_share(self):
        with pytest.raises(ValueError, match="analyzer_share"):
            simulate(tiny_model(), OPTERON_8218, 1, analyzer_share=1.5)

    def test_utilization_bounds(self):
        r = simulate(tiny_model(), OPTERON_8218, 2)
        assert 0 <= r.worker_utilization <= 1.0 + 1e-9
        assert 0 <= r.analyzer_utilization <= 1.0 + 1e-9


class TestFigure9Shape:
    """MJPEG scales near-linearly with worker threads (both machines)."""

    @pytest.fixture(scope="class")
    def sweeps(self):
        model = paper_mjpeg_model(50)
        return {
            m.name: sweep_workers(model, m)
            for m in (CORE_I7_860, OPTERON_8218)
        }

    def test_monotone_decreasing(self, sweeps):
        for series in sweeps.values():
            times = [r.makespan for r in series]
            for a, b in zip(times[:-1], times[1:]):
                assert b <= a * 1.02  # allow tiny non-monotonicity

    def test_opteron_near_linear_to_7(self, sweeps):
        times = [r.makespan for r in sweeps[OPTERON_8218.name]]
        speedup7 = times[0] / times[6]
        assert speedup7 > 5.5  # close to ideal 7

    def test_opteron_kink_at_8(self, sweeps):
        """The 8th worker shares the machine with the analyzer thread:
        the last step gains less than the ideal 8/7."""
        times = [r.makespan for r in sweeps[OPTERON_8218.name]]
        gain_7_to_8 = times[6] / times[7]
        assert gain_7_to_8 < 8 / 7

    def test_absolute_magnitudes_match_paper(self, sweeps):
        """Paper: standalone ~19 s (i7) / ~30 s (Opteron); P2G
        single-worker times land in the same range."""
        i7 = sweeps[CORE_I7_860.name][0].makespan
        opteron = sweeps[OPTERON_8218.name][0].makespan
        assert 12 < i7 < 26
        assert 22 < opteron < 42
        assert opteron > i7

    def test_i7_wins_at_low_threads(self, sweeps):
        for w in range(3):
            assert (sweeps[CORE_I7_860.name][w].makespan
                    < sweeps[OPTERON_8218.name][w].makespan)


class TestFigure10Shape:
    """K-means scales to ~4 workers, then the serial dependency analyzer
    saturates and more workers make it *slower* — the Opteron more so
    than the turbo-boosted i7."""

    @pytest.fixture(scope="class")
    def sweeps(self):
        model = paper_kmeans_model()
        return {
            m.name: sweep_workers(model, m)
            for m in (CORE_I7_860, OPTERON_8218)
        }

    def test_scales_to_4(self, sweeps):
        for series in sweeps.values():
            times = [r.makespan for r in series]
            assert times[3] < times[0] / 2  # real gains up to 4 workers
            assert min(times) == min(times[:5])  # optimum at <= 5 workers

    def test_degrades_past_knee(self, sweeps):
        for series in sweeps.values():
            times = [r.makespan for r in series]
            assert times[7] > min(times) * 1.02

    def test_analyzer_saturates(self, sweeps):
        r8 = sweeps[OPTERON_8218.name][7]
        assert r8.analyzer_utilization > 0.9

    def test_opteron_suffers_more_than_i7(self, sweeps):
        """Paper: 'the Opteron suffers more than the Core i7 when the
        dependency analyzer saturates a core'."""

        def degradation(series):
            times = [r.makespan for r in series]
            return times[7] / min(times)

        assert degradation(sweeps[OPTERON_8218.name]) > degradation(
            sweeps[CORE_I7_860.name]
        )

    def test_contention_ablation(self):
        """Without queue contention the post-knee degradation vanishes."""
        model = paper_kmeans_model()
        with_c = sweep_workers(model, OPTERON_8218, [4, 8])
        without = sweep_workers(model, OPTERON_8218, [4, 8], contention=0.0)
        assert with_c[1].makespan > with_c[0].makespan
        assert without[1].makespan <= without[0].makespan * 1.01


class TestCalibratedModel:
    def test_model_from_real_run(self):
        from repro.workloads import build_kmeans

        program, _ = build_kmeans(n=40, k=4, iterations=3,
                                  granularity="point")
        result = run_program(program, workers=2, timeout=120)
        model = model_from_instrumentation(
            program, result.instrumentation, ages=3
        )
        names = {s.name for s in model.stages}
        assert {"init", "assign", "refine", "print"} <= names
        assign = model.stage("assign")
        assert assign.instances_per_age == 40
        assert assign.kernel_time_us > 0
        # deps derived from the final graph: assign needs init + refine(-1)
        assert ("refine", -1) in assign.deps
        sim = simulate(model, OPTERON_8218, 2)
        assert sim.makespan > 0
