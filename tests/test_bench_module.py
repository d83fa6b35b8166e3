"""Unit tests for the experiment harness and its renderers."""

import dataclasses
import os
import time

import pytest

from repro.bench import ascii_chart, format_sweep
from repro.bench import experiments
from repro.bench.experiments import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    SweepResult,
    fig9_measured,
    fig9_mjpeg_scaling,
    micro_tables,
    table1_machines,
)
from repro.core import RuntimeStateError
from repro.workloads.mjpeg import MJPEGConfig


class TestPlots:
    SERIES = {
        "machine-a": [(1, 10.0), (2, 5.0), (4, 2.5)],
        "machine-b": [(1, 20.0), (2, 10.0), (4, 5.0)],
    }

    def test_format_sweep_alignment(self):
        text = format_sweep(self.SERIES, "title", unit="s")
        lines = text.splitlines()
        assert lines[0] == "title"
        assert "1" in lines[1] and "4" in lines[1]
        assert "10.00" in lines[2]
        assert "20.00" in lines[3]

    def test_format_sweep_missing_points(self):
        series = {"a": [(1, 1.0)], "b": [(1, 2.0), (2, 1.0)]}
        text = format_sweep(series, "t")
        assert "-" in text  # a has no point at x=2

    def test_ascii_chart_contains_markers_and_legend(self):
        text = ascii_chart(self.SERIES, "chart")
        assert text.startswith("chart")
        assert "* = machine-a" in text
        assert "o = machine-b" in text
        assert "└" in text

    def test_ascii_chart_empty(self):
        assert "(no data)" in ascii_chart({}, "empty")


class TestResultTypes:
    def test_sweep_result_speedup(self):
        r = SweepResult(
            title="t",
            series={"m": [(1, 10.0), (2, 5.0), (4, 2.0)]},
        )
        assert r.speedup("m") == [
            pytest.approx(1.0), pytest.approx(2.0), pytest.approx(5.0)
        ]

    def test_sweep_render_has_baselines(self):
        sweep = fig9_mjpeg_scaling(frames=5)
        text = sweep.render()
        assert "standalone encoder" in text
        assert "Figure 9" in text


class TestPaperConstants:
    def test_table1_text(self):
        assert "Physical cores" in table1_machines()

    def test_table2_totals(self):
        """Cross-check table II's internal arithmetic once more."""
        assert PAPER_TABLE2["ydct"][0] == 4 * PAPER_TABLE2["udct"][0]
        assert PAPER_TABLE2["read"][0] == PAPER_TABLE2["vlc"][0]

    def test_table3_relationships(self):
        n_assign = PAPER_TABLE3["assign"][0]
        n_refine = PAPER_TABLE3["refine"][0]
        assert n_assign / n_refine == pytest.approx(2024.251)


def instance_counts(table: str) -> dict[str, int]:
    """Kernel -> measured instances, read from a rendered table."""
    return {
        line.split()[0]: int(line.split()[1])
        for line in table.splitlines()[2:]
    }


class TestMeasuredTables:
    """Tables II/III and the measured figure 9 as ``repro tables``
    produces them, at reduced sizes."""

    def test_table2_and_table3_instance_counts(self):
        n, k, iterations = 30, 4, 3
        table2, table3 = micro_tables(
            frames=1, kmeans={"n": n, "k": k, "iterations": iterations}
        )
        assert "Paper Instances" in table2
        # CIF geometry: the paper's per-frame DCT instances
        assert instance_counts(table2) == {
            "read": 2, "ydct": 1584, "udct": 396, "vdct": 396, "vlc": 1,
        }
        assert "2024251" in table3
        assert instance_counts(table3) == {
            "init": 1, "assign": n * k * iterations,
            "refine": k * iterations, "print": iterations + 1,
        }

    def test_a_run_that_does_not_end_idle_fails(self, monkeypatch):
        real = experiments.run_program

        def times_out(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs),
                                       reason="timeout")

        monkeypatch.setattr(experiments, "run_program", times_out)
        with pytest.raises(RuntimeStateError, match="ended 'timeout'"):
            micro_tables(frames=1,
                         kmeans={"n": 4, "k": 2, "iterations": 1})

    def test_a_short_encode_fails(self, monkeypatch):
        monkeypatch.setattr(experiments, "MJPEGConfig",
                            lambda frames: MJPEGConfig(frames=frames - 1))
        with pytest.raises(RuntimeStateError, match="encoded 1 of 2"):
            micro_tables(frames=2,
                         kmeans={"n": 4, "k": 2, "iterations": 1})

    def test_a_run_that_differs_from_the_encoder_fails(self, monkeypatch):
        monkeypatch.setattr(
            experiments, "mjpeg_baseline", lambda clip, cfg: b"other"
        )
        with pytest.raises(RuntimeStateError, match="threads at 1 workers"):
            fig9_measured(frames=1, worker_counts=(1,),
                          backends=("threads",))

    def test_threads_slower_at_four_workers_fails(self, monkeypatch):
        real = experiments.run_program

        def slow_at_four(program, workers, **kwargs):
            result = real(program, workers=workers, **kwargs)
            if workers == 4:
                time.sleep(2.0)  # well past 1.5x a 1-frame encode
            return result

        monkeypatch.setattr(experiments, "run_program", slow_at_four)
        with pytest.raises(RuntimeStateError, match="threads at 4 workers"):
            fig9_measured(frames=1, worker_counts=(1, 4),
                          backends=("threads",))

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 4,
        reason="process scaling needs at least 4 usable CPUs",
    )
    def test_processes_scale_to_four_workers(self):
        # 4 CIF frames, the size the 2x bound was set for: fewer frames
        # weigh the fixed per-run costs more
        sweep = fig9_measured(frames=4, backends=("processes",))
        times = [t for _w, t in sweep.series["processes"]]
        assert times == sorted(times, reverse=True)  # monotone 1 -> 4
        assert times[0] / times[-1] >= 2.0
