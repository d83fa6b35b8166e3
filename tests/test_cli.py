"""Tests for the ``python -m repro`` command-line driver."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.media import split_frames, synthetic_sequence, write_yuv_file

MULSUM = """
int64[] m_data age;
int64[] p_data age;

init:
  local int64[] values;
  %{
    for i in range(5):
        put(values, i + 10, i)
  %}
  store m_data(0) = values;

mul2:
  age a;
  index x;
  age_limit 2;
  fetch value = m_data(a)[x];
  %{ value *= 2 %}
  store p_data(a)[x] = value;

plus5:
  age a;
  index x;
  age_limit 2;
  fetch value = p_data(a)[x];
  %{ value += 5 %}
  store m_data(a+1)[x] = value;

print:
  age a;
  age_limit 2;
  fetch m = m_data(a);
  fetch p = p_data(a);
  %{ print("age", a, list(int(v) for v in p)) %}
"""


@pytest.fixture
def mulsum_file(tmp_path):
    path = tmp_path / "mulsum.p2g"
    path.write_text(MULSUM)
    return str(path)


class TestRunCommand:
    def test_runs_to_idle(self, mulsum_file, capsys):
        rc = main(["run", mulsum_file, "-w", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "idle" in out
        assert "age 0 [20, 22, 24, 26, 28]" in out
        assert "mul2" in out  # instrumentation table

    def test_max_age_flag(self, mulsum_file, capsys):
        rc = main(["run", mulsum_file, "-a", "1", "-w", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "age 1" in out
        assert "age 2" not in out


class TestGraphCommand:
    def test_final_ascii(self, mulsum_file, capsys):
        assert main(["graph", mulsum_file]) == 0
        out = capsys.readouterr().out
        assert "(mul2) -> plus5" in out

    def test_intermediate(self, mulsum_file, capsys):
        assert main(["graph", mulsum_file, "--view", "intermediate"]) == 0
        out = capsys.readouterr().out
        assert "[m_data]" in out

    def test_dcdag_dot(self, mulsum_file, capsys):
        assert main(
            ["graph", mulsum_file, "--view", "dcdag", "--dot",
             "--max-age", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "mul2" in out


class TestMJPEGCommand:
    def test_synthetic_encode(self, tmp_path, capsys):
        out_path = tmp_path / "clip.mjpeg"
        rc = main([
            "mjpeg", str(out_path), "--width", "64", "--height", "64",
            "--frames", "2", "-w", "2",
        ])
        assert rc == 0
        data = out_path.read_bytes()
        assert len(split_frames(data)) == 2

    def test_yuv_input(self, tmp_path, capsys):
        clip = synthetic_sequence(3, 64, 64)
        yuv = tmp_path / "in.yuv"
        write_yuv_file(yuv, clip)
        out_path = tmp_path / "out.mjpeg"
        rc = main([
            "mjpeg", str(out_path), "-i", str(yuv),
            "--width", "64", "--height", "64", "--frames", "3",
        ])
        assert rc == 0
        assert len(split_frames(out_path.read_bytes())) == 3


class TestKMeansCommand:
    def test_prints_centroids(self, capsys):
        rc = main([
            "kmeans", "-n", "40", "-k", "3", "--iterations", "2",
            "--show", "3", "-w", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "centroid 0:" in out
        assert "assign" in out


class TestSimulateCommand:
    def test_sweep_output(self, capsys):
        rc = main([
            "simulate", "mjpeg", "--frames", "10", "--max-workers", "4",
            "--machines", "opteron",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "8-way AM" in out
        assert "workers" in out

    @pytest.mark.parametrize("argv", [
        ["simulate", "kmeans", "--max-workers", "0"],
        ["simulate", "mjpeg", "--frames", "0"],
        ["tables", "--frames", "0"],
    ], ids=" ".join)
    def test_rejects_sizes_that_simulate_nothing(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be a positive integer, got 0" in capsys.readouterr().err


class TestTablesCommand:
    """``tables`` prints the evaluation in the paper's order and fails
    when a measured run's bytes differ (the live runs are stubbed here;
    tests/test_bench_module.py runs them at reduced sizes)."""

    @pytest.fixture
    def stubbed(self, monkeypatch):
        import repro.bench as bench
        from repro.bench.experiments import SweepResult

        monkeypatch.setattr(bench, "micro_tables",
                            lambda: ["TABLE-II", "TABLE-III"])
        sweep = SweepResult("MEASURED-FIG9", {"threads": [(1, 1.0)]})
        monkeypatch.setattr(bench, "fig9_measured", lambda: sweep)
        return bench, monkeypatch

    def test_prints_every_artifact_in_order(self, stubbed, capsys):
        assert main(["tables", "--frames", "5"]) == 0
        out = capsys.readouterr().out
        marks = ["Physical cores", "TABLE-II", "TABLE-III",
                 "Figure 9: MJPEG execution time (5 frames, simulated)",
                 "Figure 10", "MEASURED-FIG9"]
        at = [out.index(mark) for mark in marks]
        assert at == sorted(at)

    def test_a_differing_measured_run_exits_nonzero(self, stubbed, capsys):
        from repro.core import RuntimeStateError

        bench, monkeypatch = stubbed

        def differs():
            raise RuntimeStateError("bytes differ")

        monkeypatch.setattr(bench, "fig9_measured", differs)
        assert main(["tables", "--frames", "5"]) == 1
        assert "bytes differ" in capsys.readouterr().err


class TestObservabilityFlags:
    """--trace / --metrics / --metrics-json across the subcommands."""

    def test_mjpeg_trace_is_schema_valid(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "out.json"
        rc = main([
            "mjpeg", str(tmp_path / "clip.mjpeg"),
            "--width", "32", "--height", "32", "--frames", "2",
            "-w", "2", "--trace", str(trace),
        ])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) > 0
        meta = {(e["name"], e["args"]["name"])
                for e in doc["traceEvents"] if e["ph"] == "M"}
        assert ("thread_name", "worker0") in meta  # per-worker lanes
        assert ("thread_name", "analyzer") in meta
        out = capsys.readouterr().out
        assert "perfetto" in out.lower()

    def test_run_metrics_table_and_json(self, mulsum_file, tmp_path,
                                        capsys):
        import json

        mpath = tmp_path / "metrics.json"
        rc = main(["run", mulsum_file, "-w", "2", "--metrics",
                   "--metrics-json", str(mpath)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "instances.executed" in out  # the --metrics table
        doc = json.loads(mpath.read_text())
        assert doc["instances.executed"]["value"] > 0
        assert doc["ready.wait_s"]["type"] == "histogram"

    def test_cluster_trace_has_per_node_lanes(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "cluster.json"
        rc = main(["cluster", "mulsum", "--nodes", "2", "-w", "2",
                   "--max-age", "2", "--trace", str(trace)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) > 0
        processes = {e["args"]["name"] for e in doc["traceEvents"]
                     if e["ph"] == "M" and e["name"] == "process_name"}
        assert {"node0", "node1"} <= processes


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])


class TestClusterCommand:
    def test_fault_free_run(self, capsys):
        code = main(["cluster", "mulsum", "--nodes", "2", "-w", "2",
                     "--max-age", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cluster mulsum on 2 node(s): idle" in out
        assert "output: 3 ages" in out

    def test_fail_node_kill_recovers(self, capsys):
        code = main([
            "cluster", "mulsum", "--nodes", "2", "-w", "2",
            "--fail-node", "node0:kill:2",
            "--heartbeat-interval", "0.01",
            "--heartbeat-timeout", "0.1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "idle" in out
        assert "recovered node0 -> node0~1" in out

    def test_chaos_seed_is_accepted(self, capsys):
        code = main([
            "cluster", "mulsum", "--nodes", "3", "-w", "2",
            "--chaos-seed", "5",
            "--heartbeat-interval", "0.01",
            "--heartbeat-timeout", "0.1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        # either the seeded fault fired and was recovered, or its trigger
        # lay beyond the run's instance count — both are clean exits
        assert ("recovered" in out) or ("no scheduled fault fired" in out)

    @pytest.mark.parametrize("spec", [
        "node0:explode",     # unknown kind
        "node0:kill:2:junk",  # a field too many
        "node0:kill:x",      # AFTER not an integer
        "node9:kill",        # no such node in a 3-node cluster
    ])
    def test_parser_rejects_bad_fault_spec(self, spec):
        from repro.core import RuntimeStateError

        with pytest.raises(RuntimeStateError, match="fault"):
            main(["cluster", "mulsum", "--nodes", "3", "--fail-node", spec])

    def test_stall_fault_detected_via_progress_timeout(self, capsys):
        code = main([
            "cluster", "mulsum", "--nodes", "2", "-w", "2",
            "--fail-node", "node0:stall:2",
            "--heartbeat-interval", "0.01",
            "--progress-timeout", "0.15",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered node0 -> node0~1" in out
        assert "no progress" in out


class TestOpsCommand:
    def _fixture_clip(self, tmp_path, n=3, w=32, h=32, seed=7):
        path = tmp_path / f"clip{seed}.yuv"
        write_yuv_file(str(path), synthetic_sequence(n, w, h, seed))
        return path

    def test_mosaic_batch(self, tmp_path, capsys):
        out = tmp_path / "m.yuv"
        code = main([
            "ops", "mosaic", str(out),
            "--width", "32", "--height", "32", "--frames", "3",
        ])
        assert code == 0
        assert "mosaic 4 cams: 3 frames" in capsys.readouterr().out
        assert out.stat().st_size == 3 * (32 * 32 * 3 // 2)

    def test_mosaic_live_matches_batch(self, tmp_path, capsys):
        batch, live = tmp_path / "b.yuv", tmp_path / "l.yuv"
        args = ["--width", "32", "--height", "32", "--frames", "3"]
        assert main(["ops", "mosaic", str(batch)] + args) == 0
        assert main([
            "ops", "mosaic", str(live), "--live", "--fps", "0",
        ] + args) == 0
        capsys.readouterr()
        assert batch.read_bytes() == live.read_bytes()

    def test_motion_writes_samples(self, tmp_path, capsys):
        import json

        out = tmp_path / "mo.json"
        code = main([
            "ops", "motion", str(out),
            "--width", "32", "--height", "32", "--frames", "4",
            "--region", "8", "--slots", "3",
        ])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert len(payload["samples"]) == 3
        sample = payload["samples"][0]
        assert sample["sad"] > 0
        assert len(sample["zones"]) == 3

    def test_transcode_batch(self, tmp_path, capsys):
        out = tmp_path / "t.mjpeg"
        code = main([
            "ops", "transcode", str(out),
            "--width", "32", "--height", "32", "--frames", "2",
        ])
        assert code == 0
        assert "transcode /2: 2 frames" in capsys.readouterr().out
        assert out.read_bytes().startswith(b"\xff\xd8")

    def test_mosaic_sessions_write_per_session_files(
        self, tmp_path, capsys
    ):
        out = tmp_path / "m.yuv"
        code = main([
            "ops", "mosaic", str(out), "--live", "--fps", "0",
            "--sessions", "2", "--tier", "gold:1",
            "--width", "32", "--height", "32", "--frames", "2",
        ])
        text = capsys.readouterr().out
        assert code == 0
        assert "multitenant: 2 sessions" in text
        for name in ("m.s0.yuv", "m.s1.yuv"):
            assert (tmp_path / name).stat().st_size == \
                2 * (32 * 32 * 3 // 2)

    def test_source_glob_feeds_cameras(self, tmp_path, capsys):
        for seed in (7, 8):
            self._fixture_clip(tmp_path, seed=seed)
        out = tmp_path / "m.yuv"
        code = main([
            "ops", "mosaic", str(out), "--live", "--fps", "0",
            "--source-glob", str(tmp_path / "clip*.yuv"),
            "--width", "32", "--height", "32", "--frames", "2",
        ])
        assert code == 0
        capsys.readouterr()
        assert out.stat().st_size == 2 * (32 * 32 * 3 // 2)

    def test_source_feeds_motion(self, tmp_path, capsys):
        import json

        clip = self._fixture_clip(tmp_path, n=4)
        out = tmp_path / "mo.json"
        code = main([
            "ops", "motion", str(out), "--live", "--fps", "0",
            "--source", str(clip),
            "--width", "32", "--height", "32", "--frames", "3",
            "--region", "8",
        ])
        assert code == 0
        capsys.readouterr()
        assert len(json.loads(out.read_text())["samples"]) == 2

    def test_source_glob_without_matches_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "ops", "mosaic", str(tmp_path / "m.yuv"), "--live",
                "--source-glob", str(tmp_path / "nope*.yuv"),
            ])

    def test_mjpeg_accepts_source_flag(self, tmp_path, capsys):
        clip = self._fixture_clip(tmp_path)
        out = tmp_path / "c.mjpeg"
        code = main([
            "mjpeg", str(out), "--live", "--fps", "0",
            "--source", str(clip),
            "--width", "32", "--height", "32", "--frames", "2",
        ])
        assert code == 0
        capsys.readouterr()
        assert out.read_bytes().startswith(b"\xff\xd8")
