#!/usr/bin/env python3
"""The perf ledger: one harness, five workloads, every layer.

    python3 benchmarks/ledger/run.py                      # all five workloads
    python3 benchmarks/ledger/run.py --workload kmeans_batch --seed 7
    python3 benchmarks/ledger/run.py --trace 1            # per-layer metrics
    python3 benchmarks/ledger/run.py --repeats 10         # medians + spread
    python3 benchmarks/ledger/run.py --check-repeat       # two sets vs bounds
    python3 benchmarks/ledger/run.py --smoke              # <20 s, all checks

Every workload runs in a fresh child process (so peak RSS, leaked
threads and shared-memory segments of one cannot touch the next), checks
every output byte against the sequential NumPy reference, and prints
each metric by name with its unit.  The last line of standard output is
one JSON object; for a single workload it has exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
beside this file for what the workloads and metrics are and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"          #: Chrome traces land here (git-ignored)
SHM = Path("/dev/shm")
SHM_PREFIX = "p2g"              #: repro.core.fields.segment_name
CHILD_TIMEOUT_S = 170.0
SMOKE_SECONDS = 1.5

def spec() -> dict:
    """``BENCHMARK.json``: the workload list, run length and bounds."""
    return json.loads(SPEC.read_text())


def commit_hash() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# ----------------------------------------------------------------------
# Child: one workload, one process
# ----------------------------------------------------------------------
def child(args) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np

    import perlayer
    import workloads as wl

    w = wl.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    row = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": args.trace,
        "nproc": nproc, "pinned_to_cpu": wl.pin_to_one_cpu(),
        "python": platform.python_version(), "numpy": np.__version__,
    }
    print(f"== {w.name}  seed={args.seed} seconds={args.seconds:g} "
          f"size={args.size} trace={args.trace}")
    try:
        if args.trace:
            path = OUT_DIR / f"trace_{w.name}.json"
            values, outcomes, text = perlayer.traced(
                w, args.seed, args.seconds, args.size, path, dict(row)
            )
            print(text)
        else:
            out = wl.measure(w, args.seed, args.seconds, args.size)
            outcomes = [out]
            lat = out.latencies_ms
            # Times are in nominal (host-speed) time: see HostClock.
            values = {
                "fps": out.nominal_fps,
                "latency_p50_ms": statistics.median(
                    ms for _t, ms in out.nominal_samples
                ),
                "latency_p90_ms": wl.p90(out.nominal_samples),
                "cpu_ms_per_unit": 1e3 * out.nominal_cpu_s / out.cpu_units,
                "peak_rss_mb": wl.peak_rss_mb(),
                "setup_s": statistics.median(out.nominal_setup_s),
            }
            row["samples"] = {
                "latency": len(lat), "setup": len(out.setup_s),
                "units": out.cpu_units,
            }
            row["raw"] = out.samples
            row["nominal"] = out.nominal_samples
            row["extra"] = {
                "host_speed": out.host_speed,
                "raw_fps": out.fps,
                "raw_latency_p50_ms": statistics.median(lat),
                "raw_latency_p90_ms": wl.p90(out.samples),
                "raw_setup_s": statistics.median(out.setup_s),
                "wall_s": out.wall_s, "cpu_s": out.cpu_s,
                "teardown_s": out.teardown_s,
                "failed_frac": out.failed / out.attempted,
                "unit": w.unit,
            }
        row["constants"] = outcomes[-1].constants
        row["attempted"] = sum(o.attempted for o in outcomes)
        row["failed"] = sum(o.failed for o in outcomes)
        # BENCHMARK.json says which metrics a run reports, and their
        # units.
        listed = spec()["per_layer" if args.trace else "end_to_end"]
        row["metrics"] = {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in listed
        }
    except Exception:  # noqa: BLE001 - a run that raises fails every unit
        traceback.print_exc()
        row.update(correct=False, attempted=1, failed=1, metrics={})
        print(json.dumps(row))
        return 1
    row["correct"] = row["failed"] == 0 and row["attempted"] > 0
    for k, v in row["metrics"].items():
        print(f"   {k:<44}{v['value']:>16.4f} {v['unit']}")
    for k, v in row.get("extra", {}).items():
        print(f"   {k:<44}{v!s:>16}")
    print(f"   attempted={row['attempted']} failed={row['failed']} "
          f"samples={row.get('samples')}")
    print(json.dumps(row))
    return 0 if row["correct"] else 1


# ----------------------------------------------------------------------
# Parent: spawn, collect, compare
# ----------------------------------------------------------------------
def shm_segments() -> set[str]:
    if not SHM.is_dir():
        return set()
    return {p.name for p in SHM.iterdir() if p.name.startswith(SHM_PREFIX)}


def run_child(name: str, seed: int, args) -> dict:
    """One workload in a fresh process; returns its result row."""
    before = shm_segments()
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size,
    ]
    row = None
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
        lines = proc.stdout.rstrip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        row = json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        print(f"ledger: {name} exceeded {CHILD_TIMEOUT_S:g} s",
              file=sys.stderr)
    except (IndexError, ValueError):
        print(f"ledger: {name} printed no result", file=sys.stderr)
    if row is None:
        row = {"workload": name, "seed": seed, "correct": False,
               "attempted": 1, "failed": 1, "metrics": {}}
    leaked = sorted(shm_segments() - before)
    if leaked:
        print(f"ledger: {name} leaked shared memory: {leaked}",
              file=sys.stderr)
        row["correct"] = False
        row["leaked_shm"] = leaked
    row["commit"] = args.commit
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(row) + "\n")
    return row


def contract(row: dict) -> dict:
    return {k: row[k] for k in ("correct", "attempted", "failed", "metrics")}


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(sets: list[dict]) -> dict:
    """Median and spread of every metric over repeated sets."""
    out: dict = {}
    print("\n== summary: median over sets (IQR / median)")
    for name in sets[0]:
        out[name] = {}
        for metric in sets[0][name]["metrics"]:
            vals = [
                s[name]["metrics"][metric]["value"] for s in sets
                if metric in s[name]["metrics"]
            ]
            med, spr = statistics.median(vals), spread(vals)
            unit = sets[0][name]["metrics"][metric]["unit"]
            out[name][metric] = {"median": med, "spread": spr, "n": len(vals)}
            print(f"   {name:<18}{metric:<44}{med:>14.4f} {unit:<6}"
                  f"{100 * spr:>7.2f} %")
    return out


def check_repeat(first: dict, second: dict) -> bool:
    """Two sets of the same code and seed must agree within each
    end-to-end metric's own bound."""
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in spec()["end_to_end"]}
    ok = True
    print("\n== check-repeat: first set, second set, gap, bound")
    for name in first:
        for metric, cell in first[name]["metrics"].items():
            a = cell["value"]
            b = second[name]["metrics"].get(metric, {}).get("value")
            if b is None or metric not in bounds or not a:
                continue
            bound, better = bounds[metric]
            gap = (b - a) / a if better == "lower" else (a - b) / a
            verdict = "ok" if abs(gap) <= bound else "EXCEEDS"
            ok = ok and abs(gap) <= bound
            print(f"   {name:<18}{metric:<20}{a:>14.4f}{b:>14.4f}"
                  f"{100 * gap:>+9.2f} %{100 * bound:>7.1f} %  {verdict}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured window per run (default: "
                         "BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced run (per-layer metrics)")
    ap.add_argument("--repeats", type=int, default=1,
                    help="sets of runs, set r at seed+r, interleaved")
    ap.add_argument("--check-repeat", action="store_true",
                    help="two sets at the same seed, compared with the "
                         "bounds in BENCHMARK.json")
    ap.add_argument("--smoke", action="store_true",
                    help="~1/20 size, all byte checks on")
    ap.add_argument("--out", help="append every result row (JSONL)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--size", default="full", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: {SRC / 'repro'} not found - the benchmark "
              f"measures the repository it sits in", file=sys.stderr)
        return 2
    if args.smoke:
        args.size = "smoke"
    if args.seconds is None:
        args.seconds = (
            SMOKE_SECONDS if args.smoke else float(spec()["run_seconds"])
        )
    if args.child:
        return child(args)

    # Looked up here, not in the child: a reaped ``git`` would count
    # towards the child's RUSAGE_CHILDREN peak RSS and CPU.
    args.commit = commit_hash()
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload:
        if args.workload not in names:
            ap.error(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]

    n_sets = 2 if args.check_repeat else args.repeats
    sets = []
    for r in range(n_sets):
        seed = args.seed if args.check_repeat else args.seed + r
        # Interleaved A B C D E / A B C D E, never AA BB: drift of the
        # host between sets lands on every workload alike.
        sets.append({name: run_child(name, seed, args) for name in names})
    correct = all(row["correct"] for s in sets for row in s.values())
    agree = True
    if args.check_repeat:
        agree = check_repeat(*sets)
    if n_sets == 1 and len(names) == 1:
        final = contract(sets[0][names[0]])
    else:
        final = {
            "correct": correct,
            "workloads": {n: contract(sets[0][n]) for n in names},
        }
        if n_sets > 1:
            final["summary"] = summarise(sets)
    print(json.dumps(final))
    return 0 if correct and agree else 1


if __name__ == "__main__":
    sys.exit(main())
