"""Shared helpers for the benchmark suite.

Every benchmark regenerates a simulated or structural artifact of the
paper (or an ablation DESIGN.md calls out) and prints it once under
``pytest benchmarks/ --benchmark-only -s``; numbers also land in each
benchmark's ``extra_info`` for machine consumption.  The evaluation
section itself (tables I–III, figures 9/10) is ``python -m repro
tables``.
"""

import json
import os
import pathlib
import subprocess
import sys
import time


def emit(title: str, text: str) -> None:
    """Print an artifact block (works under captured output via -s or
    --capture=no; still visible in benchmark logs otherwise)."""
    print(f"\n===== {title} =====", file=sys.stderr)
    print(text, file=sys.stderr)


def dispatches(result) -> int:
    """How many dispatches a run took: the claim counter."""
    return result.metrics.snapshot()["exec.claims"]["value"]


def commit_hash() -> str:
    """The repo's HEAD commit, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=pathlib.Path(__file__).resolve().parent,
        ).stdout.strip()
        return out or "unknown"
    except Exception:
        return "unknown"


def _write_payload(figure: str, payload: dict) -> pathlib.Path:
    out_dir = pathlib.Path(os.environ.get("BENCH_OUT_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{figure}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    emit(f"BENCH_{figure}.json", f"written to {path}")
    return path


def write_bench_json(figure: str, sweep, wall_time_s: float,
                     **extra) -> pathlib.Path:
    """Write ``BENCH_<figure>.json`` — per-worker times and speedups for
    every machine, the sweep's wall time, and the commit hash — to
    ``$BENCH_OUT_DIR`` (default: cwd) for trend tracking across commits.
    """
    series = {}
    speedup = {}
    for machine, pts in sweep.series.items():
        series[machine] = {str(w): round(t, 4) for w, t in pts}
        speedup[machine] = {
            str(w): round(s, 3)
            for (w, _), s in zip(pts, sweep.speedup(machine))
        }
    payload = {
        "figure": figure,
        "commit": commit_hash(),
        "unix_time": round(time.time(), 3),
        "wall_time_s": round(wall_time_s, 3),
        "series": series,
        "speedup": speedup,
        **extra,
    }
    return _write_payload(figure, payload)


def write_variants_json(figure: str, variants: dict, wall_time_s: float,
                        baseline: str | None = None,
                        **extra) -> pathlib.Path:
    """The :func:`write_bench_json` counterpart for *variant* sweeps
    (ablation runs compare named configurations rather than
    worker counts).  ``variants`` maps name -> numbers dict; when
    ``baseline`` names a variant with a ``wall_time_s`` entry, each
    variant gains a ``speedup`` relative to it.  Same envelope as the
    fig9/fig10 artifacts: figure id, commit hash, sweep wall time.
    """
    variants = {name: dict(data) for name, data in variants.items()}
    ref = (variants.get(baseline) or {}).get("wall_time_s")
    if ref:
        for data in variants.values():
            w = data.get("wall_time_s")
            if w:
                data.setdefault("speedup", round(ref / w, 3))
    payload = {
        "figure": figure,
        "commit": commit_hash(),
        "unix_time": round(time.time(), 3),
        "wall_time_s": round(wall_time_s, 3),
        "variants": variants,
        **extra,
    }
    return _write_payload(figure, payload)
