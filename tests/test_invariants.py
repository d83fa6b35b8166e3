"""Structural invariants: code that was deleted stays deleted.

Each row of :data:`INVARIANTS` names a layer or a loop the project
removed, the regular expression that finds it again, where to look and
what not to look at, and where the removal is recorded (the commit
that deleted it, or the DESIGN.md section that states the rule).  A
row fails when its pattern matches a line of a file it covers — the
``grep -rnE`` it replaces, run from the repo root.  The checks that are
not one pattern (files that must not exist, counts, the AST scan of
builder signatures, the thread census) follow the table.
"""

from __future__ import annotations

import ast
import fnmatch
import re
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELF = Path(__file__).resolve().relative_to(ROOT).as_posix()
EVERYWHERE = ("src", "tests", "examples", "benchmarks")
CORE = "src/repro/core/"


@dataclass(frozen=True)
class Invariant:
    """``pattern`` must match no line of the files under ``paths``
    (files or directories, relative to the repo root) whose name
    matches ``include`` and whose path matches none of ``exclude``.
    With ``section`` only the lines from one matching its first regex
    through the next one matching its second are searched, comment
    lines too unless ``comments`` is false."""

    name: str
    pattern: str
    paths: tuple[str, ...]
    deleted_in: str
    exclude: tuple[str, ...] = ()
    include: str = "*"
    section: tuple[str, str] | None = None
    comments: bool = True

    def files(self):
        for root in self.paths:
            path = ROOT / root
            for f in [path] if path.is_file() else sorted(path.rglob("*")):
                rel = f.relative_to(ROOT).as_posix()
                if (
                    f.is_file()
                    and "__pycache__" not in f.parts
                    and fnmatch.fnmatch(f.name, self.include)
                    and rel != SELF
                    and not any(re.search(x, rel) for x in self.exclude)
                ):
                    yield rel, f

    def lines(self, text: str):
        numbered = enumerate(text.splitlines(), 1)
        if self.section is not None:
            numbered = _section(numbered, *self.section)
        for number, line in numbered:
            if self.comments or not line.lstrip().startswith("#"):
                yield number, line

    def hits(self) -> list[str]:
        pattern = re.compile(self.pattern)
        out = []
        for rel, f in self.files():
            try:
                text = f.read_text()
            except UnicodeDecodeError:
                continue
            out += [
                f"{rel}:{number}: {line.strip()}"
                for number, line in self.lines(text)
                if pattern.search(line)
            ]
        return out


def _section(numbered, start: str, end: str):
    """The lines from the first one matching ``start`` through the
    next one matching ``end`` (``sed -n '/start/,/end/p'``)."""
    inside = False
    for number, line in numbered:
        if not inside:
            inside = re.search(start, line) is not None
            if inside:
                yield number, line
            continue
        yield number, line
        if re.search(end, line):
            return


INVARIANTS = [
    Invariant(
        "one granularity mechanism (no pre-run rewrite layer, no KPN)",
        r"\bcoarsen\(|AdaptivePolicy|GranularityDecision|FusionDecision"
        r"|apply_decisions|coarsenable_vars|repro\.kpn",
        ("src", "examples", "benchmarks"),
        deleted_in="2e70068",
    ),
    Invariant(
        "one simulator (a node is a cluster of one, no prediction layer)",
        r"SimExecutionNode|SimClusterResult|recommend_workers"
        r"|compare_machines|granularity_what_if|coarsen_model"
        r"|best_assignment|evaluate_assignment|_cmd_advise",
        EVERYWHERE,
        deleted_in="9fe8e52",
    ),
    Invariant(
        "a kernel carries its own stacked form (no pattern table)",
        r"tag_vectorizable|vectorize_program|vectorizable_pattern"
        r"|stack_pattern|__p2g_vector__|EventBus",
        EVERYWHERE,
        deleted_in="d4f0a32",
    ),
    Invariant(
        "one node table, one succession path",
        r"MembershipTable|_member_name|live_name\(|_workers_for"
        r"|record_failure|mark_draining|resume_watch",
        EVERYWHERE,
        deleted_in="12aea97",
    ),
    Invariant(
        "one analysis path (a node's threads are its workers)",
        r"ShutdownEvent|RetireEvent|_analyzer_loop|_analyzer_thread"
        r"|_inject_lock",
        EVERYWHERE,
        deleted_in="b836202",
    ),
    Invariant(
        "one holder per fact (the metrics registry reads each layer)",
        r"gauge_fn|feed_registry|_export_metrics|add_source|_metrics_on"
        r"|_claims_on|wait_total|MetricsRegistry\(enabled"
        r"|TimelineRecorder\(enabled|instrumentation\.(start|stop)\(",
        EVERYWHERE,
        deleted_in="f4862a3",
    ),
    Invariant(
        "one span stream (each timed event is recorded once)",
        r"_queue_wait_by_worker|_trace_on|self\._timeline|self\._tl\b"
        r"|transport\.timeline|queue_wait_us|Tracer\([^)]*clock=",
        ("src", "tests", "examples"),
        deleted_in="2675b57",
    ),
    Invariant(
        "entropy coding stays whole-scan (the per-block pair is the "
        "tests' reference)",
        r"BitReader|BitWriter|decode_block|encode_block|read_symbol",
        ("src/repro",),
        exclude=(r"^src/repro/media/(huffman|bitstream|__init__)\.py$",),
        include="*.py",
        deleted_in="5736e54",
    ),
    Invariant(
        "a token per probe (decode_scan reads whole tokens from one "
        "table)",
        r"\.append\(|zz\[index\]",
        ("src/repro/media/huffman.py",),
        section=(r"^def decode_scan", r"^def "),
        deleted_in="35e1e85",
    ),
    Invariant(
        "the matrix DCT stays one stacked call",
        r"\bfor\b|\bwhile\b|range\(",
        ("src/repro/media/dct.py",),
        section=(r'if method == "matrix":', r'if method == "aan":'),
        comments=False,
        deleted_in="2c0170d",
    ),
    Invariant(
        "a claim stays an array (no instance objects on the shared path)",
        r"KernelInstance\(",
        tuple(CORE + f for f in (
            "analyzer.py", "runtime.py", "backends.py", "execute.py")),
        deleted_in="6be6945",
    ),
    Invariant(
        "one re-execution path (replay)",
        r"reenqueue|captive_instances|\b_members\b|push_many|Run\.of\(",
        ("src",),
        deleted_in="e08526a",
    ),
    Invariant(
        "one re-execution path: a recover node raises on a lost race",
        r"except WriteOnceViolation",
        (CORE + "backends.py",),
        deleted_in="e08526a",
    ),
    Invariant(
        "an age reuses a retired segment (nothing forwards retirements)",
        r"__retire__|_forward_control|\bon_retire\b",
        ("src",),
        deleted_in="5ab3659",
    ),
    Invariant(
        "a claim is one body call (no stack size, no per-stack records)",
        r"\bstack: int\b|isinstance\(who, range\)|range\(lo, lo \+",
        tuple(CORE + f for f in ("execute.py", "backends.py", "runtime.py")),
        deleted_in="DESIGN.md section 7",
    ),
]


@pytest.mark.parametrize("row", INVARIANTS, ids=lambda row: row.name)
def test_deleted_code_stays_deleted(row):
    assert list(row.files()), f"{row.name}: no file to search"
    assert row.hits() == []


@pytest.mark.parametrize("path", [
    "src/repro/core/scheduler.py",
    "src/repro/kpn",
    "src/repro/sim/simnode.py",
    "src/repro/sim/advisor.py",
])
def test_deleted_module_stays_deleted(path):
    assert not (ROOT / path).exists()


def _grep_files(pattern: str, paths) -> list[str]:
    return sorted(
        p.relative_to(ROOT).as_posix() for p in paths
        if re.search(pattern, p.read_text())
    )


def test_one_replay_site_and_one_epoch_holder():
    dist = sorted((ROOT / "src/repro/dist").glob("*.py"))
    replays = [
        f"{p.name}:{line}" for p in dist if p.name != "transport.py"
        for line in p.read_text().splitlines() if "transport.replay(" in line
    ]
    assert len(replays) <= 1, replays
    assert _grep_files(r"_epoch", dist) == ["src/repro/dist/topology.py"]


def test_the_matrix_branch_is_one():
    text = (ROOT / "src/repro/media/dct.py").read_text()
    assert text.count('if method == "matrix":') == 1


def test_no_builder_takes_vectorize():
    bad = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for package in ("workloads", "ops")
        for path in sorted((ROOT / "src/repro" / package).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            a.arg == "vectorize"
            for a in node.args.args + node.args.kwonlyargs
        )
    ]
    assert bad == []


def test_run_batch_takes_no_stack_size():
    import inspect

    from repro.core import execute

    for fn in (execute.run_batch, execute._run_stacked):
        assert "stack" not in inspect.signature(fn).parameters


def test_a_nodes_threads_are_its_workers():
    from repro.core import ExecutionNode
    from repro.workloads import build_kmeans

    node = ExecutionNode(
        build_kmeans(n=40, k=4, iterations=3)[0], 2, name="gate"
    )
    node.start()
    names = [t.name for t in threading.enumerate()]
    node.join(timeout=60)
    assert not any(n.endswith("-analyzer") for n in names), names
    assert sum(n.startswith("gate-worker") for n in names) == 2, names
