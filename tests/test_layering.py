"""``repro.core`` and ``repro.obs`` are the bottom of the package: they
import nothing above them.  An AST scan, so a lazy import inside a
function counts too."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ABOVE = {"media", "workloads", "ops", "lang", "dist", "sim", "stream"}
#: (file, imported package) pairs allowed all the same.
ALLOWED = {
    # run_program(stream=...) builds the driver for a live binding
    ("core/runtime.py", "stream"),
}


def _imports(path: Path):
    """The ``repro`` sub-packages ``path`` imports from."""
    up = len(path.relative_to(SRC).parts)  # ``from ..x``: 2 in core/x.py
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom) and node.level == up:
            names = [
                f"repro.{node.module or a.name}" for a in node.names
            ]
        else:
            continue  # not an import, or one inside the file's package
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1]


def test_core_and_obs_import_nothing_above_them():
    found = set()
    for package in ("core", "obs"):
        for path in sorted((SRC / package).rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            found |= {
                (rel, pkg) for pkg in _imports(path) if pkg in ABOVE
            }
    assert found == ALLOWED
