"""Suite-wide fixtures.

Several fault-tolerance tests intentionally drive runs into
``NodeFailureError``/``StallError``, which now dump flight-recorder
artifacts.  Unless a test (or CI) chose a destination explicitly, route
the dumps into a per-test temporary directory so expected failures
don't litter the working tree.
"""

import gc

import pytest
from hypothesis import settings

# `--hypothesis-profile=deep`: ten times the default example budget for
# the property tests that leave `max_examples` unset or scale it from
# `settings.default` (the CI property job runs
# tests/media/test_entropy_scan.py, test_dct.py,
# tests/core/test_ready_queue.py, test_analyzer_mask.py,
# test_analyzer_property.py, test_region_group_property.py and
# test_fields_property.py this way).
settings.register_profile("deep", max_examples=1000, deadline=None)


@pytest.fixture(autouse=True, scope="module")
def _settled_heap():
    """A full collection of the heap the earlier modules left behind
    takes 0.1-0.2 s late in a whole-suite run — past the 0.1 s heartbeat
    timeout of the kill tests, so the collecting thread can hold a live
    node's heartbeat back until the node is declared dead.  Collecting
    once per module and freezing the survivors keeps every later
    collection to the objects the current module made."""
    gc.collect()
    gc.freeze()


@pytest.fixture(autouse=True)
def _flight_dir_default(tmp_path, monkeypatch):
    import os

    if not os.environ.get("P2G_FLIGHT_DIR") and not os.environ.get(
        "CHAOS_REPRO_DIR"
    ):
        monkeypatch.setenv("P2G_FLIGHT_DIR", str(tmp_path / "flight"))


def scalar_only(program):
    """Strip every kernel's stacked form: the scalar reference the
    byte-identity tests compare the stacked run against.  Accepts a
    ``Program`` or anything carrying one as ``.program``; returns what
    it was given."""
    for kernel in getattr(program, "program", program).kernels.values():
        kernel.batch_body = None
    return program


def flatten_runs(runs):
    """The instances of the analyzer's runs, in order: its entry points
    return :class:`~repro.core.kernels.Run` s (one index array per
    kernel and age), which tests that look at single instances read
    through this."""
    return [inst for run in runs for inst in run]


def assert_registries_agree(cluster, result):
    """One node table (DESIGN.md §8): at the end of a cluster run the
    master's topology, the assignment in force and the filed results
    name the same nodes, and every migration's epoch is the table's."""
    table = cluster.master.topology
    view = table.view()
    plan = result.assignment
    assert plan is cluster.master.last_assignment
    assert plan.nodes() == table.node_names()
    # A result is filed as ``name`` or ``name#seq``; whoever filed one
    # and has not died or left is exactly the parts that have kernels.
    filed = {key.split("#")[0] for key in result.node_results}
    assert all(view.state(n) is not None for n in filed)
    assert {n for n in filed if view.state(n) not in ("dead", "left")} == {
        n for n in plan.nodes() if plan.kernels_for(n)
    }
    assert {r.failed for r in result.recoveries} <= set(table.failed_nodes())
    epochs = [m.epoch for m in result.migrations]
    assert epochs == sorted(set(epochs))  # strictly increasing
    assert all(e <= table.epoch for e in epochs)
