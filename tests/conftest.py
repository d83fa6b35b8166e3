"""Suite-wide fixtures.

Several fault-tolerance tests intentionally drive runs into
``NodeFailureError``/``StallError``, which now dump flight-recorder
artifacts.  Unless a test (or CI) chose a destination explicitly, route
the dumps into a per-test temporary directory so expected failures
don't litter the working tree.
"""

import pytest
from hypothesis import settings

# `--hypothesis-profile=deep`: ten times the default example budget for
# the property tests that leave `max_examples` unset (the CI property
# job runs tests/media/test_entropy_scan.py this way).
settings.register_profile("deep", max_examples=1000, deadline=None)


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
