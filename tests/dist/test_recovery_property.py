"""Property-based recovery tests (Hypothesis).

Whatever single fault is injected — any victim, any kill/drop kind, any
trigger point, any 2/3-way partitioning, any claim size (a fault cuts a
claim at its boundary) — a recovered run must reach
quiescence (never hang: the cluster ``timeout`` is the watchdog), must
never violate write-once semantics (the runtime raises
``WriteOnceViolation`` if re-execution double-writes diverging bytes),
and must produce exactly the fault-free output.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dist import Cluster, FaultInjector, FaultSchedule, FaultSpec, RecoveryConfig
from repro.workloads import build_mulsum, expected_series
from tests.conftest import assert_registries_agree

FAST = RecoveryConfig(heartbeat_interval=0.01, heartbeat_timeout=0.1)

MAX_AGE = 3


def run_cluster(n_nodes: int, faults: FaultInjector | None, batch: int = 1):
    program, sink = build_mulsum()
    workers = {f"n{i}": 2 for i in range(n_nodes)}
    cluster = Cluster(program, workers)
    result = cluster.run(
        max_age=MAX_AGE,
        timeout=120,  # hang watchdog: quiescence must arrive well before
        faults=faults,
        recovery=FAST if faults is not None else None,
        batch=batch,
    )
    assert_registries_agree(cluster, result)
    return result, sink


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_nodes=st.integers(min_value=2, max_value=3),
    victim=st.integers(min_value=0, max_value=2),
    kind=st.sampled_from(["kill", "drop"]),
    after=st.integers(min_value=0, max_value=6),
    batch=st.sampled_from([1, 4, 32]),
)
def test_single_fault_recovery_is_exact(n_nodes, victim, kind, after, batch):
    spec = FaultSpec(f"n{victim % n_nodes}", kind, after)
    faults = FaultInjector(FaultSchedule([spec]))
    result, sink = run_cluster(n_nodes, faults, batch)

    # Quiescence, not a hang and not an abort: recovery (or a fault that
    # never fired) must end in global idle within the watchdog.
    assert result.reason == "idle"

    # Exactness: the recovered output is byte-for-byte the fault-free
    # series.  Write-once violations would have raised inside run().
    expected = expected_series(MAX_AGE + 1)
    assert set(sink) == set(expected)
    for age, (m, p) in expected.items():
        assert np.array_equal(sink[age][0], m)
        assert np.array_equal(sink[age][1], p)

    # If the trigger was reached, recovery really happened.
    if faults.fired:
        assert len(result.recoveries) == len(faults.fired)
        for rec in result.recoveries:
            assert rec.attempt >= 1
            assert rec.recovery_s >= 0.0
