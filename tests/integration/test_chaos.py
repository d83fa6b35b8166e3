"""Chaos tests: deterministic output under adversarial timing.

Kernel bodies get random sleeps injected (seeded per run), workers race,
the analyzer lags — and the write-once model must still produce
bit-identical results.  This is the strongest executable form of the
paper's determinism claim.
"""

import random
import time

import numpy as np
import pytest

from repro.core import (
    AgeExpr,
    Dim,
    FetchSpec,
    FieldDef,
    KernelContext,
    KernelDef,
    Program,
    StoreSpec,
    run_program,
)
from repro.workloads import build_mulsum, expected_series


def jittered_mulsum(seed: int):
    """The figure-5 program with random per-instance delays."""
    rng = random.Random(seed)
    program, sink = build_mulsum()
    kernels = []
    for k in program.kernels.values():
        inner = k.body

        def body(ctx, inner=inner):
            time.sleep(rng.random() * 0.002)
            inner(ctx)

        kernels.append(
            KernelDef(k.name, body, fetches=k.fetches, stores=k.stores,
                      has_age=k.has_age, index_vars=k.index_vars,
                      domain=k.domain, age_limit=k.age_limit)
        )
    return Program.build(
        program.fields.values(), kernels, program.timers, "jittered"
    ), sink


class TestChaos:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_jittered_mulsum_still_exact(self, seed):
        program, sink = jittered_mulsum(seed)
        run_program(program, workers=6, max_age=3, timeout=120)
        expected = expected_series(4)
        for age in expected:
            assert np.array_equal(sink[age][0], expected[age][0])
            assert np.array_equal(sink[age][1], expected[age][1])

    def test_slow_producer_fast_consumer(self):
        """A consumer that outruns its producer must simply wait, never
        observe partial data."""
        observed = []

        def slow_source(ctx):
            if ctx.age >= 4:
                return
            time.sleep(0.01)
            ctx.emit("data", np.full(16, ctx.age, dtype=np.int64))

        def fast_consumer(ctx):
            chunk = ctx["chunk"]
            # all elements of an age must be the same value — a partial
            # observation would mix ages or zeros
            assert len(set(chunk.tolist())) == 1
            observed.append((ctx.age, int(chunk[0])))

        program = Program.build(
            [FieldDef("data", "int64", 1, shape=(16,))],
            [
                KernelDef("source", slow_source, has_age=True,
                          stores=(StoreSpec("data", key="data"),)),
                KernelDef(
                    "consumer", fast_consumer, has_age=True,
                    index_vars=("x",),
                    fetches=(FetchSpec("chunk", "data",
                                       dims=(Dim.of("x", 4),)),),
                ),
            ],
        )
        result = run_program(program, workers=8, timeout=60)
        assert result.reason == "idle"
        assert sorted(observed) == [
            (age, age) for age in range(4) for _ in range(4)
        ]

    def test_many_workers_tiny_work(self):
        """More workers than instances: no deadlock, no double dispatch."""
        counts = []

        def one(ctx):
            counts.append(ctx.age)
            if ctx.age < 3:
                ctx.emit("f", ctx.age)

        program = Program.build(
            [FieldDef("f", "int64", 1)],
            [KernelDef("one", one, has_age=True,
                       stores=(StoreSpec("f", key="f"),))],
        )
        run_program(program, workers=16, timeout=60)
        assert sorted(counts) == [0, 1, 2, 3]


class TestNodeKillChaos:
    """Cluster chaos: a randomly chosen node is killed at a randomly
    chosen instant (seeded), and the recovered run must match the
    fault-free output bit for bit.

    On failure the fault schedule is dumped as JSON (to
    ``$CHAOS_REPRO_DIR`` when set, else the cwd) so CI uploads an exact
    repro artifact: ``FaultSchedule.from_json`` + ``--fail-node`` replay
    the identical kill.
    """

    NODES = {"n0": 2, "n1": 2, "n2": 1}

    def _run(self, faults):
        from repro.dist import Cluster, RecoveryConfig
        from tests.conftest import assert_registries_agree

        program, sink = build_mulsum()
        cluster = Cluster(program, dict(self.NODES))
        result = cluster.run(
            max_age=3,
            timeout=120,
            faults=faults,
            recovery=RecoveryConfig(
                heartbeat_interval=0.01, heartbeat_timeout=0.1
            ),
        )
        assert_registries_agree(cluster, result)
        return result, sink

    def _dump_repro(self, schedule, seed):
        import json
        import os
        import pathlib

        out_dir = pathlib.Path(os.environ.get("CHAOS_REPRO_DIR", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"chaos-repro-seed{seed}.json"
        path.write_text(json.dumps(schedule.to_json(), indent=2) + "\n")
        return path

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_seeded_node_kill_bit_identical(self, seed):
        from repro.dist import FaultInjector, FaultSchedule
        from repro.obs import dump_flight

        schedule = FaultSchedule.random(
            sorted(self.NODES), seed, kinds=("kill",), n_faults=1
        )
        result = None
        try:
            result, sink = self._run(FaultInjector(schedule))
            assert result.reason == "idle"
            expected = expected_series(4)
            assert set(sink) == set(expected)
            for age in expected:
                assert np.array_equal(sink[age][0], expected[age][0])
                assert np.array_equal(sink[age][1], expected[age][1])
        except BaseException as exc:
            path = self._dump_repro(schedule, seed)
            print(f"chaos repro schedule written to {path}")
            # Flight recording next to the repro JSON: either the run
            # already dumped one (errors raised inside Cluster.run), or
            # the run "succeeded" with wrong output and we dump the ring
            # the fault-tolerant run kept armed.
            flight = getattr(exc, "flight_path", None)
            if flight is None and result is not None and result.tracer:
                flight = dump_flight(
                    result.tracer,
                    reason=f"chaos seed {seed}: {type(exc).__name__}",
                    directory=path.parent,
                )
            if flight is not None:
                print(f"flight recording written to {flight}")
            raise

    def test_schedule_replay_from_json(self):
        """The dumped artifact reproduces the same fault decisions."""
        from repro.dist import FaultSchedule

        schedule = FaultSchedule.random(sorted(self.NODES), 99)
        replayed = FaultSchedule.from_json(schedule.to_json())
        assert replayed.specs == schedule.specs
