"""Membership views and load-driven elasticity.

The node registry itself is :class:`~repro.dist.topology.GlobalTopology`
(one table, one epoch).  This module holds what travels from it — the
immutable, epoch-stamped :class:`MembershipView` the table builds once
per mutation, hands to the transport's routing filter and the heartbeat
monitor, and (elastic runs) broadcasts on the :data:`MEMBERSHIP_TOPIC`
control topic — and the :class:`ElasticityDriver` that decides *when* to
rescale: it polls live signals (ready-queue depth per worker, per-tenant
SLO burn from :mod:`repro.obs.slo`, or a time trigger for deterministic
smoke tests) and asks the cluster for a node count.  The migration it
triggers is the same succession routine a node failure runs
(:meth:`repro.dist.cluster._ClusterRun.succession`, DESIGN.md §8).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping

__all__ = [
    "MEMBERSHIP_TOPIC",
    "MembershipView",
    "ElasticityConfig",
    "ElasticityDriver",
]

#: Control topic carrying membership-view broadcasts.
MEMBERSHIP_TOPIC = "__membership__"

#: States whose traffic the transport still routes.  A draining node
#: keeps sending until its fence completes; dead and departed nodes are
#: rejected (late deliveries across an epoch boundary).
_ROUTABLE = frozenset({"joining", "active", "draining"})


@dataclass(frozen=True)
class MembershipView:
    """Immutable epoch-stamped snapshot of the cluster's node set."""

    epoch: int
    states: Mapping[str, str]

    def state(self, node: str) -> str | None:
        """Lifecycle state of ``node`` (``None`` if never a member)."""
        return self.states.get(node)

    def active(self) -> tuple[str, ...]:
        """Nodes currently in the ``active`` state, sorted."""
        return tuple(
            sorted(n for n, s in self.states.items() if s == "active")
        )

    def live(self) -> tuple[str, ...]:
        """Nodes that may still run work (active or draining), sorted."""
        return tuple(
            sorted(
                n for n, s in self.states.items()
                if s in ("active", "draining")
            )
        )

    def routable(self, sender: str) -> bool:
        """Whether the transport should deliver ``sender``'s traffic.

        Unknown senders (the master, stream sources, monitors — control
        endpoints that never join the membership) are always routable;
        only an explicit ``dead`` or ``left`` state rejects.
        """
        state = self.states.get(sender)
        return state is None or state in _ROUTABLE

    def as_dict(self) -> dict:
        """JSON-ready view (the ``/membership.json`` telemetry page)."""
        return {
            "epoch": self.epoch,
            "nodes": dict(sorted(self.states.items())),
            "active": list(self.active()),
        }


# ----------------------------------------------------------------------
#: SLO burn rate (from :class:`~repro.obs.slo.SloTracker`) above which a
#: scale-out is justified even with shallow queues: the error budget is
#: being spent faster than it accrues.
BURN_HIGH = 1.0


@dataclass(frozen=True)
class ElasticityConfig:
    """Tuning of the elasticity driver.

    The driver scales the cluster toward a node count justified by the
    observed load.  ``scale_at``/``target_nodes`` add a deterministic
    time trigger (the CI smoke tests and the CLI's ``--scale-at``): at
    ``scale_at`` seconds on the run clock the cluster is rescaled to
    ``target_nodes`` regardless of load.
    """

    interval: float = 0.2  #: polling period (s)
    #: Mean ready-queue depth per worker above which a scale-out is
    #: justified (the queues are not draining).
    queue_high: float = 4.0
    #: Mean ready-queue depth per worker below which a scale-in of
    #: planned-but-unneeded capacity is justified.
    queue_low: float = 0.25
    #: Minimum seconds between issued scale actions.
    cooldown: float = 1.0
    #: Upper bound on the node count the driver may scale to.
    max_nodes: int = 8
    #: Lower bound on the node count the driver may scale to.
    min_nodes: int = 1
    #: Deterministic trigger: at ``scale_at`` seconds, rescale to
    #: ``target_nodes``.  ``None`` disables the trigger.
    scale_at: float | None = None
    target_nodes: int | None = None

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.min_nodes < 1 or self.max_nodes < self.min_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        if (self.scale_at is None) != (self.target_nodes is None):
            raise ValueError(
                "scale_at and target_nodes must be set together"
            )


class ElasticityDriver:
    """Polls live load signals and issues scale decisions.

    Composed from callables, so the policy is unit-testable without a
    cluster:

    ``metrics_fn()``
        returns a dict with ``nodes`` (current active node count),
        ``queue_per_worker`` (mean ready-queue depth per worker),
        ``burn`` (worst per-tenant SLO burn rate, 0 when untracked) and
        ``elapsed`` (seconds on the run clock);
    ``scale_fn(target)``
        rescales the cluster to ``target`` nodes, returning ``True``
        when a migration was actually performed.

    :meth:`poll_once` is public so tests drive decisions
    deterministically; :meth:`start` runs the same poll on a daemon
    thread.
    """

    def __init__(
        self,
        config: ElasticityConfig,
        *,
        metrics_fn: Callable[[], dict],
        scale_fn: Callable[[int], bool],
        name: str = "master-elastic",
    ) -> None:
        self.config = config
        self._metrics_fn = metrics_fn
        self._scale_fn = scale_fn
        self.name = name
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_action = -float("inf")
        self._time_trigger_fired = False
        #: (elapsed, current, target, reason) per issued action.
        self.actions: list[tuple[float, int, int, str]] = []

    # -- decision ------------------------------------------------------
    def _desired(self, sample: Mapping) -> tuple[int, str] | None:
        """The node count the sample justifies, or ``None`` for no-op."""
        cfg = self.config
        current = int(sample["nodes"])
        if (
            cfg.scale_at is not None
            and not self._time_trigger_fired
            and float(sample.get("elapsed", 0.0)) >= cfg.scale_at
        ):
            target = max(cfg.min_nodes, min(cfg.max_nodes,
                                            int(cfg.target_nodes)))
            if target != current:
                return target, f"time-trigger@{cfg.scale_at:g}s"
            self._time_trigger_fired = True
            return None
        depth = float(sample.get("queue_per_worker", 0.0))
        burn = float(sample.get("burn", 0.0))
        if (depth > cfg.queue_high or burn > BURN_HIGH) and \
                current < cfg.max_nodes:
            why = (f"queue {depth:.1f}/worker" if depth > cfg.queue_high
                   else f"slo burn {burn:.2f}")
            return current + 1, why
        if depth < cfg.queue_low and burn <= BURN_HIGH and \
                current > cfg.min_nodes:
            return current - 1, f"queue {depth:.2f}/worker idle"
        return None

    def poll_once(self) -> bool:
        """One decision round; returns ``True`` when a scale action was
        issued (and performed)."""
        sample = self._metrics_fn()
        now = float(sample.get("elapsed", time.monotonic()))
        decision = self._desired(sample)
        if decision is None:
            return False
        target, reason = decision
        if now - self._last_action < self.config.cooldown:
            return False
        if not self._scale_fn(target):
            return False
        self._last_action = now
        if reason.startswith("time-trigger"):
            self._time_trigger_fired = True
        self.actions.append((now, int(sample["nodes"]), target, reason))
        return True

    # -- lifecycle -----------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.config.interval):
            try:
                self.poll_once()
            except Exception:  # noqa: BLE001 - a failed poll must not
                continue       # kill the driver thread mid-run

    def start(self) -> None:
        """Start the polling thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name=self.name
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the polling thread and wait for it to exit."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
