"""Publish–subscribe message transport (paper, section IV).

"Data distribution, reporting, and other communication patterns is
achieved in P2G through an event-based, distributed publish-subscribe
model."

:class:`InProcTransport` is the in-process realization used by the
cluster simulation: topics are field names (plus control topics),
delivery is synchronous on the publisher's thread, and every message is
accounted (count + payload bytes per topic and per link) so experiments
can measure the inter-node traffic the HLS's partitioning decisions
produce.  An optional latency model charges simulated microseconds per
message + per byte without sleeping, for offline what-if analysis.

Fault-tolerance support (used by :mod:`repro.dist.recovery`):

* a **durable event log** (``enable_log``) retains every non-control
  message in publish order, so a replacement node can replay the store
  history a dead node's analyzer would have seen;
* **control messages** (``control=True`` — heartbeats, liveness) are
  delivered but neither logged nor accounted, keeping
  :attr:`TransportStats.messages` an exact count of the store/resize
  events the HLS's partitioning objective minimizes;
* a **drop filter** (``drop_from``) silences a sender — data *and*
  control — modelling a network partition for fault injection;
* delivery is **hardened**: a subscriber that raises does not corrupt
  the traffic counts, starve later subscribers of the same message, or
  propagate into the publisher (a storing worker thread); failures are
  counted in :attr:`TransportStats.delivery_errors`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable

from ..core.errors import TransportError
from ..obs import NULL_TRACER, Tracer

__all__ = ["Message", "TransportStats", "InProcTransport"]


@dataclass(frozen=True)
class Message:
    """One published message."""

    topic: str
    sender: str
    payload: Any
    size: int = 0  #: accounted payload bytes (0 if unknown)
    #: Membership epoch the message was routed under (-1 when the
    #: transport has no membership wired — the static-cluster path).
    epoch: int = -1


@dataclass
class TransportStats:
    """Accounting of everything that crossed the transport."""

    messages: int = 0
    bytes: int = 0
    per_topic: dict[str, int] = dc_field(default_factory=dict)
    per_link: dict[tuple[str, str], int] = dc_field(default_factory=dict)
    simulated_latency_s: float = 0.0
    delivery_errors: int = 0  #: subscriber callbacks that raised
    drops: int = 0  #: messages discarded by the drop filter (partition)
    #: Publishes rejected because the sender's membership state was
    #: ``dead``/``left`` — late deliveries across an epoch boundary.
    stale_rejects: int = 0

    def record(
        self, msg: Message, receiver: str, latency_s: float
    ) -> None:
        """Account one successful delivery (count, bytes, per-topic/link)."""
        self.messages += 1
        self.bytes += msg.size
        self.per_topic[msg.topic] = self.per_topic.get(msg.topic, 0) + 1
        link = (msg.sender, receiver)
        self.per_link[link] = self.per_link.get(link, 0) + 1
        self.simulated_latency_s += latency_s

    def snapshot(self) -> dict[str, dict]:
        """The ``transport.*`` totals as a typed metrics snapshot, read
        live by the cluster run's registry (DESIGN.md §9)."""
        return {
            f"transport.{name}": {"type": "gauge",
                                  "value": getattr(self, name)}
            for name in ("messages", "bytes", "delivery_errors", "drops",
                         "stale_rejects")
        }


class InProcTransport:
    """Thread-safe in-process pub-sub with traffic accounting.

    Subscribers register as (node name, callback); publishing delivers to
    every subscriber of the topic except the sender (a node already has
    its own events locally).
    """

    #: Kept delivery-failure details (topic, receiver, repr(exc)); bounded
    #: so a hot failing subscriber cannot grow memory without limit.
    MAX_ERROR_DETAILS = 100

    def __init__(
        self,
        latency_per_message_us: float = 0.0,
        latency_per_byte_ns: float = 0.0,
    ) -> None:
        self._lock = threading.RLock()
        self._subs: dict[str, list[tuple[str, Callable[[Message], None]]]] = {}
        self.stats = TransportStats()
        self.latency_per_message_us = latency_per_message_us
        self.latency_per_byte_ns = latency_per_byte_ns
        self._closed = False
        self._log: list[Message] | None = None
        self._dropped: set[str] = set()
        self.delivery_failures: list[tuple[str, str, str]] = []
        #: Optional span tracer (set by the cluster); publishes record
        #: instant events in the sender's transport lane when enabled.
        self.tracer: Tracer = NULL_TRACER
        #: Optional frame timeline (set by the cluster's telemetry
        #: wiring): store-event deliveries record ``transport`` spans
        #: for the frame they carry.  ``None`` keeps publish untouched.
        self.timeline = None
        #: The node table (set by an elastic cluster to its
        #: :class:`~repro.dist.topology.GlobalTopology`; any object with
        #: a ``view()`` returning a
        #: :class:`~repro.dist.membership.MembershipView`).  When wired,
        #: every publish is epoch-stamped and a sender whose state is
        #: ``dead``/``left`` is rejected — the late-delivery fence that
        #: keeps a departed node's stragglers out of the new epoch.
        self.membership = None

    # -- fault-tolerance hooks ------------------------------------------
    def enable_log(self) -> None:
        """Start retaining every non-control message for replay."""
        with self._lock:
            if self._log is None:
                self._log = []

    def log_size(self) -> int:
        """Number of retained messages (0 when logging is off)."""
        with self._lock:
            return len(self._log) if self._log is not None else 0

    def replay(self, topics: set[str] | None = None) -> list[Message]:
        """Snapshot of the retained log, optionally filtered by topic.

        Replaying into a fresh node's analyzer is idempotent: dispatch is
        write-once per (kernel, age, index), so duplicate events only
        cost a completeness re-check.
        """
        with self._lock:
            if self._log is None:
                return []
            if topics is None:
                return list(self._log)
            return [m for m in self._log if m.topic in topics]

    def drop_from(self, sender: str) -> None:
        """Silence ``sender``: all of its messages (data and control) are
        discarded in flight — a network partition, from the cluster's
        point of view.  Logged messages are still retained (the log
        models a durable broker, which is what recovery replays from)."""
        with self._lock:
            self._dropped.add(sender)

    def undrop(self, sender: str) -> None:
        """Lift a :meth:`drop_from` partition."""
        with self._lock:
            self._dropped.discard(sender)

    def dropped_senders(self) -> set[str]:
        """Senders currently partitioned away."""
        with self._lock:
            return set(self._dropped)

    # -- pub-sub ---------------------------------------------------------
    def subscribe(
        self, topic: str, node: str, handler: Callable[[Message], None]
    ) -> Callable[[], None]:
        """Register ``handler`` for ``topic`` on behalf of ``node``;
        returns an unsubscribe callable."""
        with self._lock:
            if self._closed:
                raise TransportError("transport is closed")
            entry = (node, handler)
            self._subs.setdefault(topic, []).append(entry)

        def unsubscribe() -> None:
            with self._lock:
                subs = self._subs.get(topic, [])
                if entry in subs:
                    subs.remove(entry)

        return unsubscribe

    def unsubscribe_node(self, node: str) -> int:
        """Remove every subscription held by ``node`` (it left the
        cluster); returns the number of subscriptions removed."""
        removed = 0
        with self._lock:
            for topic, subs in self._subs.items():
                kept = [(n, h) for n, h in subs if n != node]
                removed += len(subs) - len(kept)
                self._subs[topic] = kept
        return removed

    def publish(
        self,
        topic: str,
        sender: str,
        payload: Any,
        size: int = 0,
        control: bool = False,
    ) -> int:
        """Deliver to all subscribers except the sender; returns the
        number of successful deliveries.

        ``control=True`` marks liveness/heartbeat traffic: delivered (and
        subject to the drop filter) but neither logged nor counted in the
        traffic statistics, which stay an exact census of store/resize
        events.

        With a membership registry wired the message is stamped with the
        current epoch, and a sender the view marks ``dead``/``left`` is
        rejected outright — before the durable log, so a departed node's
        late stragglers can neither reach the new epoch's nodes nor be
        replayed into a future recovery.
        """
        epoch = -1
        mem = self.membership
        if mem is not None:
            # The table's current view: one immutable object per epoch,
            # read without its lock (it broadcasts through publish()).
            view = mem.view()
            if not view.routable(sender):
                with self._lock:
                    self.stats.stale_rejects += 1
                if self.tracer.enabled and not control:
                    self.tracer.instant(
                        "stale-reject", "transport", sender, "transport",
                        args={"topic": topic, "epoch": view.epoch},
                    )
                return 0
            epoch = view.epoch
        msg = Message(topic, sender, payload, size, epoch)
        with self._lock:
            if self._closed:
                raise TransportError("transport is closed")
            if not control and self._log is not None:
                self._log.append(msg)
            if sender in self._dropped:
                self.stats.drops += 1
                if self.tracer.enabled and not control:
                    self.tracer.instant(
                        "drop", "transport", sender, "transport",
                        args={"topic": topic},
                    )
                return 0
            targets = [
                (node, handler)
                for node, handler in self._subs.get(topic, ())
                if node != sender
            ]
        latency = (
            self.latency_per_message_us * 1e-6
            + size * self.latency_per_byte_ns * 1e-9
        )
        # Frame-timeline hop accounting: a store event crossing the bus
        # charges its frame's ``transport`` bucket for the delivery
        # fan-out.  The session is the topic's namespace prefix (the
        # multi-tenant separator), matching the stream drivers' keys.
        tl = self.timeline
        age = getattr(payload, "age", None) if tl is not None else None
        t_hop = time.perf_counter() if age is not None else 0.0
        delivered = 0
        for node, handler in targets:
            try:
                handler(msg)
            except Exception as exc:  # noqa: BLE001 - isolate subscribers
                with self._lock:
                    self.stats.delivery_errors += 1
                    if len(self.delivery_failures) < self.MAX_ERROR_DETAILS:
                        self.delivery_failures.append(
                            (topic, node, repr(exc))
                        )
                continue
            delivered += 1
            if not control:
                with self._lock:
                    self.stats.record(msg, node, latency)
        if age is not None and delivered:
            i = topic.find(".")
            session = topic[:i] if i > 0 else ""
            tl.span(session, age, "transport",
                    t_hop, time.perf_counter())
        return delivered

    def topics(self) -> list[str]:
        """Topics that currently have subscribers."""
        with self._lock:
            return sorted(t for t, s in self._subs.items() if s)

    def close(self) -> None:
        """Reject all further traffic and drop subscriptions."""
        with self._lock:
            self._closed = True
            self._subs.clear()
