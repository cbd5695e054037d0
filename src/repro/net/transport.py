"""An unreliable datagram network over the discrete-event engine.

Games "rely on UDP for faster communication"; the paper's responsiveness
experiment applies per-pair latencies from King/PeerWise plus 1 % message
loss.  :class:`DatagramNetwork` models exactly that: each send is delayed
by the latency matrix plus jitter, dropped i.i.d. with the loss rate, and
metered for bandwidth.  Anything else that can go wrong with a link — an
unreachable pair, a partition, a latency spike, duplication — is a
:mod:`repro.faults` entry, screened through the one :attr:`faults` hook.

A datagram is a ``bytes`` buffer and is charged ``len(frame)``.  The
network never opens one: the only thing it reads is the leading kind
byte, and only to label its per-type send counters from the ``kinds``
table its owner hands it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from random import Random
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.core.config import (
    GE_LOSS_BAD,
    GE_LOSS_GOOD,
    GE_P_BAD_TO_GOOD,
    GE_P_GOOD_TO_BAD,
)
from repro.net.bandwidth import BandwidthMeter
from repro.net.events import EventQueue
from repro.net.latency import LatencyMatrix
from repro.obs.registry import get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

__all__ = ["NetworkConfig", "DatagramNetwork", "ScheduleController"]


class ScheduleController:
    """Makes delivery order a decision point (see :mod:`repro.mc`).

    A controller attached via :meth:`DatagramNetwork.attach_controller` is
    offered every datagram the network was handed.  When
    :meth:`intercept` returns True the network relinquishes the datagram:
    no loss draw, no jitter draw, no event is scheduled — the controller
    owns delivery and later hands the message back through
    :meth:`DatagramNetwork.deliver_captured` (or drops/duplicates it).
    Returning False leaves the normal stochastic path untouched, so a
    controller that intercepts nothing is bit-identical to no controller.
    """

    def intercept(self, src: int, dst: int, frame: bytes) -> bool:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Loss/jitter knobs (paper defaults: 1 % loss).

    ``loss_model`` selects between the paper's i.i.d. loss and a two-state
    Gilbert–Elliott chain for bursty loss: each link carries a good/bad
    state; per packet the state evolves and the packet is lost at that
    state's rate (the ``GE_*`` constants in :mod:`repro.core.config`).
    """

    loss_rate: float = 0.01
    jitter_ms: float = 3.0  # half-width of uniform jitter added per packet
    seed: int = 0
    loss_model: str = "iid"  # "iid" | "gilbert-elliott"

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.jitter_ms < 0:
            raise ValueError("jitter_ms must be non-negative")
        if self.loss_model not in ("iid", "gilbert-elliott"):
            raise ValueError(f"unknown loss_model {self.loss_model!r}")


class DatagramNetwork:
    """Connects node handlers through latency, jitter and loss."""

    def __init__(
        self,
        queue: EventQueue,
        latency: LatencyMatrix,
        config: NetworkConfig | None = None,
        kinds: Mapping[int, str] | None = None,
    ) -> None:
        self.queue = queue
        self.latency = latency
        self.config = config or NetworkConfig()
        self.meter = BandwidthMeter()
        self.rng = Random(self.config.seed)
        self._handlers: dict[int, Callable[[int, bytes], None]] = {}
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.duplicated = 0
        #: Datagrams delivered but refused by the receiving protocol layer
        #: (tamper rejection, quarantine) — see :meth:`count_protocol_drop`.
        self.rejected_by_protocol = 0
        #: Unified drop accounting: every way a datagram dies, by cause
        #: (loss | partition | crashed | schedule | malformed | tamper |
        #: quarantine).
        self.dropped_by_cause: dict[str, int] = {}
        #: Optional fault injector (see :mod:`repro.faults`); attaching one
        #: with an empty schedule leaves all behaviour bit-identical.
        self.faults: FaultInjector | None = None
        #: Pure-observation send taps (see :mod:`repro.replay`): called
        #: after every offered datagram with its acceptance outcome.  Taps
        #: must never send — the tape recorder relies on a tapped run
        #: being bit-identical to an untapped one.
        self.send_taps: list[Callable[[int, int, bytes, bool], None]] = []
        #: Optional delivery-schedule controller (see :mod:`repro.mc`).
        self.controller: ScheduleController | None = None
        self._ge_state: dict[tuple[int, int], bool] = {}  # link -> in bad state
        # Observability: per-message-type send counters/bytes plus a
        # delivery-latency histogram.  Handles are bound once here, so a
        # disabled registry costs one no-op call per event.
        obs = get_registry()
        self._obs = obs
        #: leading frame byte -> the name its sends are booked under
        #: (``net.sent.<name>.*``); a byte the table lacks books as
        #: ``tag<N>``, so the per-type rows always sum to the total
        self._kinds = kinds or {}
        self._sent_by_kind: dict[int, tuple] = {}
        self._ctr_sent = obs.counter("net.datagrams.sent")
        self._ctr_lost = obs.counter("net.datagrams.lost")
        self._ctr_delivered = obs.counter("net.datagrams.delivered")
        self._ctr_bytes = obs.counter("net.bytes.sent")
        self._ctr_duplicated = obs.counter("net.datagrams.duplicated")
        self._hist_delivery = obs.histogram("net.delivery_seconds")
        self._ctr_dropped = {
            cause: obs.counter(f"net.dropped.{cause}")
            for cause in ("loss", "partition", "crashed")
        }

    def attach_faults(self, injector: FaultInjector) -> None:
        """Hook a :class:`repro.faults.FaultInjector` into this network."""
        self.faults = injector

    def attach_controller(self, controller: ScheduleController) -> None:
        """Hook a :class:`ScheduleController` into this network."""
        self.controller = controller

    def deliver_captured(
        self, src: int, dst: int, frame: bytes, sent_at: float
    ) -> None:
        """Deliver a controller-captured datagram at the current sim time.

        Only meaningful from an attached :class:`ScheduleController`; the
        datagram re-enters the normal delivery path (counters, bandwidth
        accounting, crashed-destination screening).
        """
        self._deliver(src, dst, frame, sent_at)

    def drop_captured(self) -> None:
        """Account a controller-decided drop (cause ``schedule``)."""
        self._lose("schedule")

    def count_protocol_drop(self, cause: str) -> None:
        """Account a datagram the *receiving node* refused after delivery.

        The Byzantine hardening drops traffic above the transport (a
        tampered signature, a quarantined link); folding those into the
        same ``net.dropped.{cause}`` registry keeps ``messages_lost``
        consistent with the PR 4 convention that every dead datagram has
        exactly one cause counter (tamper | quarantine | malformed).
        """
        self.rejected_by_protocol += 1
        self._count_drop(cause)

    def _lose(self, cause: str) -> None:
        """One datagram died before delivery (invisible to its sender)."""
        self.lost += 1
        self._ctr_lost.inc()
        self._count_drop(cause)

    def _count_drop(self, cause: str) -> None:
        self.dropped_by_cause[cause] = self.dropped_by_cause.get(cause, 0) + 1
        counter = self._ctr_dropped.get(cause)
        if counter is None:
            counter = self._obs.counter(f"net.dropped.{cause}")
            self._ctr_dropped[cause] = counter
        counter.inc()

    def register(self, node_id: int, handler: Callable[[int, bytes], None]) -> None:
        """Attach ``handler(src, frame)``, the receive handler for ``node_id``."""
        if not 0 <= node_id < self.latency.size:
            raise ValueError(f"node {node_id} outside latency matrix")
        self._handlers[node_id] = handler

    def unregister(self, node_id: int) -> None:
        self._handlers.pop(node_id, None)

    def send(self, src: int, dst: int, frame: bytes) -> bool:
        """Send one datagram.  Always True: loss, faults and capture are
        invisible to the sender, exactly like UDP (the flag survives as the
        taps' — and so the tape's — ``accepted`` column)."""
        self.send_many(src, (dst,), frame)
        return True

    def send_many(self, src: int, dsts: Sequence[int], frame: bytes) -> None:
        """Send ``frame`` to every destination in ``dsts``, in order.

        What depends on the frame alone — size, meter, counters, kind — is
        booked once for all the copies; what depends on the link runs per
        destination in the order a loop of single sends would run it
        (capture, fault, loss draw, jitter draw, event, duplicate, taps),
        so the RNG stream and the event heap are that loop's.
        """
        copies = len(dsts)
        if not copies:
            return
        size_bytes = len(frame)
        if size_bytes == 0:
            raise ValueError("a datagram must not be empty")
        now = self.queue.now
        self.meter.record_send(src, size_bytes, now, copies)
        self.sent += copies
        self._ctr_sent.inc(copies)
        self._ctr_bytes.inc(size_bytes * copies)
        tag = frame[0]
        per_type = self._sent_by_kind.get(tag)
        if per_type is None:
            kind = self._kinds.get(tag, f"tag{tag}")
            per_type = (
                self._obs.counter(f"net.sent.{kind}.count"),
                self._obs.counter(f"net.sent.{kind}.bytes"),
            )
            self._sent_by_kind[tag] = per_type
        per_type[0].inc(copies)
        per_type[1].inc(size_bytes * copies)

        controller, faults, taps = self.controller, self.faults, self.send_taps
        config, random, uniform = self.config, self.rng.random, self.rng.uniform
        iid, loss_rate = config.loss_model == "iid", config.loss_rate
        jitter = config.jitter_ms / 1000.0
        one_way, schedule, deliver = self.latency.one_way, self.queue.schedule, self._deliver
        for dst in dsts:
            if controller is not None and controller.intercept(src, dst, frame):
                # Captured: the controller owns delivery from here — including
                # loss, which it models as explicit budgeted drop decisions, so
                # ambient faults and in-flight loss must not race it (checked
                # first).
                pass
            elif faults is not None and (cause := faults.drop_cause(src, dst)) is not None:
                self._lose(cause)  # a partition: like loss, invisible to the sender
            elif (random() < loss_rate) if iid else self._bursty_loss(src, dst):
                self._lose("loss")
            else:
                delay = one_way(src, dst) + uniform(0.0, jitter)
                if faults is not None:
                    delay += faults.extra_delay_seconds(src, dst)
                arrival = partial(deliver, src, dst, frame, now)
                schedule(delay, arrival)
                if faults is not None:
                    offset = faults.duplicate_offset_seconds()
                    if offset is not None:
                        self.duplicated += 1
                        self._ctr_duplicated.inc()
                        schedule(delay + offset, arrival)
            for tap in taps:
                tap(src, dst, frame, True)

    def _bursty_loss(self, src: int, dst: int) -> bool:
        """One loss decision of the Gilbert–Elliott chain: evolve the link's
        state, then sample loss at the new state's rate — losses cluster
        while the link is bad."""
        key = (src, dst)
        bad = self._ge_state.get(key, False)
        flip = GE_P_BAD_TO_GOOD if bad else GE_P_GOOD_TO_BAD
        if self.rng.random() < flip:
            bad = not bad
        self._ge_state[key] = bad
        rate = GE_LOSS_BAD if bad else GE_LOSS_GOOD
        return rate > 0.0 and self.rng.random() < rate

    def _deliver(self, src: int, dst: int, frame: bytes, sent_at: float) -> None:
        """The event a send scheduled, firing: it is now the delivery time."""
        handler = self._handlers.get(dst)
        if handler is None:
            # Node left (or crashed out of) the game; the in-flight
            # datagram evaporates at its door.
            self._count_drop("crashed")
            return
        now = self.queue.now
        self.delivered += 1
        self._ctr_delivered.inc()
        self._hist_delivery.record(now - sent_at)
        self.meter.record_receive(dst, len(frame), now)
        handler(src, frame)
