"""Bytes on the wire: the frame is the message in flight.

The invariants the transport refactor rests on:

- a frame is ``signed prefix ‖ signature field`` for every message type,
  so the bytes a receiver verifies are a slice of the buffer it was
  handed and the bytes a sender signs are the head of what it transmits;
- :class:`~repro.core.wire.FrameMemo` is invisible: it decodes each
  distinct buffer once, hands the same buffer back for the object it
  decoded, holds only what is in flight, and an evicted entry re-decodes
  and re-encodes to equal values;
- a relayed or retransmitted message leaves a node as the
  very buffer it arrived in — and one flipped byte on the way is caught;
- malformed input fails closed where it enters, with the books intact.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.core import WatchmenSession, wire
from repro.core.config import FRAME_SECONDS, WatchmenConfig
from repro.core.messages import (
    SUB_INTEREST,
    AckMessage,
    HandoffMessage,
    PositionUpdate,
    StateUpdate,
    SubscriptionRequest,
)
from repro.core.node import HonestBehaviour
from repro.core.subscriptions import SubscriberTable
from repro.core.verification import CheckKind
from repro.core.wire import (
    FRAME_MEMO_HORIZON_FRAMES,
    MESSAGE_TAGS,
    FrameMemo,
    WireError,
    decode_bytes,
    encode_bytes,
    encode_signable,
    seal,
)
from repro.faults import CrashFault, FaultSchedule
from repro.game.simulator import generate_trace
from repro.obs import MetricsRegistry, use_registry
from tests.reference.egress import transmit_reference
from tests.test_byzantine import Harness, hardened, snap
from tests.test_core_wire_roundtrip import (
    MESSAGE_CLASSES,
    _class_strategy,
    build_message,
)
from tests.wirekit import as_frame, deliver

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402


class TestFrameLayout:
    @pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
    def test_frame_is_signed_prefix_then_signature_field(self, cls):
        """Unsigned, signed, and (for evidence) nested-signature messages
        alike: the memo's ``signed_end`` cuts the frame exactly where
        ``encode_signable`` stops, and sealing the prefix rebuilds it."""

        @settings(max_examples=40, deadline=None)
        @given(message=_class_strategy(cls))
        def run(message):
            frame = encode_bytes(message)
            opened, signed_end = FrameMemo().open_frame(frame)
            assert opened == message
            assert decode_bytes(frame) == message
            assert frame[:signed_end] == encode_signable(message)
            if message.signature is None:
                assert frame[signed_end:] == b"\x00"
            else:
                assert seal(frame[:signed_end], message.signature) == frame

        run()

    def test_every_type_declares_its_signature_last(self):
        # what makes "frame minus trailing field" the signed bytes
        for cls in MESSAGE_CLASSES:
            assert dataclasses.fields(cls)[-1].name == "signature"


class TestFrameMemo:
    def test_opens_each_distinct_buffer_once_and_hands_it_back(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            memo = FrameMemo()
        frame = as_frame(build_message(StateUpdate))
        first = memo.open_frame(frame)
        again = memo.open_frame(bytes(bytearray(frame)))  # equal, not identical
        assert again is first
        assert memo.frame_of(first[0]) is frame
        counters = registry.snapshot()["counters"]
        assert counters["wire.frames.decoded"] == 1
        assert counters["wire.frames.reused"] == 1
        assert counters["wire.frames.reencoded"] == 0

    def test_a_different_object_is_encoded_afresh(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            memo = FrameMemo()
        frame = as_frame(build_message(StateUpdate))
        opened, _ = memo.open_frame(frame)
        # value-equal copy: same bytes by canonicality, but not *the* buffer
        copy = dataclasses.replace(opened)
        assert memo.frame_of(copy) == frame
        assert memo.frame_of(copy) is not frame
        # an altered copy yields altered bytes — tampering reaches the wire
        altered = dataclasses.replace(opened, sequence=opened.sequence + 1)
        assert memo.frame_of(altered) != frame
        assert registry.snapshot()["counters"]["wire.frames.reencoded"] == 3

    def test_bound_holds_and_eviction_is_invisible(self):
        memo = FrameMemo()
        frames = [
            [as_frame(AckMessage(1, born, 10 * born + i, 2, i)) for i in range(3)]
            for born in range(FRAME_MEMO_HORIZON_FRAMES + 4)
        ]
        opened = []
        for born, batch in enumerate(frames):
            memo.advance(born)
            memo.advance(born)  # every node of a session advances it
            opened.append([memo.open_frame(frame) for frame in batch])
            held = min(born, FRAME_MEMO_HORIZON_FRAMES) + 1
            assert len(memo) == 3 * held
        # the entries first opened more than the horizon ago are gone:
        # their messages re-encode, their frames re-decode, both equal
        evicted_message, evicted_end = opened[0][0]
        assert memo.frame_of(evicted_message) == frames[0][0]
        assert memo.frame_of(evicted_message) is not frames[0][0]
        reopened, reopened_end = memo.open_frame(frames[0][0])
        assert reopened == evicted_message and reopened is not evicted_message
        assert reopened_end == evicted_end
        # the oldest still in flight and the newest are held by identity
        oldest_held = len(frames) - 1 - FRAME_MEMO_HORIZON_FRAMES
        assert memo.frame_of(opened[oldest_held][0][0]) is frames[oldest_held][0]
        assert memo.frame_of(opened[-1][-1][0]) is frames[-1][-1]
        # a frame going back in time moves nothing
        memo.advance(0)
        assert memo.frame_of(opened[oldest_held][0][0]) is frames[oldest_held][0]

    def test_a_session_decodes_each_buffer_in_flight_once(
        self, small_trace, longest_yard, monkeypatch
    ):
        """A paper-rung session (no retransmissions) runs the validating
        decoder exactly once per distinct delivered buffer, and at every
        frame's end its memo holds nothing first opened more than the
        horizon ago."""
        decodes: Counter[bytes] = Counter()
        decode = wire.decode_bytes

        def counted(payload):
            decodes[payload] += 1
            return decode(payload)

        monkeypatch.setattr(wire, "decode_bytes", counted)
        session = WatchmenSession(
            small_trace, game_map=longest_yard, config=WatchmenConfig(profile="paper")
        )
        delivered = set()
        handlers = session.network._handlers
        for node_id, handler in list(handlers.items()):
            def tapped(src, frame, handler=handler):
                delivered.add(frame)
                handler(src, frame)

            handlers[node_id] = tapped
        memo = session.frames
        held = []
        session.on_frame_end = lambda frame: held.append(
            (frame, {born: len(buffers) for born, buffers in memo._born.items()}, len(memo))
        )
        session.run()

        assert len(delivered) > 1000
        assert set(decodes) == delivered
        assert set(decodes.values()) == {1}
        for frame, born, size in held:
            assert min(born) >= frame - FRAME_MEMO_HORIZON_FRAMES, frame
            assert sum(born.values()) == size

    def test_only_bytes_are_frames(self):
        memo = FrameMemo()
        for alien in ("text", bytearray(b"\x09"), None, 7, [1]):
            with pytest.raises(WireError):
                memo.open_frame(alien)


def _frames_of(harness, predicate):
    return [
        (src, dst, frame)
        for (src, dst, message), frame in zip(harness.sent, harness.frames)
        if predicate(src, message)
    ]


class TestVerbatimForwarding:
    def test_a_relay_sends_the_buffer_it_received(self):
        harness = Harness(num_players=6)
        for frame in range(4):
            harness.tick(frame)
        first_hops, relayed = {}, 0
        for (src, _, message), frame in zip(harness.sent, harness.frames):
            if not isinstance(message, StateUpdate):
                continue
            key = (message.sender_id, message.sequence)
            if src == message.sender_id:
                first_hops[key] = frame
            else:
                assert frame is first_hops[key]
                relayed += 1
        assert relayed, "proxies must have forwarded state updates"

    def test_forwarding_costs_no_encode(self):
        registry = MetricsRegistry(enabled=True)
        harness = Harness(num_players=6)
        # count one node's work in isolation: give the proxy of player 0
        # its own memo on an enabled registry
        proxy = harness.nodes[harness.schedule.proxy_of(0, 0)]
        with use_registry(registry):
            proxy._frames = FrameMemo()
        for frame in range(4):
            harness.tick(frame)
        assert proxy.metrics.forwarded_messages > 0
        assert registry.snapshot()["counters"]["wire.frames.reencoded"] == 0

    def test_an_ack_retry_resends_the_first_attempts_buffer(self):
        harness = Harness(
            config=WatchmenConfig(profile="hardened"),
            lose=lambda message: isinstance(message, AckMessage),
        )
        harness.tick(0)
        node = harness.nodes[1]
        request = SubscriptionRequest(1, 2, SUB_INTEREST, 0, 7000)
        node._transmit(request, [3])
        for frame in range(1, 12):
            node.on_frame(frame, snap(1, frame=frame, x=100.0))
        attempts = _frames_of(
            harness,
            lambda src, m: src == 1
            and isinstance(m, SubscriptionRequest)
            and m.sequence == 7000,
        )
        assert len(attempts) >= 2, "the unacked request must have been retried"
        assert all(frame is attempts[0][2] for _, _, frame in attempts)


class Rerouting(HonestBehaviour):
    """One hook exercising every way a behaviour can reshape a fan-out: 2 is
    dropped, 3 gets a rewritten message, 4 gets the original twice, 5's copy
    is redirected to 6 and 7's to the sender himself."""

    def filter_outgoing(self, frame, message, destination):
        if destination == 2:
            return []
        if destination == 3:
            return [(dataclasses.replace(message, frame=message.frame + 1), 3)]
        if destination == 4:
            return [(message, 4), (message, 4)]
        if destination == 5:
            return [(message, 6)]
        if destination == 7:
            return [(message, message.sender_id)]
        return [(message, destination)]


class TestListValuedEgress:
    """``_transmit(message, destinations)`` puts on the wire what the
    per-destination loop it replaced did (``tests/reference/egress.py``)."""

    @staticmethod
    def node(behaviour):
        harness = Harness(
            num_players=10, config=WatchmenConfig(profile="hardened")
        )
        node = harness.nodes[1]
        node.behaviour = behaviour
        rows = []
        node._send_many = lambda src, dsts, frame: rows.extend(
            (src, dst, frame) for dst in dsts
        )
        return node, rows

    @pytest.mark.parametrize("behaviour", [HonestBehaviour, Rerouting])
    @pytest.mark.parametrize("signed", [False, True], ids=["mine", "relayed"])
    def test_same_datagrams_in_the_same_order(self, behaviour, signed):
        destinations = [0, 2, 3, 4, 5, 7, 8, 9, 8]
        outcomes = []
        for batched in (True, False):
            node, rows = self.node(behaviour())
            message = SubscriptionRequest(1, 2, SUB_INTEREST, 0, 7000)  # ackable
            if signed:
                message, _ = node._frames.open_frame(node._signed(message))
            if batched:
                node._transmit(message, destinations)
            else:
                for destination in destinations:
                    transmit_reference(node, message, destination)
            outcomes.append((rows, sorted(node._acks._pending)))
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][0]) >= 8

    def test_an_unsigned_message_is_signed_once_for_the_whole_audience(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            harness = Harness(num_players=6)
        node = harness.nodes[1]
        node._transmit(PositionUpdate(1, 0, 7001, snap(1).position_only()), [0, 2, 3, 4])
        assert registry.snapshot()["counters"]["node.frames_signed"] == 1
        assert len({id(frame) for frame in harness.frames[-4:]}) == 1

    def test_one_message_one_signature(self, small_trace, longest_yard):
        """Dual-send failover and roster broadcasts included, a node signs as
        many frames as it originates: every distinct buffer whose sending hop
        is the sender it names was signed exactly once."""
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            session = WatchmenSession(
                small_trace,
                game_map=longest_yard,
                config=WatchmenConfig(profile="hardened"),
                faults=FaultSchedule(crashes=(CrashFault(node_id=3, frame=30),)),
            )
        originated = set()

        def tap(src, dst, frame, accepted):
            if decode_bytes(frame).sender_id == src:
                originated.add(frame)

        session.network.send_taps.append(tap)
        report = session.run()
        counters = registry.snapshot()["counters"]
        assert report.proxy_failovers > 0, "no dual-send in this session"
        assert counters["net.sent.RemovalProposal.count"] > 0, "no broadcast"
        assert counters["node.frames_signed"] == len(originated)


class TestTamperedBytes:
    @pytest.mark.parametrize("hardening", [False, True], ids=["paper", "hardened"])
    def test_no_flipped_byte_in_the_signed_prefix_is_ever_accepted(self, hardening):
        harness = Harness(config=hardened() if hardening else None)
        harness.tick(0)
        node = harness.nodes[1]
        frame = as_frame(harness.signed_state(0, 5000, x=321.0))
        signed_end = len(encode_signable(decode_bytes(frame)))
        known_before = dict(node.known)
        relaying_hop = 3
        for index in range(signed_end):
            mutated = bytearray(frame)
            mutated[index] ^= 0x01
            before = len(node.metrics.ratings)
            failures = node.metrics.signature_failures
            node.on_message(relaying_hop, bytes(mutated))
            (rating,) = node.metrics.ratings[before:]
            assert rating.check == CheckKind.RATE and rating.rating == 10.0
            # every rung charges the hop that handed the bytes over
            assert rating.subject_id == relaying_hop
            if rating.detail == "malformed frame":
                continue
            # it decoded, so the signature check is what refused it
            assert node.metrics.signature_failures == failures + 1
            assert "tampering hop" in rating.detail
        assert node.known == known_before
        assert {kind for _, _, kind in node.evidence.suspicion_events} == {"tamper_hop"}


MALFORMED = {
    "truncated": lambda frame: frame[:-3],
    "trailing": lambda frame: frame + b"\x00",
    "unknown_tag": lambda frame: b"\xee" + frame[1:],
    "non_minimal_varint": lambda frame: (
        bytes([MESSAGE_TAGS["AckMessage"]]) + b"\x80\x00" + b"\x00" * 8
    ),
    "not_bytes": lambda frame: "a str is not a datagram",
    "empty_body": lambda frame: frame[:1],
}


class TestMalformedInput:
    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_a_node_drops_it_and_rates_the_delivering_hop(self, kind):
        harness = Harness()
        harness.tick(0)
        node = harness.nodes[1]
        drops = []
        node.protocol_drop = drops.append
        good = as_frame(harness.signed_position(0, 6000))
        before = len(node.metrics.ratings)
        node.on_message(2, MALFORMED[kind](good))
        assert drops == ["malformed"]
        (rating,) = node.metrics.ratings[before:]
        assert (rating.subject_id, rating.check, rating.detail) == (
            2, CheckKind.RATE, "malformed frame",
        )
        # the well-formed original is still welcome afterwards
        node.on_message(0, good)
        assert node.metrics.signature_failures == 0

    def test_a_session_survives_injected_garbage_with_its_books_intact(
        self, small_trace, longest_yard
    ):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            session = WatchmenSession(small_trace, game_map=longest_yard)
        good = as_frame(PositionUpdate(0, 0, 1, snap(0)))
        injected = [make(good) for _, make in sorted(MALFORMED.items())]

        def inject():
            for index, buffer in enumerate(injected):
                session.network.send(index % 4, 4 + index % 4, buffer)

        for frame in (10, 30):
            session.queue.schedule_at(
                frame * FRAME_SECONDS + 0.001, inject
            )
        report = session.run(max_frames=60)  # no exception out of the queue

        counters = registry.snapshot()["counters"]
        delivered_garbage = counters["net.dropped.malformed"]
        assert 0 < delivered_garbage <= 2 * len(injected)  # minus in-flight loss
        assert report.dropped_by_cause["malformed"] == delivered_garbage
        assert report.messages_lost == sum(
            value for name, value in counters.items()
            if name.startswith("net.dropped.")
        )
        malformed_ratings = [
            r for r in report.ratings if r.detail == "malformed frame"
        ]
        assert len(malformed_ratings) == delivered_garbage
        assert {r.subject_id for r in malformed_ratings} <= {0, 1, 2, 3}
        assert all(r.check == CheckKind.RATE for r in malformed_ratings)
        # per-type books still sum to the total: unknown kinds get a row
        assert sum(
            value for name, value in counters.items()
            if name.startswith("net.sent.") and name.endswith(".count")
        ) == counters["net.datagrams.sent"] == report.messages_sent

    def test_a_player_signing_a_nan_position_is_dropped_and_banned(self):
        """Player 4 signs x = NaN from frame 10 of a 12 x 240 ``paper``
        session: every receiver refuses the frame where it enters, rates
        the hop that handed it over, and the board bans the player.  A NaN
        that got past the decoder would instead reach the verifiers'
        geometry as a coordinate."""

        class NanPosition(HonestBehaviour):
            def mutate_snapshot(self, frame, snapshot):
                if frame < 10:
                    return snapshot
                position = dataclasses.replace(snapshot.position, x=float("nan"))
                return dataclasses.replace(snapshot, position=position)

        trace = generate_trace(num_players=12, num_frames=240, seed=7)
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            session = WatchmenSession(trace, behaviours={4: NanPosition()})
            report = session.run()
        assert registry.snapshot()["counters"].get("net.dropped.malformed", 0) > 0
        assert 4 in report.banned


class TestHandoffOrderIsCanonical:
    """Two value-equal frozensets can iterate differently (colliding ids
    land where their insertion history put them); nothing downstream of a
    handoff may depend on which one the sender happened to build."""

    A, B = 3, 11  # collide in an 8-slot table

    def orders(self):
        return frozenset([self.A, self.B]), frozenset([self.B, self.A])

    def test_subscriber_order_ignores_insertion_history(self):
        forward, backward = self.orders()
        assert forward == backward
        tables = []
        for subscribers in (forward, backward):
            table = SubscriberTable(client_id=0, retention_frames=40)
            table.import_sets(subscribers, subscribers, frame=0)
            tables.append(table)
        assert list(tables[0].interest_subscribers(1)) == list(
            tables[1].interest_subscribers(1)
        )
        assert list(tables[0]._interest) == sorted(forward)

    def test_relay_order_ignores_insertion_history(self):
        relay_orders = []
        for subscribers in self.orders():
            config = WatchmenConfig(proxy_period_frames=10)
            harness = Harness(num_players=12, config=config)
            client, old_proxy, new_proxy = next(
                (c, harness.schedule.proxy_of(c, 0), harness.schedule.proxy_of(c, 1))
                for c in range(12)
                if harness.schedule.proxy_of(c, 0) != harness.schedule.proxy_of(c, 1)
                and not {c, harness.schedule.proxy_of(c, 1)} & {self.A, self.B}
            )
            node = harness.nodes[new_proxy]
            node.on_frame(10, snap(new_proxy, frame=10))  # epoch 1 begins
            handoff = HandoffMessage(
                sender_id=old_proxy, player_id=client, epoch=0, sequence=8000,
                interest_subscribers=subscribers, vision_subscribers=frozenset(),
            )
            signed = dataclasses.replace(
                handoff,
                signature=harness.signer.sign(old_proxy, encode_signable(handoff)),
            )
            # handed over as an object graph would be: the receiver must not
            # inherit the sender's set layout (a decoded frame never does)
            node._on_handoff(signed)
            del harness.sent[:]
            deliver(node, client, harness.signed_state(client, 8001, frame=10))
            relay_orders.append(
                [dst for src, dst, m in harness.sent
                 if src == new_proxy and isinstance(m, StateUpdate)]
            )
        assert relay_orders[0] == relay_orders[1]
        assert sorted(relay_orders[0]) == [self.A, self.B]
