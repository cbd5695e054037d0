"""Unit tests for WatchmenNode over a synchronous loopback transport."""

import pytest

from repro.core.config import HANDOFF_DEPTH, WatchmenConfig
from repro.core.messages import (
    SUB_INTEREST,
    SUB_VISION,
    StateUpdate,
    SubscriptionRequest,
)
from repro.core.node import WatchmenNode
from repro.core.verification import Confidence
from repro.core.proxy import ProxySchedule
from repro.core.wire import encode_signable
from repro.crypto.signatures import HmacSigner
from repro.game.avatar import AvatarSnapshot
from repro.game.vector import Vec3
from tests.arena import make_arena
from tests.wirekit import LoopbackWire, deliver


def snap(player_id, frame=0, x=0.0, y=-800.0, yaw=0.0, alive=True):
    return AvatarSnapshot(
        player_id=player_id,
        frame=frame,
        position=Vec3(x, y, 0),
        velocity=Vec3(),
        yaw=yaw,
        health=100,
        armor=0,
        weapon="machinegun",
        ammo=100,
        alive=alive,
    )


class LoopbackHarness:
    """N nodes wired through an instant, lossless, synchronous transport."""

    def __init__(self, num_players=4, config=None, behaviours=None):
        self.config = config or WatchmenConfig()
        roster = list(range(num_players))
        self.schedule = ProxySchedule(
            roster,
            common_seed=self.config.common_seed,
            proxy_period_frames=self.config.proxy_period_frames,
        )
        self.signer = HmacSigner()
        wire = LoopbackWire()
        self.sent = wire.sent  # (src, dst, message)
        behaviours = behaviours or {}
        self.nodes = wire.nodes
        for player_id in roster:
            self.nodes[player_id] = WatchmenNode(
                player_id=player_id,
                roster=roster,
                game_map=make_arena(),
                config=self.config,
                schedule=self.schedule,
                signer=self.signer,
                send_many=wire.send_many,
                behaviour=behaviours.get(player_id),
            )

    def tick(self, frame, positions=None):
        positions = positions or {}
        for player_id, node in self.nodes.items():
            x = positions.get(player_id, 100.0 * player_id)
            node.on_frame(frame, snap(player_id, frame=frame, x=x))

    def run(self, frames):
        for frame in range(frames):
            self.tick(frame)


class TestPublishing:
    def test_state_update_goes_to_proxy(self):
        harness = LoopbackHarness()
        harness.tick(0)
        for src, dst, message in harness.sent:
            if isinstance(message, StateUpdate) and src == message.sender_id:
                assert dst == harness.schedule.proxy_of(src, 0)

    def test_guidance_and_position_sent_at_interval(self):
        harness = LoopbackHarness()
        harness.run(41)
        from repro.core.messages import GuidanceMessage, PositionUpdate

        guidance_frames = {
            m.frame
            for _, _, m in harness.sent
            if isinstance(m, GuidanceMessage) and m.sender_id == 0
        }
        assert guidance_frames == {0, 20, 40}
        position_frames = {
            m.frame
            for _, _, m in harness.sent
            if isinstance(m, PositionUpdate) and m.sender_id == 0
        }
        assert position_frames == {0, 20, 40}

    def test_all_outgoing_messages_signed(self):
        harness = LoopbackHarness()
        harness.run(5)
        for src, _, message in harness.sent:
            assert message.signature is not None

    def test_sequences_strictly_increase(self):
        harness = LoopbackHarness()
        harness.run(10)
        last = {}
        for src, _, message in harness.sent:
            if message.sender_id != src:
                continue  # forwarded third-party message
            assert message.sequence > last.get(src, 0) or message.sequence >= 0
            last[src] = max(last.get(src, 0), message.sequence)


class TestProxyForwarding:
    def test_proxy_forwards_to_interest_subscribers(self):
        harness = LoopbackHarness(num_players=4)
        harness.run(5)
        # Node 1 is near node 0 (x=0 vs x=100) so they subscribe to each
        # other; node 0 should receive state updates about node 1.
        assert 1 in harness.nodes[0].known
        assert harness.nodes[0].known[1].frame >= 3

    def test_subscription_routed_via_both_proxies(self):
        harness = LoopbackHarness()
        harness.tick(0)  # discovery: everyone learns positions
        harness.tick(1)  # first real subscriptions
        proxied_subs = [
            (src, dst, m)
            for src, dst, m in harness.sent
            if isinstance(m, SubscriptionRequest) and src != m.sender_id
        ]
        assert proxied_subs, "proxies must relay subscriptions onward"
        for src, dst, message in proxied_subs:
            # Relayed by the sender's proxy to the target's proxy.
            assert src == harness.schedule.proxy_of(message.sender_id, 0)
            assert dst == harness.schedule.proxy_of(message.target_id, 0)

    def test_a_relay_retry_re_aimed_at_me_registers_the_subscriber_here(self):
        """Stage 2 by retry: the target's proxy died after I relayed a
        subscription to it, and the failover walk names me — the target's
        proxy this epoch — as its live stand-in.  I register the subscriber
        myself and send myself nothing."""
        from dataclasses import replace

        harness = LoopbackHarness(
            num_players=8, config=WatchmenConfig(profile="hardened")
        )
        schedule = harness.schedule
        subscriber, target = next(
            (s, t)
            for s in schedule.roster
            for t in schedule.roster
            if s != t
            and schedule.proxy_of(t, 1) == schedule.proxy_of(s, 0)
            and schedule.proxy_of(t, 0) not in (s, schedule.proxy_of(s, 0))
        )
        me, dead = schedule.proxy_of(subscriber, 0), schedule.proxy_of(target, 0)
        harness.tick(0)
        del harness.nodes[dead]  # its datagrams go nowhere, so nothing is acked
        node = harness.nodes[me]
        node.membership.heard_from(dead, 0)
        request = SubscriptionRequest(subscriber, target, SUB_INTEREST, 0, 9000)
        signed = replace(
            request, signature=harness.signer.sign(subscriber, encode_signable(request))
        )
        deliver(node, subscriber, signed)  # stage 1: verified, relayed to ``dead``
        assert harness.sent[-1][:2] == (me, dead)
        # The retries at frames 4, 12 and 28 still go to ``dead``; by the
        # one at 60 it is silent past the threshold and the walk re-aims.
        for frame in range(1, 61):
            for peer in harness.nodes:
                node.membership.heard_from(peer, frame)
            node.on_frame(frame, snap(me, frame=frame, x=100.0 * me))
        interest, _ = node.clients.subscribers_of(target, node.current_frame)
        assert subscriber in interest
        assert all(src != dst for src, dst, _ in harness.sent)

    def test_target_never_learns_subscribers(self):
        """"the player itself does not know who is interested in him".

        One exception is inherent to the architecture: when the target *is*
        the subscriber's current proxy, it sees the first hop — but a proxy
        already holds complete information about its client, so nothing new
        leaks.
        """
        harness = LoopbackHarness()
        harness.run(3)
        epoch = 0
        for src, dst, message in harness.sent:
            if isinstance(message, SubscriptionRequest):
                if dst == harness.schedule.proxy_of(message.sender_id, epoch):
                    continue  # first hop to the subscriber's own proxy
                assert dst != message.target_id

    def test_known_view_tracks_positions(self):
        harness = LoopbackHarness()
        harness.run(8)
        node = harness.nodes[0]
        # Everybody is known (seeded or updated).
        assert set(node.known) == {0, 1, 2, 3}


class TestSubscriptionVerdict:
    @pytest.mark.parametrize("kind", [SUB_VISION, SUB_INTEREST])
    @pytest.mark.parametrize("stamp_offset", [-400, -6, 6, 400])
    def test_a_forged_request_stamp_buys_no_turn(self, monkeypatch, kind, stamp_offset):
        """The request's frame is the subscriber's own stamp.  Stamped far
        from the pose the proxy holds, either way, it must neither widen
        the cone nor discount the verdict: a target straight behind a
        fresh pose is still convicted at full proxy confidence."""
        harness = LoopbackHarness()
        node = harness.nodes[0]
        node.current_frame = 50
        node.known[1] = snap(1, frame=50, x=0.0, yaw=0.0)
        node.known[2] = snap(2, frame=50, x=-700.0)
        ratings = []
        monkeypatch.setattr(node, "_emit_rating", ratings.append)
        node._verify_subscription(
            SubscriptionRequest(1, 2, kind, 50 + stamp_offset, 1)
        )
        (rating,) = ratings
        assert rating.rating > 3.0
        assert rating.confidence == Confidence.PROXY


class TestEnvelopeSecurity:
    def test_unsigned_message_rejected(self):
        harness = LoopbackHarness()
        harness.tick(0)
        node = harness.nodes[1]
        before = node.metrics.signature_failures
        deliver(node, 0, StateUpdate(0, 0, 999, snap(0)))
        assert node.metrics.signature_failures == before + 1

    def test_spoofed_sender_rejected(self):
        harness = LoopbackHarness()
        harness.tick(0)
        node = harness.nodes[1]
        # Player 2 signs a message claiming to be player 0.
        message = StateUpdate(0, 0, 998, snap(0))
        forged = StateUpdate(
            0, 0, 998, snap(0),
            signature=harness.signer.sign(2, encode_signable(message)),
        )
        before = node.metrics.signature_failures
        deliver(node, 2, forged)
        assert node.metrics.signature_failures == before + 1

    def test_replayed_message_rejected(self):
        harness = LoopbackHarness()
        harness.tick(0)
        node = harness.nodes[1]
        message = StateUpdate(0, 0, 997, snap(0))
        signed = StateUpdate(
            0, 0, 997, snap(0),
            signature=harness.signer.sign(0, encode_signable(message)),
        )
        deliver(node, 0, signed)
        before = node.metrics.replayed_messages
        deliver(node, 0, signed)
        assert node.metrics.replayed_messages == before + 1

    def test_tampered_forward_rejected(self):
        """A proxy modifying a relayed update invalidates the signature."""
        from dataclasses import replace

        harness = LoopbackHarness()
        harness.tick(0)
        node = harness.nodes[1]
        message = StateUpdate(0, 0, 996, snap(0))
        signed = replace(
            message, signature=harness.signer.sign(0, encode_signable(message))
        )
        tampered = replace(signed, snapshot=snap(0, x=9999.0))
        before = node.metrics.signature_failures
        deliver(node, 3, tampered)
        assert node.metrics.signature_failures == before + 1

    def test_direct_update_bypassing_proxy_flagged(self):
        harness = LoopbackHarness()
        harness.run(2)
        # Find a node that is NOT player 0's proxy right now.
        proxy = harness.schedule.proxy_of(0, 0)
        receiver = next(
            n for n in harness.nodes.values()
            if n.player_id not in (0, proxy)
        )
        message = StateUpdate(0, 1, 995, snap(0, frame=1))
        from dataclasses import replace

        signed = replace(
            message, signature=harness.signer.sign(0, encode_signable(message))
        )
        before = receiver.metrics.direct_update_violations
        deliver(receiver, 0, signed)
        assert receiver.metrics.direct_update_violations == before + 1


class TestHandoff:
    def test_handoff_sent_at_epoch_boundary(self):
        config = WatchmenConfig(proxy_period_frames=10)
        harness = LoopbackHarness(config=config)
        harness.run(21)
        from repro.core.messages import HandoffMessage

        handoffs = [m for _, _, m in harness.sent if isinstance(m, HandoffMessage)]
        assert handoffs
        for handoff in handoffs:
            # Sent by the epoch-ending proxy to the new proxy.
            assert (
                harness.schedule.proxy_of(handoff.player_id, handoff.epoch)
                == handoff.sender_id
            )

    def test_handoff_carries_summaries(self):
        config = WatchmenConfig(proxy_period_frames=10)
        harness = LoopbackHarness(config=config)
        harness.run(35)
        from repro.core.messages import HandoffMessage

        handoffs = [m for _, _, m in harness.sent if isinstance(m, HandoffMessage)]
        with_summary = [h for h in handoffs if h.summaries]
        assert with_summary
        depth = max(len(h.summaries) for h in handoffs)
        assert depth <= HANDOFF_DEPTH

    def test_forged_handoff_rejected(self):
        config = WatchmenConfig(proxy_period_frames=10)
        harness = LoopbackHarness(config=config)
        harness.run(11)
        from dataclasses import replace

        from repro.core.messages import HandoffMessage

        node = harness.nodes[0]
        # A node that was never player 1's proxy sends a handoff about him.
        epoch = 0
        real_proxy = harness.schedule.proxy_of(1, epoch)
        imposter = next(
            p for p in range(4) if p not in (1, real_proxy, node.player_id)
        )
        message = HandoffMessage(
            sender_id=imposter,
            player_id=1,
            epoch=epoch,
            sequence=12345,
            interest_subscribers=frozenset({0}),
            vision_subscribers=frozenset(),
        )
        signed = replace(
            message,
            signature=harness.signer.sign(imposter, encode_signable(message)),
        )
        before = len(node.metrics.ratings)
        deliver(node, imposter, signed)
        new = node.metrics.ratings[before:]
        assert any(r.subject_id == imposter and r.rating == 10.0 for r in new)


class TestKillClaims:
    def test_claim_published_and_judged(self):
        harness = LoopbackHarness()
        harness.tick(0)
        harness.nodes[0].claim_kill(1, victim_id=1, weapon="machinegun",
                                    distance=100.0)
        harness.tick(1)
        from repro.core.messages import KillClaim

        claims = [m for _, _, m in harness.sent if isinstance(m, KillClaim)]
        assert claims
        proxy = harness.schedule.proxy_of(0, 0)
        kill_ratings = [
            r
            for r in harness.nodes[proxy].metrics.ratings
            if r.check == "kill" and r.subject_id == 0
        ]
        assert kill_ratings
