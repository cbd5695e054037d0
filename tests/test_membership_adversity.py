"""Membership under adversity: the ISSUE's three robustness properties.

Property-based (hypothesis) whole-session runs, derandomized and kept
small so tier-1 stays fast:

1. A crashed player is evicted everywhere within
   ``silence_threshold + effective_delay`` (plus proposal latency and
   epoch-boundary rounding).
2. A live player is never evicted under <= 20% uniform loss — the
   liveness-defense challenge/response defeats correlated first-hop
   silence.
3. Proxy crash with failover enabled strands nobody: the client fails
   over to a verifiable candidate within one proxy period — and no node
   sends itself anything on the way, so every subscription a retry
   re-aims at a node that serves its target is registered there.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WatchmenSession
from repro.core.config import PROXY_PERIOD_FRAMES, WatchmenConfig
from repro.core.messages import SubscriptionRequest
from repro.faults import CrashFault, CrashProxyFault, FaultSchedule
from repro.faults import chaos
from repro.game import generate_trace
from repro.net.transport import NetworkConfig

#: Eviction latency bound: silence detection + one proposal round
#: (frames, not epochs) + the effective-delay epoch + boundary rounding.
SILENCE_THRESHOLD_FRAMES = 60
EFFECTIVE_DELAY_EPOCHS = 1


class SelfTraffic:
    """Spies on one session: what its nodes send themselves, and what
    becomes of the one honest reason to — a stage-2 subscription relay
    whose retry the failover walk re-aims at a node serving its target.

    ``sent`` lists every datagram handed to ``send_many`` with
    ``src == dst`` and every call of a node's ``on_message`` that names the
    node itself as the hop; ``reaimed`` lists ``(node, subscriber, target,
    frame)`` per such retry; ``registered`` holds the same key for every
    subscription a node's client book took.
    """

    def __init__(self, session: WatchmenSession) -> None:
        self.sent: list[tuple[str, int]] = []
        self.reaimed: list[tuple[int, int, int, int]] = []
        self.registered: set[tuple[int, int, int, int]] = set()
        session.network.send_taps.append(self._tap)
        for node_id, node in session.nodes.items():
            self._watch(node_id, node)
            session.network.register(node_id, node.on_message)

    def _tap(self, src, dst, frame, accepted):
        if src == dst:
            self.sent.append(("send_many", src))

    def _watch(self, node_id, node):
        on_message = node.on_message
        walk = node.first_hops.retry_destination
        register = node.clients.register

        def receive(src, buffer):
            if src == node_id:
                self.sent.append(("on_message", node_id))
            on_message(src, buffer)

        def retry_destination(message, current, epoch, frame):
            destination = walk(message, current, epoch, frame)
            if (
                destination == node_id
                and isinstance(message, SubscriptionRequest)
                and node.first_hops.serves(message.target_id, epoch)
            ):
                key = (node_id, message.sender_id, message.target_id, frame)
                self.reaimed.append(key)
            return destination

        def take(request, frame):
            self.registered.add(
                (node_id, request.sender_id, request.target_id, frame)
            )
            register(request, frame)

        node.on_message = receive
        node.first_hops.retry_destination = retry_destination
        node.clients.register = take

    def unregistered(self) -> list[tuple[int, int, int, int]]:
        return [key for key in self.reaimed if key not in self.registered]


def eviction_bound(crash_frame: int) -> int:
    rounding = 2 * PROXY_PERIOD_FRAMES  # quorum epoch + boundary alignment
    return (
        crash_frame
        + SILENCE_THRESHOLD_FRAMES
        + EFFECTIVE_DELAY_EPOCHS * PROXY_PERIOD_FRAMES
        + rounding
    )


class TestCrashedPlayerEvicted:
    @given(
        seed=st.integers(min_value=1, max_value=40),
        crash_frame=st.integers(min_value=45, max_value=85),
    )
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_evicted_within_bound(self, seed, crash_frame):
        bound = eviction_bound(crash_frame)
        trace = generate_trace(num_players=8, num_frames=bound + 1, seed=seed)
        schedule = FaultSchedule(
            crashes=(CrashFault(node_id=2, frame=crash_frame),)
        )
        session = WatchmenSession(trace, faults=schedule)
        session.run()
        for node in session.nodes.values():
            if node.player_id == 2:
                continue
            assert 2 in node.membership.removed, (
                f"node {node.player_id} had not evicted the crashed player "
                f"by frame {bound} (crash at {crash_frame}, seed {seed})"
            )


class TestLivePlayerNeverEvicted:
    @given(
        seed=st.integers(min_value=1, max_value=40),
        loss_rate=st.floats(min_value=0.05, max_value=0.20),
        gates=st.booleans(),
    )
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_no_false_eviction_under_loss(self, seed, loss_rate, gates):
        trace = generate_trace(num_players=8, num_frames=200, seed=seed)
        config = WatchmenConfig(profile="hardened" if gates else "paper")
        session = WatchmenSession(
            trace,
            config=config,
            network_config=NetworkConfig(loss_rate=loss_rate, seed=seed),
        )
        report = session.run()
        for node in session.nodes.values():
            assert node.membership.removed == set(), (
                f"node {node.player_id} evicted {node.membership.removed} "
                f"at loss {loss_rate:.2f} seed {seed} gates {gates}"
            )
        assert report.banned == set()


class TestProxyCrashStrandsNobody:
    @given(
        seed=st.integers(min_value=1, max_value=40),
        target=st.sampled_from([0, 3, 7]),
    )
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_failover_within_one_period(self, seed, target):
        fault_frame = 45  # early in epoch 1, before rotation can mask it
        trace = generate_trace(num_players=8, num_frames=200, seed=seed)
        schedule = FaultSchedule(
            proxy_crashes=(
                CrashProxyFault(player_id=target, frame=fault_frame),
            )
        )
        config = WatchmenConfig(profile="hardened")
        session = WatchmenSession(trace, config=config, faults=schedule)
        spy = SelfTraffic(session)
        report = session.run()
        assert spy.sent == []
        assert spy.unregistered() == []
        (victim,) = report.crashed
        if victim == target:
            # The target was its own proxy and is now down; no client-side
            # failover to observe.
            return
        # Some client of the dead proxy re-routes around it within one
        # proxy period (the target's own slot may rotate away first; the
        # chaos frames_to_reproxy metric counts any stranded client).
        events = [
            frame
            for node in session.nodes.values()
            for frame, scheduled, _ in node.first_hops.failover_events
            if scheduled == victim
            and fault_frame < frame <= fault_frame + PROXY_PERIOD_FRAMES
        ]
        assert events, (
            f"no client failed over within a period (seed {seed}, "
            f"victim {victim})"
        )
        # Nobody falsely evicted: only the crashed victim may be removed.
        for node in session.nodes.values():
            if node.player_id == victim:
                continue
            assert node.membership.removed <= {victim}

    @pytest.mark.chaos
    def test_no_node_of_a_hardened_chaos_row_sends_itself_anything(
        self, monkeypatch
    ):
        """The five ``hardened`` default chaos rows (and their fault-free
        baseline run) at 16 players x 400 frames, seed 7."""
        spies = []

        class Watched(WatchmenSession):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spies.append(SelfTraffic(self))

        monkeypatch.setattr(chaos, "WatchmenSession", Watched)
        rows = tuple(
            s for s in chaos.default_scenarios() if s.profile == "hardened"
        )
        assert len(rows) == 5
        chaos.run_chaos(players=16, frames=400, seed=7, scenarios=rows)
        assert len(spies) == 6
        assert [spy.sent for spy in spies] == [[]] * 6
        assert [spy.unregistered() for spy in spies] == [[]] * 6
        assert any(spy.reaimed for spy in spies), "no retry was re-aimed"
