"""Deeper WatchmenNode tests: delta coding, estimates, servers, handoffs."""

import pytest

from repro.core import WatchmenConfig, WatchmenSession
from repro.core.config import FRAMES_PER_SECOND, HANDOFF_DEPTH
from repro.core.messages import HandoffMessage, StateUpdate
from repro.core.node import NodeMetrics
from repro.game.avatar import AvatarSnapshot
from repro.game.vector import Vec3
from repro.net.latency import uniform_lan
from tests.wirekit import as_frame, as_message


def collect_messages(session, predicate):
    """Re-run helper: intercept messages matching ``predicate``."""
    collected = []
    original_send_many = session.network.send_many

    def spy(src, dsts, frame):
        message = as_message(frame)
        if predicate(message):
            collected.extend((src, dst, message, len(frame)) for dst in dsts)
        original_send_many(src, dsts, frame)

    for node in session.nodes.values():
        node._send_many = spy
    return collected


class TestDeltaCoding:
    @pytest.fixture(scope="class")
    def updates(self, small_trace, longest_yard):
        session = WatchmenSession(
            small_trace, game_map=longest_yard, latency=uniform_lan(8)
        )
        collected = collect_messages(
            session, lambda m: isinstance(m, StateUpdate)
        )
        session.run(max_frames=60)
        # First-hop updates only (publisher → proxy).
        return [
            (payload, size)
            for src, dst, payload, size in collected
            if src == payload.sender_id
        ], session.config

    def test_keyframes_once_per_second(self, updates):
        """Everyone keyframes at frame 0, and each sender once a second on
        its own phase: ``frame ≡ sender_id`` (mod ``FRAMES_PER_SECOND``)."""
        messages, _ = updates
        keyframes = [m for m, _ in messages if not m.delta_fields]
        assert keyframes
        for message in keyframes:
            assert message.frame == 0 or (
                (message.frame - message.sender_id) % FRAMES_PER_SECOND == 0
            )
        assert len({m.frame for m in keyframes if m.frame > 0}) > 1

    def test_deltas_between_keyframes(self, updates):
        messages, _ = updates
        deltas = [m for m, _ in messages if m.delta_fields]
        assert len(deltas) > len(messages) * 0.8

    def test_delta_metadata_stays_cheap_on_the_wire(self, updates):
        """Updates are self-contained (the full snapshot ships every time,
        so any update is a standalone-verifiable heartbeat); the delta
        annotation may cost at most its one-byte-per-field table codes
        over a keyframe in the binary frame."""
        messages, config = updates
        delta_rows = [(m, s) for m, s in messages if m.delta_fields]
        keyframe_sizes = [s for m, s in messages if not m.delta_fields]
        for message, size in delta_rows:
            # +2 slack: frame/sequence varints may cross a 7-bit size
            # class between the keyframe and a later delta.
            assert size <= max(keyframe_sizes) + len(message.delta_fields) + 2

    def test_delta_fields_reflect_changes(self, updates):
        messages, _ = updates
        by_sender: dict[int, list] = {}
        for message, _ in messages:
            by_sender.setdefault(message.sender_id, []).append(message)
        checked = 0
        for stream in by_sender.values():
            stream.sort(key=lambda m: m.frame)
            for previous, current in zip(stream, stream[1:]):
                if not current.delta_fields:
                    continue
                if current.frame != previous.frame + 1:
                    continue
                if previous.snapshot.position != current.snapshot.position:
                    assert "position" in current.delta_fields
                    checked += 1
        assert checked > 10


class TestEstimateOf:
    @pytest.fixture()
    def node(self, small_trace, longest_yard):
        session = WatchmenSession(
            small_trace, game_map=longest_yard, latency=uniform_lan(8)
        )
        session.run(max_frames=40)
        return session.nodes[0]

    def test_unknown_player_none(self, node):
        assert node.estimate_of(999, 40) is None

    def test_fresh_snapshot_returned_verbatim(self, node):
        snapshot = node.known[1]
        estimate = node.estimate_of(1, snapshot.frame)
        assert estimate is snapshot

    def test_extrapolates_along_velocity(self, node):
        snapshot = node.known[1]
        if snapshot.velocity.length() == 0:
            pytest.skip("target standing still")
        ahead = node.estimate_of(1, snapshot.frame + 4)
        expected = snapshot.position + snapshot.velocity * (4 * 0.05)
        assert ahead.position.distance_to(expected) < 1e-6

    def test_extrapolation_clamped_at_horizon(self, node):
        snapshot = node.known[1]
        horizon = FRAMES_PER_SECOND  # the guidance prediction's validity
        at_horizon = node.estimate_of(1, snapshot.frame + horizon)
        way_past = node.estimate_of(1, snapshot.frame + horizon + 100)
        assert at_horizon.position == way_past.position


class TestUpdateAges:
    def test_ages_are_tallied_in_first_seen_order_and_fold_into_the_report(
        self, small_trace, longest_yard
    ):
        metrics = NodeMetrics(0)
        for kind, age in [("state", 1), ("position", 0), ("state", 1), ("state", 0)]:
            metrics.record_age(kind, age)
        assert list(metrics.update_ages.items()) == [
            (("state", 1), 2), (("position", 0), 1), (("state", 0), 1),
        ]
        session = WatchmenSession(small_trace, game_map=longest_yard)
        report = session.run(max_frames=60)
        tallies = [node.metrics.update_ages for node in session.nodes.values()]
        assert sum(report.age_histogram.values()) == sum(
            sum(tally.values()) for tally in tallies
        )
        for kind, histogram in report.age_histogram_by_kind.items():
            assert histogram == {
                age: sum(t[kind, age] for t in tallies) for age in histogram
            }


class TestServerNodeBehaviour:
    @pytest.fixture(scope="class")
    def hybrid_session(self, small_trace, longest_yard):
        session = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=uniform_lan(9),
            servers=1,
        )
        collected = collect_messages(session, lambda m: True)
        session.run(max_frames=80)
        return session, collected

    def test_server_sends_no_state_updates_of_its_own(self, hybrid_session):
        session, collected = hybrid_session
        server = session.server_ids[0]
        own = [
            m for src, dst, m, s in collected
            if src == server and getattr(m, "sender_id", None) == server
            and isinstance(m, StateUpdate)
        ]
        assert own == []

    def test_server_forwards_player_updates(self, hybrid_session):
        session, collected = hybrid_session
        server = session.server_ids[0]
        forwarded = [
            m for src, dst, m, s in collected
            if src == server and isinstance(m, StateUpdate)
            and m.sender_id != server
        ]
        assert forwarded

    def test_server_performs_no_handoffs_when_sole_proxy(self, hybrid_session):
        session, collected = hybrid_session
        handoffs = [m for _, _, m, _ in collected if isinstance(m, HandoffMessage)]
        # Sole proxy is always re-elected: nothing to hand off.
        assert handoffs == []

    def test_server_emits_verifications(self, hybrid_session):
        session, _ = hybrid_session
        server_node = session.nodes[session.server_ids[0]]
        assert len(server_node.metrics.ratings) > 0


class TestHandoffContents:
    @pytest.fixture(scope="class")
    def handoffs(self, small_trace, longest_yard):
        config = WatchmenConfig(proxy_period_frames=20)
        session = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            config=config,
            latency=uniform_lan(8),
        )
        collected = collect_messages(
            session, lambda m: isinstance(m, HandoffMessage)
        )
        session.run(max_frames=100)
        return session, [m for _, _, m, _ in collected]

    def test_handoffs_occur(self, handoffs):
        _, messages = handoffs
        assert messages

    def test_summary_chain_depth_bounded(self, handoffs):
        session, messages = handoffs
        for message in messages:
            assert len(message.summaries) <= HANDOFF_DEPTH

    def test_first_summary_is_senders_own(self, handoffs):
        _, messages = handoffs
        for message in messages:
            if message.summaries:
                assert message.summaries[0].proxy_id == message.sender_id
                assert message.summaries[0].player_id == message.player_id

    def test_predecessor_chain_reaches_depth_two(self, handoffs):
        _, messages = handoffs
        assert any(len(m.summaries) == 2 for m in messages)

    def test_summaries_carry_update_counts(self, handoffs):
        _, messages = handoffs
        counted = [
            s for m in messages for s in m.summaries if s.update_count > 0
        ]
        assert counted

    def test_handoff_size_scales_with_contents(self, handoffs):
        session, messages = handoffs
        sizes = [len(as_frame(m)) for m in messages]
        assert min(sizes) > 0
        if len(set(sizes)) > 1:
            assert max(sizes) > min(sizes)
