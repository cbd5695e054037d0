"""Failure injection: loss spikes, starved uplinks, unreachable pairs, churn.

The protocol must degrade gracefully — stale views and abstaining
verifiers, not crashes or honest bans.
"""

import pytest

from repro.core import ReputationBoard, WatchmenConfig, WatchmenSession
from repro.core.config import FRAME_SECONDS
from repro.faults import FaultSchedule, PartitionFault
from repro.net.latency import king_like, uniform_lan
from repro.net.transport import NetworkConfig


#: Full-session integration tests: deselect with `-m "not slow"`.
pytestmark = pytest.mark.slow


class TestHeavyLoss:
    @pytest.fixture(scope="class")
    def lossy_report(self, small_trace, longest_yard):
        session = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=king_like(8, seed=2),
            network_config=NetworkConfig(loss_rate=0.15, seed=2),
        )
        return session.run()

    def test_session_completes(self, lossy_report):
        assert lossy_report.num_frames == 160

    def test_updates_still_flow(self, lossy_report):
        assert sum(lossy_report.age_histogram.values()) > 0

    def test_no_honest_bans_under_loss(self, lossy_report):
        """Message loss must not convict honest players."""
        assert lossy_report.banned == set()

    def test_loss_rate_observed(self, lossy_report):
        observed = lossy_report.messages_lost / lossy_report.messages_sent
        assert observed == pytest.approx(0.15, abs=0.02)


#: A starved uplink, as the protocol can see it: most of what every node
#: sends never arrives.  (The sender cannot tell a local refusal from loss —
#: nothing reads ``send``'s result — so loss is the whole model.)
STARVED = NetworkConfig(loss_rate=0.6, seed=3)


class TestSaturatedUplink:
    def test_budget_drops_do_not_crash(self, small_trace, longest_yard):
        session = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=uniform_lan(8),
            network_config=STARVED,
        )
        report = session.run(max_frames=80)
        assert report.dropped_by_cause["loss"] > report.messages_sent / 2
        assert report.num_frames == 80

    def test_saturation_flags_are_rate_evidence_only(
        self, small_trace, longest_yard
    ):
        """A starved uplink looks like a flow cheat — and only like one.

        Watchmen handles this up front with a session-admission feasibility
        test (Section VI); once admitted, a node that cannot sustain the
        minimum rate is indistinguishable from a blind-opponent cheater,
        so rate flags are expected.  No *other* verification family may
        convict the starved-but-honest players.
        """
        session = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=uniform_lan(8),
            network_config=STARVED,
            reputation=ReputationBoard(),
        )
        report = session.run(max_frames=80)
        non_rate_high = [
            r for r in report.ratings if r.check != "rate" and r.rating >= 6.0
        ]
        assert len(non_rate_high) <= len(report.ratings) * 0.05


class TestNatHoles:
    def test_partially_reachable_population(self, small_trace, longest_yard):
        """Players 0 and 1 sit behind NATs no hole punch gets through: the
        pair is cut for the whole match, everyone else reaches both."""
        unreachable_pair = PartitionFault(
            frozenset({0}), frozenset({1}), start_frame=0, end_frame=80
        )
        session = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=uniform_lan(8),
            faults=FaultSchedule(partitions=(unreachable_pair,)),
        )
        report = session.run(max_frames=80)
        assert report.num_frames == 80
        assert report.dropped_by_cause["partition"] > 0
        # With every other pair open, most traffic still flows.
        assert session.network.delivered > 10 * report.dropped_by_cause["partition"]
        assert report.banned == set()


class TestChurnDeparture:
    def test_departed_node_leaves_silence_evidence(
        self, small_trace, longest_yard
    ):
        """A node unplugging mid-game is seen by its proxy (heartbeats)."""
        session = WatchmenSession(
            small_trace, game_map=longest_yard, latency=uniform_lan(8)
        )
        # Unregister player 5 from the network halfway through.
        depart_frame = 80
        session.queue.schedule_at(
            depart_frame * FRAME_SECONDS,
            lambda: session.network.unregister(5),
        )
        # Player 5's own sends keep happening (his machine is gone; model
        # by dropping his outbound too).
        original_send_many = session.network.send_many

        def send_unless_departed(src, dsts, frame):
            now_frame = int(session.queue.now / FRAME_SECONDS)
            if src == 5 and now_frame >= depart_frame:
                return
            original_send_many(src, dsts, frame)

        for node in session.nodes.values():
            node._send_many = send_unless_departed
        report = session.run()
        silence_flags = [
            r
            for r in report.ratings
            if r.subject_id == 5
            and r.check == "rate"
            and r.frame > depart_frame
            and r.rating >= 5.0
        ]
        assert silence_flags, "the proxy must notice the departure"

    def test_schedule_without_departed(self, small_trace):
        from repro.core.proxy import ProxySchedule

        schedule = ProxySchedule(small_trace.player_ids())
        slim = schedule.without_players({5})
        assert 5 not in slim.roster
        for player in slim.roster:
            assert slim.proxy_of(player, 0) != 5


class TestExtremeLatency:
    def test_very_slow_network_updates_age(self, small_trace, longest_yard):
        """At 150 ms one-way, two hops blow the budget: ages shift right."""
        slow = uniform_lan(8, one_way_ms=150.0)
        report = WatchmenSession(
            small_trace, game_map=longest_yard, latency=slow
        ).run(max_frames=80)
        assert report.stale_fraction() > 0.5
