"""Integration tests for WatchmenSession (full protocol over the WAN sim)."""

import gc
import statistics
import sys

import pytest

from repro.core import WatchmenSession
from repro.core.verification import CheatRating
from repro.net.latency import uniform_lan
from repro.net.transport import NetworkConfig
from repro.obs import MetricsRegistry, use_registry


class TestHonestRun:
    def test_report_shape(self, honest_session_report):
        _, report = honest_session_report
        assert report.num_players == 8
        assert report.num_frames == 160
        assert report.messages_sent > 0
        assert sum(report.age_histogram.values()) > 0

    def test_age_pdf_normalised(self, honest_session_report):
        _, report = honest_session_report
        assert sum(report.age_pdf().values()) == pytest.approx(1.0)

    def test_most_updates_fresh(self, honest_session_report):
        """Figure 7's core claim: ≥95 % of updates under 3 frames of age."""
        _, report = honest_session_report
        assert report.stale_fraction() < 0.05

    def test_all_update_kinds_flow(self, honest_session_report):
        _, report = honest_session_report
        assert set(report.age_histogram_by_kind) == {
            "state",
            "guidance",
            "position",
        }

    def test_no_honest_player_banned(self, honest_session_report):
        _, report = honest_session_report
        assert report.banned == set()

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(600, 610))
    def test_no_honest_player_banned_at_96_players(self, seed):
        """Clean 96-player runs (no cheaters, no faults) ban nobody.

        Seed 606 once banned honest player 36: the proxy judged his
        subscriptions planned at frames 3-4 against his frame-1 pose while
        he turned 0.6 rad in one frame, the engine's maximum.  Each rated
        10.0 at full proxy confidence, escalation compounded them, and the
        reputation ban followed inside 20 frames.  A subscription verdict
        must allow the turn an old pose leaves room for and discount its
        confidence by that pose's age; a check that convicts honest turns
        fails here (``perfbench.child --workload crowd96 --seed 606`` runs
        the same session).
        """
        from repro.replay import TapeScenario

        scenario = TapeScenario(
            players=96, frames=20, seed=seed,
            failover=False, reliable=False, hardening=False,
        )
        game_map = scenario.make_map()
        report = scenario.make_session(
            scenario.make_trace(game_map), None, game_map
        ).run()
        assert report.banned == set()

    def test_no_frame_carries_a_burst(self):
        """The 1 Hz tiers are phased by player id, so no frame after the cold
        start sends much more than the median.  When every player published
        them on ``frame % FRAMES_PER_SECOND == 0``, frame 20 of this run sent
        1.46x the median frame's datagrams.  A count, not a clock: this is
        the shape of the frame-time tail on any machine."""
        from repro.replay import TapeScenario

        scenario = TapeScenario(
            players=24, frames=60, seed=7,
            failover=False, reliable=False, hardening=False,
        )
        game_map = scenario.make_map()
        session = scenario.make_session(
            scenario.make_trace(game_map), None, game_map
        )
        marks: list[int] = []
        session.on_frame_begin = lambda frame: marks.append(session.network.sent)
        session.run()
        marks.append(session.network.sent)
        per_frame = [b - a for a, b in zip(marks, marks[1:])]
        assert len(per_frame) == 60
        warm = per_frame[2:]
        assert max(warm) <= 1.25 * statistics.median(warm)

    def test_no_player_seems_dead_without_a_fault(self):
        """Every live player's heartbeat reaches every node at least once a
        second, so a hardened run without a fault never fails over.  Loss is
        off: one lost heartbeat leaves a 40-frame silence, past the 30-frame
        proxy-silence threshold, whatever the schedule.  A schedule that
        let a player's second heartbeat wait until frame ``20 + id % 20``
        failed ids 11-19 over near frame 32 in this run."""
        from repro.replay import TapeScenario

        scenario = TapeScenario(players=24, frames=120, seed=7, loss_rate=0.0)
        game_map = scenario.make_map()
        session = scenario.make_session(
            scenario.make_trace(game_map), None, game_map
        )
        report = session.run()
        assert session.config.profile == "hardened"
        assert [n.first_hops.failover_events for n in session.nodes.values()] == [
            [] for _ in session.nodes
        ]
        assert report.proxy_failovers == 0

    def test_honest_high_rating_fraction_tiny(self, honest_session_report):
        _, report = honest_session_report
        high = [r for r in report.ratings if r.rating >= 6.0]
        assert len(high) / max(1, len(report.ratings)) < 0.05

    def test_bandwidth_positive_and_bounded(self, honest_session_report):
        _, report = honest_session_report
        assert 0 < report.mean_upload_kbps < 2000
        assert report.mean_upload_kbps <= report.max_upload_kbps

    def test_observed_loss_near_configured(self, honest_session_report):
        session, report = honest_session_report
        assert report.messages_lost / report.messages_sent == pytest.approx(
            0.01, abs=0.01
        )


class TestWhereVerdictsLive:
    """A verdict is kept as a row of its verifier's ``RatingLog``, not as an
    object: the report reads the node logs in place (docs/OBSERVABILITY.md)."""

    def test_the_report_reads_the_node_logs_in_node_order(self, honest_session_report):
        session, report = honest_session_report
        filed = [r for node in session.nodes.values() for r in node.metrics.ratings]
        assert len(report.ratings) == len(filed) > 0
        assert list(report.ratings) == filed
        assert filed[0] in report.ratings
        assert all(
            r.verifier_id == player
            for player, node in session.nodes.items()
            for r in node.metrics.ratings
        )

    def test_no_verdict_object_outlives_the_run(self, small_trace, longest_yard):
        """Every verdict is filed, none is retained as a tuple — at the parent
        of PR 24 the same count was one ``CheatRating`` per verdict."""

        def verdict_objects():
            gc.collect()
            return sum(type(o) is CheatRating for o in gc.get_objects())

        held_elsewhere = verdict_objects()  # other tests' fixtures, if any
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            session = WatchmenSession(small_trace, game_map=longest_yard)
            report = session.run()
        assert session.config.profile == "paper"
        emitted = registry.snapshot()["counters"]["node.ratings_emitted"]
        assert len(report.ratings) == emitted > 5000
        assert verdict_objects() - held_elsewhere == 0

    def test_a_verdict_costs_at_most_64_bytes(self, honest_session_report):
        session, _ = honest_session_report
        for node in session.nodes.values():
            log = node.metrics.ratings
            table = (log._kinds, log._checks, log._details, log._interned)
            held = sum(map(sys.getsizeof, (*log._columns, *table)))
            assert held / len(log) <= 64
            assert len(log._interned) <= 256


class TestSessionConstruction:
    def test_too_few_players_rejected(self, small_trace, longest_yard):
        from repro.game.trace import GameTrace

        tiny = GameTrace(map_name="x", num_players=1)
        tiny.frames = [{0: small_trace.snapshot(0, 0)}]
        with pytest.raises(ValueError):
            WatchmenSession(tiny, game_map=longest_yard)

    def test_max_frames_limits_run(self, small_trace, longest_yard):
        session = WatchmenSession(small_trace, game_map=longest_yard)
        report = session.run(max_frames=40)
        assert report.num_frames == 40

    def test_deterministic_given_seeds(self, small_trace, longest_yard):
        a = WatchmenSession(
            small_trace, game_map=longest_yard, latency=uniform_lan(8)
        ).run()
        b = WatchmenSession(
            small_trace, game_map=longest_yard, latency=uniform_lan(8)
        ).run()
        assert a.age_histogram == b.age_histogram
        assert a.messages_sent == b.messages_sent


class TestLanLatency:
    def test_lan_updates_arrive_same_frame(self, small_trace, longest_yard):
        """On a LAN two hops cost ~1 ms: nearly every update is age 0-1."""
        session = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=uniform_lan(8, one_way_ms=0.5),
            network_config=NetworkConfig(loss_rate=0.0, jitter_ms=0.1),
        )
        report = session.run(max_frames=80)
        pdf = report.age_pdf()
        assert pdf.get(0, 0.0) + pdf.get(1, 0.0) > 0.95


class TestReputationIntegration:
    def test_reputation_board_receives_ratings(self, small_trace, longest_yard):
        from repro.core import ReputationBoard

        board = ReputationBoard()
        session = WatchmenSession(
            small_trace, game_map=longest_yard, reputation=board
        )
        session.run(max_frames=60)
        assert board.ratings_seen > 0
