"""Integration tests for WatchmenSession (full protocol over the WAN sim)."""

import gc
import sys

import pytest

from repro.core import WatchmenConfig, WatchmenSession
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
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="proxy rates frame-3/4 subscriptions against the subscriber's "
        "frame-1 pose; see the docstring and ROADMAP item 1(a)",
    )
    def test_no_honest_player_banned_at_96_players_seed_606(self):
        """A clean run (no cheaters, no faults) that bans honest player 36.

        ``python -m perfbench.child --workload crowd96 --seed 606`` fails its
        check with ``honest players banned: [36]``.  Traced cause: at frame 3
        proxy 1's ``_ClientState.history`` for client 36 holds frames [0, 1]
        only, so ``_verify_subscription``'s ``snapshot_near(request.frame +
        1)`` (window 4) judges the ~40 VS/IS requests 36 planned at frames
        3-4 against his frame-1 pose — and he is mid-turn (yaw 1.14 -> 1.74
        in one frame).  Each rates 10.0 ("target 2017u outside cone") at
        ``Confidence.PROXY`` with no staleness discount, ``_escalate``
        compounds it, and ``ThresholdReputation`` bans him inside 20 frames.

        Pinned, not fixed: a fix changes ratings, hence ``suspicion_flags``
        in handoff summaries, hence tape bytes.  When it lands this test
        passes and ``strict`` turns the stale marker into a failure.
        """
        from repro.replay import TapeScenario

        scenario = TapeScenario(
            players=96, frames=20, seed=606,
            failover=False, reliable=False, hardening=False,
        )
        game_map = scenario.make_map()
        report = scenario.make_session(
            scenario.make_trace(game_map), None, game_map
        ).run()
        assert report.banned == set()

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


class TestRelaxedFirstHop:
    def test_relaxed_mode_reduces_age(self, small_trace, longest_yard):
        """Section VI optimization 3: direct sending cuts one hop."""
        from repro.net.latency import king_like

        strict = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=king_like(8, seed=1),
            config=WatchmenConfig(relax_first_hop=False),
        ).run(max_frames=100)
        relaxed = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=king_like(8, seed=1),
            config=WatchmenConfig(relax_first_hop=True),
        ).run(max_frames=100)

        def mean_age(report):
            total = sum(report.age_histogram.values())
            return (
                sum(age * count for age, count in report.age_histogram.items())
                / total
            )

        assert mean_age(relaxed) < mean_age(strict)


class TestReputationIntegration:
    def test_reputation_board_receives_ratings(self, small_trace, longest_yard):
        from repro.core import ReputationBoard

        board = ReputationBoard()
        session = WatchmenSession(
            small_trace, game_map=longest_yard, reputation=board
        )
        session.run(max_frames=60)
        assert board.tags_seen > 0
