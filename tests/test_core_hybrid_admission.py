"""Tests for the hybrid server architecture and the admission system."""

import pytest

from repro.core import (
    WatchmenConfig,
    WatchmenSession,
    estimate_proxy_kbps,
    estimate_publisher_kbps,
    feasibility_test,
)
from repro.core.admission import MAX_POOL_WEIGHT
from repro.core.proxy import ProxySchedule
from repro.net.latency import uniform_lan


class TestHybridSession:
    @pytest.fixture(scope="class")
    def hybrid(self, small_trace, longest_yard):
        session = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=uniform_lan(9),  # 8 players + 1 server
            servers=1,
        )
        report = session.run()
        return session, report

    def test_server_id_beyond_players(self, hybrid):
        session, _ = hybrid
        assert session.server_ids == [8]

    def test_server_proxies_everyone(self, hybrid):
        session, _ = hybrid
        for player in session.trace.player_ids():
            for epoch in range(4):
                assert session.schedule.proxy_of(player, epoch) == 8

    def test_server_never_publishes_avatar(self, hybrid):
        session, _ = hybrid
        server_node = session.nodes[8]
        assert server_node.is_server
        # No node ever received a state update authored by the server.
        for player_id, node in session.nodes.items():
            for kind, _ in node.metrics.update_ages:
                pass  # ages don't identify senders; check known instead
            if player_id != 8:
                assert node.known.get(8) is None or player_id == 8

    def test_updates_still_flow(self, hybrid):
        _, report = hybrid
        assert sum(report.age_histogram.values()) > 0
        assert report.stale_fraction() < 0.05

    def test_server_carries_the_forwarding_load(self, hybrid):
        session, report = hybrid
        server_upload = report.server_upload_kbps[8]
        assert server_upload > report.max_upload_kbps

    def test_players_upload_less_than_pure_p2p(
        self, hybrid, honest_session_report
    ):
        _, hybrid_report = hybrid
        _, p2p_report = honest_session_report
        assert hybrid_report.mean_upload_kbps < p2p_report.mean_upload_kbps

    def test_no_proxy_exposure_to_players(self, hybrid):
        """With a trusted server as sole proxy, no *player* ever holds
        proxy-grade (complete) information about another player."""
        session, _ = hybrid
        for player in session.trace.player_ids():
            for epoch in range(4):
                assert (
                    session.schedule.proxy_of(player, epoch)
                    not in session.trace.player_ids()
                )

    def test_server_is_not_banned_or_removed(self, hybrid):
        session, report = hybrid
        assert 8 not in report.banned
        for player_id, node in session.nodes.items():
            assert 8 not in node.membership.removed

    def test_weighted_mode_mixes_servers_and_players(
        self, small_trace, longest_yard
    ):
        session = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=uniform_lan(9),
            servers=1,
            server_only_proxies=False,
            server_weight=8,
        )
        proxies = {
            session.schedule.proxy_of(p, e)
            for p in small_trace.player_ids()
            for e in range(10)
        }
        assert 8 in proxies  # the server serves often (weight 8)
        assert proxies - {8}  # but players still serve too

    def test_latency_matrix_must_cover_servers(self, small_trace, longest_yard):
        with pytest.raises(ValueError):
            WatchmenSession(
                small_trace,
                game_map=longest_yard,
                latency=uniform_lan(8),  # no room for the server endpoint
                servers=1,
            )

    def test_negative_servers_rejected(self, small_trace, longest_yard):
        with pytest.raises(ValueError):
            WatchmenSession(small_trace, game_map=longest_yard, servers=-1)


class TestScheduleInfrastructure:
    def test_infrastructure_in_pool(self):
        schedule = ProxySchedule(
            list(range(6)), proxy_pool=[100], infrastructure=[100]
        )
        for player in range(6):
            assert schedule.proxy_of(player, 0) == 100

    def test_infrastructure_id_collision_rejected(self):
        with pytest.raises(ValueError):
            ProxySchedule(list(range(6)), infrastructure=[3])

    def test_unknown_pool_id_still_rejected(self):
        with pytest.raises(ValueError):
            ProxySchedule(list(range(6)), proxy_pool=[100])

    def test_without_players_keeps_infrastructure(self):
        schedule = ProxySchedule(
            list(range(6)), proxy_pool=[100], infrastructure=[100]
        )
        slim = schedule.without_players({3})
        assert slim.proxy_of(0, 0) == 100


class TestAdmission:
    def test_load_estimates_positive(self):
        config = WatchmenConfig()
        assert estimate_publisher_kbps(config) > 0
        assert estimate_proxy_kbps(config, 16) > estimate_publisher_kbps(config)

    def test_proxy_load_grows_with_players(self):
        config = WatchmenConfig()
        assert estimate_proxy_kbps(config, 48) > estimate_proxy_kbps(config, 8)

    def test_empty_capacities_rejected(self):
        with pytest.raises(ValueError):
            feasibility_test({})

    def test_starved_player_rejected(self):
        decision = feasibility_test({0: 1.0, 1: 5000.0, 2: 5000.0})
        assert 0 in decision.rejected
        assert 0 not in decision.admitted

    def test_low_capacity_player_admitted_but_not_pooled(self):
        config = WatchmenConfig()
        publisher = estimate_publisher_kbps(config)
        capacity = publisher * 1.5  # can publish, cannot forward
        decision = feasibility_test({0: capacity, 1: 5000.0, 2: 5000.0})
        assert 0 in decision.admitted
        assert 0 not in decision.proxy_pool

    def test_powerful_players_weighted_higher(self):
        decision = feasibility_test({0: 10_000.0, 1: 600.0, 2: 600.0})
        assert decision.pool_weights[0] >= decision.pool_weights[1]

    def test_weight_capped(self):
        decision = feasibility_test({0: 10**9, 1: 10**9})
        assert set(decision.pool_weights.values()) == {MAX_POOL_WEIGHT}

    def test_decision_feeds_session(self, small_trace, longest_yard):
        capacities = {p: 5000.0 for p in small_trace.player_ids()}
        capacities[0] = 50.0  # can publish, never forwards
        decision = feasibility_test(capacities)
        session = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=uniform_lan(8),
            proxy_pool=decision.proxy_pool,
            pool_weights=decision.pool_weights,
        )
        for epoch in range(6):
            for player in small_trace.player_ids():
                assert session.schedule.proxy_of(player, epoch) != 0
        report = session.run(max_frames=60)
        assert report.stale_fraction() < 0.05
