"""Unit tests for the random/verifiable/dynamic proxy schedule."""

import pytest

from repro.core.proxy import ProxySchedule


@pytest.fixture()
def schedule():
    return ProxySchedule(list(range(16)), proxy_period_frames=40)


class TestConstruction:
    def test_needs_two_players(self):
        with pytest.raises(ValueError):
            ProxySchedule([1])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ProxySchedule([1, 1, 2])

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            ProxySchedule([1, 2], proxy_period_frames=0)

    def test_pool_must_be_subset(self):
        with pytest.raises(ValueError):
            ProxySchedule([1, 2, 3], proxy_pool=[1, 99])


class TestRandomProperty:
    """Proxies are random: uniform-ish over the eligible pool."""

    def test_never_own_proxy(self, schedule):
        for epoch in range(50):
            for player in range(16):
                assert schedule.proxy_of(player, epoch) != player

    def test_assignments_change_over_epochs(self, schedule):
        proxies = {schedule.proxy_of(3, epoch) for epoch in range(30)}
        assert len(proxies) > 5  # dynamic: rotates through many nodes

    def test_roughly_uniform(self):
        schedule = ProxySchedule(list(range(8)))
        counts = {p: 0 for p in range(8)}
        epochs = 2000
        for epoch in range(epochs):
            counts[schedule.proxy_of(0, epoch)] += 1
        assert counts[0] == 0
        expected = epochs / 7
        for player in range(1, 8):
            assert abs(counts[player] - expected) < expected * 0.25


class TestVerifiableProperty:
    """All players compute the same schedule with zero communication."""

    def test_independent_instances_agree(self):
        a = ProxySchedule(list(range(10)), common_seed=b"game-1")
        b = ProxySchedule(list(range(10)), common_seed=b"game-1")
        for epoch in range(20):
            for player in range(10):
                assert a.proxy_of(player, epoch) == b.proxy_of(player, epoch)

    def test_different_seed_different_schedule(self):
        a = ProxySchedule(list(range(10)), common_seed=b"game-1")
        b = ProxySchedule(list(range(10)), common_seed=b"game-2")
        assignments_a = [a.proxy_of(p, 0) for p in range(10)]
        assignments_b = [b.proxy_of(p, 0) for p in range(10)]
        assert assignments_a != assignments_b

    def test_verify_proxy_accepts_truth(self, schedule):
        proxy = schedule.proxy_of(5, 3)
        assert schedule.verify_proxy(5, 3, proxy)

    def test_verify_proxy_rejects_lie(self, schedule):
        proxy = schedule.proxy_of(5, 3)
        wrong = (proxy + 1) % 16
        if wrong == 5:
            wrong = (wrong + 1) % 16
        assert not schedule.verify_proxy(5, 3, wrong)

    def test_verify_unknown_player_rejected(self, schedule):
        assert not schedule.verify_proxy(99, 0, 1)


class TestQueries:
    def test_epoch_of_frame(self, schedule):
        assert schedule.epoch_of_frame(0) == 0
        assert schedule.epoch_of_frame(79) == 1

    def test_unknown_player_raises(self, schedule):
        with pytest.raises(KeyError):
            schedule.proxy_of(99, 0)

    def test_negative_epoch_rejected(self, schedule):
        with pytest.raises(ValueError):
            schedule.proxy_of(0, -1)

    def test_clients_of_inverse_of_proxy_of(self, schedule):
        for epoch in (0, 1, 5):
            for proxy in range(16):
                for client in schedule.clients_of(proxy, epoch):
                    assert schedule.proxy_of(client, epoch) == proxy

    def test_every_player_has_exactly_one_proxy(self, schedule):
        served = [c for proxy in range(16) for c in schedule.clients_of(proxy, 2)]
        assert sorted(served) == list(range(16))


class TestHeterogeneity:
    def test_pool_exclusion(self):
        """Low-resource nodes are removed from the proxy pool."""
        schedule = ProxySchedule(
            list(range(8)), proxy_pool=[0, 1, 2, 3]
        )
        for epoch in range(30):
            for player in range(8):
                assert schedule.proxy_of(player, epoch) in {0, 1, 2, 3}

    def test_weighted_nodes_serve_more(self):
        schedule = ProxySchedule(
            list(range(6)),
            pool_weights={0: 5},
        )
        counts = {p: 0 for p in range(6)}
        for epoch in range(600):
            counts[schedule.proxy_of(1, epoch)] += 1
        others_mean = sum(counts[p] for p in range(2, 6)) / 4
        assert counts[0] > 2 * others_mean

    def test_failover_ring_walks_distinct_nodes_from_the_proxy(self):
        """One ring per (player, epoch): attempt 0 is the proxy, each later
        attempt a node not yet tried, wrapping after the last — weighted
        duplicates in the pool never repeat a candidate."""
        schedule = ProxySchedule(list(range(6)), pool_weights={0: 5})
        for epoch in range(40):
            ring = [schedule.candidate_of(1, epoch, k) for k in range(5)]
            assert ring[0] == schedule.proxy_of(1, epoch)
            assert sorted(ring) == [0, 2, 3, 4, 5]
            assert schedule.candidate_of(1, epoch, 5) == ring[0]
        with pytest.raises(ValueError):
            schedule.candidate_of(1, 0, -1)


class TestChurn:
    def test_without_players_removes_them(self, schedule):
        slim = schedule.without_players({3, 7})
        assert 3 not in slim.roster
        for epoch in range(10):
            for player in slim.roster:
                assert slim.proxy_of(player, epoch) not in {3, 7}

    def test_without_players_keeps_seed(self, schedule):
        slim = schedule.without_players({3})
        assert slim.common_seed == schedule.common_seed

    def test_without_players_keeps_pool_weights(self):
        """A weighted hybrid pool stays weighted after an eviction."""
        server = 8
        schedule = ProxySchedule(
            list(range(8)),
            proxy_pool=list(range(8)) + [server],
            pool_weights={server: 4},
            infrastructure=[server],
        )
        slim = schedule.without_players({3})
        assert slim.pool.count(server) == schedule.pool.count(server) == 4
        assert 3 not in slim.pool


class TestCollusionStatistics:
    def test_honest_proxy_probability_matches_paper(self):
        """"colludes with 3 other cheaters (out of 48 players) ... honest
        proxy in 94 % of the cases (1 − 3/47)"."""
        schedule = ProxySchedule(list(range(48)))
        assert schedule.honest_proxy_probability(4) == pytest.approx(1 - 3 / 47)

    def test_single_cheater_always_honest_proxy(self, schedule):
        assert schedule.honest_proxy_probability(1) == 1.0

    def test_out_of_range_rejected(self, schedule):
        with pytest.raises(ValueError):
            schedule.honest_proxy_probability(17)

    def test_empirical_matches_analytic(self):
        schedule = ProxySchedule(list(range(12)))
        colluders = {0, 1, 2}
        honest = 0
        epochs = 1000
        for epoch in range(epochs):
            if schedule.proxy_of(0, epoch) not in colluders:
                honest += 1
        analytic = schedule.honest_proxy_probability(3)
        assert honest / epochs == pytest.approx(analytic, abs=0.04)
