"""Tests for coalitions and the unauthorized-access probes."""

import pytest

from repro.baselines import DonnybrookModel, WatchmenModel
from repro.cheats import (
    Coalition,
    MaphackProbe,
    SniffingProbe,
    sample_coalitions,
)
from repro.core.disclosure import ExposureCategory
from repro.core.proxy import ProxySchedule


class TestCoalition:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Coalition(set())

    def test_subject_must_be_honest(self, longest_yard, small_trace):
        schedule = ProxySchedule(small_trace.player_ids())
        model = WatchmenModel(longest_yard, schedule)
        model.prepare_frame(0, small_trace.frames[0])
        coalition = Coalition({0, 1})
        with pytest.raises(ValueError):
            coalition.joint_category(model, 1)

    def test_larger_coalition_knows_no_less(self, longest_yard, small_trace):
        """Monotonicity: adding a colluder never lowers exposure rank."""
        schedule = ProxySchedule(small_trace.player_ids())
        model = WatchmenModel(longest_yard, schedule)
        model.prepare_frame(60, small_trace.frames[60])
        small = Coalition({0, 1})
        large = Coalition({0, 1, 2, 3})
        rank = {c: i for i, c in enumerate(ExposureCategory.ORDER)}
        for subject in small_trace.player_ids():
            if subject in large.members:
                continue
            assert rank[large.joint_category(model, subject)] <= rank[
                small.joint_category(model, subject)
            ]

    def test_frame_histogram_counts_honest_players(
        self, longest_yard, small_trace
    ):
        schedule = ProxySchedule(small_trace.player_ids())
        model = WatchmenModel(longest_yard, schedule)
        model.prepare_frame(0, small_trace.frames[0])
        coalition = Coalition({0, 1})
        histogram = coalition.frame_histogram(model, small_trace.player_ids())
        assert sum(histogram.counts.values()) == 6  # 8 players − 2 cheaters


class TestSampling:
    def test_sample_size_validated(self):
        with pytest.raises(ValueError):
            sample_coalitions([1, 2, 3], size=4, count=1)

    def test_sampled_members_are_players(self):
        players = list(range(10))
        for coalition in sample_coalitions(players, 3, 20, seed=1):
            assert coalition.members <= set(players)
            assert len(coalition) == 3

    def test_deterministic(self):
        a = sample_coalitions(list(range(10)), 3, 5, seed=2)
        b = sample_coalitions(list(range(10)), 3, 5, seed=2)
        assert [c.members for c in a] == [c.members for c in b]


class TestProbes:
    def test_sniffing_lower_under_watchmen_than_donnybrook(
        self, longest_yard, small_trace
    ):
        frame = 60
        snapshots = small_trace.frames[frame]
        players = small_trace.player_ids()
        schedule = ProxySchedule(players)
        watchmen = WatchmenModel(longest_yard, schedule)
        donny = DonnybrookModel()
        watchmen.prepare_frame(frame, snapshots)
        donny.prepare_frame(frame, snapshots)
        probe = SniffingProbe()
        w = probe.measure(watchmen, 0, players)
        d = probe.measure(donny, 0, players)
        assert d.fraction == 1.0  # Donnybrook: DR about everyone
        assert w.fraction < d.fraction

    def test_maphack_mostly_defeated_by_watchmen(
        self, longest_yard, small_trace
    ):
        frame = 60
        snapshots = small_trace.frames[frame]
        players = small_trace.player_ids()
        schedule = ProxySchedule(players)
        model = WatchmenModel(longest_yard, schedule)
        model.prepare_frame(frame, snapshots)
        sets = model.sets_of(0)
        visible = frozenset(sets.interest | sets.vision)
        result = MaphackProbe().measure(model, 0, players, visible)
        # Only the (rare) proxy relationship leaks an invisible player.
        assert result.fraction <= 2 / max(1, result.total)


class TestRateAnalysis:
    """Table I's rate-analysis row on the live path: a subscription is
    registered at the target's proxy, so the only node that hears of one
    and is its target is the subscriber's own proxy (about 1 in n - 1)."""

    @pytest.mark.parametrize("hardened", [False, True], ids=["paper", "hardened"])
    def test_a_target_hears_of_a_subscription_only_as_the_subscribers_proxy(
        self, monkeypatch, hardened
    ):
        from repro.core.node import WatchmenNode
        from repro.replay import TapeScenario

        heard = []
        handler = WatchmenNode._on_subscription

        def spy(node, src, request, first_hop):
            if request.target_id == node.player_id:
                serves = node.first_hops.serves(request.sender_id, node.current_epoch)
                heard.append((src == request.sender_id, first_hop, serves))
            handler(node, src, request, first_hop)

        monkeypatch.setattr(WatchmenNode, "_on_subscription", spy)
        scenario = TapeScenario(
            players=24, frames=200, seed=7,
            failover=hardened, reliable=hardened, hardening=hardened,
        )
        game_map = scenario.make_map()
        scenario.make_session(scenario.make_trace(game_map), None, game_map).run()
        assert heard, "no subscription reached its target: the check saw nothing"
        assert set(heard) == {(True, True, True)}
