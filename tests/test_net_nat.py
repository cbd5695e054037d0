"""Unit tests for the parked NAT traversal model (``tests/retired/nat.py``)."""

import pytest

from tests.retired.nat import NatProfile, NatType, Reachability, sample_profiles


def profiles(*types):
    return [NatProfile(i, t) for i, t in enumerate(types)]


class TestProfiles:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            NatProfile(0, "carrier-grade")

    def test_openly_reachable(self):
        assert NatProfile(0, NatType.PUBLIC).openly_reachable
        assert NatProfile(0, NatType.UPNP).openly_reachable
        assert not NatProfile(0, NatType.CONE).openly_reachable
        assert not NatProfile(0, NatType.SYMMETRIC).openly_reachable

    def test_sample_profiles_deterministic(self):
        a = sample_profiles(20, seed=3)
        b = sample_profiles(20, seed=3)
        assert [p.nat_type for p in a] == [p.nat_type for p in b]

    def test_sample_profiles_custom_weights(self):
        only_public = sample_profiles(10, weights={NatType.PUBLIC: 1.0})
        assert all(p.nat_type == NatType.PUBLIC for p in only_public)


class TestReachability:
    def test_self_reachable(self):
        reach = Reachability(profiles(NatType.SYMMETRIC))
        assert reach.can_reach(0, 0)

    def test_public_reaches_everyone(self):
        reach = Reachability(profiles(NatType.PUBLIC, NatType.SYMMETRIC))
        assert reach.can_reach(0, 1)
        assert reach.can_reach(1, 0)

    def test_upnp_counts_as_open(self):
        reach = Reachability(profiles(NatType.UPNP, NatType.SYMMETRIC))
        assert reach.can_reach(0, 1)

    def test_double_symmetric_never_punches(self):
        reach = Reachability(
            profiles(NatType.SYMMETRIC, NatType.SYMMETRIC), seed=1
        )
        assert not reach.can_reach(0, 1)
        assert reach.punch_failures == 1

    def test_cone_pair_usually_punches(self):
        success = 0
        for seed in range(50):
            reach = Reachability(
                profiles(NatType.CONE, NatType.CONE), seed=seed
            )
            if reach.can_reach(0, 1):
                success += 1
        assert success >= 40  # 95 % nominal

    def test_punch_outcome_cached(self):
        reach = Reachability(profiles(NatType.CONE, NatType.CONE), seed=2)
        first = reach.can_reach(0, 1)
        assert reach.can_reach(0, 1) == first
        assert reach.punch_attempts == 1

    def test_unknown_node_unreachable(self):
        reach = Reachability(profiles(NatType.PUBLIC))
        assert not reach.can_reach(0, 42)

    def test_connectivity_ratio_all_public(self):
        reach = Reachability(profiles(*[NatType.PUBLIC] * 5))
        assert reach.connectivity_ratio() == 1.0

    def test_connectivity_ratio_mixed(self):
        reach = Reachability(
            profiles(*([NatType.SYMMETRIC] * 4)), seed=3
        )
        assert reach.connectivity_ratio() == 0.0

    def test_connectivity_ratio_single_node(self):
        reach = Reachability(profiles(NatType.CONE))
        assert reach.connectivity_ratio() == 1.0

    def test_realistic_population_mostly_connected(self):
        reach = Reachability(sample_profiles(30, seed=9), seed=9)
        assert reach.connectivity_ratio() > 0.9
