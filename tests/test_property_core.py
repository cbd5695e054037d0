"""Property-based tests (hypothesis) for core invariants: PRNG, proxy
schedule, signatures, disclosure algebra, event queue."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.disclosure import (
    ExposureCategory,
    InfoLevel,
    coalition_category,
)
from repro.core.proxy import ProxySchedule
from repro.crypto.prng import VerifiablePrng, draw_uint
from repro.crypto.signatures import HmacSigner
from repro.net.events import EventQueue

info_levels = st.sampled_from(InfoLevel.ALL)
seeds = st.binary(min_size=1, max_size=16)


class TestPrngProperties:
    @given(seeds, st.integers(0, 1000), st.integers(0, 1000))
    def test_draws_are_pure_functions(self, seed, player, counter):
        assert draw_uint(seed, player, counter) == draw_uint(
            seed, player, counter
        )

    @given(seeds, st.integers(0, 100), st.integers(2, 97))
    def test_bounded_draws_in_range(self, seed, counter, bound):
        prng = VerifiablePrng(seed, 0)
        value = prng.below_at(counter, bound)
        assert 0 <= value < bound

    @given(seeds, seeds)
    def test_distinct_seeds_usually_differ(self, seed_a, seed_b):
        if seed_a == seed_b:
            return
        draws_a = [draw_uint(seed_a, 0, i) for i in range(4)]
        draws_b = [draw_uint(seed_b, 0, i) for i in range(4)]
        assert draws_a != draws_b


class TestProxyScheduleProperties:
    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=50),
        seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_for_any_roster(self, size, epoch, seed):
        roster = list(range(size))
        schedule = ProxySchedule(roster, common_seed=seed)
        seen = {}
        for player in roster:
            proxy = schedule.proxy_of(player, epoch)
            # 1. Never your own proxy.
            assert proxy != player
            # 2. Proxy is a roster member.
            assert proxy in roster
            seen[player] = proxy
        # 3. Verifiability: a second instance agrees completely.
        other = ProxySchedule(roster, common_seed=seed)
        for player, proxy in seen.items():
            assert other.proxy_of(player, epoch) == proxy

    @given(st.integers(min_value=3, max_value=20), st.integers(0, 20))
    @settings(max_examples=30, deadline=None)
    def test_clients_partition(self, size, epoch):
        schedule = ProxySchedule(list(range(size)))
        all_clients = []
        for proxy in range(size):
            all_clients.extend(schedule.clients_of(proxy, epoch))
        assert sorted(all_clients) == list(range(size))


class TestSignatureProperties:
    @given(st.binary(min_size=0, max_size=200), st.integers(0, 50))
    @settings(max_examples=50)
    def test_roundtrip_any_message(self, message, player):
        signer = HmacSigner()
        signature = signer.sign(player, message)
        assert signer.verify(player, message, signature)

    @given(
        st.binary(min_size=1, max_size=100),
        st.binary(min_size=1, max_size=100),
        st.integers(0, 50),
    )
    @settings(max_examples=50)
    def test_different_messages_never_cross_verify(self, m1, m2, player):
        if m1 == m2:
            return
        signer = HmacSigner()
        assert not signer.verify(player, m2, signer.sign(player, m1))

    @given(st.binary(min_size=1, max_size=100),
           st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=50)
    def test_signers_never_cross_verify(self, message, a, b):
        if a == b:
            return
        signer = HmacSigner()
        assert not signer.verify(b, message, signer.sign(a, message))


class TestDisclosureProperties:
    @given(st.lists(info_levels, min_size=1, max_size=10))
    def test_category_always_valid(self, levels):
        assert coalition_category(levels) in ExposureCategory.ORDER

    @given(st.lists(info_levels, min_size=1, max_size=8), info_levels)
    def test_monotone_in_information(self, levels, extra):
        """Adding a member never makes the coalition know less."""
        rank = {c: i for i, c in enumerate(ExposureCategory.ORDER)}
        before = coalition_category(levels)
        after = coalition_category(levels + [extra])
        assert rank[after] <= rank[before]

    @given(st.lists(info_levels, min_size=1, max_size=8))
    def test_order_independent(self, levels):
        assert coalition_category(levels) == coalition_category(
            list(reversed(levels))
        )

    @given(info_levels)
    def test_singleton_maps_sensibly(self, level):
        category = coalition_category([level])
        expected = {
            InfoLevel.COMPLETE: ExposureCategory.COMPLETE,
            InfoLevel.FREQUENT: ExposureCategory.FREQ,
            InfoLevel.DEAD_RECKONING: ExposureCategory.DR,
            InfoLevel.INFREQUENT: ExposureCategory.INFREQ,
            InfoLevel.NOTHING: ExposureCategory.NOTHING,
        }
        assert category == expected[level]


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), min_size=0, max_size=50))
    @settings(max_examples=50)
    def test_events_fire_in_nondecreasing_time(self, delays):
        queue = EventQueue()
        fired = []
        for delay in delays:
            queue.schedule(delay, lambda: fired.append(queue.now))
        queue.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
