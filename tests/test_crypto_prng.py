"""Unit tests for the verifiable PRNG."""

import pytest

from repro.crypto.prng import VerifiablePrng, draw_uint


class TestDrawUint:
    def test_deterministic(self):
        assert draw_uint(b"seed", 1, 2) == draw_uint(b"seed", 1, 2)

    def test_varies_with_seed(self):
        assert draw_uint(b"seed-a", 1, 2) != draw_uint(b"seed-b", 1, 2)

    def test_varies_with_player(self):
        assert draw_uint(b"seed", 1, 2) != draw_uint(b"seed", 2, 2)

    def test_varies_with_counter(self):
        assert draw_uint(b"seed", 1, 2) != draw_uint(b"seed", 1, 3)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            draw_uint(b"seed", -1, 0)
        with pytest.raises(ValueError):
            draw_uint(b"seed", 0, -1)

    def test_64_bit_range(self):
        for counter in range(20):
            value = draw_uint(b"seed", 0, counter)
            assert 0 <= value < 1 << 64


class TestVerifiablePrng:
    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            VerifiablePrng(b"", 0)

    def test_two_observers_agree(self):
        """The verifiability property: anyone recomputes anyone's draws."""
        alice_view = VerifiablePrng(b"game-7", player_id=3)
        bob_view = VerifiablePrng(b"game-7", player_id=3)
        assert [alice_view.below_at(i, 1 << 20) for i in range(10)] == [
            bob_view.below_at(i, 1 << 20) for i in range(10)
        ]

    def test_below_at_deterministic(self):
        a = VerifiablePrng(b"seed", 1)
        b = VerifiablePrng(b"seed", 1)
        assert [a.below_at(i, 13) for i in range(20)] == [
            b.below_at(i, 13) for i in range(20)
        ]

    def test_below_at_bad_bound(self):
        with pytest.raises(ValueError):
            VerifiablePrng(b"seed", 1).below_at(0, 0)

    def test_below_at_roughly_uniform(self):
        prng = VerifiablePrng(b"seed", 1)
        counts = [0] * 5
        samples = 2000
        for i in range(samples):
            counts[prng.below_at(i * 3, 5)] += 1
        for count in counts:
            assert abs(count - samples / 5) < samples * 0.08
