"""Unit tests for the synthetic latency models."""

import pytest

from statistics import fmean

from repro.net.latency import king_like, peerwise_like, uniform_lan


def mean_one_way(matrix):
    """Mean off-diagonal one-way delay: what the generators calibrate."""
    return fmean(
        matrix.one_way(i, j)
        for i in range(matrix.size) for j in range(matrix.size) if i != j
    )


class TestKingLike:
    def test_mean_calibrated(self):
        matrix = king_like(40, seed=1)
        assert mean_one_way(matrix) == pytest.approx(0.031, rel=0.02)

    def test_symmetric(self):
        matrix = king_like(20, seed=2)
        for i in range(20):
            for j in range(20):
                assert matrix.one_way(i, j) == matrix.one_way(j, i)

    def test_zero_self_delay(self):
        matrix = king_like(10, seed=3)
        for i in range(10):
            assert matrix.one_way(i, i) == 0.0

    def test_deterministic_per_seed(self):
        a = king_like(10, seed=4)
        b = king_like(10, seed=4)
        assert a.delays == b.delays

    def test_different_seeds_differ(self):
        assert king_like(10, seed=1).delays != king_like(10, seed=2).delays

    def test_positive_delays(self):
        matrix = king_like(15, seed=6)
        for i in range(15):
            for j in range(15):
                if i != j:
                    assert matrix.one_way(i, j) > 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            king_like(0)

    def test_custom_mean(self, monkeypatch):
        monkeypatch.setattr("repro.net.latency.KING_MEAN_ONE_WAY_MS", 50.0)
        matrix = king_like(30, seed=7)
        assert mean_one_way(matrix) == pytest.approx(0.050, rel=0.02)


class TestPeerwiseLike:
    def test_mean_calibrated(self):
        matrix = peerwise_like(40, seed=1)
        assert mean_one_way(matrix) == pytest.approx(0.034, rel=0.02)

    def test_has_spread(self):
        matrix = peerwise_like(30, seed=2)
        values = [
            matrix.one_way(i, j) for i in range(30) for j in range(i + 1, 30)
        ]
        assert max(values) > 2 * min(values)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            peerwise_like(0)


class TestUniformLan:
    def test_flat_delay(self):
        matrix = uniform_lan(8, one_way_ms=0.5)
        for i in range(8):
            for j in range(8):
                if i != j:
                    assert matrix.one_way(i, j) == pytest.approx(0.0005)

    def test_size(self):
        assert uniform_lan(5).size == 5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            uniform_lan(0)
