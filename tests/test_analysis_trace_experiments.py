"""Tests for the trace-driven experiment harnesses (Figs. 1, 4, 5, churn)."""

import pytest

from repro.analysis import (
    churn_statistics,
    exposure_experiment,
    honest_proxy_probability,
    hotspot_concentration,
    presence_heatmap,
    render_ascii,
    witness_experiment,
)
from repro.analysis.exposure import result_matrix
from repro.core.disclosure import ExposureCategory


class TestHeatmap:
    def test_shape(self, small_trace, longest_yard):
        heatmap = presence_heatmap(small_trace, longest_yard, grid=16)
        assert len(heatmap.cells) == 16
        assert {len(row) for row in heatmap.cells} == {16}

    def test_values_normalised(self, small_trace, longest_yard):
        heatmap = presence_heatmap(small_trace, longest_yard, grid=16)
        values = [v for row in heatmap.cells for v in row]
        assert max(values) == pytest.approx(1.0)
        assert min(values) >= 0.0

    def test_total_samples_counts_alive_presence(self, small_trace, longest_yard):
        heatmap = presence_heatmap(small_trace, longest_yard, grid=16)
        alive = sum(
            1
            for frame in small_trace.frames
            for snap in frame.values()
            if snap.alive
        )
        assert sum(map(sum, heatmap.raw_counts)) == alive

    def test_player_filter(self, small_trace, longest_yard):
        one = presence_heatmap(small_trace, longest_yard, grid=8, player_ids=[0])
        full = presence_heatmap(small_trace, longest_yard, grid=8)
        assert sum(map(sum, one.raw_counts)) < sum(map(sum, full.raw_counts))

    def test_grid_validation(self, small_trace, longest_yard):
        with pytest.raises(ValueError):
            presence_heatmap(small_trace, longest_yard, grid=1)

    def test_figure1_hotspots(self, small_trace, longest_yard):
        """The paper's claim: presence is strongly concentrated."""
        heatmap = presence_heatmap(small_trace, longest_yard, grid=16)
        concentration = hotspot_concentration(heatmap)
        assert concentration > 0.4  # uniform would give 0.10

    def test_npc_more_concentrated_than_humans(self, longest_yard):
        from repro.game import generate_trace

        humans = generate_trace(8, 120, seed=5, npc_fraction=0.0)
        npcs = generate_trace(8, 120, seed=5, npc_fraction=1.0)
        h_conc = hotspot_concentration(presence_heatmap(humans, longest_yard, grid=16))
        n_conc = hotspot_concentration(presence_heatmap(npcs, longest_yard, grid=16))
        # Both populations concentrate far beyond uniform (10 %): humans on
        # item hotspots, NPCs on their predetermined patrol trails.
        assert h_conc > 0.3
        assert n_conc > 0.3

    def test_ascii_rendering(self, small_trace, longest_yard):
        heatmap = presence_heatmap(small_trace, longest_yard, grid=8)
        art = render_ascii(heatmap)
        assert len(art.splitlines()) == 8


class TestExposure:
    @pytest.fixture(scope="class")
    def results(self, small_trace, longest_yard):
        return exposure_experiment(
            small_trace,
            longest_yard,
            coalition_sizes=[1, 2, 4],
            coalitions_per_size=4,
            frame_stride=40,
        )

    def test_all_cells_present(self, results):
        matrix = result_matrix(results)
        assert set(matrix) == {"client-server", "donnybrook", "watchmen"}
        for per_size in matrix.values():
            assert set(per_size) == {1, 2, 4}

    def test_counts_sum_to_honest_players(self, results):
        for result in results:
            total = sum(result.histogram.counts.values())
            assert total == pytest.approx(8 - result.coalition_size)

    def test_client_server_minimum_information(self, results):
        """CS grants only FREQ (PVS) or NOTHING — no DR, no complete."""
        matrix = result_matrix(results)
        for counts in matrix["client-server"].values():
            assert counts[ExposureCategory.COMPLETE] == 0.0
            assert counts[ExposureCategory.DR] == 0.0
            assert counts[ExposureCategory.INFREQ] == 0.0

    def test_donnybrook_dr_about_everyone(self, results):
        matrix = result_matrix(results)
        for counts in matrix["donnybrook"].values():
            assert counts[ExposureCategory.INFREQ] == 0.0
            assert counts[ExposureCategory.NOTHING] == 0.0

    def test_watchmen_minimum_info_dominates(self, results):
        """Figure 4: Watchmen leaves the coalition mostly infrequent data."""
        matrix = result_matrix(results)
        counts = matrix["watchmen"][1]
        informative = (
            counts[ExposureCategory.COMPLETE]
            + counts[ExposureCategory.FREQ_DR]
            + counts[ExposureCategory.FREQ]
            + counts[ExposureCategory.DR]
        )
        assert counts[ExposureCategory.INFREQ] > informative * 0.5

    def test_watchmen_beats_donnybrook(self, results):
        """The headline: Watchmen discloses far less than Donnybrook."""
        matrix = result_matrix(results)
        for size in (1, 2, 4):
            watchmen_rich = (
                matrix["watchmen"][size][ExposureCategory.FREQ_DR]
                + matrix["watchmen"][size][ExposureCategory.FREQ]
                + matrix["watchmen"][size][ExposureCategory.DR]
                + matrix["watchmen"][size][ExposureCategory.COMPLETE]
            )
            donny_rich = (
                matrix["donnybrook"][size][ExposureCategory.FREQ_DR]
                + matrix["donnybrook"][size][ExposureCategory.FREQ]
                + matrix["donnybrook"][size][ExposureCategory.DR]
            )
            assert watchmen_rich < donny_rich

    def test_exposure_grows_with_coalition(self, results):
        # Coalitions are sampled independently per size, so compare the
        # extremes (nested monotonicity is covered in the collusion tests).
        matrix = result_matrix(results)
        complete = [
            matrix["watchmen"][size][ExposureCategory.COMPLETE]
            for size in (1, 2, 4)
        ]
        assert complete[0] < complete[2]

    def test_empty_sizes_rejected(self, small_trace, longest_yard):
        with pytest.raises(ValueError):
            exposure_experiment(small_trace, longest_yard, coalition_sizes=[])


class TestWitnesses:
    def test_analytic_probability(self):
        assert honest_proxy_probability(48, 4) == pytest.approx(1 - 3 / 47)
        assert honest_proxy_probability(48, 1) == 1.0

    def test_analytic_validation(self):
        with pytest.raises(ValueError):
            honest_proxy_probability(1, 1)
        with pytest.raises(ValueError):
            honest_proxy_probability(10, 11)

    def test_experiment_results(self, small_trace, longest_yard):
        results = witness_experiment(
            small_trace,
            longest_yard,
            coalition_sizes=[1, 4],
            coalitions_per_size=4,
            frame_stride=40,
        )
        assert len(results) == 2
        solo, coalition4 = results
        # Solo cheater: proxy always honest.
        assert solo.avg_honest_proxies == pytest.approx(1.0)
        # With 3 partners out of 8 players: 1 − 3/7 ≈ 0.57 expected.
        assert coalition4.avg_honest_proxies == pytest.approx(
            1 - 3 / 7, abs=0.15
        )
        # Witnesses exist beyond the proxy.
        assert solo.total_witnesses > 1.0

    def test_witness_counts_shrink_with_collusion(
        self, small_trace, longest_yard
    ):
        results = witness_experiment(
            small_trace,
            longest_yard,
            coalition_sizes=[1, 4],
            coalitions_per_size=4,
            frame_stride=40,
        )
        assert results[1].avg_honest_proxies <= results[0].avg_honest_proxies


class TestChurn:
    @pytest.fixture(scope="class")
    def stats(self, medium_trace, longest_yard):
        return churn_statistics(medium_trace, longest_yard)

    def test_turnover_meaningful(self, stats):
        """A large share of the IS changes within a proxy period.

        The paper measures ~50 % over human Quake III play; our bots are
        twitchier, so turnover runs higher — the design consequence
        (retention timeouts, not per-frame subscriptions) is the same.
        """
        assert 0.15 <= stats.turnover_after_period <= 0.97

    def test_long_spells_rare(self, stats):
        """<10 % of spells last more than 300 frames (paper)."""
        assert stats.spells_longer_than_cap <= 0.2

    def test_frame_stability_high(self, stats):
        """~88 % of the IS persists frame to frame (paper)."""
        assert stats.frame_stability >= 0.75

    def test_slow_attention_centre_majority(self, stats):
        """~83 % of IS entries are not instantly the attention centre."""
        assert stats.slow_attention_centre >= 0.5

    def test_mean_spell_positive(self, stats):
        assert stats.mean_spell_frames > 1.0
