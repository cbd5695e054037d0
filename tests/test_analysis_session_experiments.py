"""Tests for session-driven experiment harnesses (Figs. 6, 7; Table I;
scalability; report rendering)."""

import pytest

from repro.analysis import (
    cheat_matrix_experiment,
    client_server_kbps,
    figure7_experiment,
    naive_p2p_node_kbps,
    scalability_experiment,
    update_age_experiment,
)
from repro.analysis.cheat_matrix import TABLE1_ROWS
from repro.analysis.report import (
    render_cheat_matrix,
    render_churn,
    render_detection,
    render_exposure,
    render_scalability,
    render_table,
    render_update_age,
    render_witnesses,
)
from repro.net.latency import king_like, peerwise_like


#: Full-session integration tests: deselect with `-m "not slow"`.
pytestmark = pytest.mark.slow


class TestUpdateAge:
    @pytest.fixture(scope="class")
    def results(self, small_trace, longest_yard):
        size = len(small_trace.player_ids())
        return [
            update_age_experiment(small_trace, longest_yard, latency)
            for latency in (king_like(size), peerwise_like(size))
        ]

    def test_both_latency_sets(self, small_trace, longest_yard):
        names = [r.latency_name for r in figure7_experiment(small_trace, longest_yard)]
        assert any("king" in n for n in names)
        assert any("peerwise" in n for n in names)

    def test_pdf_normalised(self, results):
        for result in results:
            assert sum(result.pdf.values()) == pytest.approx(1.0)

    def test_figure7_shape(self, results):
        """Most updates arrive within 2 frames; ≥95 % under the 150 ms cap."""
        for result in results:
            assert result.cdf_at(2) > 0.90
            assert result.stale_fraction < 0.05

    def test_by_kind_covers_three_types(self, results):
        for result in results:
            assert {"state", "guidance", "position"} <= set(result.by_kind)

    def test_bandwidth_reported(self, results):
        for result in results:
            assert result.mean_upload_kbps > 0


class TestScalability:
    @pytest.fixture(scope="class")
    def points(self, longest_yard):
        return scalability_experiment(
            [4, 8, 12], num_frames=60, game_map=longest_yard
        )

    def test_point_per_count(self, points):
        assert [p.num_players for p in points] == [4, 8, 12]

    def test_client_server_formula(self):
        assert client_server_kbps(48) == pytest.approx(5760.0)

    def test_naive_p2p_linear_per_node(self):
        assert naive_p2p_node_kbps(20) > naive_p2p_node_kbps(10)

    def test_watchmen_grows_slower_than_naive(self, points):
        """The multi-resolution scheme beats full-mesh streaming."""
        small, large = points[0], points[-1]
        watchmen_growth = large.watchmen_mean_kbps / max(
            1e-9, small.watchmen_mean_kbps
        )
        naive_growth = large.naive_p2p_node_kbps / small.naive_p2p_node_kbps
        assert watchmen_growth < naive_growth

    def test_watchmen_node_cheaper_than_hosting_server(self, points):
        for point in points:
            assert point.watchmen_max_kbps < point.client_server_kbps

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            scalability_experiment([])


class TestCheatMatrix:
    @pytest.fixture(scope="class")
    def outcomes(self, small_trace, longest_yard):
        return cheat_matrix_experiment(small_trace, longest_yard)

    def test_all_table1_rows_present(self, outcomes):
        assert [o.cheat_name for o in outcomes] == [r[0] for r in TABLE1_ROWS]

    def test_every_cheat_countered(self, outcomes):
        """Table I's promise: every row is detected/prevented/minimised."""
        for outcome in outcomes:
            assert outcome.status in (
                "detected",
                "prevented",
                "exposure-minimised",
                "contained",
            ), f"{outcome.cheat_name}: {outcome.status} ({outcome.evidence})"

    def test_flow_cheats_detected(self, outcomes):
        by_name = {o.cheat_name: o for o in outcomes}
        for name in ("escaping", "time-cheat", "fast-rate", "blind-opponent"):
            assert by_name[name].status == "detected", by_name[name].evidence

    def test_crypto_cheats_prevented(self, outcomes):
        by_name = {o.cheat_name: o for o in outcomes}
        assert by_name["spoof"].status == "prevented"
        assert by_name["replay"].status == "prevented"
        assert by_name["consistency"].status == "prevented"

    def test_access_cheats_minimised(self, outcomes):
        by_name = {o.cheat_name: o for o in outcomes}
        for name in ("sniffing", "maphack", "rate-analysis"):
            assert by_name[name].status in ("exposure-minimised", "prevented")


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[2:])) <= 2

    def test_render_table_validates_width(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["1", "2"]])

    def test_render_update_age(self, small_trace, longest_yard):
        result = update_age_experiment(
            small_trace, longest_yard, king_like(8, seed=1)
        )
        text = render_update_age([result])
        assert "king" in text
        assert "stale" in text

    def test_render_all_experiments_smoke(
        self, small_trace, medium_trace, longest_yard
    ):
        from repro.analysis import (
            churn_statistics,
            exposure_experiment,
            witness_experiment,
        )
        from repro.analysis.detection import DetectionOutcome

        exposure = exposure_experiment(
            small_trace, longest_yard, [1, 2], coalitions_per_size=2,
            frame_stride=80,
        )
        assert "watchmen" in render_exposure(exposure)

        witnesses = witness_experiment(
            small_trace, longest_yard, [1], coalitions_per_size=2,
            frame_stride=80,
        )
        assert "honest proxy" in render_witnesses(witnesses)

        outcome = DetectionOutcome("position", "speed-hack", 3.0, 10, 9, 0.01)
        assert "90%" in render_detection([outcome])

        stats = churn_statistics(medium_trace, longest_yard)
        assert "IS turnover" in render_churn(stats)

        points = scalability_experiment([4], num_frames=40)
        assert "players" in render_scalability(points)

    def test_render_cheat_matrix_smoke(self):
        from repro.analysis.cheat_matrix import CheatOutcome

        outcome = CheatOutcome(
            "spoof", "invalid", "Detected by players", "prevented",
            "12 signature failures", 12, 10,
        )
        text = render_cheat_matrix([outcome])
        assert "spoof" in text and "prevented" in text
