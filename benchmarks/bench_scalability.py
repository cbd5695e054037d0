"""Bandwidth scalability: Watchmen vs naive P2P vs centralized hosting.

Sweeps the player count and reports per-node upload, against the paper's
background numbers (centralized Quake III ≈ 120·n kbps; naive P2P grows
linearly per node / quadratically in total).
"""

from repro.analysis import scalability_experiment
from repro.analysis.report import render_scalability

from conftest import SMOKE, publish

PLAYER_COUNTS = [4, 8, 12] if SMOKE else [8, 16, 24, 32]
NUM_FRAMES = 60 if SMOKE else 120
SEED = 5


def test_scalability_bandwidth(yard, results_dir):
    points = scalability_experiment(
        PLAYER_COUNTS, num_frames=NUM_FRAMES, game_map=yard, seed=SEED
    )
    body = render_scalability(points)
    body += (
        "\n(centralized server column is the 120·n kbps literature figure; "
        "Watchmen keeps per-node upload in broadband range as n grows)\n"
    )
    metrics: dict[str, float] = {}
    for point in points:
        metrics[f"watchmen_mean_kbps.n{point.num_players}"] = point.watchmen_mean_kbps
        metrics[f"watchmen_max_kbps.n{point.num_players}"] = point.watchmen_max_kbps
    publish(
        results_dir,
        "scalability",
        "Bandwidth scalability sweep",
        body,
        params={
            "seed": SEED,
            "players": PLAYER_COUNTS,
            "frames": NUM_FRAMES,
            "smoke": SMOKE,
        },
        metrics=metrics,
    )

    small, large = points[0], points[-1]
    # Watchmen per-node growth is sub-linear vs naive P2P's linear growth.
    watchmen_growth = large.watchmen_mean_kbps / max(1e-9, small.watchmen_mean_kbps)
    naive_growth = large.naive_p2p_node_kbps / small.naive_p2p_node_kbps
    assert watchmen_growth < naive_growth
    for point in points:
        assert point.watchmen_max_kbps < point.client_server_kbps
