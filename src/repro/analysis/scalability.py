"""Bandwidth scalability (Section II/VI background numbers).

Three curves versus player count:

- **client/server**: the server uploads ≈ 120·n kbps (the documented
  Quake III average) — fine for a datacenter, fatal for a player-hosted
  server;
- **naive P2P**: every player sends every update to every other player —
  per-node upload grows linearly in n (total quadratic);
- **Watchmen**: per-node upload measured from real sessions — bounded by
  the interest model (IS capped at 5) plus 1 Hz guidance/position traffic
  and proxy forwarding, so it grows far slower than naive P2P.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import (
    FRAME_SECONDS,
    FREQUENT_INTERVAL_FRAMES,
    HEADER_BITS,
    STATE_UPDATE_BITS,
)
from repro.core.protocol import WatchmenSession
from repro.game.gamemap import GameMap, make_longest_yard
from repro.game.simulator import generate_trace
from repro.net.latency import king_like

__all__ = [
    "ScalabilityPoint",
    "scalability_experiment",
    "client_server_kbps",
    "naive_p2p_node_kbps",
]

CENTRALIZED_KBPS_PER_PLAYER = 120.0  # "12n kbps" per [5] — 120·n in kbps


def client_server_kbps(num_players: int) -> float:
    """Server upload for a centralized deployment (≈120·n kbps)."""
    if num_players < 0:
        raise ValueError("num_players must be non-negative")
    return CENTRALIZED_KBPS_PER_PLAYER * num_players


def naive_p2p_node_kbps(num_players: int) -> float:
    """Per-node upload if every player streamed state to everyone."""
    updates_per_second = 1.0 / (FRAME_SECONDS * FREQUENT_INTERVAL_FRAMES)
    bits_per_update = STATE_UPDATE_BITS + HEADER_BITS
    return (num_players - 1) * updates_per_second * bits_per_update / 1000.0


@dataclass(frozen=True)
class ScalabilityPoint:
    """Measured and analytic bandwidth for one player count."""

    num_players: int
    watchmen_mean_kbps: float
    watchmen_max_kbps: float
    naive_p2p_node_kbps: float
    client_server_kbps: float


def scalability_experiment(
    player_counts: list[int],
    num_frames: int = 200,
    seed: int = 5,
    game_map: GameMap | None = None,
) -> list[ScalabilityPoint]:
    """Measure Watchmen per-node upload across player counts."""
    if not player_counts:
        raise ValueError("need at least one player count")
    game_map = game_map or make_longest_yard()
    points = []
    for count in player_counts:
        trace = generate_trace(
            num_players=count,
            num_frames=num_frames,
            seed=seed,
            game_map=game_map,
        )
        session = WatchmenSession(
            trace, game_map=game_map, latency=king_like(count, seed=seed)
        )
        report = session.run()
        points.append(
            ScalabilityPoint(
                num_players=count,
                watchmen_mean_kbps=report.mean_upload_kbps,
                watchmen_max_kbps=report.max_upload_kbps,
                naive_p2p_node_kbps=naive_p2p_node_kbps(count),
                client_server_kbps=client_server_kbps(count),
            )
        )
    return points
