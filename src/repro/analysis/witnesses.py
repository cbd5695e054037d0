"""Figure 5: information about cheaters available to honest witnesses.

"we measure, for a given cheater, the average number of honest players
that: act as proxy for him, have him in their IS, or have him in their
VS" — plus the in-text honest-proxy probability ("even when a player
colludes with 3 other cheaters (out of 48 players), he is assigned an
honest proxy in 94 % of the cases (1 − 3/47) and 10 players on average
witness his actions").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.watchmen_model import WatchmenModel
from repro.cheats.collusion import sample_coalitions
from repro.core.proxy import ProxySchedule
from repro.game.gamemap import GameMap
from repro.game.interest import InteractionRecency, InterestConfig
from repro.game.trace import GameTrace

__all__ = ["WitnessResult", "witness_experiment", "honest_proxy_probability"]

#: Coalitions of size k are sampled on RNG seed ``COALITION_SEED + k``.
COALITION_SEED = 2


@dataclass(frozen=True)
class WitnessResult:
    """Average honest-witness counts per cheater for one coalition size."""

    coalition_size: int
    avg_honest_proxies: float  # 0..1 (one proxy per player)
    avg_interest_witnesses: float  # honest players with the cheater in IS
    avg_vision_witnesses: float  # honest players with the cheater in VS

    @property
    def total_witnesses(self) -> float:
        return (
            self.avg_honest_proxies
            + self.avg_interest_witnesses
            + self.avg_vision_witnesses
        )


def honest_proxy_probability(num_players: int, coalition_size: int) -> float:
    """Analytic P[cheater gets an honest proxy]: 1 − (k−1)/(n−1)."""
    if num_players < 2:
        raise ValueError("need at least two players")
    if not 1 <= coalition_size <= num_players:
        raise ValueError("coalition size out of range")
    return 1.0 - (coalition_size - 1) / (num_players - 1)


def witness_experiment(
    trace: GameTrace,
    game_map: GameMap,
    coalition_sizes: list[int],
    coalitions_per_size: int = 8,
    frame_stride: int = 20,
) -> list[WitnessResult]:
    """Measure witness availability per coalition size over a trace."""
    interest = InterestConfig()
    players = trace.player_ids()
    recency = InteractionRecency()
    for shot in trace.shots:
        recency.record(shot.shooter_id, shot.target_id, shot.frame)
    schedule = ProxySchedule(players)
    model = WatchmenModel(game_map, schedule, interest, recency)

    results = []
    for size in coalition_sizes:
        coalitions = sample_coalitions(
            players, size, coalitions_per_size, COALITION_SEED + size
        )
        proxy_sum = 0.0
        interest_sum = 0.0
        vision_sum = 0.0
        samples = 0
        for frame in range(0, trace.num_frames, max(1, frame_stride)):
            snapshots = trace.frames[frame]
            model.prepare_frame(frame, snapshots)
            for coalition in coalitions:
                honest = [p for p in players if p not in coalition.members]
                for cheater in coalition.members:
                    proxy = model.proxy_of(cheater)
                    proxy_sum += 1.0 if proxy not in coalition.members else 0.0
                    interest_count = 0
                    vision_count = 0
                    for observer in honest:
                        sets = model.sets_of(observer)
                        if cheater in sets.interest:
                            interest_count += 1
                        elif cheater in sets.vision:
                            vision_count += 1
                    interest_sum += interest_count
                    vision_sum += vision_count
                    samples += 1
        samples = max(1, samples)
        results.append(
            WitnessResult(
                coalition_size=size,
                avg_honest_proxies=proxy_sum / samples,
                avg_interest_witnesses=interest_sum / samples,
                avg_vision_witnesses=vision_sum / samples,
            )
        )
    return results
